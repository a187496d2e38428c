import random

import numpy as np
import pytest

from walshlab.core import TruthTable


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def random_table(rng: random.Random, n: int) -> TruthTable:
    return TruthTable(n, rng.getrandbits(1 << n))


def random_balanced(rng: random.Random, n: int) -> TruthTable:
    points = list(range(1 << n))
    rng.shuffle(points)
    bits = 0
    for x in points[: 1 << (n - 1)]:
        bits |= 1 << x
    return TruthTable(n, bits)


def reference_butterfly(a: np.ndarray) -> np.ndarray:
    """Radix-2 butterfly in int64, one strided pass per level, on a copy of the last axis."""
    a = a.astype(np.int64)
    size = a.shape[-1]
    h = 1
    while h < size:
        v = a.reshape(a.shape[:-1] + (-1, 2, h))
        x, y = v[..., 0, :].copy(), v[..., 1, :].copy()
        v[..., 0, :] = x + y
        v[..., 1, :] = x - y
        h *= 2
    return a
