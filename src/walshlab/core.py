"""Truth tables, ANF parsing, and the exact integer Walsh-Hadamard transform.

A Boolean function f on n variables is stored as a packed bit vector: bit i
of ``TruthTable.bits`` is f(x) for x the n-bit binary representation of i,
with variable ``X_j`` carried by index bit j-1 (X_1 is least significant).
Spectra hold the unnormalised correlations c(a) = 2^n * W_f(a), which are
exact 64-bit integers for every arity this library supports.

``walsh_transform`` takes one of two exact paths, chosen by arity:

- Up to ``_GEMM_MAX_N`` variables the spectrum is H_R . X . H_C, two float32
  matrix products: X is the +-1 signs viewed as an R x C array with
  C = 2^floor(n/2), and H_R, H_C are Sylvester-Hadamard matrices. Every
  partial sum of either product is an integer with |.| <= 2^n <= 2^15, and
  float32 holds every integer up to 2^24, so the products are exact in any
  summation order. The result is cast to int64 once.
- Above it, the in-place butterfly of ``fwht_inplace`` runs in int32: every
  partial sum is bounded by |c| <= 2^n <= 2^28, and the doubled operand of a
  butterfly step by 2^29, both below 2^31 at ``N_MAX``. The result is
  widened to int64 once, when it is stored in ``Spectrum.corr``.
"""
from __future__ import annotations

import functools
import re
from dataclasses import dataclass

import numpy as np

# Hard arity limit: the int32 butterfly never exceeds 2^29, and correlations
# and their squares fit in int64.
N_MAX = 28
DEFAULT_DENSE_CAP = 24
# Largest arity transformed by two GEMMs; from n=16 up the butterfly is as
# fast or faster on one BLAS thread (measured crossover table in CHANGES.md).
_GEMM_MAX_N = 15

_dense_cap = DEFAULT_DENSE_CAP


class DenseCapExceeded(ValueError):
    """Raised when a dense 2^n-point operation is requested above the cap."""

    def __init__(self, n: int, cap: int):
        self.n = n
        self.cap = cap
        super().__init__(
            f"arity {n} exceeds the dense transform cap {cap}; "
            f"raise it with set_dense_cap (max {N_MAX}) or use the analytic paths"
        )


def dense_cap() -> int:
    return _dense_cap


def set_dense_cap(n: int) -> None:
    """Set the dense transform cap. Memory grows as 8 bytes * 2^n."""
    global _dense_cap
    if not 1 <= n <= N_MAX:
        raise ValueError(f"dense cap must be in [1, {N_MAX}], got {n}")
    _dense_cap = n


def check_dense(n: int) -> None:
    """Raise DenseCapExceeded when a dense 2^n-point array is above the cap."""
    if n > _dense_cap:
        raise DenseCapExceeded(n, _dense_cap)


def popcounts(size: int) -> np.ndarray:
    """Bit counts of 0..size-1 as an int64 array."""
    return np.bitwise_count(np.arange(size, dtype=np.uint64)).astype(np.int64)


def _check_arity(n: int) -> None:
    if not 1 <= n <= N_MAX:
        raise ValueError(f"arity must be in [1, {N_MAX}], got {n}")


@dataclass(frozen=True)
class TruthTable:
    """An n-variable Boolean function as a packed 2^n-bit integer."""

    n: int
    bits: int

    def __post_init__(self):
        _check_arity(self.n)
        if not 0 <= self.bits < (1 << self.size):
            raise ValueError("bit vector does not fit 2^n bits")

    @property
    def size(self) -> int:
        return 1 << self.n

    @property
    def weight(self) -> int:
        return self.bits.bit_count()

    @property
    def balanced(self) -> bool:
        return self.weight == self.size // 2

    def value(self, x: int) -> int:
        return (self.bits >> x) & 1

    def complement(self) -> "TruthTable":
        return TruthTable(self.n, self.bits ^ ((1 << self.size) - 1))

    def bit_array(self) -> np.ndarray:
        """Outputs f(0..2^n-1) as a uint8 array."""
        raw = np.frombuffer(self.bits.to_bytes((self.size + 7) // 8, "little"), dtype=np.uint8)
        return np.unpackbits(raw, bitorder="little", count=self.size)

    def signs(self) -> np.ndarray:
        """(-1)^f as an int32 array."""
        return 1 - 2 * self.bit_array().astype(np.int32)

    def to_hex(self) -> str:
        return format(self.bits, f"0{max(1, self.size // 4)}x")

    @classmethod
    def from_hex(cls, text: str, n: int) -> "TruthTable":
        _check_arity(n)
        digits = max(1, (1 << n) // 4)
        text = text.strip().lower()
        if len(text) != digits:
            raise ValueError(f"expected {digits} hex digits for n={n}, got {len(text)}")
        if not re.fullmatch("[0-9a-f]+", text):
            raise ValueError(f"truth table {text!r} is not plain hex digits 0-9a-f")
        return cls(n, int(text, 16))

    @classmethod
    def from_bits(cls, values, n: int | None = None) -> "TruthTable":
        """Build from an iterable of 0/1 outputs indexed by input point."""
        vals = list(values)
        if n is None:
            n = (len(vals) - 1).bit_length()
        if len(vals) != 1 << n:
            raise ValueError(f"expected {1 << n} outputs, got {len(vals)}")
        bits = 0
        for i, v in enumerate(vals):
            if v not in (0, 1):
                raise ValueError(f"output at index {i} is not a bit: {v!r}")
            bits |= v << i
        return cls(n, bits)

    @classmethod
    def from_array(cls, arr: np.ndarray, n: int) -> "TruthTable":
        """Build from a 1-d array of the 2^n outputs, each 0 or 1."""
        if arr.shape != (1 << n,):
            raise ValueError(f"expected {1 << n} outputs, got shape {arr.shape}")
        if not ((arr == 0) | (arr == 1)).all():
            raise ValueError("outputs must be 0 or 1")
        packed = np.packbits(arr.astype(np.uint8), bitorder="little").tobytes()
        return cls(n, int.from_bytes(packed, "little"))


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Integer correlations c(a) = sum_x (-1)^(f(x) xor <x,a>) = 2^n * W_f(a)."""

    n: int
    corr: np.ndarray

    def __post_init__(self):
        corr = np.ascontiguousarray(self.corr, dtype=np.int64)
        corr.flags.writeable = False
        object.__setattr__(self, "corr", corr)
        if corr.shape != (1 << self.n,):
            raise ValueError(f"expected {1 << self.n} correlations, got shape {corr.shape}")

    @property
    def size(self) -> int:
        return 1 << self.n

    @property
    def max_corr_sq(self) -> int:
        return int(np.abs(self.corr).max()) ** 2

    def parseval_holds(self) -> bool:
        # Python ints: an int64 dot product wraps once some |c| reaches 2^32
        return sum(c * c for c in self.corr.tolist()) == 4**self.n


def _butterfly_rows(m: np.ndarray) -> None:
    """Butterfly levels over axis -2 of ``m`` (..., R, C), each step on whole rows."""
    lead = m.shape[:-2]
    rows, cols = m.shape[-2:]
    h = 1
    while h < rows:
        v = m.reshape(lead + (-1, 2, h * cols))
        top = v[..., 0, :]
        bot = v[..., 1, :]
        top += bot  # top' = x + y
        bot *= -2
        bot += top  # x + y - 2y = x - y
        h *= 2


def _transform_bits(size: int) -> int:
    """m for a transform axis of length 2^m; ValueError naming any other length."""
    if size < 1 or size & (size - 1):
        raise ValueError(f"transform length {size} is not a power of two")
    return size.bit_length() - 1


def fwht_inplace(a: np.ndarray) -> np.ndarray:
    """In-place integer Walsh-Hadamard butterfly along the last axis.

    Any leading axes are independent transforms; the dtype must hold 2^m
    times the largest input for a last axis of 2^m. The axis is viewed as
    R x C with R*C = 2^m: the high index bits are transformed with
    whole-row operations, the array is transposed once into a scratch copy,
    the low bits are transformed there, again on whole rows, and the result
    is copied back. Applying it twice multiplies the input by its length.
    """
    size = a.shape[-1]
    cols = 1 << (_transform_bits(size) // 2)
    m = a.reshape(a.shape[:-1] + (size // cols, cols))
    _butterfly_rows(m)
    t = np.ascontiguousarray(m.swapaxes(-1, -2))
    _butterfly_rows(t)
    m[...] = t.swapaxes(-1, -2)
    return m.reshape(a.shape)


@functools.cache
def _hadamard(k: int) -> np.ndarray:
    """The 2^k x 2^k Sylvester-Hadamard matrix (-1)^<i,j>, float32 and read-only."""
    i = np.arange(1 << k)
    h = np.where(np.bitwise_count(i[:, None] & i) & 1, -1, 1).astype(np.float32)
    h.flags.writeable = False  # shared by every later transform
    return h


def _walsh_spectra(signs: np.ndarray) -> np.ndarray:
    """Exact int64 Walsh spectra of the +-1 ``signs`` along the last axis.

    Leading axes are independent transforms. A last axis of 2^m points with
    m <= ``_GEMM_MAX_N`` is viewed as R x C, C = 2^floor(m/2), with the high
    index bits on the rows, and transformed as H_R . X . H_C in float32.
    Longer axes go through the int32 butterfly, which overwrites ``signs``.
    """
    m = _transform_bits(signs.shape[-1])
    if m > _GEMM_MAX_N:
        return fwht_inplace(signs).astype(np.int64)
    c = m // 2
    x = signs.astype(np.float32).reshape(signs.shape[:-1] + (1 << (m - c), 1 << c))
    # reshaping before the cast leaves the int64 result owning its memory, so a
    # read-only Spectrum.corr has no writeable base
    return (_hadamard(m - c) @ x @ _hadamard(c)).reshape(signs.shape).astype(np.int64)


def walsh_transform(f: TruthTable) -> Spectrum:
    """Exact integer Walsh spectrum of f: two Hadamard GEMMs or the O(n*2^n) butterfly."""
    check_dense(f.n)
    return Spectrum(f.n, _walsh_spectra(f.signs()))


def reverse(f: TruthTable) -> TruthTable:
    """Reverse the truth-table bit string; equals f(1+X_n, ..., 1+X_1)."""
    return TruthTable.from_array(f.bit_array()[::-1], f.n)


# --- Algebraic normal form ---------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(?P<var>[Xx](?P<idx>\d+))|(?P<one>1)|(?P<op>[+^⊕])|(?P<mul>[*·]))")


class AnfParseError(ValueError):
    """ANF syntax error carrying the offending position."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


@dataclass(frozen=True)
class AnfExpression:
    """XOR of monomials; each monomial is a set of 1-based variable indices.

    The empty monomial is the constant 1. An empty monomial set is the
    constant 0.
    """

    n: int
    monomials: frozenset[frozenset[int]]

    def __post_init__(self):
        _check_arity(self.n)
        for mono in self.monomials:
            for j in mono:
                if not 1 <= j <= self.n:
                    raise ValueError(f"variable X{j} out of range for n={self.n}")


def parse_anf(text: str, n: int) -> AnfExpression:
    """Parse ``X4X3 + X5X2`` style expressions (also ``^``, ``*``, lowercase)."""
    terms: list[frozenset[int]] = []
    current: set[int] | None = None
    saw_one = False
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            rest = text[pos:]
            if rest.strip() == "":
                break
            bad = pos + len(rest) - len(rest.lstrip())
            raise AnfParseError(f"unexpected character {text[bad]!r}", bad)
        if m.group("op"):
            if current is None and not saw_one:
                raise AnfParseError("monomial expected before '+'", pos)
            if current is not None:
                terms.append(frozenset(current))
            current, saw_one = None, False
        elif m.group("one"):
            if current:
                raise AnfParseError("constant 1 inside a monomial", pos)
            terms.append(frozenset())
            saw_one = True
        elif m.group("var"):
            idx = int(m.group("idx"))
            if current is None:
                current = set()
            current.add(idx)
        pos = m.end()
    if current is not None:
        terms.append(frozenset(current))
    elif not saw_one and not terms:
        raise AnfParseError("empty expression", pos)
    # XOR semantics: repeated monomials cancel pairwise
    acc: set[frozenset[int]] = set()
    for t in terms:
        acc.symmetric_difference_update({t})
    return AnfExpression(n, frozenset(acc))


def from_anf(expr: AnfExpression) -> TruthTable:
    """Materialise the truth table of an ANF via the subset-XOR transform."""
    size = 1 << expr.n
    coeff = np.zeros(size, dtype=np.uint8)
    for mono in expr.monomials:
        mask = 0
        for j in mono:
            mask |= 1 << (j - 1)
        coeff[mask] ^= 1
    h = 1
    a = coeff
    while h < size:
        a = a.reshape(-1, 2, h)
        a[:, 1, :] ^= a[:, 0, :]
        a = a.reshape(size)
        h *= 2
    return TruthTable.from_array(a, expr.n)


def table_from_anf(text: str, n: int) -> TruthTable:
    return from_anf(parse_anf(text, n))
