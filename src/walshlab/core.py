"""Truth tables, ANF parsing, and the exact integer Walsh-Hadamard transform.

A Boolean function f on n variables is stored as a packed bit vector: bit i
of ``TruthTable.bits`` is f(x) for x the n-bit binary representation of i,
with variable ``X_j`` carried by index bit j-1 (X_1 is least significant).
Spectra hold the unnormalised correlations c(a) = 2^n * W_f(a), which are
exact 64-bit integers for every arity this library supports.

``walsh_transform`` is a few float GEMMs in two cache-blocked passes over its
own int64 result, as in Bailey's "FFTs in external or hierarchical memory"
(J. Supercomputing, 1990). A 2^m-point axis is R = 2^a rows of C = 2^b points,
C = 2^min(m, 14) one ``_CHUNK``. Until a row is written, its 8C-byte slot of
the result holds 2C float32s: the first half is free and the second stages
the row's partial sums.

The bits of each pass are split into blocks of at most 4 bits
(``_block_widths``). A block k bits wide at bit offset s is one batched left
product ``H @ x.reshape(-1, 2^k, 2^s)``, H the cached 2^k x 2^k
Sylvester-Hadamard matrix; at s = 0 it may be the right product
``x.reshape(-1, 2^k) @ H``.

- Pass 1 runs the high a bits across the rows, a panel of columns at a time:
  2^14 points, but at least 128 columns wide. It makes the +-1 signs straight
  from the packed truth table into the free halves of rows 0 and 1, eight
  points a byte through the read-only 256 x 8 table ``_SIGNS``, runs the blocks
  there, and the block at bit 0 writes the staging halves. Above m = 21 the
  panels outgrow those halves and take two buffers of a 128th of the result.
  At m <= 14 there is one row, and pass 1 is only the gather into its staging.
- Pass 2 runs the low b bits a slot at a time, the blocks alternating between
  its two halves. The lowest block, the widest, writes the int64 row over the
  slot in pieces, in the order that overwrites only floats already read.

So a transform holds its result, the packed table (an eighth of a byte a point)
and scratch of at most a 64th of the result: about 8 bytes a point from
m = 15 up. ``_walsh_spectra`` runs batched rows through the same passes, a
slot holding up to 2^14 points of whole rows.

Every input entry is -1, 0 or 1, so after the blocks over any s of the bits
each entry is a partial Walsh sum of 2^s of them, an integer of size at most
2^s. float32 holds every integer up to 2^24 and float64 up to 2^53. Pass 1
covers at most 14 bits, and above m = 14 the last block is 4 bits wide, so for
every m <= N_MAX the blocks before it cover at most 24 bits; the last one sums
in float32 up to m = 24 (the default dense cap) and in float64 above. Every
product is therefore exact in any summation order.
"""
from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# Hard arity limit: correlations and their squares fit in int64.
N_MAX = 28
DEFAULT_DENSE_CAP = 24
# Largest transform exponent whose last block sums in float32, which holds every
# integer up to 2^24; longer transforms sum their last block in float64.
_F32_MAX_N = 24
# Points in one row of the two-pass transform, which runs its low bits in cache
_CHUNK = 1 << 14
# (-1)^(bit j of v) at [v, j]: the signs of the eight points a truth-table byte v holds
_SIGNS = np.where((np.arange(256)[:, None] >> np.arange(8)) & 1, -1, 1).astype(np.float32)
_SIGNS.flags.writeable = False

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
        # no full-size |c| temporary, and -int(min) is exact for INT64_MIN too
        return max(int(self.corr.max()), -int(self.corr.min())) ** 2

    def parseval_holds(self) -> bool:
        """Whether the squares sum to 4^n, exactly and in O(_CHUNK) extra memory."""
        # every |c| <= 2^n; -int(min) is exact for INT64_MIN too
        if max(int(self.corr.max()), -int(self.corr.min())) > self.size:
            return False
        # c = hi * 2^16 + lo with 0 <= lo < 2^16: over a block of 2^14 points the three
        # dot products stay below 2^46 for every n <= N_MAX, so none wraps in int64
        total = 0
        for start in range(0, self.size, _CHUNK):
            c = self.corr[start : start + _CHUNK]
            hi, lo = c >> 16, c & 0xFFFF
            total += (int(hi @ hi) << 32) + (int(hi @ lo) << 17) + int(lo @ lo)
        return total == 4**self.n


def _transform_bits(size: int) -> int:
    """m for a transform axis of length 2^m; ValueError naming any other length."""
    if size < 1 or size & (size - 1):
        raise ValueError(f"transform length {size} is not a power of two")
    return size.bit_length() - 1


@functools.cache
def _hadamard(k: int, dtype: type) -> np.ndarray:
    """The 2^k x 2^k Sylvester-Hadamard matrix (-1)^<i,j> in ``dtype``, read-only."""
    i = np.arange(1 << k)
    h = np.where(np.bitwise_count(i[:, None] & i) & 1, -1, 1).astype(dtype)
    h.flags.writeable = False  # shared by every later transform
    return h


@functools.cache
def _block_widths(m: int) -> tuple[int, ...]:
    """ceil(m/4) near-equal widths that sum to m, at most 4 bits each, wider ones first."""
    q = max(1, -(-m // 4))
    return tuple(m // q + (i < m % q) for i in range(q))


class _Plan(NamedTuple):
    """The fixed parts of a 2^m-point transform; the module docstring has the passes."""

    a: int  # 2^a rows of 2^b points, a row at most one chunk
    b: int
    panel: int  # columns in one panel of pass 1
    high: tuple  # pass 1's (factor, operand shape) blocks, the one at bit 0 last
    low: tuple  # pass 2's blocks above the lowest, which is the right product by ``last``
    last: np.ndarray
    step: int  # points in one float product of the lowest block


@functools.cache
def _plan(m: int) -> _Plan:
    b = min(m, _CHUNK.bit_length() - 1)
    a = m - b
    R, C = 1 << a, 1 << b
    # 2^14-point panels, but at least 128 columns (512 bytes of each row) wide: narrower
    # ones split pass 1's lowest block into many tiny GEMMs
    P = C >> min(a, 7)
    high, s = [], 0
    for w in _block_widths(a):
        high.append((_hadamard(w, np.float32), (R >> (s + w), 1 << w, P << s)))
        s += w
    k, *widths = _block_widths(b)
    low, s = [], k
    for w in widths:
        low.append((_hadamard(w, np.float32), (-1, 1 << w, 1 << s)))
        s += w
    last = _hadamard(k, np.float32 if m <= _F32_MAX_N else np.float64)
    # a slot at once when it is the whole transform, else at most 2^(m-5) points,
    # whose float products take a 64th of the result's size
    step = C >> max(0, 5 - a) if a else _CHUNK
    return _Plan(a, b, P, tuple(high[::-1]), tuple(low), last, step)


def _spectra(out: np.ndarray, fill) -> np.ndarray:
    """Write exact Walsh spectra along the last axis of the C-contiguous int64 ``out``.

    ``fill(dst, r, j, spare)`` writes into the 2-d float32 ``dst`` the input
    values of rows r, r+1, ... of the input seen as rows of 2^b points, from
    column j on. ``spare`` is a free 1-d float32 array of at least a quarter
    of dst's size. The passes, the staging and why they are exact are in the
    module docstring.
    """
    a, b, P, high, low, last, step = _plan(_transform_bits(out.shape[-1]))
    R, C = 1 << a, 1 << b
    rows = out.reshape(-1, C)
    if a:  # pass 1: the high a bits of each input, across its R rows, a panel at a time
        *inner, (h_last, shape_last) = high  # the block at bit 0 writes the staging
        for first in range(0, len(rows), R):
            slots = rows[first : first + R].view(np.float32).reshape(R, 2, C)
            # the first halves of rows 0 and 1 are free until pass 2 writes those rows;
            # above m = 21 the panels outgrow them
            x, y = slots[:2, 0, : R * P] if R * P <= C else np.empty((2, R * P), dtype=np.float32)
            blocks, u, v = [], x, y
            for h, shape in inner:
                blocks.append((h, u.reshape(shape), v.reshape(shape)))
                u, v = v, u
            panel, src = x.reshape(R, P), u.reshape(shape_last)
            for j in range(0, C, P):
                fill(panel, first, j, y)
                for h, operand, result in blocks:
                    np.matmul(h, operand, out=result)
                np.matmul(h_last, src, out=slots[:, 1, j : j + P].reshape(shape_last))
    # pass 2: the low b bits, a slot of whole rows (one row above 2^14 points) at a time
    g = _CHUNK >> b  # rows in one slot
    k = len(last).bit_length() - 1
    for r in range(0, len(rows), g):
        slot = rows[r : r + g].reshape(-1)
        f = slot.view(np.float32)
        free, staged = f[: slot.size], f[slot.size :]
        if not a:  # pass 1 is only the gather
            fill(staged.reshape(-1, C), r, 0, free)
        u, v = staged, free
        for h, shape in low:
            np.matmul(h, u.reshape(shape), out=v.reshape(shape))
            u, v = v, u
        # The lowest block writes the int64 slot a piece at a time, each product made
        # before it is stored. Point i of the slot takes bytes 8i..8i+8 of it, where floats
        # 2i and 2i+1 lay, so pieces stored upwards from the second half, or downwards
        # from the first, overwrite only floats that earlier pieces have read.
        pieces = u.reshape(-1, min(step, slot.size) >> k, 1 << k)
        dst = slot.reshape(pieces.shape)
        for i in range(len(pieces)) if u is staged else range(len(pieces) - 1, -1, -1):
            dst[i] = pieces[i] @ last
    return out


def _walsh_spectra(signs: np.ndarray) -> np.ndarray:
    """Exact int64 Walsh spectra along the last axis of ``signs``, which is not written.

    Entries must be integers whose partial sums stay within 2^24 (the +-1
    signs of functions, or 0/1 indicators). Leading axes are independent
    transforms, whose rows go through the same two passes.
    """
    signs = np.asarray(signs)
    src = signs.reshape(-1, 1 << _plan(_transform_bits(signs.shape[-1])).b)

    def fill(dst, r, j, spare):
        dst[...] = src[r : r + len(dst), j : j + dst.shape[1]]

    return _spectra(np.empty(signs.shape, dtype=np.int64), fill)


def walsh_transform(f: TruthTable) -> Spectrum:
    """Exact integer Walsh spectrum of f by the two passes of the module docstring.

    The +-1 signs are made from the packed truth table, eight points a byte,
    and every partial sum is staged inside the int64 result. Besides that
    result the transform holds the packed table and scratch of at most a 64th
    of the result's size, so from n = 15 up it peaks near 8 bytes a point.
    """
    check_dense(f.n)
    raw = np.frombuffer(f.bits.to_bytes((f.size + 7) // 8, "little"), dtype=np.uint8)
    raw = raw.reshape(1 << _plan(f.n).a, -1)
    signs = _SIGNS[:, : f.size]  # below n = 3 a byte holds fewer than eight points

    def fill(dst, r, j, spare):
        h, nb = len(dst), -(-dst.shape[1] // 8)
        idx = spare[: 2 * h * nb].view(np.intp).reshape(h, nb)  # so take converts no index
        np.copyto(idx, raw[r : r + h, j >> 3 : (j >> 3) + nb])
        signs.take(idx, axis=0, out=dst.reshape(h, nb, -1), mode="clip")

    return Spectrum(f.n, _spectra(np.empty(f.size, dtype=np.int64), fill))


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
    check_dense(expr.n)
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
