"""Truth tables, ANF parsing, and the exact integer Walsh-Hadamard transform.

A Boolean function f on n variables is stored as a packed bit vector: bit i
of ``TruthTable.bits`` is f(x) for x the n-bit binary representation of i,
with variable ``X_j`` carried by index bit j-1 (X_1 is least significant).
Spectra hold the unnormalised correlations c(a) = 2^n * W_f(a), which are
exact 64-bit integers for every arity this library supports.

``walsh_transform`` is a few float GEMMs. The m index bits of a 2^m-point
axis are split into ceil(m/4) near-equal blocks, the wider ones lowest. The
lowest block, k bits wide, is one right product ``x.reshape(-1, 2^k) @ H``; a
higher block at bit offset s is one batched left product
``H @ x.reshape(-1, 2^k, 2^s)``, where H is the cached 2^k x 2^k
Sylvester-Hadamard matrix. Every block but the last runs in float32 between
two alternating buffers. The last frees the spare one and writes the int64
result a chunk at a time, so a transform peaks at 12 bytes a point.

Every input entry is -1, 0 or 1, so after the blocks below bit s each entry is
a partial Walsh sum of 2^s of them, and every sum in a block's product is an
integer of size at most 2^(s+k). float32 holds every integer up to 2^24 and
float64 up to 2^53. The last block is the narrowest, so for every m <= N_MAX
the blocks before it cover at most 24 bits; the last one sums in float32 up
to m = 24 (the default dense cap) and in float64 above. Every product is
therefore exact in any summation order.
"""
from __future__ import annotations

import functools
import re
from dataclasses import dataclass

import numpy as np

# Hard arity limit: correlations and their squares fit in int64.
N_MAX = 28
DEFAULT_DENSE_CAP = 24
# Largest transform exponent whose last block sums in float32, which holds every
# integer up to 2^24; longer transforms sum their last block in float64.
_F32_MAX_N = 24
# Points in one chunk of the last block's product, bounding its float temporaries
_CHUNK = 1 << 14

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
        # Python ints: an int64 dot product wraps once some |c| reaches 2^32
        return sum(c * c for c in self.corr.tolist()) == 4**self.n


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


def _walsh_spectra(signs: np.ndarray) -> np.ndarray:
    """Exact int64 Walsh spectra along the last axis of ``signs``, which is not written.

    Entries must be -1, 0 or 1 (the +-1 signs of functions, or 0/1
    indicators). Leading axes are independent transforms. The blocks, their
    products and the exactness bound are in the module docstring.
    """
    m = _transform_bits(signs.shape[-1])
    return _spectra_of(np.array(signs, dtype=np.float32, order="C"), m)


def _spectra_of(x: np.ndarray, m: int) -> np.ndarray:
    """Spectra of the C-contiguous float32 operand ``x``, which is used as a work buffer."""
    shape = x.shape
    *widths, k = _block_widths(m)
    y, s = None, 0
    for w in widths:
        h = _hadamard(w, np.float32)
        if s:
            np.matmul(h, x.reshape(-1, 1 << w, 1 << s), out=y.reshape(-1, 1 << w, 1 << s))
            x, y = y, x
        else:  # the operand becomes the spare buffer
            x, y = x.reshape(-1, 1 << w) @ h, x
        s += w
    del y  # the spare buffer goes before the int64 result is made
    h = _hadamard(k, np.float32 if m <= _F32_MAX_N else np.float64)
    out = np.empty(shape, dtype=np.int64)
    if not s:
        out.reshape(-1, 1 << k)[...] = x.reshape(-1, 1 << k) @ h
        return out
    src, dst = x.reshape(-1, 1 << k, 1 << s), out.reshape(-1, 1 << k, 1 << s)
    step = max(1, _CHUNK // len(src) >> k)
    for j in range(0, 1 << s, step):
        dst[..., j : j + step] = h @ src[..., j : j + step]
    return out


def _float_signs(f: TruthTable) -> np.ndarray:
    """(-1)^f as a new float32 array: the signs are formed in the uint8 outputs, then cast once."""
    x = f.bit_array().view(np.int8)
    x *= -2
    x += 1
    return x.astype(np.float32)


def walsh_transform(f: TruthTable) -> Spectrum:
    """Exact integer Walsh spectrum of f by the blocked Hadamard GEMMs.

    The float32 +-1 operand is made by one float32 allocation, inside a helper
    call, and handed straight to ``_spectra_of``. That uses it as a work
    buffer and frees its spare buffer, often the operand, before it makes the
    int64 result. So no frame here may keep a reference to the operand: one
    would keep its 4 bytes a point alive and raise the transform's peak from
    12 to 16 bytes a point.
    """
    check_dense(f.n)
    return Spectrum(f.n, _spectra_of(_float_signs(f), f.n))


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
