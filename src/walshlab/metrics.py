"""Spectral metrics: entropy, min-entropy, influence, classification, ratios.

Every metric is exact, and one number type holds them all: ``LogLinear``,
the real (K + sum of e_p * log2 p) / D over odd primes p, with integers K,
e_p and D (``log2_terms`` splits log2 of an integer that way). Influence is
rational, with a denominator dividing 4^n. Min-entropy is log2 of the
rational 4^n / max c^2. Entropy is (2n * 4^n - sum of c^2 * log2 c^2) / 4^n,
summed over the distinct levels of |c|, each term times its multiplicity
(``entropy_of_levels``). A ratio is one of them divided by the influence.

In lowest terms (as :meth:`LogLinear.of` builds them) equal values have
equal fields, and ``compare`` orders unequal values exactly. ``value`` is the
correctly rounded binary64 value, computed on first use. Both read integer
enclosures of 2^prec * ln p at doubling precision (``_ln_bounds``), built
from the standard library's ``decimal``: its ln is correctly rounded, so the
nearest integer to its scaled value, widened by one unit each way, always
holds the true value. ``as_str`` writes the exact value and
``LogLinear.parse`` reads it back.

Every metric reads one pass over the spectrum (``_scan``). It reads blocks
of ``core._CHUNK`` points (the whole spectrum up to n = 14) through one
reused int64 buffer: |c| and its range check, the levels, c^2 weighted by
the point's weight for the influence, and, when c(0) = 0, the least weight
of a nonzero point. A block starts at a multiple of its power-of-two length,
so a point's weight is the block start's plus its offset's, and one cached
table of offset weights serves every block. Levels below 2^(ceil(n/2) + 4)
or up to ``core._CHUNK`` (so every level of a one-block spectrum) go in a
``bincount`` histogram. The rest, at most 4^n / 2^(2*ceil(n/2) + 8) <= 2^(n-8)
points by Parseval, are kept exactly and counted with ``np.unique``; the
pass stops early once they alone are too many for Parseval. So besides its
result it holds one block buffer, the histogram and those few points,
whatever the function. Parseval is then checked exactly over both kinds of
level, in Python integers.
"""
from __future__ import annotations

import decimal
import functools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .core import _CHUNK, Spectrum, TruthTable, popcounts


class SpectrumError(ValueError):
    """A spectrum has an odd or out-of-range entry or fails Parseval; the data is corrupted."""


# Holds every distinct level |c| of an n = 24 spectrum (about 5,000), so that
# repeated entropies at that size hit the cache instead of factoring again.
@functools.lru_cache(maxsize=1 << 16)
def log2_terms(c: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(a, ((p, e), ...)) with log2 c = a + sum of e * log2 p over odd primes p; c >= 1."""
    a = (c & -c).bit_length() - 1
    q, p, odd = c >> a, 3, []
    r = math.isqrt(q)
    if r * r == q > 1:  # a square factors through its root, so c^2 costs no more than c
        _, root = log2_terms(r)
        return a, tuple((p, 2 * e) for p, e in root)
    while p * p <= q:
        e = 0
        while q % p == 0:
            q, e = q // p, e + 1
        if e:
            odd.append((p, e))
        p += 2
    if q > 1:
        odd.append((q, 1))
    return a, tuple(odd)


_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
_IRRATIONAL = re.compile(r"\((-?[0-9]+)((?: [+-] [0-9]+\*log2\([0-9]+\))+)\)/([0-9]+)")
_TERM = re.compile(r" ([+-]) ([0-9]+)\*log2\(([0-9]+)\)")


@functools.total_ordering
@dataclass(frozen=True)
class LogLinear:
    """The exact real (const + sum of coef * log2 p) / den, p over odd primes.

    Every metric has this form, because |c| = 2^a * q with q odd. 1 and the
    log2 p are linearly independent over Q, so in lowest terms (as :meth:`of`
    builds them) two values are equal exactly when their fields are, and a
    value is rational exactly when ``logs`` is empty. Unequal values are
    ordered by their correctly rounded binary64 values, or when those
    coincide by interval enclosures at doubling precision, which always
    separate them. The arithmetic is what the composition rules need: sums,
    products and quotients with rationals, and log2 of a positive rational.
    """

    const: int
    logs: tuple[tuple[int, int], ...]  # (odd prime, nonzero coefficient), ascending primes
    den: int  # > 0, coprime to the gcd of const and the coefficients

    @classmethod
    def of(cls, const: int, logs: dict[int, int], den: int) -> "LogLinear":
        if den == 0:
            raise ZeroDivisionError("LogLinear with a zero denominator")
        g = math.gcd(const, den, *logs.values()) * (1 if den > 0 else -1)
        if g != 1:
            const, den, logs = const // g, den // g, {p: e // g for p, e in logs.items()}
        return cls(const, tuple(sorted([t for t in logs.items() if t[1]])), den)

    @classmethod
    def from_fraction(cls, q: Fraction | int) -> "LogLinear":
        q = Fraction(q)
        return cls(q.numerator, (), q.denominator)

    @classmethod
    def log2(cls, q: Fraction | int) -> "LogLinear":
        """log2 of a positive rational."""
        if q.numerator <= 0:
            raise ValueError("log2 of a non-positive value")
        a, num = log2_terms(q.numerator)
        b, den = log2_terms(q.denominator)  # coprime to the numerator: no prime in both
        return cls.of(a - b, {**dict(num), **{p: -e for p, e in den}}, 1)

    @classmethod
    def parse(cls, text: str) -> "LogLinear":
        """The value that :meth:`as_str` writes as ``text``; ValueError for any other string."""
        m = _RATIONAL.fullmatch(text)
        if m is not None:
            const, logs, den = int(m[1]), {}, int(m[2] or 1)
        else:
            m = _IRRATIONAL.fullmatch(text)
            if m is None:
                raise ValueError(f"not an exact value: {text!r}")
            const, logs, den = int(m[1]), {}, int(m[3])
            for sign, e, p in _TERM.findall(m[2]):
                p = int(p)  # every level |c| <= 2^28 has only prime factors below 2^32
                if not (2 < p < 1 << 32 and log2_terms(p) == (0, ((p, 1),))):
                    raise ValueError(f"{text!r}: {p} is not an odd prime below 2^32")
                logs[p] = int(sign + e)
        if den == 0:
            raise ValueError(f"{text!r}: zero denominator")
        value = cls.of(const, logs, den)
        if value.as_str() != text:
            raise ValueError(f"{text!r} is not written as as_str writes {value.as_str()!r}")
        return value

    def as_str(self) -> str:
        """"k" or "num/den" for a rational, else "(K - 60*log2(3) + 4*log2(5))/D"."""
        if not self.logs:
            return str(self.const) if self.den == 1 else f"{self.const}/{self.den}"
        terms = "".join([f" {'-' if e < 0 else '+'} {abs(e)}*log2({p})" for p, e in self.logs])
        return f"({self.const}{terms})/{self.den}"

    def __add__(self, other: "LogLinear") -> "LogLinear":
        logs = {p: e * other.den for p, e in self.logs}
        for p, e in other.logs:
            logs[p] = logs.get(p, 0) + e * self.den
        return LogLinear.of(self.const * other.den + other.const * self.den, logs, self.den * other.den)

    def _scale(self, num: int, den: int) -> "LogLinear":
        return LogLinear.of(self.const * num, {p: e * num for p, e in self.logs}, self.den * den)

    def __mul__(self, q: Fraction | int) -> "LogLinear":
        """The product with a rational."""
        return self._scale(q.numerator, q.denominator)

    def __truediv__(self, q: Fraction | int) -> "LogLinear":
        """The quotient by a nonzero rational."""
        return self._scale(q.denominator, q.numerator)

    @property
    def rational(self) -> Fraction | None:
        return None if self.logs else Fraction(self.const, self.den)

    @functools.cached_property
    def value(self) -> float:
        """The correctly rounded binary64 value."""
        if not self.logs:
            return self.const / self.den  # int / int rounds correctly
        prec = _start_prec(self.const, self.logs, self.den)
        while True:
            lo, hi = _enclose(self.const, self.logs, prec)
            ln2_lo, ln2_hi = _ln_bounds(2, prec)
            if lo >= 0:
                lo, hi = lo / (self.den * ln2_hi), hi / (self.den * ln2_lo)
            elif hi <= 0:
                lo, hi = lo / (self.den * ln2_lo), hi / (self.den * ln2_hi)
            if lo == hi:  # both bounds rounded alike, and rounding is monotone
                return lo
            prec *= 2

    def compare(self, other: "LogLinear") -> int:
        """Exact three-way comparison: -1, 0 or 1."""
        if self == other:
            return 0
        if self.value != other.value:  # rounding is monotone, so this order is exact
            return 1 if self.value > other.value else -1
        d = self + other * -1  # den > 0, so the numerator has the sign of the difference
        prec = _start_prec(d.const, d.logs, 1)
        while True:  # ends: a nonzero value is eventually separated from 0
            lo, hi = _enclose(d.const, d.logs, prec)
            if lo > 0 or hi < 0:
                return 1 if lo > 0 else -1
            prec *= 2

    def __lt__(self, other: "LogLinear") -> bool:
        return self.compare(other) < 0


def _start_prec(const: int, logs, den: int) -> int:
    return 64 + max(abs(x).bit_length() for x in (const, den, *(e for _, e in logs)))


@functools.lru_cache(maxsize=1 << 10)
def _ln_bounds(p: int, prec: int) -> tuple[int, int]:
    """Integers (lo, hi) with lo <= 2^prec * ln p <= hi, for an integer p >= 2.

    ``decimal``'s ln is correctly rounded, so at d significant digits it is
    within half a unit in its last place of ln p. ln p < 10^k for the k digits
    of p's bit length, so that unit is at most 10^(k - d) <= 2^-prec here,
    and the scaled value is within 1/2 of 2^prec * ln p. Rounded to the nearest
    integer r, it is within 1, so r - 1 and r + 1 enclose it: a one-unit margin.
    """
    digits = prec // 3 + 1 + len(str(p.bit_length()))  # prec // 3 + 1 > prec * log10(2)
    num, den = decimal.Context(prec=digits).ln(p).as_integer_ratio()
    r = round(Fraction(num << prec, den))
    return r - 1, r + 1


def _enclose(const: int, logs, prec: int) -> tuple[int, int]:
    """Integers lo <= 2^prec * ln 2 * (const + sum of e * log2 p) <= hi."""
    lo = hi = 0
    for c, (a, b) in [(const, _ln_bounds(2, prec))] + [(e, _ln_bounds(p, prec)) for p, e in logs]:
        lo += c * (a if c > 0 else b)
        hi += c * (b if c > 0 else a)
    return lo, hi


def entropy_of_levels(n: int, levels: Iterable[int], counts: Iterable[int]) -> LogLinear:
    """(2n * 4^n - sum of count * c^2 * log2 c^2) / 4^n: the entropy of a spectrum
    with ``count`` points at each level |c| (a level 0 adds nothing).

    Summed as (n * 4^n - sum of count * c^2 * log2 |c|) / (4^n / 2), n >= 1.
    """
    tot = 4**n
    const, logs = n * tot, {}
    get = logs.get
    for v, k in zip(levels, counts):
        if v:
            a, odd = log2_terms(v)
            w = k * v * v
            const -= w * a
            for p, e in odd:
                logs[p] = get(p, 0) - w * e
    return LogLinear.of(const, logs, tot >> 1)


def ratio(numerator: LogLinear, influence: LogLinear) -> LogLinear | None:
    """numerator / influence, which must be rational; None at zero influence."""
    return numerator._scale(influence.den, influence.const) if influence.const else None


@dataclass(frozen=True)
class MetricsReport:
    """Full spectral profile of one Boolean function."""

    n: int
    weight: int
    balanced: bool
    resilience_order: int
    plateaued: bool
    plateau_level: int | None
    bent: bool
    entropy: LogLinear
    min_entropy: LogLinear
    influence: LogLinear
    max_corr_sq: int
    ei_ratio: LogLinear | None
    mei_ratio: LogLinear | None


@functools.cache
def _weights(size: int) -> np.ndarray:
    """Read-only popcounts of 0..size-1: the weights of the offsets within a scan block."""
    w = popcounts(size)
    w.flags.writeable = False  # shared by every later scan
    return w


@dataclass(frozen=True)
class _Scan:
    """What one pass over a checked spectrum finds, which every metric reads."""

    n: int
    levels: list[int]  # the distinct nonzero |c|, ascending
    counts: list[int]
    support: int
    weighted: int  # sum of wt(a) * c(a)^2
    resilience_order: int

    @property
    def influence(self) -> LogLinear:
        return LogLinear.of(self.weighted, {}, 4**self.n)

    @property
    def plateaued(self) -> bool:
        return len(self.levels) == 1

    @property
    def max_corr_sq(self) -> int:
        return self.levels[-1] ** 2


def _scan(s: Spectrum) -> _Scan:
    """Every metric's inputs from one pass over s.corr; raises SpectrumError on a corrupt spectrum.

    The module docstring gives the blocks, the level split and the checks.
    """
    n, size = s.n, s.size
    step = min(size, _CHUNK)
    w = _weights(step)
    buf = np.empty(step, dtype=np.int64)
    # Levels below this go in ``hist``: those up to _CHUNK (all of a one-block
    # spectrum's) or below 2^(ceil(n/2) + 4). At most 4^n / dense^2 points are above.
    dense = max(1 << ((n + 1) // 2 + 4), _CHUNK + 1)
    hist = np.zeros(0, dtype=np.int64)
    high: list[np.ndarray] = []
    n_high = weighted = 0
    least = n + 1 if s.corr[0] == 0 else 0  # least weight of a nonzero point, when c(0) = 0
    for start in range(0, size, step):
        a = np.abs(s.corr[start : start + step], out=buf)
        # As uint64, |INT64_MIN| (which stays negative) is also out of range.
        top = int(a.view(np.uint64).max())
        if top > size:
            raise SpectrumError(f"|c| reaches {top}, above 2^n = {size}; Parseval cannot hold")
        if top < dense:
            h = np.bincount(a)
        else:
            big = a >= dense
            high.append(a[big])
            n_high += high[-1].size
            if n_high * dense * dense > 4**n:
                raise SpectrumError(f"correlation squares sum to more than {4**n}")
            h = np.bincount(a[~big])
        if hist.size < h.size:
            hist, h = h, hist
        hist[: h.size] += h
        # start is a multiple of the power-of-two step, so wt(start + i) = wt(start) + wt(i)
        base = start.bit_count()
        if base < least:
            least = min(least, base + int(w[a != 0].min(initial=least)))
        np.multiply(a, a, out=a)
        # with Parseval no sum of c^2 wraps: they are at most 4^n <= 2^56
        weighted += base * int(a.sum()) + int(w @ a)
    levels = np.flatnonzero(hist[1:]) + 1
    counts = hist[levels].tolist()
    levels = levels.tolist()
    if high:
        v, k = np.unique(np.concatenate(high), return_counts=True)
        levels += v.tolist()
        counts += k.tolist()
    odd = [v for v in levels if v & 1]
    if odd:
        raise SpectrumError(f"|c| = {odd[0]} is odd; correlations of functions with n >= 1 are even")
    total = sum(k * v * v for k, v in zip(counts, levels))
    if total != 4**n:
        raise SpectrumError(f"correlation squares sum to {total}, expected {4**n}")
    return _Scan(n, levels, counts, size - int(hist[0]), weighted, least - 1)


def _min_entropy(p: _Scan) -> LogLinear:
    return LogLinear.log2(Fraction(4**p.n, p.max_corr_sq))


def entropy(s: Spectrum) -> LogLinear:
    """Shannon entropy of the squared-spectrum distribution, in bits.

    Rational exactly when every nonzero |c| is a power of two.
    """
    p = _scan(s)
    return entropy_of_levels(p.n, p.levels, p.counts)


def min_entropy(s: Spectrum) -> LogLinear:
    """-log2 of the largest squared normalised Walsh value."""
    return _min_entropy(_scan(s))


def influence_spectral(s: Spectrum) -> LogLinear:
    """Total influence from the weight-weighted squared spectrum; always exact."""
    return _scan(s).influence


def influence_probe(f: TruthTable) -> LogLinear:
    """Total influence by direct counting of output flips; always exact."""
    arr = f.bit_array()
    half_flips = 0
    for i in range(f.n):
        v = arr.reshape(-1, 2, 1 << i)
        half_flips += int(np.count_nonzero(v[:, 0, :] != v[:, 1, :]))
    return LogLinear.of(half_flips, {}, 1 << (f.n - 1))


def resilience_order(s: Spectrum) -> int:
    """Largest t with a zero spectrum on all points of weight <= t; -1 if unbalanced."""
    return _scan(s).resilience_order


def classify(s: Spectrum) -> MetricsReport:
    """All metrics, classification flags, and both conjecture ratios."""
    p = _scan(s)
    corr0 = int(s.corr[0])
    h = entropy_of_levels(p.n, p.levels, p.counts)
    hmin = _min_entropy(p)
    inf = p.influence
    return MetricsReport(
        n=s.n,
        weight=(s.size - corr0) // 2,
        balanced=corr0 == 0,
        resilience_order=p.resilience_order,
        plateaued=p.plateaued,
        plateau_level=p.levels[0] if p.plateaued else None,
        bent=p.plateaued and p.support == s.size,
        entropy=h,
        min_entropy=hmin,
        influence=inf,
        max_corr_sq=p.max_corr_sq,
        ei_ratio=ratio(h, inf),
        mei_ratio=ratio(hmin, inf),
    )
