"""Spectral metrics: entropy, min-entropy, influence, classification, ratios.

Everything that can be exact is exact: influence is always a rational with
denominator dividing 4^n, min-entropy is an integer whenever the largest
squared correlation is a power of two, and entropy is binary64 otherwise.
That binary64 value is the correctly rounded sum of the per-point terms
c^2 * log2(c^2), at every n: the terms are equal on points of equal |c|, so
the sum is taken exactly over the distinct levels of |c|, each term times
its multiplicity, and rounded once. It equals ``math.fsum`` over the points
and does not depend on the platform's ``long double``. ``ExactValue``
carries both the exact rational (when one exists) and a binary64 shadow.

Every metric reads one histogram of |c| (``_profile``), which also checks
the Parseval identity.

``LogLinear`` is the exact form of every sweep ratio: (K + sum of e_p *
log2 p) / D over odd primes p, with integers K, e_p and D (``log2_terms``
splits log2 of an integer that way). In lowest terms, equal values have
equal fields, and ``compare`` orders unequal values exactly. Its binary64
``value`` is correctly rounded. The entropy of ``classify`` is not yet
carried in this form.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from mpmath.libmp import from_int, mpf_log, round_ceiling, round_floor

from .core import Spectrum, TruthTable, popcounts


class SpectrumError(ValueError):
    """A spectrum has an odd or out-of-range entry or fails Parseval; the data is corrupted."""


@dataclass(frozen=True)
class ExactValue:
    """A number with a binary64 shadow and, when available, its exact rational."""

    value: float
    rational: Fraction | None = None

    @property
    def exact(self) -> bool:
        return self.rational is not None

    @classmethod
    def from_fraction(cls, q: Fraction | int) -> "ExactValue":
        q = Fraction(q)
        return cls(float(q), q)

    @classmethod
    def from_float(cls, x: float) -> "ExactValue":
        return cls(float(x))

    @classmethod
    def log2_of(cls, q: Fraction) -> "ExactValue":
        """log2 of a positive rational; exact when q is a power of two."""
        if q <= 0:
            raise ValueError("log2 of a non-positive value")
        num, den = q.numerator, q.denominator
        if num & (num - 1) == 0 and den & (den - 1) == 0:
            return cls.from_fraction(num.bit_length() - den.bit_length())
        return cls(math.log2(num) - math.log2(den))

    def __add__(self, other: "ExactValue") -> "ExactValue":
        if self.exact and other.exact:
            return ExactValue.from_fraction(self.rational + other.rational)
        return ExactValue.from_float(self.value + other.value)

    def __mul__(self, other: "ExactValue") -> "ExactValue":
        if self.exact and other.exact:
            return ExactValue.from_fraction(self.rational * other.rational)
        return ExactValue.from_float(self.value * other.value)

    def as_str(self) -> str:
        if self.rational is not None:
            q = self.rational
            return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
        return repr(self.value)


@functools.lru_cache(maxsize=1 << 12)
def log2_terms(c: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(a, ((p, e), ...)) with log2 c = a + sum of e * log2 p over odd primes p; c >= 1."""
    a = (c & -c).bit_length() - 1
    q, p, odd = c >> a, 3, []
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


@dataclass(frozen=True)
class LogLinear:
    """The exact real (const + sum of coef * log2 p) / den, p over odd primes.

    Every sweep ratio has this form, because |c| = 2^a * q with q odd. 1 and
    the log2 p are linearly independent over Q, so in lowest terms (as
    :meth:`of` builds them) two values are equal exactly when their fields
    are, and a value is rational exactly when ``logs`` is empty. Unequal
    values are ordered by their correctly rounded binary64 values, or when
    those coincide by interval enclosures at doubling precision, which
    always separate them.
    """

    const: int
    logs: tuple[tuple[int, int], ...]  # (odd prime, nonzero coefficient), ascending primes
    den: int  # > 0, coprime to the gcd of const and the coefficients

    @classmethod
    def of(cls, const: int, logs: dict[int, int], den: int) -> "LogLinear":
        if den == 0:
            raise ZeroDivisionError("LogLinear with a zero denominator")
        logs = {p: e for p, e in logs.items() if e}
        g = math.gcd(const, den, *logs.values()) * (1 if den > 0 else -1)
        return cls(const // g, tuple(sorted((p, e // g) for p, e in logs.items())), den // g)

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
        logs = {p: e * other.den for p, e in self.logs}
        for p, e in other.logs:
            logs[p] = logs.get(p, 0) - e * self.den
        const = self.const * other.den - other.const * self.den
        logs = tuple((p, e) for p, e in logs.items() if e)
        if not logs:
            return (const > 0) - (const < 0)
        prec = _start_prec(const, logs, 1)
        while True:  # ends: a nonzero value is eventually separated from 0
            lo, hi = _enclose(const, logs, prec)
            if lo > 0 or hi < 0:
                return 1 if lo > 0 else -1
            prec *= 2

    def __lt__(self, other: "LogLinear") -> bool:
        return self.compare(other) < 0


def _start_prec(const: int, logs, den: int) -> int:
    return 64 + max(abs(x).bit_length() for x in (const, den, *(e for _, e in logs)))


@functools.lru_cache(maxsize=1 << 10)
def _ln_bounds(p: int, prec: int) -> tuple[int, int]:
    """Integers (lo, hi) with lo <= 2^prec * ln p <= hi, from directed-rounding logs."""
    _, man, exp, _ = mpf_log(from_int(p), prec + 8, round_floor)
    lo = man << (exp + prec) if exp + prec >= 0 else man >> -(exp + prec)
    _, man, exp, _ = mpf_log(from_int(p), prec + 8, round_ceiling)
    hi = man << (exp + prec) if exp + prec >= 0 else -(-man >> -(exp + prec))
    return lo, hi


def _enclose(const: int, logs, prec: int) -> tuple[int, int]:
    """Integers lo <= 2^prec * ln 2 * (const + sum of e * log2 p) <= hi."""
    lo = hi = 0
    for c, (a, b) in [(const, _ln_bounds(2, prec))] + [(e, _ln_bounds(p, prec)) for p, e in logs]:
        lo += c * (a if c > 0 else b)
        hi += c * (b if c > 0 else a)
    return lo, hi


def ratio(numerator: ExactValue, denominator: ExactValue) -> ExactValue | None:
    """numerator/denominator, exact when both sides are; None when undefined."""
    if denominator.value == 0 and (denominator.rational is None or denominator.rational == 0):
        return None
    if numerator.exact and denominator.exact:
        return ExactValue.from_fraction(numerator.rational / denominator.rational)
    return ExactValue.from_float(numerator.value / denominator.value)


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
    entropy: ExactValue
    min_entropy: ExactValue
    influence: ExactValue
    max_corr_sq: int
    ei_ratio: ExactValue | None
    mei_ratio: ExactValue | None


@dataclass(frozen=True)
class _Profile:
    """Distinct nonzero levels of |c| with their point counts, of a checked spectrum."""

    n: int
    levels: list[int]  # ascending
    counts: list[int]
    support: int

    @property
    def plateaued(self) -> bool:
        return len(self.levels) == 1

    @property
    def max_corr_sq(self) -> int:
        return self.levels[-1] ** 2


def _profile(s: Spectrum) -> _Profile:
    """Histogram of |c| from one bincount; raises SpectrumError on a corrupt spectrum."""
    a = np.abs(s.corr)
    # As uint64, |INT64_MIN| (which stays negative) is also out of range.
    top = int(a.view(np.uint64).max())
    if top > s.size:
        raise SpectrumError(f"|c| reaches {top}, above 2^n = {s.size}; Parseval cannot hold")
    hist = np.bincount(a)
    levels = np.flatnonzero(hist[1:]) + 1
    counts = hist[levels].tolist()
    levels = levels.tolist()
    odd = [v for v in levels if v & 1]
    if odd:
        raise SpectrumError(f"|c| = {odd[0]} is odd; correlations of functions with n >= 1 are even")
    total = sum(k * v * v for k, v in zip(counts, levels))
    if total != 4**s.n:
        raise SpectrumError(f"correlation squares sum to {total}, expected {4**s.n}")
    return _Profile(s.n, levels, counts, s.size - int(hist[0]))


def _entropy(p: _Profile) -> ExactValue:
    if p.plateaued and p.support & (p.support - 1) == 0:
        return ExactValue.from_fraction(p.support.bit_length() - 1)
    v = np.array(p.levels, dtype=np.float64)
    terms = (v * v) * (2.0 * np.log2(v))
    # Exact sum of count * term over the levels (all dyadic), rounded once.
    parts = [t.as_integer_ratio() for t in terms.tolist()]
    den = max(d for _, d in parts)
    acc = sum(k * num * (den // d) for k, (num, d) in zip(p.counts, parts)) / den
    return ExactValue.from_float(2 * p.n - acc / float(4**p.n))


def _min_entropy(p: _Profile) -> ExactValue:
    return ExactValue.log2_of(Fraction(4**p.n, p.max_corr_sq))


def _influence(s: Spectrum) -> ExactValue:
    # weight(r*C + c) = weight(r) + weight(c) on the R x C view of the points
    cols = 1 << (s.n // 2)
    m = s.corr.reshape(-1, cols)
    rows = np.einsum("rc,rc->r", m, m)
    col_sums = np.einsum("rc,rc->c", m, m)
    total = int(popcounts(m.shape[0]) @ rows + col_sums @ popcounts(cols))
    return ExactValue.from_fraction(Fraction(total, 4**s.n))


def _resilience(s: Spectrum) -> int:
    if s.corr[0] != 0:
        return -1
    return int(np.bitwise_count(np.flatnonzero(s.corr)).min()) - 1


def entropy(s: Spectrum) -> ExactValue:
    """Shannon entropy of the squared-spectrum distribution, in bits.

    Exact only in the plateaued case with a power-of-two support, where it
    equals log2(support size); otherwise the correctly rounded binary64 value
    of 2n - sum(c^2 * log2(c^2)) / 4^n.
    """
    return _entropy(_profile(s))


def min_entropy(s: Spectrum) -> ExactValue:
    """-log2 of the largest squared normalised Walsh value."""
    return _min_entropy(_profile(s))


def influence_spectral(s: Spectrum) -> ExactValue:
    """Total influence from the weight-weighted squared spectrum; always exact."""
    _profile(s)
    return _influence(s)


def influence_probe(f: TruthTable) -> ExactValue:
    """Total influence by direct counting of output flips; always exact."""
    arr = f.bit_array()
    half_flips = 0
    for i in range(f.n):
        v = arr.reshape(-1, 2, 1 << i)
        half_flips += int(np.count_nonzero(v[:, 0, :] != v[:, 1, :]))
    return ExactValue.from_fraction(Fraction(half_flips, 1 << (f.n - 1)))


def resilience_order(s: Spectrum) -> int:
    """Largest t with a zero spectrum on all points of weight <= t; -1 if unbalanced."""
    _profile(s)
    return _resilience(s)


def classify(s: Spectrum) -> MetricsReport:
    """All metrics, classification flags, and both conjecture ratios."""
    p = _profile(s)
    corr0 = int(s.corr[0])
    h = _entropy(p)
    hmin = _min_entropy(p)
    inf = _influence(s)
    return MetricsReport(
        n=s.n,
        weight=(s.size - corr0) // 2,
        balanced=corr0 == 0,
        resilience_order=_resilience(s),
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
