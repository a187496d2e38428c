"""Composition-based constructions and their analytic spectra and metrics.

Covers plain and block (disjoint) composition of truth tables, the exact
Walsh values of a disjoint composition with a balanced inner function, the
min-entropy of such compositions, and the palindromic single-variable
extension: ``palindromic_extend`` returns the extended table and
``palindromic_spectrum`` its spectrum, read off the base spectrum.

Both analytic reports are one fold over a composition chain f1 o ... o fd,
started at its innermost factor: the iterated self-composition of m steps
is the chain of m + 1 copies of g, and the n(n+1)-variable construction is
the chain g_b o g. The fold never materialises a table: a 30-variable
composed function is described exactly by its 5-variable seed's spectrum
alone. Every reported value is an exact ``LogLinear``: influence
multiplies, entropy composes as H(f) + Inf(f) * H(g), and min-entropy is
log2 of the exact composition peak, so each rule is an identity, not an
approximation.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .core import Spectrum, TruthTable, check_dense, popcounts, reverse, walsh_transform
from .metrics import LogLinear, classify

_CHUNK = 1 << 20


class UnbalancedFunctionError(ValueError):
    """An operation requiring a balanced function received an unbalanced one."""


@dataclass(frozen=True)
class VectorialFunction:
    """A tuple of coordinate functions, optionally in disjoint-block form.

    In general form every component reads all n input variables. With
    ``block_width = l`` component i reads only input block i, the l
    variables X_{(i-1)l+1} .. X_{il}, and the total arity is k*l.
    """

    components: tuple[TruthTable, ...]
    block_width: int | None = None

    def __post_init__(self):
        if not self.components:
            raise ValueError("vectorial function needs at least one component")
        arities = {c.n for c in self.components}
        if len(arities) != 1:
            raise ValueError(f"component arities differ: {sorted(arities)}")
        if self.block_width is not None and arities != {self.block_width}:
            raise ValueError("block form requires every component on block_width variables")

    @property
    def k(self) -> int:
        return len(self.components)

    @property
    def n(self) -> int:
        if self.block_width is not None:
            return self.k * self.block_width
        return self.components[0].n


@dataclass(frozen=True)
class CompositionSpec:
    """Disjoint composition: k copies of ``inner`` feeding ``outer``."""

    outer: TruthTable
    inner: TruthTable

    @property
    def arity(self) -> int:
        return self.outer.n * self.inner.n


def compose_vectorial(f: TruthTable, g: VectorialFunction) -> TruthTable:
    """Evaluate f(g_1(x), ..., g_k(x)) pointwise."""
    if f.n != g.k:
        raise ValueError(f"outer arity {f.n} != component count {g.k}")
    n = g.n
    check_dense(n)
    size = 1 << n
    comp = [c.bit_array() for c in g.components]
    f_arr = f.bit_array()
    out = np.empty(size, dtype=np.uint8)
    l = g.block_width
    mask = (1 << l) - 1 if l is not None else 0
    for lo in range(0, size, _CHUNK):
        x = np.arange(lo, min(lo + _CHUNK, size), dtype=np.int64)
        sel = np.zeros(x.size, dtype=np.int64)
        for i, arr in enumerate(comp):
            bits = arr[(x >> (i * l)) & mask] if l is not None else arr[x]
            sel |= bits.astype(np.int64) << i
        out[lo : lo + x.size] = f_arr[sel]
    return TruthTable.from_array(out, n)


def disjoint_compose(spec: CompositionSpec) -> TruthTable:
    """Materialise the disjoint composition; block i is the i-th input slice."""
    g = VectorialFunction((spec.inner,) * spec.outer.n, block_width=spec.inner.n)
    return compose_vectorial(spec.outer, g)


def _require_balanced(*spectra: Spectrum) -> None:
    if any(int(s.corr[0]) for s in spectra):
        raise UnbalancedFunctionError("analytic composition requires a balanced inner function")


def disjoint_walsh(
    u: int,
    spec: CompositionSpec,
    outer_spectrum: Spectrum | None = None,
    inner_spectrum: Spectrum | None = None,
) -> Fraction:
    """Exact Walsh value of the disjoint composition at point u.

    The point factors through the block pattern: only the outer value at the
    nonzero-block indicator and the inner values on the nonzero blocks enter.
    Spectra may be passed in to amortise transforms over many points.
    """
    fs = outer_spectrum if outer_spectrum is not None else walsh_transform(spec.outer)
    gs = inner_spectrum if inner_spectrum is not None else walsh_transform(spec.inner)
    k, l = spec.outer.n, spec.inner.n
    if (fs.n, gs.n) != (k, l):
        raise ValueError(f"spectra of arities ({fs.n}, {gs.n}) passed for factors of arities ({k}, {l})")
    _require_balanced(gs)
    if not 0 <= u < 1 << (k * l):
        raise ValueError(f"point {u} out of range for arity {k * l}")
    mask = (1 << l) - 1
    w = 0
    prod = Fraction(1)
    for i in range(k):
        block = (u >> (i * l)) & mask
        if block:
            w |= 1 << i
            prod *= Fraction(int(gs.corr[block]), 1 << l)
    return Fraction(int(fs.corr[w]), 1 << k) * prod


def disjoint_spectrum(spec: CompositionSpec) -> Spectrum:
    """Dense exact spectrum of the composition, without materialising it.

    c(u) = c_f(w) * 2^(l*(k - wt(w)) - k) * prod over the nonzero blocks b of
    c_g(b), with w the pattern of nonzero blocks of u. Correlations are even,
    so this is c_f(w) times a product of one factor per block: 2^(l-1) for a
    zero block and c_g(b)/2 for a nonzero one. Viewing the points as a cube
    with one axis of 2^l per block, the spectrum is c_f on the (2,)^k cube
    with each axis expanded by that factor, one whole-array pass per block,
    the last of them written in place into the result. All steps are exact.
    """
    fs = walsh_transform(spec.outer)
    gs = walsh_transform(spec.inner)
    _require_balanced(gs)
    k, l = spec.outer.n, spec.inner.n
    n = k * l
    check_dense(n)
    out = np.empty(1 << n, dtype=np.int64)
    half = gs.corr[1:, None] >> 1
    cur = fs.corr  # axis k-1-i of a cube is block i, as in the point index
    for axis in reversed(range(k)):
        lead, tail = 1 << axis, 1 << (l * (k - 1 - axis))
        src = cur.reshape(lead, 2, tail)
        shape = (lead, 1 << l, tail)
        cur = out.reshape(shape) if axis == 0 else np.empty(shape, dtype=np.int64)
        np.left_shift(src[:, :1], l - 1, out=cur[:, :1])
        np.multiply(src[:, 1:], half, out=cur[:, 1:])
    return Spectrum(n, out)


@dataclass(frozen=True)
class CompositionPeak:
    """Largest squared Walsh value of a composition, with its witness."""

    best: Fraction
    weight_class: int
    witness: int  # outer spectral point attaining the per-class maximum


def composition_peak(outer_spectrum: Spectrum, inner_peak: Fraction) -> CompositionPeak:
    """The largest squared normalised Walsh value of f o h, for a balanced inner h.

    A point of f o h whose nonzero blocks have pattern w has W_f(w)^2 times
    one factor W_h(b)^2 <= ``inner_peak`` per nonzero block b, and every
    block reaches ``inner_peak`` (h is balanced, so W_h(0) = 0). So the peak
    is a_i * inner_peak^i maximised over the weight classes i, with a_i the
    largest squared normalised outer value on weight-i points. Ties break to
    the smallest weight class and then the smallest point index.
    """
    k = outer_spectrum.n
    wt = popcounts(outer_spectrum.size)
    c2 = outer_spectrum.corr**2
    maxima = np.zeros(k + 1, dtype=np.int64)
    np.maximum.at(maxima, wt, c2)
    num, den = inner_peak.numerator, inner_peak.denominator
    # a_i * inner_peak^i over the common denominator 4^k * den^k
    keys = [m * num**i * den ** (k - i) for i, m in enumerate(maxima.tolist())]
    i = keys.index(max(keys))
    m_i = int(maxima[i])
    witness = int(np.argmax((wt == i) & (c2 == m_i)))
    return CompositionPeak(Fraction(m_i * num**i, 4**k * den**i), i, witness)


def disjoint_min_entropy(spec: CompositionSpec) -> LogLinear:
    """Min-entropy of the composition from its factors' dense spectra."""
    fs = walsh_transform(spec.outer)
    gs = walsh_transform(spec.inner)
    _require_balanced(gs)
    peak = composition_peak(fs, Fraction(gs.max_corr_sq, 4**spec.inner.n))
    return LogLinear.log2(1 / peak.best)


# --- Analytic reports ---------------------------------------------------------

INFLUENCE_PRODUCT = "influence-product-rule"
ENTROPY_COMPOSITION = "entropy-composition-rule"
COMPOSITION_MIN_ENTROPY = "composition-min-entropy"
ITERATED_MIN_ENTROPY = "iterated-composition-min-entropy"
PALINDROMIC_INFLUENCE = "palindromic-influence"
RESILIENT_PLATEAUED_FORM = "resilient-plateaued-closed-form"


@dataclass(frozen=True)
class AnalyticReport:
    """Metrics of a composed function, each field tagged with its producing rule.

    Every report composes a balanced seed, so the influence is at least 1 and
    both ratios exist.
    """

    arity: int
    influence: LogLinear
    entropy: LogLinear
    min_entropy: LogLinear
    ei_ratio: LogLinear
    mei_ratio: LogLinear
    provenance: dict[str, str] = field(default_factory=dict)
    details: dict[str, str] = field(default_factory=dict)


def epsilon_mass(s: Spectrum, b: int) -> Fraction:
    """Squared spectral mass on points whose weight is incongruent to b mod 2."""
    wt = popcounts(s.size)
    sel = (wt & 1) != b
    c = s.corr[sel]
    return Fraction(int(np.dot(c, c)), 4**s.n)


def palindromic_extend(g: TruthTable, b: int) -> TruthTable:
    """Append one variable: concatenate g with (the complement of, when b=1) its reversal."""
    if b not in (0, 1):
        raise ValueError("b must be 0 or 1")
    top = reverse(g)
    if b == 1:
        top = top.complement()
    return TruthTable(g.n + 1, g.bits | (top.bits << g.size))


def palindromic_spectrum(s: Spectrum, b: int) -> Spectrum:
    """The spectrum of g's palindromic extension g_b, from g's spectrum s.

    c_gb(a + t * 2^n) = 2 * c_g(a) when t = b + wt(a) (mod 2), else 0. It is
    dense at n + 1 variables, so the dense cap applies as to a transform.
    """
    if b not in (0, 1):
        raise ValueError("b must be 0 or 1")
    n = s.n + 1
    check_dense(n)
    top = (popcounts(s.size) + b) & 1  # the t at which c_gb(a + t * 2^n) is nonzero
    return Spectrum(n, 2 * np.concatenate([s.corr * (1 - top), s.corr * top]))


def _fold(
    factors: list[tuple[Spectrum, Fraction, LogLinear]],
) -> tuple[Fraction, LogLinear, LogLinear, CompositionPeak | None]:
    """Influence, entropy and min-entropy of the chain f1 o f2 o ... o fd, and its last peak step.

    ``factors`` gives each f_j as (spectrum, influence, entropy), outermost
    first. Each step needs a balanced inner chain, and a chain is balanced
    when its outermost factor is, so every factor but f1 must be balanced;
    so must a lone f1, a report's seed. The fold starts at fd and composes
    one factor f over the chain so far per step, by O'Donnell and Tan's
    composition rules in exact arithmetic:
    influence multiplies, H <- H(f) + Inf(f) * H, and the peak is
    ``composition_peak`` of f's spectrum and the inner chain's peak.
    """
    _require_balanced(*(s for s, _, _ in factors[1:] or factors))
    s, influence, h = factors[-1]
    peak, step = Fraction(s.max_corr_sq, 4**s.n), None
    for s, inf_f, h_f in reversed(factors[:-1]):
        step = composition_peak(s, peak)
        influence, h, peak = inf_f * influence, h_f + h * inf_f, step.best
    return influence, h, LogLinear.log2(1 / peak), step


def _report(
    arity: int, influence: Fraction, h: LogLinear, hmin: LogLinear, provenance: dict[str, str], details: dict[str, str]
) -> AnalyticReport:
    return AnalyticReport(
        arity, LogLinear.from_fraction(influence), h, hmin, h / influence, hmin / influence, provenance, details
    )


def ot_recursion_metrics(g: TruthTable, m: int) -> AnalyticReport:
    """Metrics of the m-th iterated disjoint self-composition of a balanced g.

    The iterate G_(j+1) = g o G_j is the chain of m + 1 copies of g, so every
    field is exact for every balanced g and m >= 0.
    """
    if m < 0:
        raise ValueError("iteration count must be >= 0")
    gs = walsh_transform(g)
    rep = classify(gs)
    influence, h, hmin, _ = _fold([(gs, rep.influence.rational, rep.entropy)] * (m + 1))
    provenance = {
        "influence": INFLUENCE_PRODUCT,
        "entropy": ENTROPY_COMPOSITION,
        "min_entropy": ITERATED_MIN_ENTROPY,
    }
    return _report(g.n ** (m + 1), influence, h, hmin, provenance, {})


def gb_construction_report(g: TruthTable, b: int) -> AnalyticReport:
    """Metrics of the n(n+1)-variable composition g_b o g, for a balanced g.

    Both factors enter through g's spectrum alone: g_b's spectrum is g's,
    banded and doubled (``palindromic_spectrum``), so g_b has g's entropy and
    influence Inf(g) + epsilon_b. When g is plateaued and exactly t-resilient
    with t = b (mod 2), the closed-form ratio Hmin(g) * (t + 3) / (Inf(g) *
    Inf(g_b)) for that case is evaluated and its exact agreement recorded.
    """
    gs = walsh_transform(g)
    rep = classify(gs)
    inf_g, h_g = rep.influence.rational, rep.entropy
    eps = epsilon_mass(gs, b)
    influence, h, hmin, peak = _fold([(palindromic_spectrum(gs, b), inf_g + eps, h_g), (gs, inf_g, h_g)])
    details = {
        "epsilon_b": str(eps),
        "min-entropy-weight-class": str(peak.weight_class),
        "min-entropy-witness": format(peak.witness, f"0{g.n + 1}b"),
    }
    provenance = {
        "influence": f"{INFLUENCE_PRODUCT}+{PALINDROMIC_INFLUENCE}",
        "entropy": ENTROPY_COMPOSITION,
        "min_entropy": COMPOSITION_MIN_ENTROPY,
    }
    t = rep.resilience_order
    if t >= 0 and t % 2 == b and rep.plateaued:
        closed = rep.min_entropy * (t + 3) / influence
        details["resilience-order"] = str(t)
        details["closed-form-ratio"] = closed.as_str()
        details["closed-form-agrees"] = str(hmin / influence == closed).lower()
        provenance["closed_form"] = RESILIENT_PLATEAUED_FORM
    return _report(g.n * (g.n + 1), influence, h, hmin, provenance, details)
