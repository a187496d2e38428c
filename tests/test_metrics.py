import functools
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from walshlab.core import Spectrum, TruthTable, popcounts, table_from_anf, walsh_transform
from walshlab.metrics import (
    LogLinear,
    MetricsReport,
    SpectrumError,
    classify,
    entropy,
    influence_probe,
    influence_spectral,
    log2_terms,
    min_entropy,
    ratio,
    resilience_order,
)
from walshlab.report import QUINTIC_MAX_ANF, QUINTIC_SEED_ANF

from conftest import random_balanced, random_table


def spectrum_of(anf: str, n: int) -> Spectrum:
    return walsh_transform(table_from_anf(anf, n))


def parity(n: int) -> Spectrum:
    return walsh_transform(table_from_anf(" + ".join(f"X{j}" for j in range(1, n + 1)), n))


@functools.cache
def smallest_prime_factors() -> np.ndarray:
    """spf[v] = the smallest prime factor of v, for 2 <= v <= 2^20, by a sieve."""
    spf = np.arange((1 << 20) + 1)
    for p in range(2, 1 << 10):
        if spf[p] == p:
            multiples = spf[p * p :: p]
            np.minimum(multiples, p, out=multiples)
    return spf


def log2_sum(values: np.ndarray, weights: np.ndarray) -> tuple[int, dict[int, int]]:
    """(a, {p: e}) with sum of weights[i] * log2 values[i] = a + sum of e * log2 p over
    odd primes p, factoring every value on its own through the sieve."""
    spf = smallest_prime_factors()
    acc = np.zeros(spf.size, dtype=np.int64)
    v, w = values.astype(np.int64), weights.astype(np.int64)
    while v.size:
        p = spf[v]
        np.add.at(acc, p, w)
        v //= p
        keep = v > 1
        v, w = v[keep], w[keep]
    return int(acc[2]), {int(p): int(acc[p]) for p in np.flatnonzero(acc[3:]) + 3}


def reference_report(s: Spectrum) -> MetricsReport:
    """Every metric from its per-point formula: levels by np.unique, popcounts of
    every point, and the exact entropy 2n - sum of c^2 * log2 c^2 / 4^n summed point
    by point, each |c| factored on its own."""
    n, corr = s.n, s.corr
    assert int(np.dot(corr, corr)) == 4**n
    nz = np.abs(corr[corr != 0])
    levels = np.unique(nz)
    support = nz.size
    a, logs = log2_sum(nz, nz * nz)
    h = LogLinear.of(2 * n * 4**n - 2 * a, {p: -2 * e for p, e in logs.items()}, 4**n)
    peak = int(np.max(corr * corr))
    a, logs = log2_sum(np.array([math.isqrt(peak)]), np.array([2]))
    hmin = LogLinear.of(2 * n - a, {p: -e for p, e in logs.items()}, 1)
    wt = popcounts(s.size)
    inf = LogLinear.from_fraction(Fraction(int(np.dot(wt, corr * corr)), 4**n))
    plateaued = levels.size == 1
    return MetricsReport(
        n=n,
        weight=(s.size - int(corr[0])) // 2,
        balanced=int(corr[0]) == 0,
        resilience_order=int(wt[corr != 0].min()) - 1,
        plateaued=plateaued,
        plateau_level=int(levels[0]) if plateaued else None,
        bent=plateaued and support == s.size,
        entropy=h,
        min_entropy=hmin,
        influence=inf,
        max_corr_sq=peak,
        ei_ratio=ratio(h, inf),
        mei_ratio=ratio(hmin, inf),
    )


def metric_grid(rng, n: int, randoms: int) -> list[TruthTable]:
    """Random functions plus bent, affine, constant, plateaued non-bent and resilient ones."""
    fs = [random_table(rng, n) for _ in range(randoms)]
    fs += [TruthTable(n, 0), TruthTable(n, (1 << (1 << n)) - 1), random_balanced(rng, n) if n <= 16 else fs[0]]
    fs.append(table_from_anf(" + ".join(f"X{j}" for j in range(1, n + 1, 2)) + " + 1", n))  # affine
    pairs = " + ".join(f"X{j}X{j + 1}" for j in range(1, n, 2))
    if n % 2 == 0:
        fs.append(table_from_anf(pairs, n))  # bent
    elif n >= 3:
        fs.append(table_from_anf(pairs, n))  # plateaued, level 2^((n+1)/2)
    if n >= 4:
        fs.append(table_from_anf(f"X1 + X2 + X3X{n}", n))  # 1-resilient, plateaued
        fs.append(table_from_anf(f"X1X2X3 + X{n}", n))  # 0-resilient, not plateaued
    return fs


# --- LogLinear arithmetic, strings and parsing ---------------------------------------


def test_log_linear_rational_value():
    for q in (Fraction(7, 4), Fraction(128, 45), Fraction(-3, 7), Fraction(10**12, 7), Fraction(0)):
        v = LogLinear.from_fraction(q)
        assert v.rational == q and v == LogLinear.of(q.numerator, {}, q.denominator)
        assert v.value == float(q)  # int / int rounds correctly


def test_log_linear_log2():
    assert LogLinear.log2(Fraction(1, 16)) == LogLinear.from_fraction(-4)
    assert LogLinear.log2(8) == LogLinear.from_fraction(3)
    v = LogLinear.log2(Fraction(1024, 36))  # 256/9
    assert v == LogLinear.of(8, {3: -2}, 1) and v.rational is None
    assert v.value == float(_mp_value(v))
    # a square factors through its root: 65521 is prime
    assert LogLinear.log2(Fraction(65521**2, 4)) == LogLinear.of(-2, {65521: 2}, 1)
    for bad in (Fraction(0), Fraction(-1, 3)):
        with pytest.raises(ValueError):
            LogLinear.log2(bad)


def test_log_linear_arithmetic():
    a, b = LogLinear.from_fraction(Fraction(1, 3)), LogLinear.from_fraction(Fraction(1, 6))
    assert a + b == LogLinear.from_fraction(Fraction(1, 2))
    assert a * Fraction(1, 6) == LogLinear.from_fraction(Fraction(1, 18)) == a * 2 / 12
    log3 = LogLinear.log2(3)
    x = (log3 + a) * Fraction(3, 5)  # (3 log2 3 + 1) / 5
    assert x == LogLinear.of(1, {3: 3}, 5)
    assert x + LogLinear.of(-1, {3: -3}, 5) == LogLinear.from_fraction(0)
    assert x / Fraction(-3, 5) == LogLinear.of(-1, {3: -3}, 3)
    # against the rational coordinates on the basis 1, log2 3, log2 5, log2 7
    def coords(v: LogLinear) -> list[Fraction]:
        logs = dict(v.logs)
        return [Fraction(v.const, v.den)] + [Fraction(logs.get(p, 0), v.den) for p in (3, 5, 7)]

    rng = random.Random(9)
    for _ in range(200):
        u = LogLinear.of(rng.randint(-99, 99), {3: rng.randint(-9, 9), 5: rng.randint(-9, 9)}, rng.randint(1, 99))
        w = LogLinear.of(rng.randint(-99, 99), {5: rng.randint(-9, 9), 7: rng.randint(-9, 9)}, rng.randint(1, 99))
        q = Fraction(rng.randint(-50, 50), rng.randint(1, 50)) or Fraction(1)
        assert coords(u + w) == [x + y for x, y in zip(coords(u), coords(w))]
        assert coords(u * q) == [x * q for x in coords(u)]
        assert coords(u / q) == [x / q for x in coords(u)]
    with pytest.raises(ZeroDivisionError):
        log3 / 0


def test_as_str():
    assert LogLinear.from_fraction(Fraction(16, 7)).as_str() == "16/7"
    assert LogLinear.from_fraction(Fraction(4)).as_str() == "4"
    assert LogLinear.from_fraction(Fraction(-3, 2)).as_str() == "-3/2"
    assert LogLinear.of(8, {3: -60, 5: 4}, 7).as_str() == "(8 - 60*log2(3) + 4*log2(5))/7"
    assert LogLinear.of(-1, {7: 1}, 1).as_str() == "(-1 + 1*log2(7))/1"


def test_parse_round_trips():
    rng = random.Random(10)
    primes = (3, 5, 7, 31, 257, 65521, 2**32 - 5)
    for _ in range(500):
        logs = {p: rng.randint(-(10**15), 10**15) for p in rng.sample(primes, rng.randint(0, 3))}
        v = LogLinear.of(rng.randint(-(10**15), 10**15), logs, rng.choice([-1, 1]) * rng.randint(1, 10**9))
        assert LogLinear.parse(v.as_str()) == v


@pytest.mark.parametrize(
    "text",
    [
        "(1 + 1*log2(9))/2",  # 9 is not prime
        "(1 + 1*log2(2))/2",  # 2 is not odd
        "(1 + 1*log2(1))/2",
        "(1 + 1*log2(4294967311))/2",  # the smallest prime above 2^32
        "(1 + 1*log2(3))/0",
        "1/0",
        "16/7 ",
        "16/7x",
        "(1 + 1*log2(3))/2 + 1",
        "4/2",  # not in lowest terms
        "(2 + 2*log2(3))/2",
        "(1 + 0*log2(3))/2",
        "(1 + 1*log2(5) + 1*log2(3))/2",  # primes out of order
        "(1 + 1*log2(3) + 1*log2(3))/2",
        "(4)/1",
        "+3",
        "2.5",
        "",
    ],
)
def test_parse_rejects(text):
    with pytest.raises(ValueError):
        LogLinear.parse(text)


# --- entropy ----------------------------------------------------------------------


def test_entropy_parity_is_zero():
    for n in (1, 3, 6):
        assert entropy(parity(n)).rational == 0


def test_entropy_bent_two_vars():
    assert entropy(spectrum_of("X1X2", 2)).rational == 2


def test_entropy_and5_ratio_below_4():
    s = spectrum_of("X1X2X3X4X5", 5)
    h = entropy(s)
    inf = influence_spectral(s)
    assert h.rational is None
    assert h < inf * 4


def test_entropy_is_rational_exactly_on_dyadic_levels(rng):
    # log2 c^2 is an integer exactly when |c| is a power of two
    for n in range(1, 8):
        for _ in range(30):
            s = walsh_transform(random_table(rng, n))
            nz = np.abs(s.corr[s.corr != 0]).tolist()
            v = entropy(s)
            dyadic = all(c & (c - 1) == 0 for c in nz)
            assert (v.rational is not None) == dyadic
            if dyadic:
                assert v.rational == 2 * n - sum(Fraction(c * c * 2 * (c.bit_length() - 1), 4**n) for c in nz)


def test_entropy_value_is_correctly_rounded(rng):
    # 200 entropies against a 256-bit evaluation rounded to nearest
    checked = 0
    while checked < 200:
        n = rng.randint(2, 12)
        s = walsh_transform(random_table(rng, n))
        h = entropy(s)
        if h.rational is not None:
            continue
        levels, counts = np.unique(np.abs(s.corr[s.corr != 0]), return_counts=True)
        with mpmath.workprec(256):
            terms = (k * c * c * mpmath.log(c * c, 2) for c, k in zip(levels.tolist(), counts.tolist()))
            want = 2 * n - mpmath.fsum(terms) / 4**n
        assert h.value == float(want), (n, s.corr.tolist())
        checked += 1


def test_entropy_rejects_corrupt_spectrum():
    bad = Spectrum(2, np.array([1, 1, 1, 1]))
    with pytest.raises(SpectrumError):
        entropy(bad)
    with pytest.raises(SpectrumError):
        classify(bad)


@pytest.mark.parametrize(
    "n, corr",
    [
        (3, [7, 3, 2, 1, 1, 0, 0, 0]),  # odd entries, squares sum to 4^3
        (2, [4, 2, 0, 0]),  # Parseval sum 20, off by 4
        (2, [2, 2, 2, 0]),  # Parseval sum 12, off by 4
        (2, [1 << 40, 0, 0, 0]),  # |c| above 2^n
        (2, [np.iinfo(np.int64).min, 0, 0, 0]),  # |c| does not fit int64
    ],
)
def test_every_metric_rejects_corrupt_spectrum(n, corr):
    bad = Spectrum(n, np.array(corr, dtype=np.int64))
    for metric in (classify, entropy, min_entropy, influence_spectral, resilience_order):
        with pytest.raises(SpectrumError):
            metric(bad)


def test_classify_matches_per_point_reference(rng):
    for n in range(1, 21):
        for f in metric_grid(rng, n, 6 if n <= 12 else 1):
            s = walsh_transform(f)
            want = reference_report(s)
            assert repr(classify(s)) == repr(want), (n, f.to_hex()[:16])
            if n <= 12:
                assert repr(entropy(s)) == repr(want.entropy)
                assert repr(min_entropy(s)) == repr(want.min_entropy)
                assert repr(influence_spectral(s)) == repr(want.influence)
                assert resilience_order(s) == want.resilience_order


# --- min-entropy ------------------------------------------------------------------


def test_min_entropy_examples():
    assert min_entropy(spectrum_of(QUINTIC_MAX_ANF, 5)).rational == 4
    assert min_entropy(spectrum_of(QUINTIC_SEED_ANF, 5)).rational == 4
    assert min_entropy(spectrum_of("X1", 1)).rational == 0


def test_min_entropy_non_dyadic_is_irrational():
    # weight-1 function on 3 vars peaks at corr 6, and 36 is not a power of two
    s = walsh_transform(TruthTable(3, 0b00000001))
    assert s.max_corr_sq == 36
    v = min_entropy(s)
    assert v == LogLinear.of(4, {3: -2}, 1)  # log2(64/36) = 4 - 2 log2 3
    assert v.rational is None and v.value == float(_mp_value(v))


# --- influence --------------------------------------------------------------------


def test_influence_examples():
    assert influence_spectral(spectrum_of(QUINTIC_MAX_ANF, 5)).rational == Fraction(7, 4)
    assert influence_spectral(spectrum_of(QUINTIC_SEED_ANF, 5)).rational == Fraction(15, 8)
    for n in (2, 4, 6):
        assert influence_spectral(parity(n)).rational == n


def test_influence_probe_and2():
    assert influence_probe(table_from_anf("X1X2", 2)).rational == 1


def test_probe_equals_spectral(rng):
    for n in range(1, 11):
        for _ in range(100):
            f = random_table(rng, n)
            assert influence_probe(f).rational == influence_spectral(walsh_transform(f)).rational


def test_influence_denominator_divides_total(rng):
    for n in (3, 5, 7):
        for _ in range(50):
            q = influence_spectral(walsh_transform(random_table(rng, n))).rational
            assert (4**n) % q.denominator == 0


# --- classification ----------------------------------------------------------------


def test_classify_bent_product():
    rep = classify(spectrum_of("X1X2", 2))
    assert rep.bent and rep.plateaued and rep.plateau_level == 2
    assert rep.resilience_order == -1 and not rep.balanced
    assert rep.entropy.rational == 2 and rep.min_entropy.rational == 2
    assert rep.influence.rational == 1
    assert rep.mei_ratio.rational == 2 and rep.ei_ratio.rational == 2


def test_classify_bent_implications(rng):
    # bent => H = Hmin = n and influence = n/2
    quartic = classify(spectrum_of("X1X2 + X3X4", 4))
    assert quartic.bent
    assert quartic.entropy.rational == 4
    assert quartic.min_entropy.rational == 4
    assert quartic.influence.rational == 2


def test_classify_parity():
    for n in (2, 5):
        rep = classify(parity(n))
        assert rep.resilience_order == n - 1
        assert rep.plateaued and rep.plateau_level == 2**n
        assert not rep.bent
        assert rep.balanced
        assert rep.min_entropy.rational == 0 and rep.influence.rational == n


def test_classify_constant_has_no_ratios():
    rep = classify(walsh_transform(TruthTable(3, 0)))
    assert rep.influence.rational == 0
    assert rep.ei_ratio is None and rep.mei_ratio is None
    assert rep.weight == 0 and rep.resilience_order == -1


def test_classify_seed_function():
    rep = classify(spectrum_of(QUINTIC_SEED_ANF, 5))
    assert rep.balanced and rep.plateaued and rep.plateau_level == 8
    assert rep.resilience_order == 0
    assert rep.max_corr_sq == 64


def test_metric_bounds_and_order(rng):
    for n in range(1, 9):
        for _ in range(40):
            rep = classify(walsh_transform(random_table(rng, n)))
            zero, top = LogLinear.from_fraction(0), LogLinear.from_fraction(n)
            assert zero <= rep.min_entropy <= rep.entropy <= top
            assert zero <= rep.influence <= top
            assert 0 <= rep.weight <= 1 << n


def test_resilient_influence_lower_bound(rng):
    # t-resilient => influence >= t + 1
    for n in (3, 5, 7):
        for _ in range(60):
            rep = classify(walsh_transform(random_table(rng, n)))
            if rep.resilience_order >= 0:
                assert rep.influence.rational >= rep.resilience_order + 1


def test_ratio_helper():
    assert ratio(LogLinear.from_fraction(1), LogLinear.from_fraction(0)) is None
    v = ratio(LogLinear.from_fraction(3), LogLinear.from_fraction(Fraction(3, 2)))
    assert v.rational == 2
    w = ratio(LogLinear.log2(3), LogLinear.from_fraction(2))
    assert w == LogLinear.of(0, {3: 1}, 2)


def _mp_value(k: LogLinear):
    with mpmath.workprec(400):
        return (k.const + sum(e * mpmath.log(p, 2) for p, e in k.logs)) / k.den


def test_log_linear_lowest_terms():
    a = LogLinear.of(10, {3: 6, 5: 0, 7: -14}, 14)
    assert a == LogLinear(5, ((3, 3), (7, -7)), 7) == LogLinear.of(-5, {3: -3, 7: 7}, -7)
    assert a.rational is None and a.compare(LogLinear.of(-5, {3: -3, 7: 7}, -7)) == 0
    assert LogLinear.of(6, {}, 4).rational == Fraction(3, 2)
    assert log2_terms(360) == (3, ((3, 2), (5, 1)))
    assert log2_terms(65521) == (0, ((65521, 1),))


def test_log_linear_value_is_correctly_rounded():
    rng = random.Random(7)
    primes = (3, 5, 7, 31, 257, 65521)
    for _ in range(500):
        logs = {p: rng.randint(-(10**12), 10**12) for p in rng.sample(primes, rng.randint(1, 3))}
        k = LogLinear.of(rng.randint(-(10**13), 10**13), logs, rng.randint(1, 10**12))
        assert k.value == float(_mp_value(k)), k


def test_log_linear_order_is_exact():
    rng = random.Random(8)
    for _ in range(500):
        a = LogLinear.of(rng.randint(-60, 60), {3: rng.randint(-4, 4), 5: rng.randint(-4, 4)}, 7)
        b = LogLinear.of(rng.randint(-60, 60), {3: rng.randint(-4, 4), 7: rng.randint(-4, 4)}, 9)
        va, vb = _mp_value(a), _mp_value(b)
        want = 0 if a == b else (1 if va > vb else -1)
        assert a.compare(b) == want == -b.compare(a)
    # pairs 2^-70 and 2^-60 apart, equal as binary64: the enclosures decide
    for a, b in (
        (LogLinear.of(0, {3: 1}, 1), LogLinear.of(1, {3: 2**70}, 2**70)),
        (
            LogLinear.of(3 * 2**60, {3: -(2**60)}, 2**60),
            LogLinear.of(3 * 2**60 + 1, {3: -(2**60)}, 2**60),
        ),
    ):
        assert a.value == b.value
        assert a.compare(b) == -1 and b.compare(a) == 1 and a < b and b > a
    one, log3, two = LogLinear.of(1, {}, 1), LogLinear.of(0, {3: 1}, 1), LogLinear.of(2, {}, 1)
    assert max([one, log3, two]) == two and max([one, log3]) == log3
