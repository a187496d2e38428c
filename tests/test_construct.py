from fractions import Fraction

import numpy as np
import pytest

from walshlab.core import (
    DenseCapExceeded,
    TruthTable,
    dense_cap,
    set_dense_cap,
    table_from_anf,
    walsh_transform,
)
from walshlab.construct import (
    CompositionSpec,
    UnbalancedFunctionError,
    VectorialFunction,
    _fold,
    compose_vectorial,
    composition_peak,
    disjoint_compose,
    disjoint_min_entropy,
    disjoint_spectrum,
    disjoint_walsh,
    epsilon_mass,
    gb_construction_report,
    ot_recursion_metrics,
    palindromic_extend,
    palindromic_spectrum,
)
from walshlab.metrics import MetricsReport, classify, entropy, influence_spectral
from walshlab.report import QUINTIC_SEED_ANF, analytic_to_json

from conftest import random_balanced, random_table


def seed5() -> TruthTable:
    return table_from_anf(QUINTIC_SEED_ANF, 5)


def balanced_tables(n: int):
    for v in range(1 << (1 << n)):
        t = TruthTable(n, v)
        if t.balanced:
            yield t


# --- plain composition ---------------------------------------------------------


def test_compose_identity_outer(rng):
    ident = table_from_anf("X1", 1)
    for n in (2, 4):
        g = random_table(rng, n)
        assert compose_vectorial(ident, VectorialFunction((g,))) == g


def test_compose_xor_of_projections():
    xor2 = table_from_anf("X1 + X2", 2)
    g = VectorialFunction((table_from_anf("X1", 2), table_from_anf("X2", 2)))
    assert compose_vectorial(xor2, g) == table_from_anf("X1 + X2", 2)


def test_compose_arity_mismatch():
    with pytest.raises(ValueError):
        compose_vectorial(table_from_anf("X1 + X2", 2), VectorialFunction((TruthTable(2, 6),)))


def test_compose_walsh_expansion_identity(rng):
    # W_{f o G}(u) = sum_v W_f(v) * W_{<v,G>}(u), checked by direct evaluation
    for _ in range(20):
        k = rng.randint(1, 3)
        n = rng.randint(k, 6)
        f = random_table(rng, k)
        comps = tuple(random_table(rng, n) for _ in range(k))
        G = VectorialFunction(comps)
        lhs = walsh_transform(compose_vectorial(f, G))
        fs = walsh_transform(f)
        rhs = [Fraction(0)] * (1 << n)
        for v in range(1 << k):
            sel = 0
            for i in range(k):
                if (v >> i) & 1:
                    sel ^= comps[i].bits
            lv = walsh_transform(TruthTable.from_bits([(sel >> x) & 1 for x in range(1 << n)], n))
            weight = Fraction(int(fs.corr[v]), 1 << k)
            rhs = [acc + weight * int(c) for acc, c in zip(rhs, lv.corr)]
        assert [Fraction(int(c)) for c in lhs.corr] == rhs


# --- disjoint composition --------------------------------------------------------


def test_disjoint_parity():
    xor2 = table_from_anf("X1 + X2", 2)
    par4 = disjoint_compose(CompositionSpec(xor2, xor2))
    assert par4 == table_from_anf("X1 + X2 + X3 + X4", 4)


def test_disjoint_block_order(rng):
    # block i of the input must feed copy i: f(g(x^(1)), g(x^(2)))
    f = table_from_anf("X1", 2)  # projection to the first block
    g = random_balanced(rng, 3)
    composed = disjoint_compose(CompositionSpec(f, g))
    for x in range(1 << 6):
        assert composed.value(x) == g.value(x & 7)


def test_disjoint_overflow_points_to_analytic_path():
    old = dense_cap()
    try:
        set_dense_cap(8)
        with pytest.raises(DenseCapExceeded):
            disjoint_compose(CompositionSpec(TruthTable(3, 0b10101010), TruthTable(3, 0b10101010)))
    finally:
        set_dense_cap(old)


def test_disjoint_walsh_zero_point(rng):
    for _ in range(10):
        f = random_table(rng, 3)
        g = random_balanced(rng, 3)
        spec = CompositionSpec(f, g)
        fs = walsh_transform(f)
        assert disjoint_walsh(0, spec) == Fraction(int(fs.corr[0]), 8)


def test_disjoint_walsh_vanishes_outside_support():
    xor2 = table_from_anf("X1 + X2", 2)  # support only at the all-ones point
    spec = CompositionSpec(xor2, xor2)
    # u with exactly one nonzero block has w_u of weight 1, where W_f = 0
    assert disjoint_walsh(0b0011, spec) == 0
    assert disjoint_walsh(0b1100, spec) == 0


def test_disjoint_walsh_requires_balanced_inner(rng):
    unbalanced = TruthTable(2, 0b0111)
    spec = CompositionSpec(table_from_anf("X1 + X2", 2), unbalanced)
    with pytest.raises(UnbalancedFunctionError):
        disjoint_walsh(0, spec)
    with pytest.raises(UnbalancedFunctionError):
        disjoint_spectrum(spec)
    with pytest.raises(UnbalancedFunctionError):
        disjoint_min_entropy(spec)


def test_disjoint_spectrum_matches_brute_force(rng):
    shapes = []
    for _ in range(60):
        k = rng.randint(2, 4)
        shapes.append((k, rng.randint(2, min(4, 12 // k))))
    # a single block (k=1), g = X1 or its complement (l=1), and k*l up to 20
    shapes += [(1, 1), (1, 3), (1, 7), (2, 1), (3, 1), (6, 1), (12, 1), (5, 4), (4, 5), (2, 10), (10, 2)] * 2
    for k, l in shapes:
        f = random_table(rng, k)
        g = random_balanced(rng, l)
        spec = CompositionSpec(f, g)
        brute = walsh_transform(disjoint_compose(spec))
        assert np.array_equal(disjoint_spectrum(spec).corr, brute.corr)


def test_disjoint_walsh_matches_brute_force_pointwise(rng):
    f = random_table(rng, 3)
    g = random_balanced(rng, 3)
    spec = CompositionSpec(f, g)
    brute = walsh_transform(disjoint_compose(spec))
    fs, gs = walsh_transform(f), walsh_transform(g)
    for u in range(1 << 9):
        assert disjoint_walsh(u, spec, fs, gs) == Fraction(int(brute.corr[u]), 1 << 9)


def test_disjoint_walsh_rejects_spectra_of_other_arities():
    spec = CompositionSpec(TruthTable(2, 0b1000), TruthTable(2, 0b0110))
    assert disjoint_walsh(3, spec) == Fraction(1, 2)
    fs, gs = walsh_transform(spec.outer), walsh_transform(spec.inner)
    assert disjoint_walsh(3, spec, fs, gs) == Fraction(1, 2)
    wrong_outer = walsh_transform(TruthTable(3, 0x05))  # read as the outer spectrum, it would give c(3) = -1
    wrong_inner = walsh_transform(TruthTable(3, 0b01100110))
    for outer, inner in [(wrong_outer, None), (wrong_outer, gs), (None, wrong_inner), (fs, wrong_inner)]:
        with pytest.raises(ValueError, match="arities"):
            disjoint_walsh(3, spec, outer, inner)


def test_disjoint_min_entropy_parity_is_zero():
    xor2 = table_from_anf("X1 + X2", 2)
    v = disjoint_min_entropy(CompositionSpec(xor2, xor2))
    assert v.rational == 0


def test_disjoint_min_entropy_matches_brute_force(rng):
    for _ in range(60):
        k = rng.randint(2, 4)
        l = rng.randint(2, min(4, 12 // k))
        f = random_table(rng, k)
        g = random_balanced(rng, l)
        spec = CompositionSpec(f, g)
        analytic = disjoint_min_entropy(spec)
        brute = classify(walsh_transform(disjoint_compose(spec)))
        peak = composition_peak(walsh_transform(f), Fraction(walsh_transform(g).max_corr_sq, 4**l))
        assert peak.best == Fraction(brute.max_corr_sq, 4**spec.arity)
        assert analytic == brute.min_entropy


def test_composition_influence_product(rng):
    for _ in range(60):
        k, l = rng.randint(2, 4), rng.randint(2, 4)
        f = random_table(rng, k)
        g = random_balanced(rng, l)
        spec = CompositionSpec(f, g)
        inf_fg = influence_spectral(walsh_transform(disjoint_compose(spec))).rational
        inf_f = influence_spectral(walsh_transform(f)).rational
        inf_g = influence_spectral(walsh_transform(g)).rational
        assert inf_fg == inf_f * inf_g


def test_composition_entropy_rule(rng):
    for _ in range(60):
        k, l = rng.randint(2, 4), rng.randint(2, 4)
        f = random_table(rng, k)
        g = random_balanced(rng, l)
        spec = CompositionSpec(f, g)
        h_fg = entropy(walsh_transform(disjoint_compose(spec)))
        h_f = entropy(walsh_transform(f))
        h_g = entropy(walsh_transform(g))
        inf_f = influence_spectral(walsh_transform(f)).rational
        assert h_fg == h_f + h_g * inf_f


# --- composition chains ------------------------------------------------------------


def _factor(f: TruthTable):
    s = walsh_transform(f)
    rep = classify(s)
    return s, rep.influence.rational, rep.entropy


def _chain_matches_dense(tables: list[TruthTable]) -> MetricsReport:
    """Fold the chain tables[0] o ... o tables[-1] and check it against its materialised table."""
    composed = tables[-1]
    for f in reversed(tables[:-1]):
        composed = disjoint_compose(CompositionSpec(f, composed))
    brute = classify(walsh_transform(composed))
    influence, h, hmin, _ = _fold([_factor(f) for f in tables])
    assert influence == brute.influence.rational
    assert h == brute.entropy
    assert hmin == brute.min_entropy
    return brute


def test_fold_matches_materialised_three_factor_chains(rng):
    # 12 variables in each order of arities; only the outermost factor may be unbalanced
    for arities in [(2, 2, 3), (2, 3, 2), (3, 2, 2)] * 12:
        outer = random_table(rng, arities[0])
        _chain_matches_dense([outer] + [random_balanced(rng, l) for l in arities[1:]])


def test_fold_of_1bd8_over_quintic_seed_gives_8_3():
    # f's whole spectrum is |c| = 8 on the four weight-2 points 0011, 0101, 1010 and 1100
    f = TruthTable(4, 0x1BD8)
    brute = _chain_matches_dense([f, seed5()])
    assert brute.n == 20 and brute.mei_ratio.rational == Fraction(8, 3)


def test_fold_requires_balanced_inner_factors(rng):
    unbalanced = TruthTable(2, 0b0111)
    balanced = _factor(random_balanced(rng, 2))
    assert _fold([_factor(unbalanced), balanced])[0] == classify(walsh_transform(unbalanced)).influence.rational
    for chain in ([balanced, _factor(unbalanced)], [balanced, _factor(unbalanced), balanced], [_factor(unbalanced)]):
        with pytest.raises(UnbalancedFunctionError):
            _fold(chain)


# --- iterated self-composition -----------------------------------------------------


def test_ot_m0_is_base(rng):
    g = random_balanced(rng, 4)
    rep = ot_recursion_metrics(g, 0)
    base = classify(walsh_transform(g))
    assert rep.arity == 4
    assert rep.influence.rational == base.influence.rational
    assert rep.min_entropy == base.min_entropy
    assert rep.entropy == base.entropy


def test_ot_seed_step1():
    rep = ot_recursion_metrics(seed5(), 1)
    assert rep.arity == 25
    assert rep.influence.rational == Fraction(225, 64)
    assert rep.min_entropy.rational == 8
    assert rep.mei_ratio.rational == Fraction(512, 225)
    assert rep.provenance["min_entropy"] == "iterated-composition-min-entropy"


def test_ot_rejects_unbalanced():
    with pytest.raises(UnbalancedFunctionError):
        ot_recursion_metrics(TruthTable(2, 0b0111), 1)


def test_ot_parity_seed_is_exact():
    # parity's largest squared value sits at weight 2, not weight 1; one step
    # of the xor2 seed is the 4-variable parity, whose whole mass is one point
    xor2 = table_from_anf("X1 + X2", 2)
    rep = ot_recursion_metrics(xor2, 1)
    assert rep.min_entropy.rational == 0 and rep.mei_ratio.rational == 0
    assert rep.influence.rational == 4
    assert rep.provenance["min_entropy"] == "iterated-composition-min-entropy"
    base = ot_recursion_metrics(xor2, 0)
    assert base.min_entropy.rational == 0  # m=0 reports the seed itself


def _peak_off_weight1(rng, count: int) -> list[TruthTable]:
    """Balanced 4-variable seeds whose largest squared value, below 1, no weight-1 point attains."""
    seeds = []
    while len(seeds) < count:
        g = random_balanced(rng, 4)
        gs = walsh_transform(g)
        if max(int(gs.corr[1 << i]) ** 2 for i in range(4)) < gs.max_corr_sq < 4**4:
            seeds.append(g)
    return seeds


def test_ot_materialised_cross_check(rng):
    # every balanced 3-variable seed iterated once to 9 variables, every
    # balanced 2-variable seed twice to 8, and 4-variable seeds whose peak is
    # off weight 1 once to 16, each measured directly
    hard = _peak_off_weight1(rng, 8)
    cases = [(g, 1, CompositionSpec(g, g)) for g in [*balanced_tables(3), *hard]]
    cases += [(g, 2, CompositionSpec(g, disjoint_compose(CompositionSpec(g, g)))) for g in balanced_tables(2)]
    assert len(cases) == 70 + 8 + 6
    for g, m, spec in cases:
        rep = ot_recursion_metrics(g, m)
        brute = classify(walsh_transform(disjoint_compose(spec)))
        assert rep.arity == brute.n
        assert rep.influence.rational == brute.influence.rational
        assert rep.min_entropy == brute.min_entropy
        assert rep.entropy == brute.entropy
        assert rep.mei_ratio == brute.mei_ratio and rep.ei_ratio == brute.ei_ratio
    for g in hard:
        # min-entropy does not add per step on these seeds
        assert ot_recursion_metrics(g, 1).min_entropy != ot_recursion_metrics(g, 0).min_entropy * 2
        # two steps (64 variables): the peak of g o G_1 with G_1 materialised and transformed
        inner = disjoint_compose(CompositionSpec(g, g))
        assert ot_recursion_metrics(g, 2).min_entropy == disjoint_min_entropy(CompositionSpec(g, inner))


# --- palindromic extension ----------------------------------------------------------


def test_palindromic_extend_dictator():
    # all of the dictator's spectral mass sits at weight 1
    x1 = table_from_anf("X1", 1)
    assert palindromic_extend(x1, 0) == table_from_anf("X1 + X2", 2)
    assert palindromic_extend(x1, 1) == table_from_anf("X1", 2)
    assert epsilon_mass(walsh_transform(x1), 0) == 1
    assert epsilon_mass(walsh_transform(x1), 1) == 0


def test_palindromic_banding_rule(rng):
    # c_ext(a, alpha) = (1 + (-1)^(b + wt(a,alpha))) * c(alpha)
    for n in range(1, 11):
        wt_ext = np.array([bin(x).count("1") for x in range(1 << (n + 1))])
        for _ in range(20):
            g = random_table(rng, n)
            base = walsh_transform(g).corr
            for b in (0, 1):
                got = walsh_transform(palindromic_extend(g, b)).corr
                factor = 1 + (1 - 2 * ((b + wt_ext) & 1))
                expected = factor * np.tile(base, 2)
                assert np.array_equal(got, expected)
                assert np.array_equal(palindromic_spectrum(walsh_transform(g), b).corr, got)


def test_palindromic_mass_partition(rng):
    for n in (1, 4, 8):
        for _ in range(30):
            s = walsh_transform(random_table(rng, n))
            assert epsilon_mass(s, 0) + epsilon_mass(s, 1) == 1


def test_palindromic_min_entropy_and_influence(rng):
    for n in (2, 5, 9):
        for _ in range(30):
            g = random_table(rng, n)
            gs = walsh_transform(g)
            for b in (0, 1):
                es = walsh_transform(palindromic_extend(g, b))
                assert es.max_corr_sq == 4 * gs.max_corr_sq
                lhs = influence_spectral(es).rational
                assert lhs == influence_spectral(gs).rational + epsilon_mass(gs, b)


def test_palindromic_resilience_cascade():
    # balanced, plateaued, exactly 0-resilient seed with b=0 gains one level
    g = seed5()
    rep = classify(walsh_transform(palindromic_extend(g, 0)))
    assert rep.resilience_order == 1
    assert rep.plateaued
    # an exactly 1-resilient plateaued function with b=1 reaches exactly level 2
    xor2_in3 = table_from_anf("X1 + X2", 3)
    base = classify(walsh_transform(xor2_in3))
    assert base.resilience_order == 1 and base.plateaued
    assert classify(walsh_transform(palindromic_extend(xor2_in3, 1))).resilience_order == 2


def test_seed_epsilon():
    assert epsilon_mass(walsh_transform(seed5()), 0) == Fraction(3, 8)


# --- 30-variable style construction ---------------------------------------------------


# analytic_to_json of the quintic seed's reports, pinned byte for byte
_QUINTIC_REPORTS = {
    ("ot", 0): (
        '{"schema_version": 2, "arity": 5, "influence": "15/8", "entropy": "4", '
        '"min_entropy": "4", "ei_ratio": "32/15", "mei_ratio": "32/15", '
        '"provenance": {"influence": "influence-product-rule", '
        '"entropy": "entropy-composition-rule", '
        '"min_entropy": "iterated-composition-min-entropy"}, "details": {}}'
    ),
    ("ot", 1): (
        '{"schema_version": 2, "arity": 25, "influence": "225/64", "entropy": "23/2", '
        '"min_entropy": "8", "ei_ratio": "736/225", "mei_ratio": "512/225", '
        '"provenance": {"influence": "influence-product-rule", '
        '"entropy": "entropy-composition-rule", '
        '"min_entropy": "iterated-composition-min-entropy"}, "details": {}}'
    ),
    ("ot", 2): (
        '{"schema_version": 2, "arity": 125, "influence": "3375/512", "entropy": "409/16", '
        '"min_entropy": "12", "ei_ratio": "13088/3375", "mei_ratio": "2048/1125", '
        '"provenance": {"influence": "influence-product-rule", '
        '"entropy": "entropy-composition-rule", '
        '"min_entropy": "iterated-composition-min-entropy"}, "details": {}}'
    ),
    ("ot", 3): (
        '{"schema_version": 2, "arity": 625, "influence": "50625/4096", '
        '"entropy": "6647/128", "min_entropy": "16", "ei_ratio": "212704/50625", '
        '"mei_ratio": "65536/50625", "provenance": {"influence": "influence-product-rule", '
        '"entropy": "entropy-composition-rule", '
        '"min_entropy": "iterated-composition-min-entropy"}, "details": {}}'
    ),
    ("gb", 0): (
        '{"schema_version": 2, "arity": 30, "influence": "135/32", "entropy": "13", '
        '"min_entropy": "12", "ei_ratio": "416/135", "mei_ratio": "128/45", '
        '"provenance": {"influence": "influence-product-rule+palindromic-influence", '
        '"entropy": "entropy-composition-rule", "min_entropy": "composition-min-entropy", '
        '"closed_form": "resilient-plateaued-closed-form"}, "details": {"epsilon_b": "3/8", '
        '"min-entropy-weight-class": "2", "min-entropy-witness": "000011", '
        '"resilience-order": "0", "closed-form-ratio": "128/45", '
        '"closed-form-agrees": "true"}}'
    ),
    ("gb", 1): (
        '{"schema_version": 2, "arity": 30, "influence": "75/16", "entropy": "14", '
        '"min_entropy": "8", "ei_ratio": "224/75", "mei_ratio": "128/75", '
        '"provenance": {"influence": "influence-product-rule+palindromic-influence", '
        '"entropy": "entropy-composition-rule", "min_entropy": "composition-min-entropy"}, '
        '"details": {"epsilon_b": "5/8", "min-entropy-weight-class": "1", '
        '"min-entropy-witness": "000001"}}'
    ),
}


@pytest.mark.parametrize("kind, param", list(_QUINTIC_REPORTS), ids=lambda v: str(v))
def test_quintic_reports_are_pinned(kind, param):
    report = ot_recursion_metrics if kind == "ot" else gb_construction_report
    assert analytic_to_json(report(seed5(), param)) == _QUINTIC_REPORTS[kind, param]




def test_gb_report_seed():
    rep = gb_construction_report(seed5(), 0)
    assert rep.arity == 30
    assert rep.influence.rational == Fraction(135, 32)
    assert rep.min_entropy.rational == 12
    assert rep.mei_ratio.rational == Fraction(128, 45)
    assert rep.details["epsilon_b"] == "3/8"
    assert rep.details["closed-form-agrees"] == "true"
    assert rep.provenance["min_entropy"] == "composition-min-entropy"
    # amplification premise for this seed: influence exceeds twice the odd mass
    assert Fraction(15, 8) > 2 * Fraction(3, 8)


def test_gb_rejects_unbalanced():
    with pytest.raises(UnbalancedFunctionError):
        gb_construction_report(TruthTable(2, 0b0111), 0)


def test_gb_small_scale_brute_force():
    # every balanced 3-variable seed -> 12-variable compositions, measured directly
    checked = 0
    for g in balanced_tables(3):
        for b in (0, 1):
            rep = gb_construction_report(g, b)
            ext = palindromic_extend(g, b)
            brute = classify(walsh_transform(disjoint_compose(CompositionSpec(ext, g))))
            assert rep.arity == 12
            assert rep.influence.rational == brute.influence.rational
            assert rep.min_entropy == brute.min_entropy
            assert rep.entropy == brute.entropy
            assert rep.mei_ratio == brute.mei_ratio and rep.ei_ratio == brute.ei_ratio
            assert rep.details.get("closed-form-agrees", "true") == "true"
        checked += 1
    assert checked == 70


def test_gb_transforms_only_the_seed(monkeypatch):
    import walshlab.construct as construct_mod

    calls = []

    def counted(f):
        calls.append(f.n)
        return walsh_transform(f)

    def forbidden(*args, **kwargs):
        raise AssertionError("the report materialised the extension")

    monkeypatch.setattr(construct_mod, "walsh_transform", counted)
    monkeypatch.setattr(construct_mod, "reverse", forbidden)
    monkeypatch.setattr(construct_mod, "palindromic_extend", forbidden)
    for b in (0, 1):
        assert gb_construction_report(seed5(), b).arity == 30
    assert calls == [5, 5]


def test_gb_respects_dense_cap(rng):
    # the extension's spectrum is dense at n + 1 variables
    old = dense_cap()
    try:
        set_dense_cap(6)
        g = random_balanced(rng, 6)
        with pytest.raises(DenseCapExceeded) as err:
            gb_construction_report(g, 0)
        assert err.value.n == 7
        with pytest.raises(DenseCapExceeded):
            palindromic_spectrum(walsh_transform(g), 1)
    finally:
        set_dense_cap(old)
