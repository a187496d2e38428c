"""Acceptance gate: every headline criterion, decided exactly, within its time bound.

Each test prints one PASS/FAIL line. The n=5 whole-space sweeps of criterion
9 scan one low half per symmetry orbit and take about 4 s of CPU.
"""
import random
import time
from fractions import Fraction

import numpy as np

from walshlab.core import TruthTable, popcounts, table_from_anf, walsh_transform
from walshlab.construct import (
    CompositionSpec,
    composition_peak,
    disjoint_compose,
    disjoint_min_entropy,
    disjoint_spectrum,
    epsilon_mass,
    gb_construction_report,
    ot_recursion_metrics,
    palindromic_extend,
)
from walshlab.metrics import LogLinear, classify, entropy, influence_probe, influence_spectral
from walshlab.report import (
    QUINTIC_MAX_ANF,
    QUINTIC_SEED_ANF,
    metrics_from_json,
    metrics_to_json,
    search_result_canonical,
)
from walshlab.search import SearchJob, check_conjecture, sweep, sweep_rotsym

from conftest import random_balanced, random_table


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def timed(fn, repeats: int = 5):
    fn()  # warm caches and numpy internals
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return result, best


def test_criterion_1_quintic_max_metrics():
    f = table_from_anf(QUINTIC_MAX_ANF, 5)
    rep, secs = timed(lambda: classify(walsh_transform(f)))
    ok = (
        rep.min_entropy.rational == 4
        and rep.influence.rational == Fraction(7, 4)
        and rep.mei_ratio.rational == Fraction(16, 7)
        and secs < 1e-3
    )
    report("1", ok, f"min-entropy {rep.min_entropy.as_str()}, influence "
                    f"{rep.influence.as_str()}, ratio {rep.mei_ratio.as_str()}, {secs*1e6:.0f}us")


def test_criterion_2_seed_metrics_and_one_step():
    g = table_from_anf(QUINTIC_SEED_ANF, 5)

    def compute():
        rep = classify(walsh_transform(g))
        ot = ot_recursion_metrics(g, 1)
        return rep, ot

    (rep, ot), secs = timed(compute)
    ok = (
        rep.min_entropy.rational == 4
        and rep.influence.rational == Fraction(15, 8)
        and ot.mei_ratio.rational == Fraction(512, 225)
        and secs < 1e-3
    )
    report("2", ok, f"min-entropy {rep.min_entropy.as_str()}, influence "
                    f"{rep.influence.as_str()}, one-step ratio {ot.mei_ratio.as_str()}, "
                    f"{secs*1e6:.0f}us")


def test_criterion_3_thirty_variable_ratio():
    g = table_from_anf(QUINTIC_SEED_ANF, 5)
    # independent oracle for the odd-weight spectral mass
    s = walsh_transform(g)
    odd_mass = Fraction(
        sum(int(c) ** 2 for a, c in enumerate(s.corr) if bin(a).count("1") % 2 == 1), 4**5
    )
    rep, secs = timed(lambda: gb_construction_report(g, 0))
    ok = (
        rep.arity == 30
        and rep.mei_ratio.rational == Fraction(128, 45)
        and odd_mass == Fraction(3, 8)
        and epsilon_mass(s, 0) == odd_mass
        and secs < 1e-2
    )
    report("3", ok, f"arity {rep.arity}, ratio {rep.mei_ratio.as_str()}, "
                    f"eps0 {odd_mass}, {secs*1e3:.2f}ms")


def test_criterion_4_composition_oracle_equivalence():
    rng = random.Random(41)
    t0 = time.perf_counter()
    shapes = [(k, l) for k in range(2, 7) for l in range(2, 7) if k * l <= 12]
    instances = 0
    while instances < 100:
        k, l = shapes[instances % len(shapes)]
        f = random_table(rng, k)
        g = random_balanced(rng, l)
        spec = CompositionSpec(f, g)
        brute = walsh_transform(disjoint_compose(spec))
        assert np.array_equal(disjoint_spectrum(spec).corr, brute.corr)
        peak = composition_peak(walsh_transform(f), walsh_transform(g))
        assert peak.best == Fraction(int(np.max(brute.corr**2)), 4 ** (k * l))
        assert disjoint_min_entropy(spec) == classify(brute).min_entropy
        instances += 1
    secs = time.perf_counter() - t0
    report("4", secs < 30, f"{instances} instances, pointwise + min-entropy exact, {secs:.1f}s")


def test_criterion_5_composition_identities():
    rng = random.Random(42)
    t0 = time.perf_counter()
    equal = 0
    for i in range(100):
        k, l = rng.randint(2, 4), rng.randint(2, 4)
        f = random_table(rng, k)
        g = random_balanced(rng, l)
        spec = CompositionSpec(f, g)
        composed = walsh_transform(disjoint_compose(spec))
        fs, gs = walsh_transform(f), walsh_transform(g)
        assert (
            influence_spectral(composed).rational
            == influence_spectral(fs).rational * influence_spectral(gs).rational
        )
        expected = entropy(fs) + entropy(gs) * influence_spectral(fs).rational
        equal += entropy(composed) == expected
    secs = time.perf_counter() - t0
    ok = equal == 100 and secs < 30
    report("5", ok, f"100 instances, influence exact, entropy exact on {equal}, {secs:.1f}s")


def test_criterion_6_reversal_and_palindromic_properties():
    rng = random.Random(43)
    t0 = time.perf_counter()
    for n in range(1, 11):
        wt = popcounts(1 << n)
        wt_ext = popcounts(1 << (n + 1))
        rev_signs = 1 - 2 * (wt & 1)
        for _ in range(1000):
            g = random_table(rng, n)
            gs = walsh_transform(g)
            rev = TruthTable.from_array(g.bit_array()[::-1], n)
            assert np.array_equal(walsh_transform(rev).corr, rev_signs * gs.corr)
            e0, e1 = epsilon_mass(gs, 0), epsilon_mass(gs, 1)
            assert e0 + e1 == 1
            inf_g = influence_spectral(gs).rational
            b = rng.randint(0, 1)
            ext, pspec = palindromic_extend(g, b)
            es = walsh_transform(ext)
            banned = es.corr[(wt_ext & 1) == (1 - b)]
            assert not np.any(banned)
            assert es.max_corr_sq == 4 * gs.max_corr_sq
            assert influence_spectral(es).rational == inf_g + (e0 if b == 0 else e1)
            assert pspec.epsilon_b.rational == (e0 if b == 0 else e1)
    secs = time.perf_counter() - t0
    report("6", secs < 60, f"10000 functions, all five identities exact, {secs:.1f}s")


def test_criterion_7_rotsym_maxima():
    t0 = time.perf_counter()
    ei6 = sweep_rotsym(6, "ei", threads=1).best_ratio.value
    mei6 = sweep_rotsym(6, "mei", threads=1).best_ratio.value
    secs6 = time.perf_counter() - t0
    t0 = time.perf_counter()
    ei7 = sweep_rotsym(7, "ei", threads=1).best_ratio.value
    mei7 = sweep_rotsym(7, "mei", threads=1).best_ratio.value
    secs7 = time.perf_counter() - t0
    # each value is the exact maximum, correctly rounded, so its decimals match the paper's
    ok = (
        [f"{v:.6f}" for v in (ei6, mei6, ei7, mei7)]
        == ["3.739764", "2.168978", "3.804357", "2.227449"]
        and secs6 < 5
        and secs7 < 600
    )
    report("7", ok, f"n=6 ({ei6:.6f}, {mei6:.6f}) in {secs6:.1f}s; "
                    f"n=7 ({ei7:.6f}, {mei7:.6f}) in {secs7:.1f}s")


def test_criterion_8_symmetric_conjecture():
    t0 = time.perf_counter()
    checks = check_conjecture(range(1, 13))
    secs = time.perf_counter() - t0
    ok = secs < 900
    two = LogLinear.from_fraction(2)
    for c in checks:
        ok &= c.passed and c.and_ratio_below_4 and c.ei_achievers_conjugate_to_and
        ok &= c.ei_achievers == (2 if c.n == 1 else 4)
        if c.n % 2 == 0:
            ok &= c.mei_max == two and c.bent_achievers > 0 and c.mei_claim_holds
        else:
            ok &= c.mei_max < two and c.mei_claim_holds
    report("8", ok, f"n=1..12 all pass, conjunction dominates up to complementation, {secs:.1f}s")


def test_criterion_9_quintic_space_counts():
    t0 = time.perf_counter()
    max_job = SearchJob("general", 5, metric="mei", chunk_bits=8)
    mx = sweep(max_job)
    ok = (
        mx.best_ratio.rational == Fraction(16, 7)
        and mx.witness_total == 3840
        and mx.balanced_at_best == 0
    )
    family_job = SearchJob(
        "general", 5, metric="ot1-mei",
        filters=("balanced", "weight1-max-walsh"),
        target="count", threshold=Fraction(512, 225), witness_cap=512,
    )
    fam = sweep(family_job)
    ok &= fam.count_achieving == 384 and len(fam.witnesses) == 384
    for hx in fam.witnesses:
        g = TruthTable.from_hex(hx, 5)
        ok &= ot_recursion_metrics(g, 1).mei_ratio.rational == Fraction(512, 225)
        ok &= gb_construction_report(g, 0).mei_ratio.rational == Fraction(128, 45)
    secs = time.perf_counter() - t0
    report("9", ok, f"max {mx.best_ratio.as_str()} x{mx.witness_total} "
                    f"({mx.balanced_at_best} balanced), family {fam.count_achieving}, {secs:.0f}s")


def test_criterion_10_property_bundle():
    rng = random.Random(44)
    t0 = time.perf_counter()
    for n in range(1, 11):
        for _ in range(60):
            f = random_table(rng, n)
            s = walsh_transform(f)
            assert s.parseval_holds()
            assert influence_probe(f).rational == influence_spectral(s).rational
    base = sweep(SearchJob("general", 4, metric="mei", chunk_bits=4), threads=1)
    for chunk_bits, threads in ((0, 1), (3, 2), (6, 2)):
        other = sweep(SearchJob("general", 4, metric="mei", chunk_bits=chunk_bits), threads=threads)
        a, b = search_result_canonical(base), search_result_canonical(other)
        a["job"].pop("chunk_bits")
        b["job"].pop("chunk_bits")
        assert a == b
    round_trips = 0
    for n in range(1, 7):
        for _ in range(170):
            rep = classify(walsh_transform(random_table(rng, n)))
            assert metrics_from_json(metrics_to_json(rep)) == rep
            round_trips += 1
    secs = time.perf_counter() - t0
    report("10", secs < 120,
           f"Parseval+probe on 600 functions, determinism x3, {round_trips} round-trips, {secs:.1f}s")
