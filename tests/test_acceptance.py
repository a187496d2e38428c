"""Acceptance gate: the claims of ``walshlab.report.CLAIMS``, at larger counts and under time bounds.

Each criterion names claims of the registry, the instance count its sampled
claims draw (None where the inputs are fixed) and a time bound. It runs the
claims' own checks on a fresh context and prints one
``ACCEPTANCE <n>: PASS/FAIL`` line. Criteria 1-3 take well under a
millisecond, so their time is the least of five runs, each on a fresh
context. The n=5 whole-space sweeps of criterion 9 scan one low half per
symmetry orbit and take a few seconds of CPU.
"""
import time
from typing import NamedTuple

from walshlab.report import CLAIMS, _Ctx


class Criterion(NamedTuple):
    claims: tuple[str, ...]
    count: int | None
    bound: float  # seconds
    runs: int = 1


CRITERIA = {
    "1": Criterion(
        ("c01-quintic-max-min-entropy", "c02-quintic-max-influence", "c03-quintic-max-ratio"),
        None, 1e-3, runs=5,
    ),
    "2": Criterion(
        ("c04-quintic-seed-min-entropy", "c05-quintic-seed-influence", "c06-iterated-step1-ratio"),
        None, 1e-3, runs=5,
    ),
    "3": Criterion(
        ("c07-seed-odd-weight-mass", "c08-thirty-var-ratio", "c09-thirty-var-min-entropy"),
        None, 1e-2, runs=5,
    ),
    "4": Criterion(("c10-composition-spectrum-pointwise", "c11-composition-min-entropy"), 100, 30),
    "5": Criterion(("c12-composition-influence-product", "c13-composition-entropy-rule"), 100, 30),
    "6": Criterion(("c14-reversal-sign-rule", "c15-palindromic-properties"), 1000, 60),
    "7": Criterion(
        (
            "c18-rotsym-n6-ei", "c19-rotsym-n6-mei", "c20-rotsym-n7-ei", "c21-rotsym-n7-mei",
            "c28-rotsym-n6-ei-achievers", "c29-rotsym-n6-mei-achievers",
            "c30-rotsym-n7-ei-achievers", "c31-rotsym-n7-mei-achievers",
        ),
        None, 5,
    ),
    "8": Criterion(("c22-symmetric-conjecture",), None, 900),
    "9": Criterion(
        (
            "c24-general-n5-max", "c25-seed-family-count",
            "c26-seed-family-step1", "c27-seed-family-thirty-var",
        ),
        None, 600,
    ),
    "10": Criterion(("c16-influence-probe-vs-spectral", "c17-parseval"), 60, 120),
}

_BY_ID = {c.id: c for c in CLAIMS}


def run_criterion(name: str) -> None:
    crit = CRITERIA[name]
    ok, secs = True, float("inf")
    for _ in range(crit.runs):
        ctx = _Ctx(None)
        t0 = time.perf_counter()
        results = [(cid, *_BY_ID[cid].check(ctx, crit.count)) for cid in crit.claims]
        secs = min(secs, time.perf_counter() - t0)
        ok &= all(passed for *_, passed in results)
    ok &= secs < crit.bound
    detail = "; ".join(f"{cid[:3]} {computed}" for cid, _, computed, _ in results)
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail}; {secs:.3g}s)")
    failed = [(cid, expected, computed) for cid, expected, computed, passed in results if not passed]
    assert ok, f"criterion {name}: {failed or f'{secs:.3g}s against {crit.bound}s'}"


def test_criterion_1_quintic_max_metrics():
    run_criterion("1")


def test_criterion_2_seed_metrics_and_one_step():
    run_criterion("2")


def test_criterion_3_thirty_variable_ratio():
    run_criterion("3")


def test_criterion_4_composition_oracle_equivalence():
    run_criterion("4")


def test_criterion_5_composition_identities():
    run_criterion("5")


def test_criterion_6_reversal_and_palindromic_properties():
    run_criterion("6")


def test_criterion_7_rotsym_maxima():
    run_criterion("7")


def test_criterion_8_symmetric_conjecture():
    run_criterion("8")


def test_criterion_9_quintic_space_counts():
    run_criterion("9")


def test_criterion_10_property_bundle():
    run_criterion("10")


def test_criteria_cover_the_registry():
    ids = [c.id for c in CLAIMS]
    assert ids == sorted(set(ids))  # unique, in ledger order
    named = [cid for crit in CRITERIA.values() for cid in crit.claims]
    assert set(named) <= set(ids)
    for c in CLAIMS:
        if c.tag == "published":
            assert named.count(c.id) == 1, c.id
    for crit in CRITERIA.values():
        assert all((_BY_ID[cid].count is None) == (crit.count is None) for cid in crit.claims)
