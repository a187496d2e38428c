import dataclasses
import json
from fractions import Fraction

import numpy as np
import pytest

from walshlab import report
from walshlab.core import Spectrum, TruthTable, table_from_anf, walsh_transform
from walshlab.construct import gb_construction_report, ot_recursion_metrics
from walshlab.metrics import LogLinear, classify
from walshlab.report import (
    QUINTIC_MAX_ANF,
    QUINTIC_SEED_ANF,
    LedgerEntry,
    VerificationLedger,
    analytic_from_json,
    analytic_to_dict,
    analytic_to_json,
    metrics_from_json,
    metrics_to_csv,
    metrics_to_json,
    run_verification_suite,
    search_result_canonical,
    search_result_to_dict,
    spectrum_to_csv,
    value_from_json,
    value_to_json,
)
from walshlab.search import SearchJob, sweep

from conftest import random_balanced, random_table


def test_value_round_trip():
    for v in (
        LogLinear.from_fraction(Fraction(16, 7)),
        LogLinear.from_fraction(Fraction(-3)),
        LogLinear.of(1024, {3: -150, 5: -50}, 225),
        None,
    ):
        doc = json.loads(json.dumps(value_to_json(v)))
        assert value_from_json(doc) == v
    assert value_to_json(LogLinear.of(1024, {3: -150, 5: -50}, 225)) == "(1024 - 150*log2(3) - 50*log2(5))/225"


def test_metrics_json_contains_exact_ratio():
    rep = classify(walsh_transform(table_from_anf(QUINTIC_MAX_ANF, 5)))
    doc = metrics_to_json(rep)
    assert '"mei_ratio": "16/7"' in doc
    assert '"influence": "7/4"' in doc


def test_metrics_json_parity_min_entropy():
    rep = classify(walsh_transform(table_from_anf("X1 + X2 + X3", 3)))
    assert json.loads(metrics_to_json(rep))["min_entropy"] == "0"


def test_metrics_constant_function_ratios_are_null():
    rep = classify(walsh_transform(TruthTable(3, 0)))
    doc = json.loads(metrics_to_json(rep))
    assert doc["ei_ratio"] is None and doc["mei_ratio"] is None
    assert metrics_from_json(json.dumps(doc)) == rep


def test_metrics_round_trip_random(rng):
    irrational = 0
    for n in range(1, 13):
        for _ in range(170 if n <= 6 else 20):
            rep = classify(walsh_transform(random_table(rng, n)))
            assert metrics_from_json(metrics_to_json(rep)) == rep
            irrational += rep.entropy.rational is None
    assert irrational > 500


def test_analytic_round_trip(rng):
    irrational = 0
    for n in range(2, 7):
        for _ in range(6):
            g = random_balanced(rng, n)
            reports = [ot_recursion_metrics(g, m) for m in range(4)]
            reports += [gb_construction_report(g, b) for b in (0, 1)]
            for rep in reports:
                assert analytic_from_json(analytic_to_json(rep)) == rep
                irrational += rep.entropy.rational is None
    assert irrational > 50


_ABSENT = object()  # a field deleted from the document


def _set(doc: dict, field: str, value) -> None:
    if value is _ABSENT:
        del doc[field]
    else:
        doc[field] = value


def _irrational_metrics_doc() -> dict:
    # the entropy of this function is irrational
    doc = json.loads(metrics_to_json(classify(walsh_transform(table_from_anf("X1X2X3 + X4", 4)))))
    assert doc["entropy"].startswith("(")
    return doc


@pytest.mark.parametrize(
    "field, value",
    [
        ("entropy", "(1 + 1*log2(9))/2"),  # a p that is not an odd prime
        ("entropy", "(1 + 1*log2(3))/0"),  # D = 0
        ("influence", "7/0"),
        ("entropy", "(1 + 1*log2(3))/2 trailing"),
        ("mei_ratio", "16/7x"),
        ("entropy", 3.2),  # a JSON number
        ("influence", 2),
        ("schema_version", 1),
        ("schema_version", "2"),
        ("schema_version", 2.0),
        ("schema_version", None),
        ("n", _ABSENT),
        ("mei_ratio", _ABSENT),
        ("extra", 1),
        ("n", "x"),
        ("n", True),
        ("weight", 8.0),
        ("resilience_order", None),
        ("max_corr_sq", "16"),
        ("balanced", 1),
        ("plateaued", None),
        ("bent", "false"),
        ("plateau_level", 1.5),
        ("plateau_level", False),
        ("influence", None),  # only the two ratios may be null
        ("entropy", None),
        ("min_entropy", None),
    ],
)
def test_metrics_from_json_rejects(field, value):
    doc = _irrational_metrics_doc()
    assert metrics_from_json(json.dumps(doc)) is not None
    _set(doc, field, value)
    with pytest.raises(ValueError):
        metrics_from_json(json.dumps(doc))


def test_analytic_from_json_rejects_other_schema():
    doc = analytic_to_dict(gb_construction_report(table_from_anf(QUINTIC_SEED_ANF, 5), 0))
    doc["schema_version"] = 1
    with pytest.raises(ValueError, match="schema_version 2"):
        analytic_from_json(json.dumps(doc))


@pytest.mark.parametrize(
    "field, value",
    [
        ("influence", _ABSENT),
        ("details", _ABSENT),
        ("extra", "x"),
        ("arity", "30"),
        ("arity", False),
        ("arity", 30.0),
        ("provenance", ["min_entropy"]),
        ("provenance", {"min_entropy": 1}),
        ("details", None),
        ("details", {"epsilon_b": None}),
        ("influence", None),  # a report composes a balanced seed, so no value is null
        ("entropy", None),
        ("min_entropy", None),
        ("ei_ratio", None),
        ("mei_ratio", None),
    ],
)
def test_analytic_from_json_rejects(field, value):
    doc = analytic_to_dict(gb_construction_report(table_from_anf(QUINTIC_SEED_ANF, 5), 0))
    assert analytic_from_json(json.dumps(doc)) is not None
    _set(doc, field, value)
    with pytest.raises(ValueError):
        analytic_from_json(json.dumps(doc))


def test_metrics_csv_layout():
    rep = classify(walsh_transform(table_from_anf(QUINTIC_MAX_ANF, 5)))
    lines = metrics_to_csv(rep).strip().split("\n")
    assert len(lines) == 2
    header = lines[0].split(",")
    row = lines[1].split(",")
    assert header[0] == "n" and row[0] == "5"
    assert row[header.index("mei_ratio")] == "16/7"


def test_spectrum_csv_dictator():
    lines = spectrum_to_csv(walsh_transform(table_from_anf("X1", 1))).strip().split("\n")
    assert lines[0] == "alpha,weight,corr,corr_sq_over_total"
    assert lines[1] == "0,0,0,0/1"
    assert lines[2] == "1,1,2,1/1"
    assert lines[3] == "PARSEVAL,,4,1"


def test_spectrum_csv_parseval_does_not_wrap():
    lines = spectrum_to_csv(Spectrum(2, np.array([2**32, 0, 0, 4]))).strip().split("\n")
    assert lines[-1] == f"PARSEVAL,,{2**64 + 16},{2**60 + 1}"


def test_spectrum_csv_quintic_witness():
    doc = spectrum_to_csv(walsh_transform(table_from_anf(QUINTIC_MAX_ANF, 5)))
    lines = doc.strip().split("\n")
    assert len(lines) == 1 + 32 + 1
    nonzero = [l for l in lines[1:-1] if not l.split(",")[3].startswith("0/")]
    assert len(nonzero) == 16
    assert lines[-1].startswith("PARSEVAL,,1024,")


def test_analytic_dict_provenance():
    doc = analytic_to_dict(gb_construction_report(table_from_anf(QUINTIC_SEED_ANF, 5), 0))
    assert doc["mei_ratio"] == "128/45"
    assert doc["provenance"]["min_entropy"] == "composition-min-entropy"
    assert doc["details"]["epsilon_b"] == "3/8"
    json.dumps(doc)


def test_search_result_serialisation():
    r = sweep(SearchJob("general", 2, metric="mei"), threads=1)
    doc = search_result_to_dict(r)
    assert doc["best_ratio"] == "2" and doc["schema_version"] == 2
    ei = sweep(SearchJob("general", 3, metric="ei"), threads=1)
    assert value_from_json(search_result_to_dict(ei)["best_ratio"]) == ei.best_ratio
    assert doc["job"]["family"] == "general"
    json.dumps(doc)
    canon = search_result_canonical(r)
    assert "elapsed" not in canon and "resumed_chunks" not in canon


# --- verification suite -----------------------------------------------------------


FAST_SUBSET = [
    "c01-quintic-max-min-entropy",
    "c02-quintic-max-influence",
    "c03-quintic-max-ratio",
    "c04-quintic-seed-min-entropy",
    "c05-quintic-seed-influence",
    "c06-iterated-step1-ratio",
    "c07-seed-odd-weight-mass",
    "c08-thirty-var-ratio",
    "c09-thirty-var-min-entropy",
    "c11-composition-min-entropy",
    "c13-composition-entropy-rule",
    "c17-parseval",
    "c23-general-n3-vs-naive",
]


def test_batched_spectra_equal_walsh_transform(rng):
    # c14-c17 transform their tables through _spectra; 16 is the first arity of four blocks
    for n in [*range(1, 11), 16]:
        tables = [random_table(rng, n) for _ in range(4)]
        for t, s in zip(tables, report._spectra(tables)):
            assert s.n == n
            assert np.array_equal(s.corr, walsh_transform(t).corr)


def test_suite_subset_passes():
    ledger = run_verification_suite(scope="fast", claim_ids=FAST_SUBSET)
    assert [e.claim_id for e in ledger.entries] == FAST_SUBSET
    assert all(e.status == "pass" for e in ledger.entries)
    assert ledger.passed and ledger.exit_code() == 0
    for e in ledger.entries:
        assert e.tag in ("published", "derived", "trivial")
        assert e.expected and e.computed


def test_suite_is_idempotent():
    a = run_verification_suite(scope="fast", claim_ids=FAST_SUBSET[:3])
    b = run_verification_suite(scope="fast", claim_ids=FAST_SUBSET[:3])
    strip = lambda lg: [(e.claim_id, e.status, e.expected, e.computed) for e in lg.entries]
    assert strip(a) == strip(b)


def test_suite_skips_long_claims_in_fast_scope(monkeypatch):
    # the scope chooses the claims only when none are named; a named claim always runs
    long = [dataclasses.replace(c, check=lambda ctx, count: ("1", "1", True)) for c in report.CLAIMS
            if c.scope == "long"]
    monkeypatch.setattr(report, "CLAIMS", [c for c in report.CLAIMS if c.id == "c17-parseval"] + long)
    ledger = run_verification_suite(scope="fast")
    assert [(e.claim_id, e.status) for e in ledger.entries] == [("c17-parseval", "pass")] + [
        (c, "skipped") for c in ("c24-general-n5-max", "c25-seed-family-count",
                                 "c26-seed-family-step1", "c27-seed-family-thirty-var")
    ]
    assert ledger.passed  # skipped entries do not fail the suite
    named = run_verification_suite(scope="fast", claim_ids=["c24-general-n5-max"])
    assert [(e.claim_id, e.status) for e in named.entries] == [("c24-general-n5-max", "pass")]


def test_suite_empty_scope():
    ledger = run_verification_suite(scope="fast", claim_ids=[])
    assert ledger.entries == ()
    assert ledger.exit_code() == 0


def test_suite_rejects_unknown_claim_ids():
    with pytest.raises(ValueError, match=r"unknown claim id\(s\): 'c00-nope', 'c99-nope'$"):
        run_verification_suite(scope="fast", claim_ids=["c99-nope", "c17-parseval", "c00-nope"])


def test_suite_records_failures_as_entries():
    failing = VerificationLedger(
        (LedgerEntry("c00", "trivial", "demo", "1", "2", "fail", 0.0),)
    )
    assert failing.exit_code() == 1
    assert not failing.passed
    doc = failing.to_dict()
    assert doc["entries"][0]["status"] == "fail"


def test_claim_inputs_do_not_depend_on_other_claims(monkeypatch):
    import walshlab.construct as construct_mod

    seen = []
    original = construct_mod.disjoint_min_entropy

    def spy(spec):
        seen.append((spec.outer, spec.inner))
        return original(spec)

    monkeypatch.setattr(construct_mod, "disjoint_min_entropy", spy)
    assert run_verification_suite(claim_ids=["c11-composition-min-entropy"]).passed
    alone = list(seen)
    seen.clear()
    assert run_verification_suite(
        claim_ids=["c10-composition-spectrum-pointwise", "c11-composition-min-entropy"]
    ).passed
    assert len(alone) == 100 and seen == alone


def test_ledger_json_shape():
    ledger = run_verification_suite(scope="fast", claim_ids=["c17-parseval"])
    doc = json.loads(ledger.to_json())
    assert doc["schema_version"] == 2
    entry = doc["entries"][0]
    assert set(entry) == {
        "claim_id", "tag", "description", "expected", "computed", "status", "runtime",
    }
