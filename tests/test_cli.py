import json

import pytest

from walshlab.cli import main
from walshlab.core import N_MAX
from walshlab.metrics import LogLinear
from walshlab.report import QUINTIC_MAX_ANF, QUINTIC_SEED_ANF


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_anf(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--anf", QUINTIC_MAX_ANF, "--n", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["mei_ratio"] == "16/7"
    assert doc["min_entropy"] == "4"


def test_analyze_seed(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--anf", QUINTIC_SEED_ANF, "--n", "5")
    doc = json.loads(out)
    assert code == 0
    assert doc["min_entropy"] == "4" and doc["influence"] == "15/8"


def test_analyze_tt_hex(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--tt", "6", "--n", "2")
    doc = json.loads(out)
    assert code == 0
    assert doc["influence"] == "2" and doc["min_entropy"] == "0"


def test_analyze_csv(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--tt", "6", "--n", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0].startswith("n,weight,")


def test_analyze_file(capsys, tmp_path):
    path = tmp_path / "fn.json"
    path.write_text(json.dumps({"n": 2, "anf": "X1X2"}))
    code, out, _ = run_cli(capsys, "analyze", "--file", str(path))
    assert code == 0
    assert json.loads(out)["bent"] is True


@pytest.mark.parametrize(
    "doc, message",
    [
        ([2, "X1X2"], "expected a JSON object"),
        ({"n": 3, "tt": 5}, "field 'tt' must be a string"),
        ({"n": 2, "anf": ["X1"]}, "field 'anf' must be a string"),
        ({"n": True, "anf": "X1"}, "missing integer field 'n'"),
    ],
    ids=["array", "tt-number", "anf-list", "n-bool"],
)
def test_analyze_file_rejects_malformed_json(capsys, tmp_path, doc, message):
    path = tmp_path / "fn.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "analyze", "--file", str(path))
    assert code == 2 and out == ""
    assert message in err


def test_analyze_requires_one_source(capsys):
    code, _, err = run_cli(capsys, "analyze", "--tt", "6", "--anf", "X1", "--n", "2")
    assert code == 2
    assert "exactly one" in err


def test_analyze_parse_error_has_position(capsys):
    code, _, err = run_cli(capsys, "analyze", "--anf", "X1 + %", "--n", "2")
    assert code == 2
    assert "position 5" in err


@pytest.mark.parametrize("source", [("--tt", "6"), ("--anf", "1")], ids=["tt", "anf"])
def test_analyze_negative_arity_names_the_bound(capsys, source):
    code, out, err = run_cli(capsys, "analyze", *source, "--n", "-1")
    assert code == 2 and out == ""
    assert f"arity must be in [1, {N_MAX}], got -1" in err


def test_analyze_anf_above_dense_cap(capsys):
    code, out, err = run_cli(capsys, "analyze", "--anf", "X1", "--n", "25")
    assert (code, out) == (2, "")
    assert err == (
        "error: arity 25 exceeds the dense transform cap 24; "
        "raise it with set_dense_cap (max 28) or use the analytic paths\n"
    )


def test_spectrum_csv(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--anf", "X1", "--n", "1")
    assert code == 0
    assert out.splitlines()[2] == "1,1,2,1/1"


def test_construct_ot(capsys):
    code, out, _ = run_cli(
        capsys, "construct", "ot", "--g", f"anf:{QUINTIC_SEED_ANF}", "--n", "5", "--m", "1"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["mei_ratio"] == "512/225"
    assert doc["arity"] == 25


def test_construct_ot_without_weight1_maximum(capsys):
    # the xor2 seed's largest squared value sits at weight 2; one step is 4-variable parity
    code, out, _ = run_cli(capsys, "construct", "ot", "--g", "6", "--n", "2", "--m", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["min_entropy"] == "0" and doc["mei_ratio"] == "0"
    assert doc["influence"] == "4" and doc["arity"] == 4


def test_construct_palindrome_big(capsys):
    code, out, _ = run_cli(
        capsys, "construct", "palindrome", "--g", f"anf:{QUINTIC_SEED_ANF}", "--n", "5",
        "--b", "0", "--big",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["mei_ratio"] == "128/45" and doc["arity"] == 30


def test_construct_palindrome_materialised(capsys):
    code, out, _ = run_cli(capsys, "construct", "palindrome", "--g", "anf:X1", "--n", "1", "--b", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 2
    assert doc["tt"] == "6"  # the two-variable parity
    assert doc["metrics"]["influence"] == "2"


# the quintic seed's palindrome documents, pinned byte for byte
_QUINTIC_PALINDROMES = {
    0: (
        '{"schema_version": 2, "n": 6, "tt": "018fb3abd5cdf180", "epsilon_b": "3/8", '
        '"metrics": {"schema_version": 2, "n": 6, "weight": 32, "balanced": true, '
        '"resilience_order": 1, "plateaued": true, "plateau_level": 16, "bent": false, '
        '"entropy": "4", "min_entropy": "4", "influence": "9/4", "max_corr_sq": 256, '
        '"ei_ratio": "16/9", "mei_ratio": "16/9"}}'
    ),
    1: (
        '{"schema_version": 2, "n": 6, "tt": "fe704c54d5cdf180", "epsilon_b": "5/8", '
        '"metrics": {"schema_version": 2, "n": 6, "weight": 32, "balanced": true, '
        '"resilience_order": 0, "plateaued": true, "plateau_level": 16, "bent": false, '
        '"entropy": "4", "min_entropy": "4", "influence": "5/2", "max_corr_sq": 256, '
        '"ei_ratio": "8/5", "mei_ratio": "8/5"}}'
    ),
}


@pytest.mark.parametrize("b", [0, 1])
def test_construct_palindrome_is_pinned(capsys, b):
    code, out, _ = run_cli(
        capsys, "construct", "palindrome", "--g", f"anf:{QUINTIC_SEED_ANF}", "--n", "5", "--b", str(b)
    )
    assert code == 0
    assert out == _QUINTIC_PALINDROMES[b] + "\n"


def test_construct_unbalanced_rejected(capsys):
    code, _, err = run_cli(capsys, "construct", "ot", "--g", "anf:X1X2", "--n", "2", "--m", "1")
    assert code == 2
    assert "balanced" in err


def test_search_general(capsys):
    code, out, _ = run_cli(
        capsys, "search", "general", "--n", "3", "--metric", "mei", "--threads", "1"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["best_ratio"] == "2" and doc["witness_total"] == 24


def test_search_rotsym(capsys):
    code, out, err = run_cli(
        capsys, "search", "rotsym", "--n", "5", "--metric", "ei", "--threads", "1"
    )
    assert code == 0
    doc = json.loads(out)
    assert f"{LogLinear.parse(doc['best_ratio']).value:.6f}" == "3.623740"
    assert "chunk" in err  # progress goes to stderr


def test_search_ei_count_achieving(capsys):
    code, out, _ = run_cli(
        capsys, "search", "general", "--n", "4", "--metric", "ei", "--filter", "balanced",
        "--count-achieving", "2", "--threads", "1",
    )
    assert code == 0
    assert json.loads(out)["count_achieving"] == 192


def test_search_count_achieving(capsys):
    code, out, _ = run_cli(
        capsys, "search", "general", "--n", "3", "--metric", "mei",
        "--count-achieving", "2", "--threads", "1",
    )
    assert code == 0
    assert json.loads(out)["count_achieving"] == 24


def test_search_count_achieving_zero_denominator(capsys):
    code, out, err = run_cli(
        capsys, "search", "general", "--n", "3", "--count-achieving", "1/0", "--threads", "1"
    )
    assert code == 2 and out == ""
    assert "denominator must not be zero" in err


def test_search_bound_error(capsys):
    code, _, err = run_cli(capsys, "search", "general", "--n", "6")
    assert code == 2
    assert "1 <= n <= 5" in err


def test_search_symmetric_bound(capsys):
    code, out, _ = run_cli(
        capsys, "search", "symmetric", "--n", "16", "--metric", "mei", "--threads", "1"
    )
    assert code == 0
    assert json.loads(out)["best_ratio"] == "2"
    code, _, err = run_cli(capsys, "search", "symmetric", "--n", "17", "--metric", "mei")
    assert code == 2
    assert "1 <= n <= 16" in err


def test_search_bad_resilience_order(capsys):
    code, _, err = run_cli(
        capsys, "search", "general", "--n", "3", "--filter", "resilient:x", "--threads", "1"
    )
    assert code == 2
    assert "resilient:" in err
    # filters are parsed strictly: one spelling and one order per job
    for filters in (["resilient:01"], ["resilient:1", "resilient:2"], ["balanced", "balanced"]):
        args = [a for f in filters for a in ("--filter", f)]
        code, out, err = run_cli(capsys, "search", "general", "--n", "3", *args, "--threads", "1")
        assert code == 2 and out == "" and filters[-1] in err


@pytest.mark.parametrize(
    "command", [["search", "general", "--n", "3"], ["verify", "--claims", "c23-general-n3-vs-naive"]]
)
@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_must_be_positive(capsys, command, threads):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--threads", threads])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_search_ot1_mei_needs_its_filters(capsys):
    code, out, err = run_cli(
        capsys, "search", "general", "--n", "3", "--metric", "ot1-mei", "--filter", "balanced",
        "--threads", "1",
    )
    assert code == 2 and out == ""
    assert "weight1-max-walsh" in err


def test_unknown_scope_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--scope", "medium"])
    assert exc.value.code == 2


def test_verify_subset(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--scope", "fast",
        "--claims", "c03-quintic-max-ratio,c17-parseval",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert [e["claim_id"] for e in doc["entries"]] == [
        "c03-quintic-max-ratio", "c17-parseval",
    ]
    assert "PASS" in err


def test_verify_long_claim_skipped_in_fast(capsys):
    code, out, _ = run_cli(capsys, "verify", "--scope", "fast", "--claims", "c25-seed-family-count")
    assert code == 0
    assert json.loads(out)["entries"][0]["status"] == "skipped"


@pytest.mark.parametrize(
    "claims, named", [("c17-parseval,c99-nope", "'c99-nope'"), ("", "''")], ids=["unknown", "empty"]
)
def test_verify_unknown_claim_is_usage_error(capsys, claims, named):
    code, out, err = run_cli(capsys, "verify", "--claims", claims)
    assert code == 2 and out == ""
    assert err.strip() == f"error: unknown claim id(s): {named}"
