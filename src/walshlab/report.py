"""Stable serialisation (JSON/CSV) and the claim-verification suite.

Every value is exact and serialises as the string ``LogLinear.as_str``
writes: ``"num/den"`` (integers ``"k"``) for a rational, otherwise
``"(K - 60*log2(3) + 4*log2(5))/D"``. Serialising never evaluates a binary64
value, and parsing accepts exactly those strings. Every document carries
``schema_version`` 2; readers reject any other version and any missing,
unknown or mistyped field. Only a constant function's two ratios are null.

``CLAIMS`` is the one registry of the toolkit's headline numeric claims, in
ledger order. ``run_verification_suite`` replays them at their own instance
counts and returns a pass/fail ledger; the long-running n=5 sweep claims are
skipped unless the full scope is requested. The acceptance tests run the same
checks at larger counts and under time bounds.
"""
from __future__ import annotations

import csv
import io
import json
import random
import time
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Callable, Iterable, Iterator

import numpy as np

from . import construct, search
from .core import Spectrum, TruthTable, _walsh_spectra, popcounts, reverse, table_from_anf, walsh_transform
from .metrics import (
    LogLinear,
    MetricsReport,
    classify,
    entropy,
    influence_probe,
    influence_spectral,
)

SCHEMA_VERSION = 2  # 2: irrational values are exact strings, not JSON numbers

# The two 5-variable reference functions driving the headline claims: the
# exhaustive-search ratio maximiser and the seed of the 30-variable
# construction.
QUINTIC_MAX_ANF = "X4X3 + X5X2 + X5X4X1 + X5X4X2 + X5X4X3"
QUINTIC_SEED_ANF = (
    "X3X2X1 + X4 + X4X1 + X4X2 + X4X2X1 + X4X3X1 + X4X3X2"
    " + X5 + X5X1 + X5X2X1 + X5X3 + X5X3X1 + X5X3X2 + X5X4"
    " + X5X4X1 + X5X4X2 + X5X4X3"
)


def value_to_json(v: LogLinear | None) -> str | None:
    return None if v is None else v.as_str()


def value_from_json(doc) -> LogLinear | None:
    """The value of a JSON string written by ``value_to_json``; ValueError for anything else."""
    if doc is None:
        return None
    if not isinstance(doc, str):
        raise ValueError(f"an exact value is a JSON string, got {doc!r}")
    return LogLinear.parse(doc)


def _load_document(text: str) -> dict:
    doc = json.loads(text)
    version = doc.get("schema_version") if isinstance(doc, dict) else None
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ValueError(f"expected a schema_version {SCHEMA_VERSION} document, got version {version!r}")
    return doc


_VALUE_FIELDS = frozenset(("entropy", "min_entropy", "influence", "ei_ratio", "mei_ratio"))
_FIELDS = {cls: tuple(f.name for f in fields(cls)) for cls in (MetricsReport, construct.AnalyticReport)}
_METRIC_FIELDS = _FIELDS[MetricsReport]
# What a reader accepts for each field that is not an exact value
_FIELD_CHECKS: dict[str, Callable[[object], bool]] = {
    **dict.fromkeys(("n", "weight", "resilience_order", "max_corr_sq", "arity"), lambda v: type(v) is int),
    **dict.fromkeys(("balanced", "plateaued", "bent"), lambda v: type(v) is bool),
    "plateau_level": lambda v: v is None or type(v) is int,
    **dict.fromkeys(
        ("provenance", "details"),
        lambda v: isinstance(v, dict) and all(type(x) is str for x in v.values()),
    ),
}


def _to_dict(r: MetricsReport | construct.AnalyticReport) -> dict:
    doc = {"schema_version": SCHEMA_VERSION}
    for name in _FIELDS[type(r)]:
        v = getattr(r, name)
        doc[name] = value_to_json(v) if name in _VALUE_FIELDS else dict(v) if isinstance(v, dict) else v
    return doc


def _to_json(r: MetricsReport | construct.AnalyticReport) -> str:
    return json.dumps(_to_dict(r))


def _field_from_json(cls, name: str, v):
    if name in _VALUE_FIELDS:
        # only a constant function's ratios are null: its influence is 0
        if v is None and not (cls is MetricsReport and name in ("ei_ratio", "mei_ratio")):
            raise ValueError(f"field {name!r} cannot be null")
        return value_from_json(v)
    if not _FIELD_CHECKS[name](v):
        raise ValueError(f"field {name!r} cannot be {v!r}")
    return v


def _from_json(cls, text: str):
    """A report from a schema 2 document; ValueError for a missing, unknown or mistyped field."""
    doc = _load_document(text)
    names = _FIELDS[cls]
    missing = [k for k in names if k not in doc]
    unknown = sorted(set(doc).difference(names, ("schema_version",)))
    if missing or unknown:
        raise ValueError(f"missing field(s) {missing}, unknown field(s) {unknown}")
    return cls(**{k: _field_from_json(cls, k, doc[k]) for k in names})


metrics_to_dict, metrics_to_json = _to_dict, _to_json
analytic_to_dict, analytic_to_json = _to_dict, _to_json


def metrics_from_json(text: str) -> MetricsReport:
    return _from_json(MetricsReport, text)


def analytic_from_json(text: str) -> construct.AnalyticReport:
    return _from_json(construct.AnalyticReport, text)


def metrics_to_csv(r: MetricsReport) -> str:
    doc = metrics_to_dict(r)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_METRIC_FIELDS)
    writer.writerow(["" if doc[k] is None else doc[k] for k in _METRIC_FIELDS])
    return buf.getvalue()


def spectrum_to_csv(s: Spectrum) -> str:
    """Rows (point, weight, correlation, exact probability); Parseval footer."""
    wt = popcounts(s.size)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("alpha", "weight", "corr", "corr_sq_over_total"))
    total = 4**s.n
    sum_sq = 0  # a Python int, which cannot wrap
    for a, c in enumerate(s.corr.tolist()):
        sum_sq += c * c
        q = Fraction(c * c, total)
        writer.writerow((format(a, f"0{s.n}b"), int(wt[a]), c, f"{q.numerator}/{q.denominator}"))
    writer.writerow(("PARSEVAL", "", sum_sq, f"{Fraction(sum_sq, total)}"))
    return buf.getvalue()


def search_result_to_dict(r: search.SearchResult) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "job": r.job.canonical(),
        "functions_scanned": r.functions_scanned,
        "best_ratio": value_to_json(r.best_ratio),
        "max_corr_sq": r.max_corr_sq,
        "influence_numerator": r.influence_numerator,
        "witness_total": r.witness_total,
        "witnesses": list(r.witnesses),
        "balanced_at_best": r.balanced_at_best,
        "count_achieving": r.count_achieving,
        "elapsed": r.elapsed,
        "resumed_chunks": r.resumed_chunks,
    }


def search_result_to_json(r: search.SearchResult) -> str:
    return json.dumps(search_result_to_dict(r))


def search_result_canonical(r: search.SearchResult) -> dict:
    """The deterministic part of a result: everything but timings and resume info."""
    doc = search_result_to_dict(r)
    doc.pop("elapsed")
    doc.pop("resumed_chunks")
    return doc


# --- Verification suite ---------------------------------------------------------


@dataclass(frozen=True)
class LedgerEntry:
    claim_id: str
    tag: str  # published | derived | trivial
    description: str
    expected: str
    computed: str
    status: str  # pass | fail | skipped
    runtime: float


@dataclass(frozen=True)
class VerificationLedger:
    entries: tuple[LedgerEntry, ...]

    @property
    def failed(self) -> tuple[LedgerEntry, ...]:
        return tuple(e for e in self.entries if e.status == "fail")

    @property
    def passed(self) -> bool:
        return not self.failed

    def exit_code(self) -> int:
        return 1 if self.failed else 0

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "entries": [e.__dict__ for e in self.entries],
            "passed": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


class _Ctx:
    """Heavy artifacts shared by the claims of one suite run, built on first use."""

    def __init__(self, threads: int | None):
        self.threads = threads
        self._cache: dict[object, object] = {}

    def get(self, key, build: Callable[[], object]):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    @property
    def quintic_max(self) -> TruthTable:
        return self.get("qm", lambda: table_from_anf(QUINTIC_MAX_ANF, 5))

    @property
    def quintic_seed(self) -> TruthTable:
        return self.get("qs", lambda: table_from_anf(QUINTIC_SEED_ANF, 5))

    def quintic_max_report(self) -> MetricsReport:
        return self.get("qm_report", lambda: classify(walsh_transform(self.quintic_max)))

    def quintic_seed_report(self) -> MetricsReport:
        return self.get("qs_report", lambda: classify(walsh_transform(self.quintic_seed)))

    def rotsym(self, n: int, metric: str) -> search.SearchResult:
        return self.get(("rotsym", n, metric), lambda: search.sweep_rotsym(n, metric))

    def seed_family_sweep(self) -> search.SearchResult:
        def run():
            job = search.SearchJob(
                "general",
                5,
                metric="ot1-mei",
                filters=("balanced", "weight1-max-walsh"),
                target="count",
                threshold=Fraction(512, 225),
                witness_cap=512,
            )
            return search.sweep(job, threads=self.threads)

        return self.get("family", run)


_Result = tuple[str, str, bool]  # (expected, computed, ok)


@dataclass(frozen=True)
class Claim:
    """One numeric claim of the ledger.

    ``check(ctx, count)`` returns (expected, computed, ok). A sampled claim
    draws ``count`` instances from a generator seeded with a constant of its
    own, so its inputs do not depend on which other claims run; ``count`` is
    the ledger's instance count, and None for a claim with fixed inputs.
    """

    id: str
    scope: str  # fast | long
    tag: str  # published | derived | trivial
    description: str
    check: Callable[[_Ctx, int | None], _Result]
    count: int | None = None


def _exact(v: LogLinear, q: Fraction) -> _Result:
    want = LogLinear.from_fraction(q)
    return want.as_str(), v.as_str(), v == want


def _random_balanced(rng: random.Random, n: int) -> TruthTable:
    points = list(range(1 << n))
    rng.shuffle(points)
    bits = 0
    for x in points[: 1 << (n - 1)]:
        bits |= 1 << x
    return TruthTable(n, bits)


# (k, l): an outer function on k variables fed k copies of a balanced inner one on l
# variables, for every k, l >= 2 with k * l <= 12
_COMPOSITION_SHAPES = tuple((k, l) for k in range(2, 7) for l in range(2, 7) if k * l <= 12)


def _compositions(seed: int, count: int) -> Iterator[construct.CompositionSpec]:
    """``count`` random disjoint compositions, cycling through ``_COMPOSITION_SHAPES``."""
    rng = random.Random(seed)
    for i in range(count):
        k, l = _COMPOSITION_SHAPES[i % len(_COMPOSITION_SHAPES)]
        yield construct.CompositionSpec(TruthTable(k, rng.getrandbits(1 << k)), _random_balanced(rng, l))


def _tables(seed: int, count: int) -> Iterator[list[TruthTable]]:
    """``count`` random functions at each arity n = 1..10, one list per arity."""
    rng = random.Random(seed)
    for n in range(1, 11):
        yield [TruthTable(n, rng.getrandbits(1 << n)) for _ in range(count)]


def _spectra(tables: list[TruthTable]) -> list[Spectrum]:
    """The Walsh spectra of functions of one arity, from one batched transform.

    A transform costs a few microseconds a call at n <= 10, mostly GEMM
    dispatch and casts, which one call over the stacked tables pays once.
    """
    corr = _walsh_spectra(np.array([t.signs() for t in tables]))
    return [Spectrum(t.n, row) for t, row in zip(tables, corr)]


def _shape(spec: construct.CompositionSpec) -> str:
    return f"k={spec.outer.n} l={spec.inner.n}"


def _c07(ctx: _Ctx, count: None) -> _Result:
    s = walsh_transform(ctx.quintic_seed)
    eps = construct.epsilon_mass(s, 0)
    # an independent oracle: the squared correlations at odd-weight points, summed one by one
    odd = Fraction(sum(c * c for a, c in enumerate(s.corr.tolist()) if bin(a).count("1") % 2), 4**5)
    return "3/8 by epsilon_mass and by a direct sum", f"{eps} and {odd}", eps == odd == Fraction(3, 8)


def _c08(ctx: _Ctx, count: None) -> _Result:
    rep = construct.gb_construction_report(ctx.quintic_seed, 0)
    want, got, ok = _exact(rep.mei_ratio, Fraction(128, 45))
    return f"arity 30, ratio {want}", f"arity {rep.arity}, ratio {got}", ok and rep.arity == 30


def _c10(ctx: _Ctx, count: int) -> _Result:
    for spec in _compositions(0xC10, count):
        brute = walsh_transform(construct.disjoint_compose(spec))
        if not np.array_equal(brute.corr, construct.disjoint_spectrum(spec).corr):
            return "pointwise equality", f"mismatch at {_shape(spec)}", False
    return f"pointwise equality on {count} instances", f"{count} instances equal", True


def _c11(ctx: _Ctx, count: int) -> _Result:
    for spec in _compositions(0xC11, count):
        analytic = construct.disjoint_min_entropy(spec)
        brute = classify(walsh_transform(construct.disjoint_compose(spec)))
        inner_peak = Fraction(walsh_transform(spec.inner).max_corr_sq, 4**spec.inner.n)
        peak = construct.composition_peak(walsh_transform(spec.outer), inner_peak)
        if Fraction(brute.max_corr_sq, 4**spec.arity) != peak.best:
            return "exact peak equality", f"mismatch at {_shape(spec)}", False
        if analytic != brute.min_entropy:
            return "min-entropy equality", f"mismatch at {_shape(spec)}", False
    return f"exact equality on {count} instances", f"{count} instances equal", True


def _c12(ctx: _Ctx, count: int) -> _Result:
    for spec in _compositions(0xC12, count):
        inf_fg = influence_spectral(walsh_transform(construct.disjoint_compose(spec)))
        inf_f = influence_spectral(walsh_transform(spec.outer))
        inf_g = influence_spectral(walsh_transform(spec.inner))
        if inf_fg.rational != inf_f.rational * inf_g.rational:
            return "exact influence product", f"mismatch at {_shape(spec)}", False
    return f"exact influence product on {count} instances", "all equal", True


def _c13(ctx: _Ctx, count: int) -> _Result:
    for spec in _compositions(0xC13, count):
        h_fg = entropy(walsh_transform(construct.disjoint_compose(spec)))
        fs = walsh_transform(spec.outer)
        if h_fg != entropy(fs) + entropy(walsh_transform(spec.inner)) * influence_spectral(fs).rational:
            return "exact additivity", f"mismatch at {_shape(spec)}", False
    return f"exact additivity on {count} instances", f"{count} instances equal", True


def _c14(ctx: _Ctx, count: int) -> _Result:
    for tables in _tables(0xC14, count):
        n = tables[0].n
        revs = [reverse(g) for g in tables]
        if revs != [TruthTable.from_array(g.bit_array()[::-1], n) for g in tables]:  # the bit-reversal oracle
            return "reversal reads the table backwards", f"mismatch at n={n}", False
        signs = 1 - 2 * (popcounts(1 << n) & 1)
        if any(not np.array_equal(sr.corr, signs * sg.corr) for sg, sr in zip(_spectra(tables), _spectra(revs))):
            return "sign rule", f"violated at n={n}", False
    return f"reversal oracle and sign rule on {10 * count} random functions", "hold", True


def _c15(ctx: _Ctx, count: int) -> _Result:
    for tables in _tables(0xC15, count):
        n = tables[0].n
        spectra = _spectra(tables)
        eps = [(construct.epsilon_mass(s, 0), construct.epsilon_mass(s, 1)) for s in spectra]
        if any(e0 + e1 != 1 for e0, e1 in eps):
            return "mass partition", f"eps0+eps1 != 1 at n={n}", False
        inf = [influence_spectral(s).rational for s in spectra]
        parity = popcounts(2 << n) & 1
        for b in (0, 1):
            ext = [construct.palindromic_extend(g, b) for g in tables]
            for i, sgb in enumerate(_spectra(ext)):
                if np.any(sgb.corr[parity != b]):
                    return "banded spectrum", f"nonzero banned weight at n={n}", False
                if sgb.max_corr_sq != 4 * spectra[i].max_corr_sq:
                    return "min-entropy preserved", f"max corr^2 mismatch at n={n}", False
                if influence_spectral(sgb).rational != inf[i] + eps[i][b]:
                    return "influence shift", f"mismatch at n={n}", False
    return (
        f"banded+preserved+shift+partition+epsilon_b, {10 * count} functions x b=0,1, n=1..10",
        "all hold",
        True,
    )


def _c16(ctx: _Ctx, count: int) -> _Result:
    for tables in _tables(0xC16, count):
        for f, s in zip(tables, _spectra(tables)):
            if influence_probe(f).rational != influence_spectral(s).rational:
                return "probe equals spectral", f"mismatch at n={f.n}", False
    return f"probe equals spectral, {10 * count} functions", "all equal", True


def _c17(ctx: _Ctx, count: int) -> _Result:
    for tables in _tables(0xC17, count):
        if not all(s.parseval_holds() for s in _spectra(tables)):
            return "Parseval", f"violated at n={tables[0].n}", False
    return f"Parseval on {10 * count} random functions", "exact", True


def _rotsym_max(n: int, metric: str, published: str) -> Callable[[_Ctx, None], _Result]:
    def check(ctx: _Ctx, count: None) -> _Result:
        # best_ratio.value is the exact maximum, correctly rounded
        got = f"{ctx.rotsym(n, metric).best_ratio.value:.6f}"
        return published, got, got == published

    return check


def _rotsym_achievers(n: int, metric: str, achievers: int) -> Callable[[_Ctx, None], _Result]:
    def check(ctx: _Ctx, count: None) -> _Result:
        res = ctx.rotsym(n, metric)
        return (
            f"{achievers} achievers, 0 balanced",
            f"{res.witness_total} achievers, {res.balanced_at_best} balanced",
            res.witness_total == achievers and res.balanced_at_best == 0,
        )

    return check


def _c22(ctx: _Ctx, count: None) -> _Result:
    two = LogLinear.from_fraction(2)
    bad = []
    for c in search.check_conjecture(range(1, 13)):
        # bent functions, the min-entropy maximisers of ratio 2, exist only at even n
        mei_ok = (c.mei_max == two and c.bent_achievers > 0) if c.n % 2 == 0 else c.mei_max < two
        if not (c.passed and c.ei_achievers == (2 if c.n == 1 else 4) and mei_ok):
            bad.append(c.n)
    return (
        "all pass for n=1..12: 4 entropy achievers (2 at n=1); min-entropy maximum 2 "
        "with bent achievers at even n, below 2 at odd n",
        f"failures at n={bad}" if bad else "all pass",
        not bad,
    )


def _c23(ctx: _Ctx, count: None) -> _Result:
    job = search.SearchJob("general", 3, metric="mei", chunk_bits=3)
    res = search.sweep(job, threads=ctx.threads)
    # independent naive scan of all 256 functions, ranking ties on exact values
    best = None
    for v in range(1 << 8):
        key = classify(walsh_transform(TruthTable(3, v))).mei_ratio
        if key is None:
            continue
        if best is None or key > best:
            best, cnt = key, 1
        elif key == best:
            cnt += 1
    ok = res.best_ratio == best and res.witness_total == cnt
    return f"max {best.as_str()} x{cnt}", f"max {res.best_ratio.as_str()} x{res.witness_total}", ok


def _c24(ctx: _Ctx, count: None) -> _Result:
    job = search.SearchJob("general", 5, metric="mei", chunk_bits=8)
    res = search.sweep(job, threads=ctx.threads)
    want, got, ok = _exact(res.best_ratio, Fraction(16, 7))
    ok &= res.witness_total == 3840 and res.balanced_at_best == 0
    return (
        f"ratio {want}, 3840 witnesses, all unbalanced",
        f"ratio {got}, {res.witness_total} witnesses, {res.balanced_at_best} balanced",
        ok,
    )


def _c25(ctx: _Ctx, count: None) -> _Result:
    res = ctx.seed_family_sweep()
    return (
        "384 functions, 384 witnesses",
        f"{res.count_achieving} functions, {len(res.witnesses)} witnesses",
        res.count_achieving == 384 and len(res.witnesses) == 384,
    )


def _seed_family_members(report: Callable, ratio: Fraction) -> Callable[[_Ctx, None], _Result]:
    def check(ctx: _Ctx, count: None) -> _Result:
        res = ctx.seed_family_sweep()
        bad = 0
        for hexstr in res.witnesses:
            rep = report(TruthTable.from_hex(hexstr, 5))
            if rep.mei_ratio.rational != ratio:
                bad += 1
        return f"{ratio} for every member", f"{bad} mismatches over {len(res.witnesses)}", bad == 0

    return check


# The one list of claims, in ledger order. tests/test_acceptance.py runs these
# same checks at its own instance counts and time bounds.
CLAIMS: tuple[Claim, ...] = (
    Claim("c01-quintic-max-min-entropy", "fast", "published", "5-var sweep maximiser has min-entropy 4",
          lambda ctx, count: _exact(ctx.quintic_max_report().min_entropy, Fraction(4))),
    Claim("c02-quintic-max-influence", "fast", "published", "5-var sweep maximiser has influence 7/4",
          lambda ctx, count: _exact(ctx.quintic_max_report().influence, Fraction(7, 4))),
    Claim("c03-quintic-max-ratio", "fast", "published", "5-var sweep maximiser ratio is 16/7",
          lambda ctx, count: _exact(ctx.quintic_max_report().mei_ratio, Fraction(16, 7))),
    Claim("c04-quintic-seed-min-entropy", "fast", "published", "30-var seed has min-entropy 4",
          lambda ctx, count: _exact(ctx.quintic_seed_report().min_entropy, Fraction(4))),
    Claim("c05-quintic-seed-influence", "fast", "published", "30-var seed has influence 15/8",
          lambda ctx, count: _exact(ctx.quintic_seed_report().influence, Fraction(15, 8))),
    Claim("c06-iterated-step1-ratio", "fast", "published", "one composition step on the seed gives 512/225",
          lambda ctx, count: _exact(construct.ot_recursion_metrics(ctx.quintic_seed, 1).mei_ratio,
                                    Fraction(512, 225))),
    Claim("c07-seed-odd-weight-mass", "fast", "derived", "odd-weight spectral mass of the seed is 3/8", _c07),
    Claim("c08-thirty-var-ratio", "fast", "published", "30-var construction ratio is exactly 128/45", _c08),
    Claim("c09-thirty-var-min-entropy", "fast", "derived", "30-var construction min-entropy is 12",
          lambda ctx, count: _exact(construct.gb_construction_report(ctx.quintic_seed, 0).min_entropy,
                                    Fraction(12))),
    Claim("c10-composition-spectrum-pointwise", "fast", "derived",
          "analytic composition spectrum equals brute force", _c10, 100),
    Claim("c11-composition-min-entropy", "fast", "derived",
          "analytic composition min-entropy equals brute force", _c11, 100),
    Claim("c12-composition-influence-product", "fast", "published",
          "influence multiplies under disjoint composition", _c12, 100),
    Claim("c13-composition-entropy-rule", "fast", "published", "entropy is additive with influence weight",
          _c13, 100),
    Claim("c14-reversal-sign-rule", "fast", "published", "reversal flips spectrum signs by weight parity",
          _c14, 50),
    Claim("c15-palindromic-properties", "fast", "published",
          "banded spectrum, preserved min-entropy, influence shift, mass partition", _c15, 25),
    Claim("c16-influence-probe-vs-spectral", "fast", "derived", "flip-probe influence equals spectral influence",
          _c16, 25),
    Claim("c17-parseval", "fast", "trivial", "integer Parseval identity on random functions", _c17, 25),
    Claim("c18-rotsym-n6-ei", "fast", "published", "rotation-symmetric n=6 entropy ratio maximum",
          _rotsym_max(6, "ei", "3.739764")),
    Claim("c19-rotsym-n6-mei", "fast", "published", "rotation-symmetric n=6 min-entropy ratio maximum",
          _rotsym_max(6, "mei", "2.168978")),
    Claim("c20-rotsym-n7-ei", "fast", "published", "rotation-symmetric n=7 entropy ratio maximum",
          _rotsym_max(7, "ei", "3.804357")),
    Claim("c21-rotsym-n7-mei", "fast", "published", "rotation-symmetric n=7 min-entropy ratio maximum",
          _rotsym_max(7, "mei", "2.227449")),
    Claim("c22-symmetric-conjecture", "fast", "published", "symmetric ratio claims hold for n=1..12", _c22),
    Claim("c23-general-n3-vs-naive", "fast", "derived", "n=3 engine agrees with a naive scan", _c23),
    Claim("c24-general-n5-max", "long", "published", "n=5 sweep: max 16/7 with 3840 unbalanced witnesses",
          _c24),
    Claim("c25-seed-family-count", "long", "published", "filtered n=5 sweep finds exactly 384 seeds", _c25),
    Claim("c26-seed-family-step1", "long", "published", "every seed gives 512/225 after one step",
          _seed_family_members(lambda g: construct.ot_recursion_metrics(g, 1), Fraction(512, 225))),
    Claim("c27-seed-family-thirty-var", "long", "published", "every seed gives 128/45 at 30 variables",
          _seed_family_members(lambda g: construct.gb_construction_report(g, 0), Fraction(128, 45))),
    Claim("c28-rotsym-n6-ei-achievers", "fast", "derived",
          "rotation-symmetric n=6 entropy ratio maximum: 4 achievers, none balanced",
          _rotsym_achievers(6, "ei", 4)),
    Claim("c29-rotsym-n6-mei-achievers", "fast", "derived",
          "rotation-symmetric n=6 min-entropy ratio maximum: 8 achievers, none balanced",
          _rotsym_achievers(6, "mei", 8)),
    Claim("c30-rotsym-n7-ei-achievers", "fast", "derived",
          "rotation-symmetric n=7 entropy ratio maximum: 4 achievers, none balanced",
          _rotsym_achievers(7, "ei", 4)),
    Claim("c31-rotsym-n7-mei-achievers", "fast", "derived",
          "rotation-symmetric n=7 min-entropy ratio maximum: 12 achievers, none balanced",
          _rotsym_achievers(7, "mei", 12)),
)


def run_verification_suite(
    scope: str = "fast",
    threads: int | None = None,
    claim_ids: Iterable[str] | None = None,
    progress: Callable[[LedgerEntry], None] | None = None,
) -> VerificationLedger:
    """Replay the toolkit's numeric claims and collect a pass/fail ledger.

    ``fast`` runs everything except the four n=5 general-sweep claims, which
    ``full`` adds. Each claim runs at its ledger ``count``. ``claim_ids``
    restricts to a subset (still in ledger order) and raises ``ValueError``
    naming any id that is not a claim; failures become entries, never
    exceptions.
    """
    if scope not in ("fast", "full"):
        raise ValueError("scope must be 'fast' or 'full'")
    search.check_threads(threads)
    ctx = _Ctx(threads)
    known = [c.id for c in CLAIMS]
    wanted = set(known if claim_ids is None else claim_ids)
    unknown = sorted(wanted.difference(known))
    if unknown:
        raise ValueError(f"unknown claim id(s): {', '.join(map(repr, unknown))}")
    entries = []
    for claim in CLAIMS:
        if claim.id not in wanted:
            continue
        if claim.scope == "long" and scope != "full":
            entries.append(LedgerEntry(claim.id, claim.tag, claim.description, "", "", "skipped", 0.0))
            continue
        t0 = time.perf_counter()
        try:
            expected, computed, ok = claim.check(ctx, claim.count)
        except Exception as exc:  # a crash is a failing claim, not a suite abort
            expected, computed, ok = "no exception", f"{type(exc).__name__}: {exc}", False
        entry = LedgerEntry(
            claim.id, claim.tag, claim.description, expected, computed,
            "pass" if ok else "fail", time.perf_counter() - t0,
        )
        entries.append(entry)
        if progress is not None:
            progress(entry)
    return VerificationLedger(tuple(entries))
