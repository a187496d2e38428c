"""Stable serialisation (JSON/CSV) and the claim-verification suite.

Every value is exact and serialises as the string ``LogLinear.as_str``
writes: ``"num/den"`` (integers ``"k"``) for a rational, otherwise
``"(K - 60*log2(3) + 4*log2(5))/D"``. Serialising never evaluates a binary64
value, and parsing accepts exactly those strings. Every document carries
``schema_version`` 2; readers reject any other version. The verification
suite replays the toolkit's headline numeric claims and returns a pass/fail
ledger whose entries are ordered by claim id; long-running sweep claims are
skipped unless the full scope is requested.
"""
from __future__ import annotations

import csv
import io
import json
import random
import time
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Callable, Iterable

import numpy as np

from . import construct, search
from .core import Spectrum, TruthTable, popcounts, reverse, table_from_anf, walsh_transform
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


# Every other report field is an int, a bool, None or a dict of strings.
_VALUE_FIELDS = frozenset(("entropy", "min_entropy", "influence", "ei_ratio", "mei_ratio"))
_FIELDS = {cls: tuple(f.name for f in fields(cls)) for cls in (MetricsReport, construct.AnalyticReport)}
_METRIC_FIELDS = _FIELDS[MetricsReport]


def _to_dict(r: MetricsReport | construct.AnalyticReport) -> dict:
    doc = {"schema_version": SCHEMA_VERSION}
    for name in _FIELDS[type(r)]:
        v = getattr(r, name)
        doc[name] = value_to_json(v) if name in _VALUE_FIELDS else dict(v) if isinstance(v, dict) else v
    return doc


def _to_json(r: MetricsReport | construct.AnalyticReport) -> str:
    return json.dumps(_to_dict(r))


def _from_json(cls, text: str):
    doc = _load_document(text)
    return cls(**{k: value_from_json(doc[k]) if k in _VALUE_FIELDS else doc[k] for k in _FIELDS[cls]})


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
    """Lazily shared heavy artifacts across suite claims."""

    def __init__(self, threads: int | None):
        self.threads = threads
        self._cache: dict[str, object] = {}

    def get(self, key: str, build: Callable[[], object]):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    @property
    def quintic_max(self) -> TruthTable:
        return self.get("qm", lambda: table_from_anf(QUINTIC_MAX_ANF, 5))

    @property
    def quintic_seed(self) -> TruthTable:
        return self.get("qs", lambda: table_from_anf(QUINTIC_SEED_ANF, 5))

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


def _exact(v: LogLinear | None, q: Fraction) -> tuple[str, str, bool]:
    want = LogLinear.from_fraction(q)
    if v is None:
        return want.as_str(), "unavailable", False
    return want.as_str(), v.as_str(), v == want


def _claims(ctx: _Ctx) -> list[tuple[str, str, str, str, Callable[[], tuple[str, str, bool]]]]:
    """(claim_id, scope, tag, description, check) in ledger order."""
    rng = random.Random(0xB00)

    def quintic_max_report():
        return ctx.get("qm_report", lambda: classify(walsh_transform(ctx.quintic_max)))

    def quintic_seed_report():
        return ctx.get("qs_report", lambda: classify(walsh_transform(ctx.quintic_seed)))

    def c01():
        return _exact(quintic_max_report().min_entropy, Fraction(4))

    def c02():
        return _exact(quintic_max_report().influence, Fraction(7, 4))

    def c03():
        return _exact(quintic_max_report().mei_ratio, Fraction(16, 7))

    def c04():
        return _exact(quintic_seed_report().min_entropy, Fraction(4))

    def c05():
        return _exact(quintic_seed_report().influence, Fraction(15, 8))

    def c06():
        rep = construct.ot_recursion_metrics(ctx.quintic_seed, 1)
        return _exact(rep.mei_ratio, Fraction(512, 225))

    def c07():
        eps = construct.epsilon_mass(walsh_transform(ctx.quintic_seed), 0)
        return _exact(LogLinear.from_fraction(eps), Fraction(3, 8))

    def c08():
        rep = construct.gb_construction_report(ctx.quintic_seed, 0)
        ok = rep.arity == 30
        want, got, ok2 = _exact(rep.mei_ratio, Fraction(128, 45))
        return f"arity 30, ratio {want}", f"arity {rep.arity}, ratio {got}", ok and ok2

    def c09():
        rep = construct.gb_construction_report(ctx.quintic_seed, 0)
        return _exact(rep.min_entropy, Fraction(12))

    def _random_balanced(n: int) -> TruthTable:
        bits = list(range(1 << n))
        rng.shuffle(bits)
        val = 0
        for x in bits[: 1 << (n - 1)]:
            val |= 1 << x
        return TruthTable(n, val)

    def c10():
        checked = 0
        for _ in range(100):
            k = rng.randint(2, 4)
            l = rng.randint(2, min(4, 12 // k))
            f = TruthTable(k, rng.getrandbits(1 << k))
            g = _random_balanced(l)
            spec = construct.CompositionSpec(f, g)
            brute = walsh_transform(construct.disjoint_compose(spec))
            analytic = construct.disjoint_spectrum(spec)
            if not np.array_equal(brute.corr, analytic.corr):
                return "pointwise equality", f"mismatch at k={k} l={l}", False
            checked += 1
        return "pointwise equality on 100 instances", f"{checked} instances equal", True

    def c11():
        for _ in range(100):
            k = rng.randint(2, 4)
            l = rng.randint(2, min(4, 12 // k))
            f = TruthTable(k, rng.getrandbits(1 << k))
            g = _random_balanced(l)
            spec = construct.CompositionSpec(f, g)
            analytic = construct.disjoint_min_entropy(spec)
            brute = classify(walsh_transform(construct.disjoint_compose(spec)))
            peak = construct.composition_peak(walsh_transform(f), walsh_transform(g))
            if Fraction(brute.max_corr_sq, 4**spec.arity) != peak.best:
                return "exact peak equality", "mismatch", False
            if analytic != brute.min_entropy:
                return "min-entropy equality", "mismatch", False
        return "exact equality on 100 instances", "100 instances equal", True

    def c12():
        for _ in range(100):
            k, l = rng.randint(2, 4), rng.randint(2, 4)
            f = TruthTable(k, rng.getrandbits(1 << k))
            g = _random_balanced(l)
            spec = construct.CompositionSpec(f, g)
            inf_fg = influence_spectral(walsh_transform(construct.disjoint_compose(spec)))
            inf_f = influence_spectral(walsh_transform(f))
            inf_g = influence_spectral(walsh_transform(g))
            if inf_fg.rational != inf_f.rational * inf_g.rational:
                return "exact influence product", "mismatch", False
        return "exact influence product on 100 instances", "all equal", True

    def c13():
        for _ in range(100):
            k, l = rng.randint(2, 4), rng.randint(2, 4)
            f = TruthTable(k, rng.getrandbits(1 << k))
            g = _random_balanced(l)
            spec = construct.CompositionSpec(f, g)
            h_fg = entropy(walsh_transform(construct.disjoint_compose(spec)))
            fs = walsh_transform(f)
            if h_fg != entropy(fs) + entropy(walsh_transform(g)) * influence_spectral(fs).rational:
                return "exact additivity", f"mismatch at k={k} l={l}", False
        return "exact additivity on 100 instances", "100 instances equal", True

    def c14():
        wt_cache = {}
        for n in range(1, 11):
            wt_cache[n] = popcounts(1 << n)
            for _ in range(50):
                g = TruthTable(n, rng.getrandbits(1 << n))
                sg = walsh_transform(g)
                sr = walsh_transform(reverse(g))
                signs = 1 - 2 * (wt_cache[n] & 1)
                if not np.array_equal(sr.corr, signs * sg.corr):
                    return "sign rule", f"violated at n={n}", False
        return "sign rule on 500 random functions", "holds", True

    def c15():
        for n in range(1, 11):
            wt = popcounts(1 << (n + 1))
            for _ in range(25):
                g = TruthTable(n, rng.getrandbits(1 << n))
                sg = walsh_transform(g)
                e0 = construct.epsilon_mass(sg, 0)
                e1 = construct.epsilon_mass(sg, 1)
                if e0 + e1 != 1:
                    return "mass partition", "eps0+eps1 != 1", False
                for b in (0, 1):
                    gb, pspec = construct.palindromic_extend(g, b)
                    sgb = walsh_transform(gb)
                    banded = sgb.corr[(wt & 1) == (1 - b)]
                    if np.any(banded != 0):
                        return "banded spectrum", f"nonzero banned weight at n={n}", False
                    if sgb.max_corr_sq != 4 * sg.max_corr_sq:
                        return "min-entropy preserved", "max corr^2 mismatch", False
                    lhs = influence_spectral(sgb).rational
                    rhs = influence_spectral(sg).rational + pspec.epsilon_b.rational
                    if lhs != rhs:
                        return "influence shift", "mismatch", False
        return "banded+preserved+shift+partition, 250 functions x n=1..10", "all hold", True

    def c16():
        for n in range(1, 11):
            for _ in range(25):
                f = TruthTable(n, rng.getrandbits(1 << n))
                if influence_probe(f).rational != influence_spectral(walsh_transform(f)).rational:
                    return "probe equals spectral", f"mismatch at n={n}", False
        return "probe equals spectral, 250 functions", "all equal", True

    def c17():
        for n in range(1, 11):
            for _ in range(25):
                f = TruthTable(n, rng.getrandbits(1 << n))
                if not walsh_transform(f).parseval_holds():
                    return "Parseval", f"violated at n={n}", False
        return "Parseval on 250 random functions", "exact", True

    def _rotsym(n: int, metric: str, published: str) -> tuple[str, str, bool]:
        # best_ratio.value is the exact maximum, correctly rounded
        got = f"{search.sweep_rotsym(n, metric, threads=ctx.threads).best_ratio.value:.6f}"
        return published, got, got == published

    def c18():
        return _rotsym(6, "ei", "3.739764")

    def c19():
        return _rotsym(6, "mei", "2.168978")

    def c20():
        return _rotsym(7, "ei", "3.804357")

    def c21():
        return _rotsym(7, "mei", "2.227449")

    def c22():
        checks = search.check_conjecture(range(1, 13))
        bad = [c.n for c in checks if not c.passed]
        return "all pass for n=1..12", f"failures at n={bad}" if bad else "all pass", not bad

    def c23():
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

    def c24():
        job = search.SearchJob("general", 5, metric="mei", chunk_bits=8)
        res = search.sweep(job, threads=ctx.threads)
        want, got, ok = _exact(res.best_ratio, Fraction(16, 7))
        ok &= res.witness_total == 3840 and res.balanced_at_best == 0
        return (
            f"ratio {want}, 3840 witnesses, all unbalanced",
            f"ratio {got}, {res.witness_total} witnesses, {res.balanced_at_best} balanced",
            ok,
        )

    def c25():
        res = ctx.seed_family_sweep()
        return "384 functions", f"{res.count_achieving} functions", res.count_achieving == 384

    def c26():
        res = ctx.seed_family_sweep()
        bad = 0
        for hexstr in res.witnesses:
            g = TruthTable.from_hex(hexstr, 5)
            rep = construct.ot_recursion_metrics(g, 1)
            if not (rep.mei_ratio and rep.mei_ratio.rational == Fraction(512, 225)):
                bad += 1
        return "512/225 for every member", f"{bad} mismatches over {len(res.witnesses)}", bad == 0

    def c27():
        res = ctx.seed_family_sweep()
        bad = 0
        for hexstr in res.witnesses:
            g = TruthTable.from_hex(hexstr, 5)
            rep = construct.gb_construction_report(g, 0)
            if not (rep.mei_ratio and rep.mei_ratio.rational == Fraction(128, 45)):
                bad += 1
        return "128/45 for every member", f"{bad} mismatches over {len(res.witnesses)}", bad == 0

    return [
        ("c01-quintic-max-min-entropy", "fast", "published", "5-var sweep maximiser has min-entropy 4", c01),
        ("c02-quintic-max-influence", "fast", "published", "5-var sweep maximiser has influence 7/4", c02),
        ("c03-quintic-max-ratio", "fast", "published", "5-var sweep maximiser ratio is 16/7", c03),
        ("c04-quintic-seed-min-entropy", "fast", "published", "30-var seed has min-entropy 4", c04),
        ("c05-quintic-seed-influence", "fast", "published", "30-var seed has influence 15/8", c05),
        ("c06-iterated-step1-ratio", "fast", "published", "one composition step on the seed gives 512/225", c06),
        ("c07-seed-odd-weight-mass", "fast", "derived", "odd-weight spectral mass of the seed is 3/8", c07),
        ("c08-thirty-var-ratio", "fast", "published", "30-var construction ratio is exactly 128/45", c08),
        ("c09-thirty-var-min-entropy", "fast", "derived", "30-var construction min-entropy is 12", c09),
        ("c10-composition-spectrum-pointwise", "fast", "derived", "analytic composition spectrum equals brute force", c10),
        ("c11-composition-min-entropy", "fast", "derived", "analytic composition min-entropy equals brute force", c11),
        ("c12-composition-influence-product", "fast", "published", "influence multiplies under disjoint composition", c12),
        ("c13-composition-entropy-rule", "fast", "published", "entropy is additive with influence weight", c13),
        ("c14-reversal-sign-rule", "fast", "published", "reversal flips spectrum signs by weight parity", c14),
        ("c15-palindromic-properties", "fast", "published", "banded spectrum, preserved min-entropy, influence shift, mass partition", c15),
        ("c16-influence-probe-vs-spectral", "fast", "derived", "flip-probe influence equals spectral influence", c16),
        ("c17-parseval", "fast", "trivial", "integer Parseval identity on random functions", c17),
        ("c18-rotsym-n6-ei", "fast", "published", "rotation-symmetric n=6 entropy ratio maximum", c18),
        ("c19-rotsym-n6-mei", "fast", "published", "rotation-symmetric n=6 min-entropy ratio maximum", c19),
        ("c20-rotsym-n7-ei", "fast", "published", "rotation-symmetric n=7 entropy ratio maximum", c20),
        ("c21-rotsym-n7-mei", "fast", "published", "rotation-symmetric n=7 min-entropy ratio maximum", c21),
        ("c22-symmetric-conjecture", "fast", "published", "symmetric ratio claims hold for n=1..12", c22),
        ("c23-general-n3-vs-naive", "fast", "derived", "n=3 engine agrees with a naive scan", c23),
        ("c24-general-n5-max", "long", "published", "n=5 sweep: max 16/7 with 3840 unbalanced witnesses", c24),
        ("c25-seed-family-count", "long", "published", "filtered n=5 sweep finds exactly 384 seeds", c25),
        ("c26-seed-family-step1", "long", "published", "every seed gives 512/225 after one step", c26),
        ("c27-seed-family-thirty-var", "long", "published", "every seed gives 128/45 at 30 variables", c27),
    ]


def run_verification_suite(
    scope: str = "fast",
    threads: int | None = None,
    claim_ids: Iterable[str] | None = None,
    progress: Callable[[LedgerEntry], None] | None = None,
) -> VerificationLedger:
    """Replay the toolkit's numeric claims and collect a pass/fail ledger.

    ``fast`` runs everything except the four n=5 general-sweep claims, which
    ``full`` adds. ``claim_ids`` restricts to a subset (still in ledger
    order) and raises ``ValueError`` naming any id that is not a claim;
    failures become entries, never exceptions.
    """
    if scope not in ("fast", "full"):
        raise ValueError("scope must be 'fast' or 'full'")
    search.check_threads(threads)
    ctx = _Ctx(threads)
    claims = _claims(ctx)
    known = [c[0] for c in claims]
    wanted = set(known if claim_ids is None else claim_ids)
    unknown = sorted(wanted.difference(known))
    if unknown:
        raise ValueError(f"unknown claim id(s): {', '.join(map(repr, unknown))}")
    entries = []
    for claim_id, claim_scope, tag, description, fn in claims:
        if claim_id not in wanted:
            continue
        if claim_scope == "long" and scope != "full":
            entries.append(LedgerEntry(claim_id, tag, description, "", "", "skipped", 0.0))
            continue
        t0 = time.perf_counter()
        try:
            expected, computed, ok = fn()
        except Exception as exc:  # a crash is a failing claim, not a suite abort
            expected, computed, ok = "no exception", f"{type(exc).__name__}: {exc}", False
        entry = LedgerEntry(
            claim_id, tag, description, expected, computed,
            "pass" if ok else "fail", time.perf_counter() - t0,
        )
        entries.append(entry)
        if progress is not None:
            progress(entry)
    return VerificationLedger(tuple(entries))
