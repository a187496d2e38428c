"""The four walshlab benchmark workloads: inputs, fixed call lists and output checks.

A workload builds its inputs from the seed and runs passes over its fixed
call list. A pass times each call and checks the call's outputs after the
clock stops, so checks never count toward the reported times. Every check
compares an output with a value the benchmark derives on its own: a direct
evaluation from the truth table, an exact identity, or a published number.
"""
from __future__ import annotations

import json
import math
import os
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

import numpy as np

from walshlab import (
    CompositionSpec,
    SearchJob,
    TruthTable,
    classify,
    disjoint_compose,
    disjoint_spectrum,
    disjoint_walsh,
    gb_construction_report,
    influence_probe,
    ot_recursion_metrics,
    run_verification_suite,
    sweep,
    table_from_anf,
    walsh_transform,
)
from walshlab.report import metrics_to_json, search_result_canonical

# The two 5-variable functions behind the paper's headline numbers: the
# maximiser of min-entropy/influence over all 5-variable functions, and the
# balanced seed of the 25- and 30-variable constructions.
QUINTIC_MAX_ANF = "X4X3 + X5X2 + X5X4X1 + X5X4X2 + X5X4X3"
QUINTIC_SEED_ANF = (
    "X3X2X1 + X4 + X4X1 + X4X2 + X4X2X1 + X4X3X1 + X4X3X2"
    " + X5 + X5X1 + X5X2X1 + X5X3 + X5X3X1 + X5X3X2 + X5X4"
    " + X5X4X1 + X5X4X2 + X5X4X3"
)
QUINTIC_MAX_EXPECT = {"mei_ratio": Fraction(16, 7)}
QUINTIC_SEED_EXPECT = {
    "min_entropy": Fraction(4),
    "influence": Fraction(15, 8),
    "ot1_mei_ratio": Fraction(512, 225),
    "gb_mei_ratio": Fraction(128, 45),
}

_CHUNK = 1 << 20  # checks work on slices this long, so they add little to peak memory


@dataclass
class PassResult:
    wall: float  # summed duration of the pass's timed calls, in seconds
    latencies: list[float]  # one per call, in seconds
    functions: int  # Boolean functions analysed or scanned


class Checker:
    """Counts output checks and keeps the failures.

    With ``inject_fault`` the first expected value is replaced by a wrong one,
    so a run shows that a wrong output is counted as a failure.
    """

    def __init__(self, inject_fault: bool = False):
        self.attempted = 0
        self.failures: list[str] = []
        self._inject = inject_fault

    def equal(self, label: str, got, want) -> None:
        if self._inject:
            want, self._inject = ("injected fault", want), False
        self.attempted += 1
        if got != want:
            self.failures.append(f"{label}: got {got!r}, want {want!r}")

    def close(self, label: str, got: float, want: float, rel: float = 1e-12) -> None:
        self.equal(f"{label} ({got!r} vs {want!r})", math.isclose(got, want, rel_tol=rel), True)


# --- references the checks use -----------------------------------------------------


def _bits(f: TruthTable) -> np.ndarray:
    raw = np.frombuffer(f.bits.to_bytes(max(1, f.size // 8), "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little", count=f.size)


def _spectrum_stats(corr: np.ndarray) -> tuple[int, int]:
    """Sum of squares and largest square of a correlation vector."""
    total = peak = 0
    for lo in range(0, corr.size, _CHUNK):
        c = corr[lo : lo + _CHUNK].astype(np.int64)
        total += int(c @ c)
        peak = max(peak, int(np.abs(c).max()))
    return total, peak * peak


def _direct_corr(bits: np.ndarray, a: int) -> int:
    """c(a) = sum over x of (-1)^(f(x) + a.x), straight from the truth table."""
    total = 0
    for lo in range(0, bits.size, _CHUNK):
        x = np.arange(lo, min(lo + _CHUNK, bits.size), dtype=np.uint64)
        odd = (np.bitwise_count(x & np.uint64(a)) & 1) ^ bits[lo : lo + x.size]
        total += x.size - 2 * int(np.count_nonzero(odd))
    return total


def _anf_masks(text: str) -> list[int]:
    """Monomials of an ANF sum as variable masks (X_j is bit j-1; "1" is mask 0)."""
    return [sum(1 << (int(j) - 1) for j in re.findall(r"\d+", t)) if "X" in t else 0 for t in text.split("+")]


def _anf_text(masks: list[int]) -> str:
    terms = []
    for m in masks:
        vs = [f"X{j + 1}" for j in reversed(range(m.bit_length())) if m >> j & 1]
        terms.append("".join(vs) or "1")
    return " + ".join(terms)


def _anf_table(masks: list[int], n: int) -> TruthTable:
    """Truth table of an ANF sum by direct evaluation of each monomial."""
    x = np.arange(1 << n)
    out = np.zeros(1 << n, dtype=np.uint8)
    for m in masks:
        out ^= (x & m) == m
    return TruthTable(n, int.from_bytes(np.packbits(out, bitorder="little").tobytes(), "little"))


def _ratio_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _random_balanced(rng: random.Random, n: int) -> TruthTable:
    bits = 0
    for x in rng.sample(range(1 << n), 1 << (n - 1)):
        bits |= 1 << x
    return TruthTable(n, bits)


def _random_anf(rng: random.Random, n: int) -> list[int]:
    masks = set()
    for _ in range(rng.randint(1, 2 * n)):
        masks.add(sum(1 << j for j in rng.sample(range(n), rng.randint(0, min(4, n)))))
    return sorted(masks)


# --- analyze-small and analyze-large ------------------------------------------------


@dataclass
class Analysis:
    """One function through walsh_transform -> classify -> metrics_to_json."""

    table: TruthTable  # the benchmark's own expansion when the input is ANF
    points: tuple[int, ...]  # spectrum points checked against a direct evaluation
    anf: str | None = None  # when set, the input is this text and table_from_anf is timed
    seed: TruthTable | None = None  # balanced seed for gb_construction_report/ot_recursion_metrics
    b: int = 0
    expect: dict | None = None  # published exact values for this function

    @classmethod
    def from_anf(cls, rng: random.Random, masks: list[int], n: int, **kw) -> "Analysis":
        return cls(_anf_table(masks, n), _points(rng, n), anf=_anf_text(masks), **kw)

    def run(self, tr):
        n = self.table.n
        f = tr.call("core.table_from_anf", table_from_anf, self.anf, n) if self.anf else self.table
        spec = tr.call("core.walsh_transform", walsh_transform, f, work=n << n)
        rep = tr.call("metrics.classify", classify, spec, work=1 << n)
        doc = tr.call("report.metrics_to_json", metrics_to_json, rep)
        gb = ot = None
        if self.seed is not None:
            gb = tr.call("construct.gb_construction_report", gb_construction_report, self.seed, self.b)
            ot = tr.call("construct.ot_recursion_metrics", ot_recursion_metrics, self.seed, 1)
        return f, spec, rep, doc, gb, ot

    def check(self, out, check: Checker) -> None:
        f, spec, rep, doc, gb, ot = out
        n, table = self.table.n, self.table
        if self.anf:
            check.equal("table_from_anf", f.bits, table.bits)
        sumsq, peak = _spectrum_stats(spec.corr)
        check.equal("parseval", sumsq, 4**n)
        weight = table.bits.bit_count()
        check.equal("c(0)", int(spec.corr[0]), (1 << n) - 2 * weight)
        bits = _bits(table)
        for a in self.points:
            check.equal(f"c({a})", int(spec.corr[a]), _direct_corr(bits, a))
        influence = influence_probe(table).rational
        check.equal("influence_spectral == influence_probe", rep.influence.rational, influence)
        check.equal("max_corr_sq", rep.max_corr_sq, peak)
        check.equal("weight", rep.weight, weight)
        check.equal("json influence", json.loads(doc)["influence"], _ratio_str(influence))
        if self.seed is not None:
            seed_influence = influence_probe(self.seed).rational
            check.equal("ot influence", ot.influence.rational, seed_influence**2)
            check.equal("gb arity", gb.arity, self.seed.n * (self.seed.n + 1))
        values = {
            "mei_ratio": rep.mei_ratio,
            "min_entropy": rep.min_entropy,
            "influence": rep.influence,
            "ot1_mei_ratio": ot and ot.mei_ratio,
            "gb_mei_ratio": gb and gb.mei_ratio,
        }
        for key, want in (self.expect or {}).items():
            v = values[key]
            check.equal(key, v.rational if v is not None else None, want)


@dataclass
class Disjoint:
    """One dense disjoint_spectrum, checked pointwise and against a materialised oracle."""

    spec: CompositionSpec
    points: tuple[int, ...]
    oracle: CompositionSpec  # small enough to materialise and transform

    def run(self, tr):
        n = self.spec.arity
        return tr.call("construct.disjoint_spectrum", disjoint_spectrum, self.spec, work=1 << n)

    def check(self, spec, check: Checker) -> None:
        n = self.spec.arity
        sumsq, _ = _spectrum_stats(spec.corr)
        check.equal("disjoint parseval", sumsq, 4**n)
        fs, gs = walsh_transform(self.spec.outer), walsh_transform(self.spec.inner)
        for u in self.points:
            want = disjoint_walsh(u, self.spec, fs, gs) * (1 << n)
            check.equal(f"disjoint c({u})", Fraction(int(spec.corr[u])), want)
        got = disjoint_spectrum(self.oracle).corr
        want = walsh_transform(disjoint_compose(self.oracle)).corr
        check.equal("disjoint_spectrum == walsh_transform(disjoint_compose)", bool(np.array_equal(got, want)), True)


def _points(rng: random.Random, n: int, count: int = 2) -> tuple[int, ...]:
    return tuple(rng.randrange(1, 1 << n) for _ in range(count))


def _quintic_items(rng: random.Random) -> list[Analysis]:
    seed = _anf_table(_anf_masks(QUINTIC_SEED_ANF), 5)
    return [
        Analysis(_anf_table(_anf_masks(QUINTIC_MAX_ANF), 5), _points(rng, 5), anf=QUINTIC_MAX_ANF, expect=QUINTIC_MAX_EXPECT),
        Analysis(seed, _points(rng, 5), anf=QUINTIC_SEED_ANF, seed=seed, b=0, expect=QUINTIC_SEED_EXPECT),
    ]


def _place(rng: random.Random, items: list, extra: list) -> list:
    for item in extra:
        items.insert(rng.randrange(len(items) + 1), item)
    return items


def _analysis_pass(items, tr, check: Checker) -> PassResult:
    latencies = []
    for item in items:
        t0 = perf_counter()
        tr.begin_item()
        out = item.run(tr)
        tr.end_item()
        latencies.append(perf_counter() - t0)
        item.check(out, check)
        del out
    return PassResult(sum(latencies), latencies, len(items))


def warm_up_analysis() -> None:
    """One call per timed entry point, on small fixed inputs."""
    g = TruthTable(4, 0x00FF)  # X4, balanced
    rep = classify(walsh_transform(table_from_anf("X1X2 + X3", 4)))
    metrics_to_json(rep)
    gb_construction_report(g, 0)
    ot_recursion_metrics(g, 1)
    disjoint_spectrum(CompositionSpec(TruthTable(2, 0b1000), TruthTable(2, 0b0110)))


class AnalyzeSmall:
    """About 2,500 single-function analyses at n=4..12, where per-call overhead dominates.

    Fixed count per n, shuffled by the seed. Every eighth input is ANF text;
    every fourth item adds both construction reports on a random balanced
    seed with n=4..8. The two quintic reference functions sit at seeded
    positions in the stream.
    """

    threads = 1
    warm_up = staticmethod(warm_up_analysis)

    def __init__(self, seed: int, smoke: bool, workdir: str):
        rng = random.Random(seed)
        per_n = 4 if smoke else 275
        tables = [TruthTable(n, rng.getrandbits(1 << n)) for n in range(4, 13) for _ in range(per_n)]
        rng.shuffle(tables)
        items = []
        for i, f in enumerate(tables):
            kw = {}
            if i % 4 == 3:
                kw = {"seed": _random_balanced(rng, rng.randint(4, 8)), "b": rng.randrange(2)}
            if i % 8 == 0:
                items.append(Analysis.from_anf(rng, _random_anf(rng, f.n), f.n, **kw))
            else:
                items.append(Analysis(f, _points(rng, f.n), **kw))
        self.items = _place(rng, items, _quintic_items(rng))

    def run_pass(self, tr, check: Checker) -> PassResult:
        return _analysis_pass(self.items, tr, check)

    def close(self) -> None:
        pass


class AnalyzeLarge:
    """Dense work on 2^20..2^24-point arrays: the quintic references, random
    functions at n=20, 22, 24, then a dense disjoint_spectrum at n=24 (k=4, l=6).

    The seed draws the functions, the composition factors and the checked points.
    """

    threads = 1
    warm_up = staticmethod(warm_up_analysis)

    def __init__(self, seed: int, smoke: bool, workdir: str):
        rng = random.Random(seed)
        ns, (k, l), (ok, ol) = ((12, 14, 16), (4, 4), (3, 4)) if smoke else ((20, 22, 24), (4, 6), (4, 5))
        items: list = [Analysis(TruthTable(n, rng.getrandbits(1 << n)), _points(rng, n)) for n in ns]
        spec = CompositionSpec(TruthTable(k, rng.getrandbits(1 << k)), _random_balanced(rng, l))
        oracle = CompositionSpec(TruthTable(ok, rng.getrandbits(1 << ok)), _random_balanced(rng, ol))
        # A fixed order, so that the same arrays are alive when memory peaks.
        self.items = [*_quintic_items(rng), *items, Disjoint(spec, _points(rng, k * l, 64), oracle)]

    def run_pass(self, tr, check: Checker) -> PassResult:
        return _analysis_pass(self.items, tr, check)

    def close(self) -> None:
        pass


# --- verify-fast ----------------------------------------------------------------------

# Boolean functions each sweep claim of the fast suite decides: the rotation-
# symmetric families at n=6 (14 necklaces) and n=7 (20 necklaces), the
# symmetric families for n=1..12, and the general n=3 space.
_CLAIM_FUNCTIONS = {
    "c18": 1 << 14,
    "c19": 1 << 14,
    "c20": 1 << 20,
    "c21": 1 << 20,
    "c22": sum(1 << (n + 1) for n in range(1, 13)),
    "c23": 1 << 8,
}
_ROTSYM_CLAIMS = ("c18", "c19", "c20", "c21")
_SMOKE_CLAIMS = (
    "c01-quintic-max-min-entropy",
    "c03-quintic-max-ratio",
    "c08-thirty-var-ratio",
    "c18-rotsym-n6-ei",
    "c23-general-n3-vs-naive",
)


def _claim_layer(claim_id: str) -> str:
    if claim_id[:3] in _ROTSYM_CLAIMS:
        return "report.verify.rotsym"
    if claim_id[:3] == "c22":
        return "report.verify.symmetric"
    return "report.verify.dense"


class VerifyFast:
    """run_verification_suite("fast", threads=2), as `walshlab verify --scope fast` runs it.

    The suite is fixed, so the seed changes nothing. A call is one suite call.
    Traced passes split it into claims at the suite's progress callbacks.
    """

    threads = 2

    def __init__(self, seed: int, smoke: bool, workdir: str):
        self.claim_ids = _SMOKE_CLAIMS if smoke else None

    @staticmethod
    def warm_up() -> None:
        run_verification_suite("fast", threads=VerifyFast.threads, claim_ids=["c01-quintic-max-min-entropy"])

    def run_pass(self, tr, check: Checker) -> PassResult:
        stamps: list[float] = []
        t0 = perf_counter()
        tr.begin_item()
        ledger = tr.call(
            "report.run_verification_suite",
            run_verification_suite,
            "fast",
            threads=self.threads,
            claim_ids=self.claim_ids,
            progress=lambda entry: stamps.append(perf_counter()),
        )
        ran = [e for e in ledger.entries if e.status != "skipped"]
        suite = tr.last_span
        if suite is not None:
            for entry, start, end in zip(ran, [suite.start, *stamps], stamps):
                tr.record(_claim_layer(entry.claim_id), start, end, suite.id)
        tr.end_item()
        wall = perf_counter() - t0
        check.equal("claims run", len(ran) > 0 and len(ran) == len(stamps), True)
        for entry in ran:
            check.equal(f"{entry.claim_id} status", entry.status, "pass")
        functions = sum(_CLAIM_FUNCTIONS.get(e.claim_id[:3], 0) for e in ran)
        return PassResult(wall, [wall], functions)

    def close(self) -> None:
        pass


# --- sweep-general ----------------------------------------------------------------------

_N = 4
_SPACE = 1 << (1 << _N)
_BW = ("balanced", "weight1-max-walsh")
# (metric, filters, best ratio, witness_total, balanced_at_best) over all
# 65,536 four-variable functions, confirmed by an independent dense scan.
# ei maxima are binary64 values; the others are exact rationals. ot1-mei runs
# only with the balanced and weight-1 filters its definition assumes.
_MAXIMA = (
    ("mei", (), Fraction(2), 944, 0),
    ("mei", ("balanced",), Fraction(4, 3), 320, 320),
    ("mei", ("plateaued",), Fraction(2), 944, 0),
    ("mei", ("resilient:0",), Fraction(4, 3), 320, 320),
    ("mei", _BW, Fraction(4, 3), 320, 320),
    ("ei", (), 3.402475551198587, 32, 0),
    ("ei", ("balanced",), 2.0, 192, 192),
    ("ei", ("plateaued",), 2.0, 944, 0),
    ("ei", ("resilient:0",), 2.0, 192, 192),
    ("ei", _BW, 2.0, 192, 192),
    ("ot1-mei", _BW, Fraction(16, 9), 320, 320),
    ("ot1-mei", (*_BW, "plateaued"), Fraction(16, 9), 128, 128),
)
_SMOKE_MAXIMA = (0, 6, 10)  # indices into _MAXIMA


@dataclass
class _Job:
    job: SearchJob
    best: Fraction | float
    total: int
    balanced: int


class SweepGeneral:
    """The whole n=4 general space under every metric and filter set, maximize and
    count targets, then one checkpointed sweep (chunk_bits=8) and its resume.

    The seed shuffles the order of the uncheckpointed jobs.
    """

    threads = 1

    def __init__(self, seed: int, smoke: bool, workdir: str):
        rng = random.Random(seed)
        maxima = [_MAXIMA[i] for i in _SMOKE_MAXIMA] if smoke else _MAXIMA
        jobs = []
        for metric, filters, best, total, balanced in maxima:
            jobs.append(_Job(SearchJob("general", _N, metric=metric, filters=filters), best, total, balanced))
            if metric != "ei":  # exact thresholds only
                job = SearchJob("general", _N, metric=metric, filters=filters, target="count", threshold=best)
                jobs.append(_Job(job, best, total, balanced))
        rng.shuffle(jobs)
        self.jobs = jobs
        os.makedirs(workdir, exist_ok=True)
        self.path = os.path.join(os.path.abspath(workdir), f"sweep-general-{seed}.ck")
        self.checkpointed = SearchJob("general", _N, metric="mei", chunk_bits=8, checkpoint_path=self.path)

    @staticmethod
    def warm_up() -> None:
        sweep(SearchJob("general", _N, metric="mei"), threads=SweepGeneral.threads)

    def _timed(self, tr, name: str, job: SearchJob, attrs: dict, chunks: bool = False):
        """Time one sweep; with ``chunks`` (traced passes only) also the interval between chunks."""
        chunk_ends: list[float] = []
        progress = (lambda done, total: chunk_ends.append(perf_counter())) if chunks else None
        t0 = perf_counter()
        tr.begin_item()
        res = tr.call(name, sweep, job, threads=self.threads, progress=progress, work=_SPACE, attrs=attrs)
        tr.end_item()
        latency = perf_counter() - t0
        if chunk_ends:
            attrs["chunk_s"] = [b - a for a, b in zip(chunk_ends, chunk_ends[1:])]
        return res, latency

    def run_pass(self, tr, check: Checker) -> PassResult:
        latencies, results = [], []
        for j in self.jobs:
            attrs = {"metric": j.job.metric, "filtered": bool(j.job.filters), "target": j.job.target}
            res, latency = self._timed(tr, "search.sweep.general", j.job, attrs, chunks=tr.traced)
            latencies.append(latency)
            results.append(res)
        if os.path.exists(self.path):
            os.remove(self.path)
        fresh, w = self._timed(tr, "search.sweep.checkpoint_write", self.checkpointed, {})
        resumed, r = self._timed(tr, "search.sweep.checkpoint_resume", self.checkpointed, {})
        latencies += [w, r]

        maxima = {}
        for j, res in zip(self.jobs, results):
            label = f"{j.job.metric} {'+'.join(j.job.filters) or 'unfiltered'} {j.job.target}"
            check.equal(f"{label} scanned", res.functions_scanned, _SPACE)
            if j.job.target == "count":
                check.equal(f"{label} count", res.count_achieving, j.total)
                continue
            maxima[(j.job.metric, j.job.filters)] = res
            _check_maximum(label, j, res, check)
        for j, res in zip(self.jobs, results):
            if j.job.target == "count":
                best = maxima.get((j.job.metric, j.job.filters))
                if best is not None:
                    check.equal("count == witness_total", res.count_achieving, best.witness_total)
        check.equal("checkpointed ratio", fresh.best_ratio.rational, Fraction(2))
        check.equal("checkpointed witness_total", fresh.witness_total, 944)
        check.equal("resumed == fresh", search_result_canonical(resumed), search_result_canonical(fresh))
        functions = _SPACE * (len(results) + 1)  # the resume scans nothing
        return PassResult(sum(latencies), latencies, functions)

    def close(self) -> None:
        if os.path.exists(self.path):
            os.remove(self.path)


def _check_maximum(label: str, j: _Job, res, check: Checker) -> None:
    metric = j.job.metric
    if metric == "ei":
        check.close(f"{label} best", res.best_ratio.value, j.best, rel=1e-9)
    else:
        check.equal(f"{label} best", res.best_ratio.rational, j.best)
    check.equal(f"{label} witness_total", res.witness_total, j.total)
    check.equal(f"{label} balanced_at_best", res.balanced_at_best, j.balanced)
    check.equal(f"{label} witnesses", len(res.witnesses), min(j.total, j.job.witness_cap))
    for hexstr in res.witnesses:
        g = TruthTable.from_hex(hexstr, _N)
        if metric == "ot1-mei":
            check.equal(f"{label} witness {hexstr}", ot_recursion_metrics(g, 1).mei_ratio.rational, j.best)
        elif metric == "ei":
            check.close(f"{label} witness {hexstr}", classify(walsh_transform(g)).ei_ratio.value, j.best, rel=1e-9)
        else:
            check.equal(f"{label} witness {hexstr}", classify(walsh_transform(g)).mei_ratio.rational, j.best)


WORKLOADS = {
    "verify-fast": VerifyFast,
    "analyze-small": AnalyzeSmall,
    "analyze-large": AnalyzeLarge,
    "sweep-general": SweepGeneral,
}
