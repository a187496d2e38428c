"""walshlab benchmark: run one workload, check its outputs, print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload analyze-small --seed 1 --seconds 30 --trace 0

The workload runs passes over its fixed call list for about ``--seconds``
seconds. With ``--trace 0`` the passes are untraced and the end-to-end
metrics are reported; timings come from the best pass. With ``--trace 1`` untraced and traced passes
alternate; the traced ones give each layer's self time, and the difference
between the two kinds gives the tracing overhead. Spans are written to
perfbench/out/spans-<workload>.jsonl.

Human-readable lines come first. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` (output
checks) and ``metrics``. The exit code is 0 when every check passed, 1 when
one failed, and 2 when walshlab's source is not beside the benchmark.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import uuid
from collections import defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# Repeated from workloads.WORKLOADS, which can be imported only once src/ is on the path.
WORKLOAD_NAMES = ("verify-fast", "analyze-small", "analyze-large", "sweep-general")
SETUP_SAMPLES = 5

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "call_p50_ms": "ms",
    "functions_per_s": "1/s",
    "peak_rss_mib": "MiB",
}
_LAYER_SPANS = (
    "core.walsh_transform",
    "core.table_from_anf",
    "metrics.classify",
    "construct.gb_construction_report",
    "construct.ot_recursion_metrics",
    "construct.disjoint_spectrum",
    "report.metrics_to_json",
    "report.verify.rotsym",
    "report.verify.symmetric",
    "report.verify.dense",
    "search.sweep.checkpoint_write",
    "search.sweep.checkpoint_resume",
    "bench.item",
)
_SWEEP_GROUPS = {
    "search.sweep.general.mei.s": lambda a: a["metric"] == "mei",
    "search.sweep.general.ei.s": lambda a: a["metric"] == "ei",
    "search.sweep.general.ot1-mei.s": lambda a: a["metric"] == "ot1-mei",
    "search.sweep.general.filtered.s": lambda a: a["filtered"],
    "search.sweep.general.unfiltered.s": lambda a: not a["filtered"],
    "search.sweep.general.count.s": lambda a: a["target"] == "count",
}
PER_LAYER = {
    **{f"{name}.s": "s" for name in _LAYER_SPANS},
    **{name: "s" for name in _SWEEP_GROUPS},
    "core.walsh_transform.ns_per_point_pass": "ns",
    "metrics.classify.ns_per_point": "ns",
    "search.sweep.chunk_ms.p50": "ms",
    "core.walsh_transform.calls": "count",
    "metrics.classify.calls": "count",
    "search.sweep.general.calls": "count",
    "search.sweep.general.functions": "count",
    "call_p99_ms": "ms",
    "call.samples": "count",
    "trace.overhead_s": "s",
    "checks.fail_share": "ratio",
}


def load_walshlab():
    """Put the repository's src/ first on the path; exit 2 when it is missing."""
    if not (SRC / "walshlab" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no walshlab source under {SRC}\n")
        sys.exit(2)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import walshlab

    if Path(walshlab.__file__).resolve().parent != SRC / "walshlab":
        sys.stderr.write(f"perfbench: imported walshlab from {walshlab.__file__}, not {SRC}\n")
        sys.exit(2)


def _percentile(values: list[float], q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def measure_setup(args) -> float:
    """Median time from starting a fresh interpreter to walshlab imported and warmed up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--setup-only"]
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True)
        try:
            line = proc.stdout.readline()
            times.append(perf_counter() - t0)
            proc.stdout.read()
        finally:
            proc.stdout.close()
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up run failed with exit code {proc.returncode}")
    return statistics.median(times)


def end_to_end(passes) -> dict[str, float]:
    """Timings of the best pass: the shared machine has slow spells lasting seconds."""
    rss_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return {
        "wall_s": min(p.wall for p in passes),
        "call_p50_ms": min(statistics.median(p.latencies) for p in passes) * 1e3,
        "functions_per_s": max(p.functions / p.wall for p in passes),
        "peak_rss_mib": rss_kib / 1024,
    }


def per_layer(tracer, untraced, traced, check) -> dict[str, float]:
    from spans import self_times

    passes = len(traced)
    own = self_times(tracer.spans)
    total = defaultdict(float)
    work = defaultdict(int)
    calls = defaultdict(int)
    sweeps = defaultdict(float)
    chunk_s = []
    for s in tracer.spans:
        total[s.name] += own[s.id]
        work[s.name] += s.work
        calls[s.name] += 1
        if s.name == "search.sweep.general":
            for metric, keep in _SWEEP_GROUPS.items():
                if keep(s.attrs):
                    sweeps[metric] += own[s.id]
            chunk_s += s.attrs.get("chunk_s", [])
    out = {f"{name}.s": total[name] / passes for name in _LAYER_SPANS}
    out.update({metric: sweeps[metric] / passes for metric in _SWEEP_GROUPS})
    walsh, classify = "core.walsh_transform", "metrics.classify"
    out[f"{walsh}.ns_per_point_pass"] = total[walsh] * 1e9 / work[walsh] if work[walsh] else 0.0
    out[f"{classify}.ns_per_point"] = total[classify] * 1e9 / work[classify] if work[classify] else 0.0
    out["search.sweep.chunk_ms.p50"] = statistics.median(chunk_s) * 1e3 if chunk_s else 0.0
    out[f"{walsh}.calls"] = calls[walsh] // passes
    out[f"{classify}.calls"] = calls[classify] // passes
    out["search.sweep.general.calls"] = calls["search.sweep.general"] // passes
    out["search.sweep.general.functions"] = work["search.sweep.general"] // passes
    latencies = [x for p in untraced for x in p.latencies]
    out["call_p99_ms"] = _percentile(latencies, 99) * 1e3
    out["call.samples"] = len(latencies)
    out["trace.overhead_s"] = min(p.wall for p in traced) - min(p.wall for p in untraced)
    out["checks.fail_share"] = len(check.failures) / check.attempted
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Run one walshlab benchmark workload.")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1, help="makes the workload's inputs")
    p.add_argument("--seconds", type=float, default=30.0, help="measuring time; at least one pass runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny call lists, to test the benchmark itself")
    p.add_argument("--inject-fault", action="store_true", help="make one expected value wrong")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    load_walshlab()
    from spans import Tracer, Untraced
    from workloads import WORKLOADS, Checker

    cls = WORKLOADS[args.workload]
    cls.warm_up()
    if args.setup_only:
        print("ready", flush=True)
        return 0

    workload = cls(args.seed, args.smoke, str(OUT / "work"))
    check = Checker(args.inject_fault)
    tracer = Tracer(uuid.uuid4().hex) if args.trace else None
    untraced, traced = [], []
    begin = perf_counter()
    try:
        while True:
            if tracer is not None and len(untraced) > len(traced):
                traced.append(workload.run_pass(tracer, check))
            else:
                untraced.append(workload.run_pass(Untraced(), check))
            done = len(untraced) + len(traced)
            spent = perf_counter() - begin
            if (tracer is None or traced) and spent + spent / done > args.seconds:
                break
    finally:
        workload.close()

    if tracer is None:
        metrics = end_to_end(untraced)
        metrics["setup_s"] = measure_setup(args)
        units = END_TO_END
    else:
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}.jsonl")
        metrics = per_layer(tracer, untraced, traced, check)
        units = PER_LAYER

    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: {len(untraced)} untraced and "
        f"{len(traced)} traced passes, {sum(len(p.latencies) for p in untraced)} untraced calls, "
        f"threads={cls.threads}"
    )
    for name in units:
        print(f"  {name:42s} {metrics[name]:.6g} {units[name]}")
    print(f"  checks: {len(check.failures)} failed of {check.attempted}")
    for failure in check.failures[:10]:
        print(f"  FAILED {failure}")
    result = {
        "correct": not check.failures,
        "attempted": check.attempted,
        "failed": len(check.failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result), flush=True)
    return 1 if check.failures else 0


if __name__ == "__main__":
    sys.exit(main())
