"""Run the benchmark over several seeds and summarise it as a BENCH file.

Run from the repository root:

    python3 perfbench/collect.py --runs 10 --trace-runs 1 --label seed \\
        --out perfbench/results/BENCH_seed.json [--compare OLD_BENCH.json]

For every workload in BENCHMARK.json (or those named by --workloads) it
runs the benchmark command once per seed, seeds 1..runs, cycling through the
workloads so that a slow spell of the machine hits all of them alike. Each
end-to-end metric gets its median, quartiles and spread, the quartile
distance as a share of the median, as statistics.quantiles(values, n=4)
gives them. A spread above a third of the metric's bound is flagged. With
--compare, each median is checked against the median in an earlier BENCH
file: worse by more than the bound is flagged. The exit code is 1 when any
run failed or any flag was raised.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def machine() -> dict:
    def read(path: str) -> str:
        try:
            return Path(path).read_text()
        except OSError:
            return ""

    cpu = next((line.split(":", 1)[1].strip() for line in read("/proc/cpuinfo").splitlines() if line.startswith("model name")), platform.processor())
    mem = next((line.split()[1] for line in read("/proc/meminfo").splitlines() if line.startswith("MemTotal")), "0")
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "ram_mib": int(mem) // 1024,
        "llc": read("/sys/devices/system/cpu/cpu0/cache/index3/size").strip() or "unknown",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def run_once(command: list[str], workload: str, seed: int, seconds: int, trace: int) -> dict:
    args = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if proc.returncode != 0 or result is None or not result["correct"]:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
    return {"seed": seed, "exit": proc.returncode, "run_s": elapsed, "result": result}


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--runs", type=int, default=10, help="untraced runs per workload, seeds 1..runs")
    p.add_argument("--trace-runs", type=int, default=1, help="traced runs per workload")
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--label", default="local")
    p.add_argument("--out", help="write the BENCH file here")
    p.add_argument("--compare", help="an earlier BENCH file whose medians this run must not be worse than")
    args = p.parse_args(argv)

    names = args.workloads.split(",")
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    runs = {w: [] for w in names}
    traced = {w: [] for w in names}
    for seed in range(1, args.runs + 1):
        for w in names:
            r = run_once(spec["command"], w, seed, args.seconds, 0)
            runs[w].append(r)
            print(f"{w} seed={seed} exit={r['exit']} run={r['run_s']:.1f}s", flush=True)
    for seed in range(1, args.trace_runs + 1):
        for w in names:
            traced[w].append(run_once(spec["command"], w, seed, args.seconds, 1))

    old = json.loads(Path(args.compare).read_text())["workloads"] if args.compare else {}
    flags = []
    doc = {"label": args.label, "machine": machine(), "run_seconds": args.seconds, "workloads": {}}
    for w in names:
        ok = [r for r in runs[w] if r["exit"] == 0 and r["result"] and r["result"]["correct"]]
        if len(ok) != len(runs[w]) or any(r["exit"] != 0 for r in traced[w]):
            flags.append(f"{w}: {len(runs[w]) - len(ok)} untraced runs failed")
        summary = {}
        for name, m in e2e.items():
            values = [r["result"]["metrics"][name]["value"] for r in ok]
            if len(values) < 2:
                continue
            s = summarise(values)
            summary[name] = s
            line = f"{w:14s} {name:16s} median {s['median']:.6g} {m['unit']:5s} spread {s['spread']:.3f} (bound {m['bound']})"
            if name != "setup_s" and s["spread"] > m["bound"] / 3:
                flags.append(f"{w} {name}: spread {s['spread']:.3f} above a third of bound {m['bound']}")
                line += "  SPREAD"
            before = old.get(w, {}).get("summary", {}).get(name)
            if before:
                change = (s["median"] - before["median"]) / before["median"]
                worse = change if m["better"] == "lower" else -change
                line += f"  vs {args.compare}: {change:+.3f}"
                if worse > m["bound"]:
                    flags.append(f"{w} {name}: median worse by {worse:.3f} than {args.compare}")
                    line += "  WORSE"
            print(line)
        doc["workloads"][w] = {"summary": summary, "runs": runs[w], "traced": traced[w]}
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    for f in flags:
        print("FLAG", f)
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
