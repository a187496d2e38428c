"""Self-test of the benchmark itself.

Run from the repository root:

    python3 perfbench/selftest.py

1. Smoke: every workload runs a tiny call list in both trace modes and must
   pass its checks and emit exactly the metrics BENCHMARK.json names, with
   their units; end-to-end values must be positive.
2. Fault injection: with one expected value made wrong, every workload must
   report a failed check (a non-zero fail share) and exit 1.
3. No source: in a directory holding only BENCHMARK.json and the benchmark's
   files, the benchmark must exit non-zero without printing a result.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd: Path, *args: str) -> tuple[int, dict | None]:
    proc = subprocess.run([*SPEC["command"], *args], cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result


def check(ok: bool, what: str, failures: list[str]) -> None:
    print(("PASS " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def main() -> int:
    failures: list[str] = []
    wanted = {0: SPEC["end_to_end"], 1: SPEC["per_layer"]}
    for w in (x["name"] for x in SPEC["workloads"]):
        for trace in (0, 1):
            code, res = run(ROOT, "--workload", w, "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke")
            what = f"smoke {w} trace={trace}"
            check(code == 0 and res is not None, f"{what}: exit 0 with a result", failures)
            if res is None:
                continue
            check(set(res) == {"correct", "attempted", "failed", "metrics"}, f"{what}: result keys", failures)
            check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, f"{what}: checks pass", failures)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == {m["name"]: m["unit"] for m in wanted[trace]}, f"{what}: every named metric, with its unit", failures)
            values = [v["value"] for v in res["metrics"].values()]
            finite = all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)
            check(finite and (trace or all(v > 0 for v in values)), f"{what}: values are numbers", failures)

        code, res = run(ROOT, "--workload", w, "--seed", "1", "--seconds", "1", "--trace", "0", "--smoke", "--inject-fault")
        caught = res is not None and res["failed"] > 0 and not res["correct"]
        check(code == 1 and caught, f"fault {w}: a wrong expected value gives fail share > 0", failures)

    bare = ROOT / "perfbench" / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
        code, res = run(bare, "--workload", SPEC["workloads"][0]["name"], "--seed", "1", "--seconds", "1", "--trace", "0")
        check(code != 0 and res is None, "no source: non-zero exit and no result", failures)
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
