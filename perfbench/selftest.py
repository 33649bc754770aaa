#!/usr/bin/env python3
"""Fast self-test of the benchmark harness (about 20 s).

    python3 perfbench/selftest.py

Runs the harness on a 4x4 manufactured-solution case instead of the
stirrer and checks that:

- every metric BENCHMARK.json names is printed, with its unit, in the
  untraced (end-to-end) and traced (per-layer) runs;
- a solve forced not to converge (``NewtonConfig(max_iter=1)``) is counted
  as failed, and the harness still exits 0 and prints every metric;
- a worker killed by SIGKILL, as on running out of memory, is reported as
  a failed iteration with its exit status and the harness exits 0;
- in a directory holding only BENCHMARK.json and perfbench/, the harness
  exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, trace: int, root: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=root)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def result_of(lines) -> dict:
    out = json.loads(lines[-1])
    if set(out) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"unexpected result keys {sorted(out)}")
    return out


def expect_metrics(out: dict, wanted: list, label: str) -> None:
    for m in wanted:
        got = out["metrics"].get(m["name"])
        if got is None:
            raise AssertionError(f"{label}: metric {m['name']} missing")
        if got["unit"] != m["unit"]:
            raise AssertionError(f"{label}: {m['name']} unit {got['unit']!r}, "
                                 f"BENCHMARK.json says {m['unit']!r}")
        if not isinstance(got["value"], (int, float)):
            raise AssertionError(f"{label}: {m['name']} is not a number")
    extra = set(out["metrics"]) - {m["name"] for m in wanted}
    if extra:
        raise AssertionError(f"{label}: metrics not in BENCHMARK.json: {extra}")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code, lines, err = run("selftest", trace)
        if code != 0:
            raise AssertionError(f"selftest --trace {trace} exited {code}:\n{err}")
        out = result_of(lines)
        expect_metrics(out, bench[key], f"selftest --trace {trace}")
        if not out["correct"] or out["failed"] != 0 or out["attempted"] < 1:
            raise AssertionError(f"selftest --trace {trace}: {out}")
        if trace == 0 and not any(l.strip().startswith("failed_frac") for l in lines):
            raise AssertionError("failed_frac line missing")

    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code, lines, err = run("selftest_fail", trace)
        if code != 0:
            raise AssertionError(f"selftest_fail --trace {trace} exited {code}")
        out = result_of(lines)
        expect_metrics(out, bench[key], f"selftest_fail --trace {trace}")
        if out["correct"] or out["failed"] != out["attempted"] or out["failed"] < 1:
            raise AssertionError(f"non-converged solves not counted: {out}")
        frac = [l for l in lines if l.strip().startswith("failed_frac")]
        if not frac or float(frac[0].split()[1]) != 1.0:
            raise AssertionError(f"failed_frac line wrong: {frac}")

    code, lines, _ = run("selftest_killed", 0)
    out = result_of(lines)
    if code != 0 or out["correct"] or out["failed"] < 1:
        raise AssertionError(f"killed worker not reported as failed: {out}")
    if not any("exit status -9" in l for l in lines):
        raise AssertionError("exit status of the killed worker not printed")

    bare = ROOT / ".perfbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        code, lines, _ = run("ust2d_stirrer", 0, root=bare)
        if code == 0 or any(l.startswith("{") for l in lines):
            raise AssertionError("harness ran without the package")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print("perfbench selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
