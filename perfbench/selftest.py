"""Self-test of the benchmark harness.

Usage: python3 perfbench/selftest.py      (about a minute on 2 CPUs)

Checks that BENCHMARK.json and run.py agree on every metric name and unit,
that a run prints every metric with its unit in both trace modes, that a
failing command and a command killed at its wall-clock cap are counted as
failed rather than dropped, and that the benchmark refuses to run in a
directory without the ctxapprox sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
from workloads import construct

# criterion 11 of the acceptance suite: a construct that takes about a second
SMALL = {
    "target": {"exprs": ["sin(2*pi*x)"]},
    "transformer": {"kind": "random", "seed": 11, "d_x": 2, "d_y": 1},
    "vocab": {"x_grid": {"lo": [-8.0, -8.0], "hi": [8.0, 8.0], "per_dim": 65}, "d_y": 1},
    "scheme": {"kind": "calkin_wilf_lattice", "d_x": 2},
    "grid": {"lo": [0.0], "hi": [1.0], "counts": [500]},
    "epsilon": 0.3,
    "seed": 7,
    "fit": {"k": 14, "refine_steps": 300},
    "caps": {"j_cap": 60000000},
}

RECORD_FIGURES = {
    "construct": {"setup_s": "s", "peak_rss_mb": "MB", "construct_s": "s",
                  "scan_positions_per_s": "1/s", "n": "count", "tokens": "count",
                  "failed_ops_frac": "frac"},
    "oracles": {"setup_s": "s", "peak_rss_mb": "MB", "oracles_s": "s",
                "kronecker_witnesses_per_s": "1/s", "nonuap_trials_per_s": "1/s",
                "density_positions_per_s": "1/s", "failed_ops_frac": "frac"},
}

failures: list[str] = []


def check(ok: bool, what: str):
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def check_metrics(metrics: dict, expected: dict, what: str):
    names_ok = set(metrics) == set(expected)
    units_ok = all(metrics[k]["unit"] == u and isinstance(metrics[k]["value"], (int, float))
                   for k, u in expected.items() if k in metrics)
    check(names_ok and units_ok, f"{what}: every metric printed with its unit")


def cli_run(trace: int) -> tuple:
    proc = subprocess.run([sys.executable, str(run.HERE / "run.py"), "--workload",
                           "oracles", "--seed", "3", "--seconds", "0", "--trace",
                           str(trace)], cwd=run.ROOT, capture_output=True, text=True,
                          timeout=180)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-2])["record"], json.loads(lines[-1])


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check({w["name"] for w in spec["workloads"]} == set(run.WORKLOADS),
          "BENCHMARK.json names the workloads run.py knows")
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(e2e == run.END_TO_END_UNITS, "BENCHMARK.json end_to_end matches run.py")
    check(layers == run.PER_LAYER_UNITS, "BENCHMARK.json per_layer matches run.py")

    for trace, expected in ((0, e2e), (1, layers)):
        code, record, result = cli_run(trace)
        check(code == 0 and set(result) == {"correct", "attempted", "failed", "metrics"}
              and result["correct"] and result["failed"] == 0,
              f"oracles --trace {trace} passes and prints the result keys")
        check_metrics(result["metrics"], expected, f"oracles --trace {trace}")
        check_metrics(record["commands"], {**RECORD_FIGURES["oracles"], "kronecker_s": "s",
                                           "audit_s": "s", "density_s": "s", "embed_s": "s"},
                      f"oracles --trace {trace} record")

    record, result = run.run("small", 0, 0, False, commands=[construct(SMALL, 60.0)])
    check(result["correct"] and result["attempted"] == 1, "small construct passes")
    check_metrics(record["commands"], RECORD_FIGURES["construct"], "construct record")

    tiny_cap = {**SMALL, "caps": {"j_cap": 1000}}
    record, result = run.run("small", 0, 0, False,
                             commands=[construct(SMALL, 60.0), construct(tiny_cap, 60.0)])
    check(not result["correct"] and result["attempted"] == 2 and result["failed"] == 1
          and result["metrics"]["ops_passed_frac"]["value"] == 0.5
          and record["commands"]["failed_ops_frac"]["value"] == 0.5
          and "exit code 3" in record["failures"][0]["problems"][0],
          "a construct with a tiny j_cap is counted as failed")

    record, result = run.run("small", 0, 0, False, commands=[construct(SMALL, 0.5)])
    check(not result["correct"] and result["attempted"] == 1 and result["failed"] == 1
          and "wall-clock cap" in record["failures"][0]["problems"][0],
          "a command killed at its wall-clock cap is counted as failed")

    bare = run.ROOT / ".perfbench_runs" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "oracles",
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "a directory without ctxapprox sources exits non-zero and prints no result")

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
