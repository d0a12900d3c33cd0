"""ctxapprox benchmark: run one workload, check every output, print its metrics.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each CLI command of the workload runs in a fresh interpreter (one at a time,
BLAS single-threaded), so it pays its own import and caches like a user's
run does, and a command that outlives its wall-clock cap is killed and
counted as failed.  The workload's command set is repeated until ``--seconds``
have passed.  With ``--trace 0`` the last line holds the end-to-end metrics;
with ``--trace 1`` each set runs once untraced and once traced, and the last
line holds the per-layer metrics.  The line before it records the
environment, the per-command figures and the SHA-256 of every artifact.
Exit code 0 when every command passed its check, 1 when one failed, 2 when
the checkout holds no ctxapprox sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import SELF_METRIC, layer_metrics
from workloads import SHIPPED_CONFIGS, WORKLOADS, workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = 1
SETUP_PROBES = 7

END_TO_END_UNITS = {
    "command_set_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_passed_frac": "frac",
}

PER_LAYER_UNITS = {
    **{metric: "s" for metric in SELF_METRIC.values()},
    "construction.n": "count",
    "construction.tokens": "count",
    "construction.hit_ratio": "ratio",
    "construction.scan_positions_per_s": "1/s",
    "vocab_pe.pe_block_calls": "count",
    "vocab_pe.positions": "count",
    "vocab_pe.density_positions_per_s": "1/s",
    "fnn.fit_calls": "count",
    "kronecker.calls": "count",
    "kronecker.q_total": "count",
    "kronecker.witnesses_per_s": "1/s",
    "nonuap.trials": "count",
    "nonuap.trials_per_s": "1/s",
    "embedding.queries": "count",
    "process.setup_s": "s",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _spawn(spec: dict, workdir: Path, cap_s: float) -> tuple:
    """Start child.py on ``spec``; return (exit code or None if killed, stderr, wall s)."""
    spec_path = workdir / f"{spec['op']}.spec.json"
    spec_path.write_text(json.dumps(spec))
    launch = time.monotonic_ns()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(spec_path),
                             str(launch)], cwd=ROOT, env=_child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        _, stderr = proc.communicate(timeout=cap_s)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        proc.kill()
        _, stderr = proc.communicate()
        code = None
    finally:
        if proc.poll() is None:     # interrupted while waiting
            proc.kill()
            proc.wait()
    return code, stderr, (time.monotonic_ns() - launch) / 1e9


def probe_setup(config_path: Path, workdir: Path) -> list:
    """Setup times of SETUP_PROBES children that import ctxapprox.cli and load a config."""
    times = []
    for i in range(SETUP_PROBES):
        spec = {"root": str(ROOT), "argv": None, "config": str(config_path),
                "op": f"setup{i}", "result": str(workdir / f"setup{i}.result.json")}
        code, stderr, _ = _spawn(spec, workdir, 60.0)
        if code != 0:
            raise RuntimeError(f"setup probe failed: {stderr.strip()[-400:]}")
        times.append(json.loads(Path(spec["result"]).read_text())["setup_s"])
    return times


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_command(cmd, op: str, config_path: Path, workdir: Path, trace: bool,
                environment: bool = False) -> dict:
    """Run one command in a child interpreter; return its outcome."""
    out = workdir / op
    argv = [cmd.name, "--config", str(config_path), "--out", str(out)]
    spec = {"root": str(ROOT), "argv": argv, "config": str(config_path), "op": op,
            "trace": trace, "result": str(workdir / f"{op}.result.json"),
            "environment": environment}
    code, stderr, wall_s = _spawn(spec, workdir, cmd.cap_s)
    outcome = {"name": cmd.name, "op": op, "problems": [], "setup_s": None,
               "op_s": wall_s, "wall_s": wall_s, "peak_rss_mb": None, "spans": [],
               "hashes": {}}
    if code is None:
        outcome["problems"].append(f"killed at the {cmd.cap_s:g} s wall-clock cap")
        return outcome
    if code != 0:
        outcome["problems"].append(f"harness child exited {code}: {stderr.strip()[-400:]}")
        return outcome
    report = json.loads(Path(spec["result"]).read_text())
    outcome.update({k: report[k] for k in ("setup_s", "op_s", "peak_rss_mb", "spans",
                                           "environment")})
    if report["exit_code"] != 0:
        outcome["problems"].append(f"exit code {report['exit_code']}: "
                                   f"{stderr.strip()[-400:]}")
        return outcome
    try:
        outcome["problems"] += cmd.check(out, cmd.config)
        outcome["hashes"] = {name: _sha256(out / name) for name in cmd.artifacts}
        if cmd.name == "construct":
            rep = json.loads((out / "report.json").read_text())["report"]
            outcome["n"], outcome["tokens"] = rep["n"], len(rep["tokens"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        outcome["problems"].append(f"unreadable artifacts: {type(exc).__name__}: {exc}")
    shutil.rmtree(out, ignore_errors=True)
    return outcome


def run_set(commands, config_paths: list, index: int, workdir: Path, trace: bool,
            reference: dict) -> list:
    """Run the command set once; repetitions must reproduce the first set's bytes."""
    tag = "t" if trace else "u"
    outcomes = []
    for i, (cmd, config_path) in enumerate(zip(commands, config_paths)):
        outcome = run_command(cmd, f"{tag}{index}-{i}-{cmd.name}", config_path, workdir,
                              trace, environment=(index == 0 and i == 0))
        if outcome["hashes"]:
            first = reference.setdefault(i, outcome["hashes"])
            if outcome["hashes"] != first:
                outcome["problems"].append("artifacts differ from the first repetition")
        outcomes.append(outcome)
    return outcomes


def measure(commands, config_paths: list, seconds: float, trace: bool,
            workdir: Path) -> list:
    """Repeat the command set until ``seconds`` have passed or a command fails.

    Untraced, each sample is one set.  Traced, each sample is an (untraced,
    traced) pair of sets run in alternating order, so the overhead of tracing
    is the difference within a pair.
    """
    samples, reference = [], {}
    start = time.perf_counter()
    while not samples or time.perf_counter() - start < seconds:
        index = len(samples)
        if trace:
            order = (False, True) if index % 2 == 0 else (True, False)
            sets = {mode: run_set(commands, config_paths, index, workdir, mode,
                                  reference)
                    for mode in order}
            samples.append((sets[False], sets[True]))
            done = sets[False] + sets[True]
        else:
            samples.append(run_set(commands, config_paths, index, workdir, False,
                                   reference))
            done = samples[-1]
        if any(o["problems"] for o in done):
            break
    return samples


def _median(values, default=0.0):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else default


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(sets: list, setup_times: list, attempted: int, failed: int) -> dict:
    values = {
        "command_set_s": _median(sum(o["op_s"] for o in s) for s in sets),
        "setup_s": _median(setup_times),
        "peak_rss_mb": _median(max((o["peak_rss_mb"] or 0.0) for o in s) for s in sets),
        "ops_passed_frac": (attempted - failed) / attempted,
    }
    return {k: _metric(v, END_TO_END_UNITS[k]) for k, v in values.items()}


def per_layer(pairs: list) -> dict:
    rows = []
    for untraced, traced in pairs:
        row = layer_metrics([sp for o in traced for sp in o["spans"]])
        self_total = sum(row[m] for m in set(SELF_METRIC.values()))
        wall = sum(o["wall_s"] for o in traced)
        setup = sum(o["setup_s"] or 0.0 for o in traced)
        row.update({
            "process.setup_s": setup,
            "trace.wall_s": wall,
            "trace.unattributed_s": wall - setup - self_total,
            "trace.overhead_s": (sum(o["op_s"] for o in traced)
                                 - sum(o["op_s"] for o in untraced)),
        })
        rows.append(row)
    return {k: _metric(_median(r[k] for r in rows), PER_LAYER_UNITS[k])
            for k in PER_LAYER_UNITS}


def command_figures(sets: list, commands, setup_times: list) -> dict:
    """Per-command medians under the names the metrics note uses."""
    ops = [o for s in sets for o in s]
    by_name: dict[str, list] = {}
    for o in ops:
        by_name.setdefault(o["name"], []).append(o)

    def med(name):
        return _median(o["op_s"] for o in by_name[name])

    configs = {c.name: c.config for c in commands}
    out = {"setup_s": _metric(_median(setup_times), "s"),
           "peak_rss_mb": _metric(_median(o["peak_rss_mb"] for o in ops), "MB")}
    if "construct" in by_name:
        first = by_name["construct"][0]
        out["construct_s"] = _metric(med("construct"), "s")
        if "n" in first:
            out["n"] = _metric(first["n"], "count")
            out["tokens"] = _metric(first["tokens"], "count")
            out["scan_positions_per_s"] = _metric(first["n"] / med("construct"), "1/s")
    else:
        out["oracles_s"] = _metric(_median(sum(o["op_s"] for o in s) for s in sets), "s")
        for name, metric, work in (
                ("kronecker", "kronecker_witnesses_per_s", lambda c: c["random"]["count"]),
                ("audit", "nonuap_trials_per_s", lambda c: c["trials"]),
                ("density", "density_positions_per_s", lambda c: c["n_max"])):
            if name in by_name:
                out[f"{name}_s"] = _metric(med(name), "s")
                out[metric] = _metric(work(configs[name]) / med(name), "1/s")
        if "embed" in by_name:
            out["embed_s"] = _metric(med("embed"), "s")
    return out


def _command_seed(cmd):
    return cmd.config.get("seed", cmd.config.get("random", {}).get("seed"))


def _source_sha256() -> str:
    """SHA-256 over the package sources, which identifies the code without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ctxapprox").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_path = ROOT / ".git" / ref[5:]
        if ref_path.exists():
            return ref_path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(name: str, seed: int | None, seconds: float, trace: bool,
        commands=None) -> tuple:
    """Measure workload ``name``; return (record, result) as printed.

    Untraced runs first sample the setup time in separate children, so
    ``setup_s`` is a median even when one command fills the run.
    """
    commands = commands if commands is not None else workload(name, ROOT, seed)
    runs = ROOT / ".perfbench_runs"
    runs.mkdir(exist_ok=True)
    workdir = runs / f"{name}-{os.getpid()}-{time.monotonic_ns()}"
    workdir.mkdir()
    try:
        config_paths = [workdir / f"{i}-{cmd.name}.json" for i, cmd in enumerate(commands)]
        for cmd, path in zip(commands, config_paths):
            path.write_text(json.dumps(cmd.config))
        setup_times = [] if trace else probe_setup(config_paths[0], workdir)
        samples = measure(commands, config_paths, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sets = [s for pair in samples for s in pair] if trace else samples
    untraced = [pair[0] for pair in samples] if trace else samples
    ops = [o for s in sets for o in s]
    attempted = len(ops)
    failed = sum(1 for o in ops if o["problems"])
    if trace:
        metrics = per_layer(samples)
        setup_times = [o["setup_s"] for o in ops]
    else:
        metrics = end_to_end(samples, setup_times, attempted, failed)
    environment = next((o["environment"] for o in ops if o.get("environment")), {})
    figures = command_figures(untraced, commands, setup_times)
    figures["failed_ops_frac"] = _metric(failed / attempted, "frac")
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "samples": len(samples),
        "set_s": [sum(o["op_s"] for o in s) for s in untraced],
        "setup_samples_s": setup_times,
        "environment": {**environment, "git_sha": _git_sha(),
                        "source_sha256": _source_sha256(),
                        "nproc": len(os.sched_getaffinity(0)),
                        "blas_threads": BLAS_THREADS,
                        "command_seeds": {c.name: _command_seed(c) for c in commands}},
        "commands": figures,
        "artifacts_sha256": {o["name"]: o["hashes"] for o in ops if o["hashes"]},
        "failures": [{"op": o["op"], "problems": o["problems"]} for o in ops
                     if o["problems"]],
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="seeds the oracle inputs (default: the shipped seeds)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in [ROOT / "src" / "ctxapprox" / "cli.py"]
               + [ROOT / "configs" / c for c in SHIPPED_CONFIGS] if not p.exists()]
    if missing:
        print(f"error: not a ctxapprox checkout, missing {missing[0]}", file=sys.stderr)
        return 2
    record, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
