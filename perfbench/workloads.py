"""The benchmark's workloads: CLI commands, their inputs and their output checks.

Every command is one ``ctxapprox`` CLI call.  Its check reads the artifacts
the call wrote and returns the problems it found (an empty list is a pass).
Why each workload exists is in README.md next to this file.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import mpmath

SHIPPED_CONFIGS = ("construct_sin_acceptance.json", "nonuap_audit.json",
                   "embed_softmax.json")

# criterion 5 of the acceptance suite (multi-output construction) as a CLI config
MULTI_OUTPUT = {
    "target": {"exprs": ["sin(2*pi*x)", "cos(2*pi*x)"]},
    "transformer": {"kind": "random", "seed": 7, "d_x": 2, "d_y": 2},
    "vocab": {"x_grid": {"lo": [-10.0, -10.0], "hi": [10.0, 10.0], "per_dim": 81},
              "d_y": 2},
    "scheme": {"kind": "calkin_wilf_lattice", "d_x": 2},
    "grid": {"lo": [0.0], "hi": [1.0], "counts": [1500]},
    "epsilon": 0.3,
    "seed": 9,
    "budgets": {"fit": 0.08, "perturb": 0.02, "tokens": 0.20},
    "fit": {"k": 14, "refine_steps": 300},
    "caps": {"j_cap": 80000000},
}


@dataclass(frozen=True)
class Command:
    """One CLI call: subcommand, config, the artifacts it writes, its check."""

    name: str
    config: dict
    artifacts: tuple
    check: Callable[[Path, dict], list]
    cap_s: float                 # wall-clock cap; a call that runs longer fails


def _doc(out: Path, name: str) -> dict:
    return json.loads((out / name).read_text())


def check_construct(out: Path, config: dict) -> list:
    rep = _doc(out, "report.json")["report"]
    problems = []
    if not rep["achieved_sup_error"] < rep["epsilon"]:
        problems.append(f"achieved_sup_error {rep['achieved_sup_error']} "
                        f">= epsilon {rep['epsilon']}")
    for stage, budget in rep["budgets"].items():
        if rep["measured"][stage] > budget:
            problems.append(f"stage {stage} measured {rep['measured'][stage]} "
                            f"> budget {budget}")
    return problems


def check_kronecker(out: Path, config: dict) -> list:
    wits = _doc(out, "witnesses.json")["witnesses"]
    eps = config["epsilon"]
    problems = []
    if len(wits) != config["random"]["count"]:
        problems.append(f"{len(wits)} witnesses for {config['random']['count']} betas")
    with mpmath.workdps(60):
        sqrt2 = mpmath.sqrt(2)
        for w in wits:
            # re-verified independently of the program's own achieved_error
            err = abs(mpmath.mpf(w["beta"]) - w["q"] * sqrt2 + w["l"])
            if not (w["q"] > 0 and w["achieved_error"] < eps and err < eps):
                problems.append(f"beta {w['beta']}: q={w['q']} l={w['l']} "
                                f"error {float(err)} >= {eps}")
    return problems


def check_audit(out: Path, config: dict) -> list:
    doc = _doc(out, "audit.json")
    if doc["structural_cap_holds"] and doc["max_distinct_terms"] <= doc["N"]:
        return []
    return [f"structural cap broken: {doc['max_distinct_terms']} distinct "
            f"terms for N = {doc['N']}"]


def check_embed(out: Path, config: dict) -> list:
    gap = _doc(out, "embedding.json")["grid_max_gap"]
    return [] if gap < config["epsilon"] else [f"grid_max_gap {gap} >= {config['epsilon']}"]


def check_density(out: Path, config: dict) -> list:
    with (out / "density.csv").open() as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    radii = [float(r["covering_radius"]) for r in rows]
    problems = []
    if len(radii) != config["n_max"]:
        problems.append(f"{len(radii)} radii for n_max {config['n_max']}")
    if any(b > a for a, b in zip(radii, radii[1:])):
        problems.append("covering radius increases with n")
    return problems


def _shipped(root: Path, name: str) -> dict:
    return json.loads((root / "configs" / name).read_text())


def construct(config: dict, cap_s: float) -> Command:
    return Command("construct", config, ("report.json", "tokens.csv", "error_vs_n.csv"),
                   check_construct, cap_s)


def oracles(root: Path, seed: int | None) -> list:
    """Kronecker, nonuap audit, density and embed; ``seed`` None keeps the shipped seeds."""
    audit = _shipped(root, "nonuap_audit.json")
    kron_seed, offset = 808, [0.0, 0.0]      # 808 as in configs/kronecker_seeded.json
    if seed is not None:
        rng = random.Random(seed)
        kron_seed = audit["seed"] = seed
        offset = [rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05)]
    kron = {"random": {"seed": kron_seed, "count": 1000, "lo": -10.0, "hi": 10.0},
            "epsilon": 1e-6, "q_cap": 100000000}
    density = {"vocab": {"v_x": [offset], "v_y": [[0.0]]},
               "scheme": {"kind": "dyadic_lattice",
                          "region": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]}},
               "region": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
               "n_max": 16000, "probe_per_dim": 64}
    return [
        Command("kronecker", kron, ("witnesses.json", "witnesses.csv"),
                check_kronecker, 30.0),
        Command("audit", audit, ("audit.json", "audit.csv"), check_audit, 30.0),
        Command("density", density, ("density.json", "density.csv"),
                check_density, 30.0),
        Command("embed", _shipped(root, "embed_softmax.json"),
                ("embedding.json", "errors.csv"), check_embed, 30.0),
    ]


def workload(name: str, root: Path, seed: int | None) -> list:
    """The command set one sample of workload ``name`` runs.

    The construct workloads keep their shipped config seeds: the size of a
    construction is erratic in that seed (see README.md), so ``seed`` varies
    only the oracle inputs.
    """
    if name == "construct-acceptance":
        return [construct(_shipped(root, "construct_sin_acceptance.json"), 30.0)]
    if name == "construct-multi":
        return [construct(MULTI_OUTPUT, 75.0)]
    if name == "oracles":
        return oracles(root, seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("construct-acceptance", "construct-multi", "oracles")
