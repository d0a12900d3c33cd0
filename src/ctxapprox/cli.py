"""Batch experiment driver.

Subcommands: embed | construct | audit | density | kronecker.  Each run takes
a single JSON config (no environment-variable configuration), writes JSON and
CSV artifacts under --out, and embeds the config hash and tool version in
every output.  Identical configs produce byte-identical outputs.  Exit codes:
0 success, 2 config error, 3 budget exhaustion, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import __version__
from .construction import (Caps, FitOptions, StageBudgets, construct_context,
                           prefix_errors)
from .embedding import embed_fnn, embed_softmax_fnn
from .errors import (BudgetError, ConfigError, CtxApproxError,
                     EpsilonRangeError, IllConditionedError,
                     KroneckerCapExceeded, PositionScanExhausted)
from .expressions import parse_target
from .fnn import SOFTMAX, Activation, FnnParams, fnn_forward_batch
from .grids import Grid
from .kronecker import kronecker_search
from .nonuap import FiniteFamilySpec, nonuap_audit, prop1_fuzz
from .transformer import (TransformerParams, identity_sparse_params,
                          random_sparse_params, readout_batch)
from .vocab_pe import (Box, PeScheme, Vocabulary, calkin_wilf_lattice,
                       density_audit, dyadic_lattice, irrational_rotation)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BUDGET = 3
EXIT_NUMERIC = 4

# the benchmark's span hooks (perfbench/spans.py) still look these names up;
# nothing calls them, and they go when that hook list drops them
construct_context_multi_output = construct_relu_rescaled = construct_context

_CONSTRUCT_KEYS = ("target", "transformer", "vocab", "scheme", "grid", "epsilon", "seed",
                   "budgets", "fit", "caps", "activation", "construction",
                   "coefficient_mode", "lambda_policy")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _require(cfg: dict, field: str, kind=None):
    cur = cfg
    for part in field.split("."):
        if not isinstance(cur, dict) or part not in cur:
            raise ConfigError(field, "missing")
        cur = cur[part]
    if kind is not None and not isinstance(cur, kind):
        raise ConfigError(field, f"expected {kind.__name__}, got {type(cur).__name__}")
    return cur


def _known(obj: dict, field: str, allowed) -> dict:
    """``obj``, whose keys must all be in ``allowed``; ``field`` is its dotted
    name, "" for the top level.  A misspelled key would otherwise run with
    the default."""
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{field}.{key}" if field else key,
                              f"unknown key; {field or 'the config'} takes {', '.join(allowed)}")
    return obj


def _whole(value, field: str) -> int:
    """``value`` as an int when it is a whole number; a bare ``int()`` would
    raise ``OverflowError`` on Infinity and truncate 2.5."""
    whole = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not whole:
        raise ConfigError(field, f"expected an integer, got {value!r}")
    return int(value)


def _int_field(cfg: dict, field: str, default: int | None = None) -> int:
    """The whole number at the dotted ``field``, or ``default`` when given and absent."""
    try:
        value = _require(cfg, field)
    except ConfigError:
        if default is None:
            raise
        return default
    return _whole(value, field)


def _config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")


def _meta(cfg: dict, command: str) -> dict:
    return {"tool": "ctxapprox", "version": __version__, "command": command,
            "config_sha256": _config_hash(cfg)}


def _csv_header(cfg: dict) -> str:
    return f"# ctxapprox {__version__} config_sha256={_config_hash(cfg)}\n"


def _load_options(cfg: dict, field: str, cls):
    """``cls`` built from the object ``cfg[field]``: each key must name a field,
    its value is converted to the field's annotated type, absent fields keep
    their defaults."""
    types = get_type_hints(cls)
    values = {}
    for key, value in _known(_require(cfg, field, dict), field, types).items():
        if types[key] is int:
            values[key] = _whole(value, f"{field}.{key}")
            continue
        try:
            values[key] = types[key](value)
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"{field}.{key}",
                              f"expected {types[key].__name__}, got {value!r}") from None
    return cls(**values)


def _load_grid(cfg: dict, field: str) -> Grid:
    g = _known(_require(cfg, field, dict), field, ("lo", "hi", "counts"))
    lo = _require(g, "lo", list)
    hi = _require(g, "hi", list)
    counts = _require(g, "counts", list)
    return Grid(tuple(lo), tuple(hi), tuple(counts))


def _load_transformer(cfg: dict) -> TransformerParams:
    t = _require(cfg, "transformer", dict)
    if "file" in t:
        _known(t, "transformer", ("file",))
        return TransformerParams.from_json_dict(json.loads(Path(t["file"]).read_text()))
    if "blocks" in t:
        _known(t, "transformer", ("blocks",))
        return TransformerParams.from_json_dict(t["blocks"])
    kind = t.get("kind", "random")
    _known(t, "transformer", ("kind", "d_x", "d_y") + (("seed",) if kind == "random" else ()))
    d_x = _require(t, "d_x", int)
    d_y = _require(t, "d_y", int)
    if kind == "identity":
        return identity_sparse_params(d_x, d_y)
    if kind == "random":
        return random_sparse_params(_require(t, "seed", int), d_x, d_y)
    raise ConfigError("transformer.kind", f"unknown kind {kind!r}")


def _load_fnn(cfg: dict) -> FnnParams:
    f = _require(cfg, "fnn", dict)
    if "file" in f:
        _known(f, "fnn", ("file",))
        return FnnParams.from_json_dict(json.loads(Path(f["file"]).read_text()))
    if "blocks" in f:
        _known(f, "fnn", ("blocks",))
        return FnnParams.from_json_dict(f["blocks"])
    if "random" in f:
        _known(f, "fnn", ("random",))
        r = _known(_require(f, "random", dict), "fnn.random",
                   ("seed", "k", "d_in", "d_y", "activation", "scale"))
        rng = np.random.default_rng(_require(r, "seed", int))
        k = _require(r, "k", int)
        d_in = _require(r, "d_in", int)
        d_y = _require(r, "d_y", int)
        scale = float(r.get("scale", 1.0))
        return FnnParams(rng.uniform(-scale, scale, (d_y, k)),
                         rng.uniform(-scale, scale, (k, d_in)),
                         rng.uniform(-scale, scale, k),
                         Activation(_require(r, "activation", str)))
    raise ConfigError("fnn", "needs 'blocks' or 'random'")


def _load_scheme(cfg: dict, field: str = "scheme") -> PeScheme:
    s = _require(cfg, field, dict)
    kind = _require(s, "kind", str)
    if kind == "calkin_wilf_lattice":
        _known(s, field, ("kind", "d_x", "scale"))
        d_x = _require(s, "d_x", int)
        return calkin_wilf_lattice(d_x, float(s.get("scale", 1.0)))
    _known(s, field, ("kind", "region"))
    _known(_require(s, "region", dict), f"{field}.region", ("lo", "hi"))
    region = Box(tuple(_require(s, "region.lo", list)),
                 tuple(_require(s, "region.hi", list)))
    if kind == "dyadic_lattice":
        return dyadic_lattice(region)
    if kind == "irrational_rotation":
        return irrational_rotation(region)
    raise ConfigError(f"{field}.kind", f"unknown kind {kind!r}")


def _load_vocab(cfg: dict) -> Vocabulary:
    v = _require(cfg, "vocab", dict)
    if "x_grid" in v:
        _known(v, "vocab", ("x_grid", "d_y"))
        g = _known(_require(v, "x_grid", dict), "vocab.x_grid", ("lo", "hi", "per_dim"))
        return Vocabulary.x_grid(tuple(_require(g, "lo", list)),
                                 tuple(_require(g, "hi", list)),
                                 _require(g, "per_dim", int),
                                 _require(v, "d_y", int))
    _known(v, "vocab", ("v_x", "v_y"))
    return Vocabulary(np.array(_require(v, "v_x", list), dtype=float),
                      np.array(_require(v, "v_y", list), dtype=float))


def _samples_target(path: str, d_in: int, d_y: int):
    """Target from a sample CSV (x columns then value columns).

    Linear interpolation along a 1-d domain; nearest-sample lookup otherwise.
    """
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != d_in + d_y:
        raise ConfigError("target.samples_file",
                          f"expected {d_in + d_y} columns, found {data.shape[1]}")
    x, f = data[:, :d_in], data[:, d_in:]
    if d_in == 1:
        order = np.argsort(x[:, 0])
        xs, fs = x[order, 0], f[order]

        def target(points):
            pts = np.atleast_2d(np.asarray(points, dtype=float))
            return np.column_stack([np.interp(pts[:, 0], xs, fs[:, c])
                                    for c in range(d_y)])
    else:
        def target(points):
            pts = np.atleast_2d(np.asarray(points, dtype=float))
            idx = np.argmin(np.max(np.abs(pts[:, None, :] - x[None, :, :]),
                                   axis=2), axis=1)
            return f[idx]
    return target


# --------------------------------------------------------------------------
# subcommands


def cmd_embed(cfg: dict, out: Path, seed_override: int | None) -> int:
    mode = _require(cfg, "mode", str)
    tp = _load_transformer(cfg)
    fnn = _load_fnn(cfg)
    grid = _load_grid(cfg, "grid")
    if mode == "elementwise":
        result = embed_fnn(tp, fnn)
        activation = fnn.activation
    elif mode == "softmax":
        epsilon = float(_require(cfg, "epsilon", (int, float)))
        result = embed_softmax_fnn(tp, fnn, grid, epsilon)
        activation = SOFTMAX
    else:
        raise ConfigError("mode", "must be 'elementwise' or 'softmax'")

    pts = grid.points()
    gap = np.max(np.abs(readout_batch(tp, result, pts, activation)
                        - fnn_forward_batch(fnn, pts)), axis=1)
    doc = _meta(cfg, "embed")
    doc["result"] = result.to_json_dict()
    doc["grid_max_gap"] = float(np.max(gap))
    doc["y_sup_norm"] = result.y_sup_norm
    if result.closed_form_bound is not None:
        doc["closed_form_bound"] = result.closed_form_bound
    _write_json(out / "embedding.json", doc)
    with (out / "errors.csv").open("w", newline="") as fh:
        fh.write(_csv_header(cfg))
        w = csv.writer(fh, lineterminator="\n")
        w.writerow([f"x{i+1}" for i in range(pts.shape[1])] + ["gap"])
        for p, g in zip(pts, gap):
            w.writerow([_fmt(v) for v in p] + [_fmt(g)])
    return EXIT_OK


def _construct_report(cfg: dict, seed_override: int | None):
    _known(cfg, "", _CONSTRUCT_KEYS)
    tp = _load_transformer(cfg)
    grid = _load_grid(cfg, "grid")
    vocab = _load_vocab(cfg)
    scheme = _load_scheme(cfg)
    epsilon = float(_require(cfg, "epsilon", (int, float)))
    seed = seed_override if seed_override is not None else _int_field(cfg, "seed", 0)
    tgt_cfg = _require(cfg, "target", dict)
    _known(tgt_cfg, "target", ("samples_file",) if "samples_file" in tgt_cfg else ("exprs",))
    if "samples_file" in tgt_cfg:
        target = _samples_target(tgt_cfg["samples_file"], grid.dim, tp.d_y)
    else:
        compiled = [parse_target(e) for e in _require(cfg, "target.exprs", list)]

        def target(points):
            return np.column_stack([c(points) for c in compiled])

    # absent objects take the library's defaults
    kwargs = {name: _load_options(cfg, name, cls) for name, cls in
              (("budgets", StageBudgets), ("fit", FitOptions), ("caps", Caps)) if name in cfg}
    activation = Activation(cfg.get("activation", "relu"))
    construction = cfg.get("construction", "dense")
    if construction == "relu_rescaled":
        if activation.kind != "relu":
            raise ConfigError("activation", "the relu_rescaled construction is relu only")
        if "coefficient_mode" in cfg:
            raise ConfigError("coefficient_mode", "the relu_rescaled construction always "
                              "takes integer witnesses")
        lambda_policy = cfg.get("lambda_policy", "max_row")
    elif construction == "dense":
        if "lambda_policy" in cfg:
            raise ConfigError("lambda_policy", "applies only to the relu_rescaled construction")
        lambda_policy = None
    else:
        raise ConfigError("construction", "must be 'dense' or 'relu_rescaled'")
    report = construct_context(target, grid, vocab, scheme, tp, epsilon, seed=seed,
                               activation=activation, lambda_policy=lambda_policy,
                               coefficient_mode=cfg.get("coefficient_mode", "auto"), **kwargs)
    return report, tp, grid, target, activation


def cmd_construct(cfg: dict, out: Path, seed_override: int | None) -> int:
    report, tp, grid, target, activation = _construct_report(cfg, seed_override)
    doc = _meta(cfg, "construct")
    doc["report"] = report.to_json_dict()
    _write_json(out / "report.json", doc)
    with (out / "tokens.csv").open("w", newline="") as fh:
        fh.write(_csv_header(cfg))
        report.write_tokens_csv(fh)

    # prefix error curve: sup error using the first t assigned tokens
    pts = grid.points()
    with (out / "error_vs_n.csv").open("w", newline="") as fh:
        fh.write(_csv_header(cfg))
        fh.write("n,tokens_used,sup_error\n")
        for n_here, t, err in prefix_errors(report, tp, activation, pts, target(pts)):
            fh.write(f"{n_here},{t},{_fmt(err)}\n")
    return EXIT_OK


def cmd_density(cfg: dict, out: Path, seed_override: int | None) -> int:
    vocab = _load_vocab(cfg)
    scheme = _load_scheme(cfg)
    region = Box(tuple(_require(cfg, "region.lo", list)),
                 tuple(_require(cfg, "region.hi", list)))
    n_max = _require(cfg, "n_max", int)
    profile = density_audit(vocab, scheme, region, n_max,
                            probe_per_dim=_int_field(cfg, "probe_per_dim", 64))
    doc = _meta(cfg, "density")
    doc["final_covering_radius"] = float(profile.radii[-1])
    doc["n_max"] = n_max
    _write_json(out / "density.json", doc)
    with (out / "density.csv").open("w", newline="") as fh:
        fh.write(_csv_header(cfg))
        profile.write_csv(fh)
    return EXIT_OK


def cmd_kronecker(cfg: dict, out: Path, seed_override: int | None) -> int:
    epsilon = float(_require(cfg, "epsilon", (int, float)))
    q_cap = _int_field(cfg, "q_cap", 10**7)
    if "betas" in cfg:
        betas = [float(b) for b in _require(cfg, "betas", list)]
    else:
        r = _require(cfg, "random", dict)
        seed = seed_override if seed_override is not None else _int_field(cfg, "random.seed")
        rng = np.random.default_rng(seed)
        betas = rng.uniform(float(r.get("lo", -10)), float(r.get("hi", 10)),
                            _int_field(cfg, "random.count")).tolist()
    wits = [kronecker_search(b, epsilon, q_cap) for b in betas]
    doc = _meta(cfg, "kronecker")
    doc["witnesses"] = [w.to_json_dict() for w in wits]
    doc["max_q"] = max(w.q for w in wits)
    _write_json(out / "witnesses.json", doc)
    with (out / "witnesses.csv").open("w", newline="") as fh:
        fh.write(_csv_header(cfg))
        fh.write("beta,q,l,achieved_error\n")
        for w in wits:
            fh.write(f"{_fmt(w.beta)},{w.q},{w.l},{_fmt(w.achieved_error)}\n")
    return EXIT_OK


def cmd_audit(cfg: dict, out: Path, seed_override: int | None) -> int:
    kind = _require(cfg, "kind", str)
    seed = seed_override if seed_override is not None else _int_field(cfg, "seed", 0)
    if kind == "prop1_fuzz":
        k_range = tuple(_whole(k, "k_range") for k in cfg.get("k_range", [1, 6]))
        record = prop1_fuzz(_int_field(cfg, "count"), seed, k_range=k_range,
                            exponent_separation=float(cfg.get("exponent_separation", 0.1)),
                            coeff_range=float(cfg.get("coeff_range", 5.0)),
                            interval=tuple(cfg.get("interval", [-8.0, 8.0])),
                            grid_points=_int_field(cfg, "grid_points", 2001))
    elif kind == "nonuap":
        fam = _require(cfg, "family", dict)
        family = FiniteFamilySpec(np.array(_require(fam, "a_set", list), dtype=float),
                                  np.array(_require(fam, "w_set", list), dtype=float),
                                  np.array(_require(fam, "b_set", list), dtype=float))
        record = nonuap_audit(family, _require(cfg, "max_context", int),
                              _require(cfg, "trials", int), seed)
    else:
        raise ConfigError("kind", "must be 'prop1_fuzz' or 'nonuap'")
    doc = _meta(cfg, "audit")
    doc["kind"] = kind
    doc.update(record.to_json_dict())
    _write_json(out / "audit.json", doc)
    with (out / "audit.csv").open("w", newline="") as fh:
        fh.write(_csv_header(cfg))
        record.write_csv(fh)
    return EXIT_OK


_COMMANDS = {
    "embed": cmd_embed,
    "construct": cmd_construct,
    "audit": cmd_audit,
    "density": cmd_density,
    "kronecker": cmd_kronecker,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="ctxapprox", description=__doc__)
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="overrides the config seed")
    args = parser.parse_args(argv)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    def fail(code: int, field: str, message: str) -> int:
        _write_json(out / "error.json",
                    {"tool": "ctxapprox", "version": __version__,
                     "error": {"field": field, "message": message, "exit_code": code}})
        print(f"error: {message}", file=sys.stderr)
        return code

    try:
        cfg = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return fail(EXIT_CONFIG, "config", f"unreadable config: {exc}")
    if not isinstance(cfg, dict):
        return fail(EXIT_CONFIG, "config", "top-level config must be an object")

    try:
        return _COMMANDS[args.command](cfg, out, args.seed)
    except ConfigError as exc:
        return fail(EXIT_CONFIG, exc.field, str(exc))
    except (KeyError, TypeError, ValueError) as exc:
        return fail(EXIT_CONFIG, "config", f"{type(exc).__name__}: {exc}")
    except (PositionScanExhausted, KroneckerCapExceeded, BudgetError) as exc:
        extra = {}
        if isinstance(exc, PositionScanExhausted):
            extra = {"j_cap": exc.j_cap, "unmet": exc.unmet}
        elif isinstance(exc, BudgetError):
            extra = {"stage": exc.stage, "measured": exc.measured, "budget": exc.budget}
        _write_json(out / "error.json",
                    {"tool": "ctxapprox", "version": __version__,
                     "error": {"field": "budget", "message": str(exc),
                               "exit_code": EXIT_BUDGET, **extra}})
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (IllConditionedError, EpsilonRangeError, np.linalg.LinAlgError,
            FloatingPointError) as exc:
        return fail(EXIT_NUMERIC, "numeric", str(exc))
    except CtxApproxError as exc:
        return fail(EXIT_NUMERIC, "numeric", str(exc))


if __name__ == "__main__":
    sys.exit(main())
