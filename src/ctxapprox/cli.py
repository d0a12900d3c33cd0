"""Batch experiment driver.

Subcommands: embed | construct | audit | density | kronecker.  Each run takes
a single JSON config (no environment-variable configuration), writes JSON and
CSV artifacts under --out, and embeds the config hash and tool version in
every output.  Identical configs produce byte-identical outputs.  Exit codes:
0 success, 1 a bug (an uncaught exception, with its traceback), 2 config
error, 3 budget exhaustion, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from functools import partial
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import __version__
from .construction import Caps, FitOptions, StageBudgets, construct_context
from .embedding import embed_fnn, embed_softmax_fnn
from .errors import (BudgetError, ConfigError, CtxApproxError,
                     KroneckerCapExceeded, PositionScanExhausted)
from .expressions import parse_target
from .fnn import SOFTMAX, Activation, FnnParams, fnn_forward_batch
from .grids import Grid
# the benchmark's span hooks (perfbench/spans.py) still look kronecker_search
# up here; nothing here calls it, and it goes when that hook list drops it
from .kronecker import kronecker_search, kronecker_witnesses
from .nonuap import FiniteFamilySpec, nonuap_audit, prop1_fuzz
from .transformer import (GeneralBlocks, TransformerParams, identity_sparse_params,
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

# accepted Python types and their name in messages, per kind a config value is read as
_KINDS = {int: ((int, float), "an integer"), float: ((int, float), "a number"),
          str: (str, "a string"), list: (list, "a list"), dict: (dict, "an object")}
_REQUIRED = object()
_NEAREST_BLOCK = 1 << 20    # point-sample distances per chunk of a nearest-sample lookup


def _typed(value, kind, field: str):
    """``value`` as ``kind``: ``int`` takes whole numbers only and ``float``
    any number, neither a bool; ``str``, ``list`` and ``dict`` their own type."""
    types, name = _KINDS[kind]
    if isinstance(value, types) and not isinstance(value, bool):
        try:
            if kind is not int or isinstance(value, int) or value.is_integer():
                return kind(value)
        except OverflowError:       # an integer literal beyond the float range
            pass
    raise ConfigError(field, f"expected {name}, got {value!r}")


class _Config:
    """One config object and its dotted path.  Every key asked for is
    recorded, present or not, so ``done`` can reject the keys never asked
    for: a key of another kind or route is simply never read."""

    def __init__(self, obj, path: str = ""):
        self.obj = _typed(obj, dict, path or "config")
        self.path = path
        self.asked: dict = {}       # key -> its child reader, or None

    def field(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def has(self, key: str) -> bool:
        self.asked.setdefault(key, None)
        return key in self.obj

    def get(self, key: str, kind, default=_REQUIRED):
        """The value at ``key`` as ``kind`` (see ``_typed``), or ``default``
        when absent and given."""
        if self.has(key):
            return _typed(self.obj[key], kind, self.field(key))
        if default is _REQUIRED:
            raise ConfigError(self.field(key), "missing")
        return default

    def numbers(self, key: str, kind=float, default=_REQUIRED) -> list:
        return [_typed(v, kind, self.field(key)) for v in self.get(key, list, default)]

    def array(self, key: str) -> np.ndarray:
        """The number or nested list of numbers at ``key`` as a float array,
        each number read as ``float`` (see ``_typed``); the library checks
        its shape.  Nesting past numpy's 64 dimensions is an entry that is
        not a number."""
        field = self.field(key)

        def walk(value, depth):
            if not isinstance(value, list) or depth == 64:
                return _typed(value, float, field)
            return [walk(v, depth + 1) for v in value]
        if not self.has(key):
            raise ConfigError(field, "missing")
        return np.array(walk(self.obj[key], 0), dtype=float)

    def load(self, key: str, build, kind=None):
        """``build`` applied to the value at ``key`` read as ``kind``, or to
        a child reader: of the object at ``key`` when ``kind`` is None, of
        the JSON object in the file it names when ``kind`` is ``Path``.  An
        error raised while it becomes a library object is a ConfigError
        naming ``key``."""
        try:
            if kind is None or kind is Path:
                obj = (self.get(key, dict) if kind is None
                       else json.loads(Path(self.get(key, str)).read_text()))
                value = self.asked[key] = _Config(obj, self.field(key))
            else:
                value = self.get(key, kind)
            return build(value)
        except ConfigError:
            raise
        except (OSError, KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(self.field(key), f"{type(exc).__name__}: {exc}") from None

    def done(self):
        """Rejects a key never asked for, here and in every child reader."""
        for key in self.obj:
            if key not in self.asked:
                raise ConfigError(self.field(key), f"unknown key; {self.path or 'the config'} "
                                  f"takes {', '.join(self.asked)}")
            if self.asked[key] is not None:
                self.asked[key].done()


def _config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")


def _meta(cfg: dict, command: str) -> dict:
    return {"tool": "ctxapprox", "version": __version__, "command": command,
            "config_sha256": _config_hash(cfg)}


def _write_csv(path: Path, cfg: dict, columns: str, lines):
    """A CSV artifact: a comment line with the tool version and the config
    hash, the ``columns`` line, then ``lines``, each a finished row with its
    newline, streamed.  Callers format floats ``%.17g``."""
    with path.open("w", newline="") as fh:
        fh.write(f"# ctxapprox {__version__} config_sha256={_config_hash(cfg)}\n{columns}\n")
        fh.writelines(lines)


def _options(cls, o: _Config):
    """``cls`` with each annotated field present in ``o``; absent fields keep their defaults."""
    return cls(**{key: o.get(key, kind) for key, kind in get_type_hints(cls).items()
                  if o.has(key)})


def _seed(cfg: _Config, seed_override: int | None, default=_REQUIRED) -> int:
    """``seed`` of ``cfg``, or the ``--seed`` override when given; numpy's
    generators take no negative seed, so the one used must be >= 0."""
    field, seed = cfg.field("seed"), cfg.get("seed", int, default)
    if seed_override is not None:
        field, seed = "--seed", seed_override
    if seed < 0:
        raise ConfigError(field, f"{field} must be >= 0, got {seed}")
    return seed


def _no_seed(seed_override: int | None):
    if seed_override is not None:               # it would change no byte of the run
        raise ConfigError("--seed", "only construct, audit and kronecker with random take --seed")


def _positive(cfg: _Config, key: str, kind, default=_REQUIRED):
    """The value at ``key`` read as ``kind``: an integer must be >= 1, a
    number positive and finite."""
    value = cfg.get(key, kind, default)
    if kind is int and value < 1:
        raise ConfigError(cfg.field(key), f"{cfg.field(key)} must be >= 1, got {value}")
    if kind is float and not (math.isfinite(value) and value > 0):
        raise ConfigError(cfg.field(key), f"{cfg.field(key)} must be positive and finite, "
                                          f"got {value!r}")
    return value


def _grid(g: _Config) -> Grid:
    return Grid(tuple(g.numbers("lo")), tuple(g.numbers("hi")), tuple(g.numbers("counts", int)))


def _box(b: _Config) -> Box:
    return Box(tuple(b.numbers("lo")), tuple(b.numbers("hi")))


def _transformer(t: _Config) -> TransformerParams:
    if t.has("file"):
        return t.load("file", _blocks, Path)
    if t.has("blocks"):
        return t.load("blocks", _blocks)
    kind = t.get("kind", str, "random")
    d_x = _positive(t, "d_x", int)
    d_y = _positive(t, "d_y", int)
    if kind == "identity":
        return identity_sparse_params(d_x, d_y)
    if kind == "random":
        return random_sparse_params(_seed(t, None), d_x, d_y)
    raise ConfigError(t.field("kind"), f"unknown kind {kind!r}")


def _blocks(b: _Config) -> TransformerParams:
    """B, C, D, E, F, U and ``general``: null or absent, or O11, O12, O21, O22."""
    blocks = [b.array(name) for name in ("B", "C", "D", "E", "F", "U")]
    general = None
    if b.has("general") and b.obj["general"] is not None:
        general = b.load("general", lambda g: GeneralBlocks(
            *(g.array(name) for name in ("O11", "O12", "O21", "O22"))))
    return TransformerParams(*blocks, general=general)


def _fnn(f: _Config) -> FnnParams:
    if f.has("file"):
        return f.load("file", _network, Path)
    if f.has("blocks"):
        return f.load("blocks", _network)
    return f.load("random", _random_fnn)


def _network(n: _Config) -> FnnParams:
    return FnnParams(n.array("A"), n.array("W"), n.array("b"),
                     n.load("activation", Activation, str))


def _random_fnn(r: _Config) -> FnnParams:
    rng = np.random.default_rng(_seed(r, None))
    k = _positive(r, "k", int)
    d_in = _positive(r, "d_in", int)
    d_y = _positive(r, "d_y", int)
    scale = r.get("scale", float, 1.0)
    return FnnParams(rng.uniform(-scale, scale, (d_y, k)),
                     rng.uniform(-scale, scale, (k, d_in)),
                     rng.uniform(-scale, scale, k),
                     r.load("activation", Activation, str))


def _scheme(s: _Config) -> PeScheme:
    kind = s.get("kind", str)
    if kind == "calkin_wilf_lattice":
        return calkin_wilf_lattice(s.get("d_x", int), s.get("scale", float, 1.0))
    region = s.load("region", _box)
    if kind == "dyadic_lattice":
        return dyadic_lattice(region)
    if kind == "irrational_rotation":
        return irrational_rotation(region)
    raise ConfigError(s.field("kind"), f"unknown kind {kind!r}")


def _vocab(v: _Config) -> Vocabulary:
    if v.has("x_grid"):
        return v.load("x_grid", lambda g: Vocabulary.x_grid(
            tuple(g.numbers("lo")), tuple(g.numbers("hi")), g.get("per_dim", int),
            v.get("d_y", int)))
    return Vocabulary(v.array("v_x"), v.array("v_y"))


def _target(t: _Config, d_in: int, d_y: int):
    if t.has("samples_file"):
        return t.load("samples_file", lambda path: _samples_target(path, d_in, d_y), str)
    compiled = [parse_target(e) for e in t.numbers("exprs", str)]
    if len(compiled) != d_y:
        raise ConfigError(t.field("exprs"), f"needs one expression per output "
                                            f"(d_y = {d_y}), got {len(compiled)}")

    def target(points):
        return np.column_stack([c(points) for c in compiled])
    return target


def _samples_target(path: str, d_in: int, d_y: int):
    """Target from a sample CSV (x columns then value columns).

    Linear interpolation along a 1-d domain; nearest-sample (sup-norm)
    lookup otherwise, over chunks of points so memory stays bounded.
    """
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != d_in + d_y:
        raise ValueError(f"expected {d_in + d_y} columns, found {data.shape[1]}")
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
            idx = np.empty(pts.shape[0], dtype=np.intp)
            step = max(1, _NEAREST_BLOCK // x.size)
            for s in range(0, pts.shape[0], step):
                idx[s:s + step] = np.argmin(np.max(np.abs(
                    pts[s:s + step, None, :] - x[None, :, :]), axis=2), axis=1)
            return f[idx]
    return target


def _family(f: _Config) -> FiniteFamilySpec:
    return FiniteFamilySpec(*(np.array(f.numbers(key)) for key in ("a_set", "w_set", "b_set")))


def _random_betas(seed_override: int | None, r: _Config) -> list:
    seed = _seed(r, seed_override)
    lo = r.get("lo", float, -10.0)
    hi = r.get("hi", float, 10.0)
    count = _positive(r, "count", int)
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, count).tolist()


# --------------------------------------------------------------------------
# subcommands: each reads its whole config, calls ``done``, then runs


def cmd_embed(cfg: _Config, out: Path, seed_override: int | None) -> int:
    _no_seed(seed_override)
    mode = cfg.get("mode", str)
    tp = cfg.load("transformer", _transformer)
    fnn = cfg.load("fnn", _fnn)
    grid = cfg.load("grid", _grid)
    if grid.dim != fnn.d_in:
        raise ConfigError("fnn", f"fnn input dimension {fnn.d_in} != grid dimension {grid.dim}")
    if mode == "elementwise":
        embed = partial(embed_fnn, tp, fnn)
    elif mode == "softmax":
        embed = partial(embed_softmax_fnn, tp, fnn, grid, cfg.get("epsilon", float))
    else:
        raise ConfigError("mode", "must be 'elementwise' or 'softmax'")
    cfg.done()
    result = embed()
    activation = fnn.activation if mode == "elementwise" else SOFTMAX

    pts = grid.points()
    gap = np.max(np.abs(readout_batch(tp, result, pts, activation)
                        - fnn_forward_batch(fnn, pts)), axis=1)
    doc = _meta(cfg.obj, "embed")
    doc["result"] = result.to_json_dict()
    doc["grid_max_gap"] = float(np.max(gap))
    doc["y_sup_norm"] = result.y_sup_norm
    if result.closed_form_bound is not None:
        doc["closed_form_bound"] = result.closed_form_bound
    _write_json(out / "embedding.json", doc)
    _write_csv(out / "errors.csv", cfg.obj,
               ",".join([*(f"x{i + 1}" for i in range(pts.shape[1])), "gap"]),
               (",".join([f"{v:.17g}" for v in p + [g]]) + "\n"
                for p, g in zip(pts.tolist(), gap.tolist())))
    return EXIT_OK


def cmd_construct(cfg: _Config, out: Path, seed_override: int | None) -> int:
    tp = cfg.load("transformer", _transformer)
    grid = cfg.load("grid", _grid)
    vocab = cfg.load("vocab", _vocab)
    scheme = cfg.load("scheme", _scheme)
    epsilon = _positive(cfg, "epsilon", float)
    seed = _seed(cfg, seed_override, 0)
    target = cfg.load("target", lambda t: _target(t, grid.dim, tp.d_y))
    # absent objects take the library's defaults
    options = {name: cfg.load(name, partial(_options, cls)) for name, cls in
               (("budgets", StageBudgets), ("fit", FitOptions), ("caps", Caps)) if cfg.has(name)}
    if cfg.has("activation"):
        options["activation"] = cfg.load("activation", Activation, str)
    options["coefficient_mode"] = cfg.get("coefficient_mode", str, "auto")
    cfg.done()
    report = construct_context(target, grid, vocab, scheme, tp, epsilon, seed=seed, **options)
    doc = _meta(cfg.obj, "construct")
    doc["report"] = report.to_json_dict()
    _write_json(out / "report.json", doc)
    _write_csv(out / "tokens.csv", cfg.obj, "position,vocab_index,role,neuron,component,y_value",
               (f"{t.position},{t.vocab_index},{t.role},{t.neuron},{t.component},"
                f"{t.y_value:.17g}\n" for t in report.tokens))
    _write_csv(out / "error_vs_n.csv", cfg.obj, "n,tokens_used,sup_error",
               (f"{n},{t},{err:.17g}\n" for n, t, err in report.error_vs_n))
    return EXIT_OK


def cmd_density(cfg: _Config, out: Path, seed_override: int | None) -> int:
    _no_seed(seed_override)
    vocab = cfg.load("vocab", _vocab)
    scheme = cfg.load("scheme", _scheme)
    region = cfg.load("region", _box)
    n_max = cfg.get("n_max", int)
    probe_per_dim = cfg.get("probe_per_dim", int, 64)
    cfg.done()
    profile = density_audit(vocab, scheme, region, n_max, probe_per_dim=probe_per_dim)
    doc = _meta(cfg.obj, "density")
    doc["final_covering_radius"] = float(profile.radii[-1])
    doc["n_max"] = n_max
    _write_json(out / "density.json", doc)
    # r(n) takes few distinct values, so each is formatted once
    radii = profile.radii.tolist()
    text = {r: f",{r:.17g}\n" for r in set(radii)}
    _write_csv(out / "density.csv", cfg.obj, "n,covering_radius",
               (f"{n}{text[r]}" for n, r in zip(profile.ns.tolist(), radii)))
    return EXIT_OK


def cmd_kronecker(cfg: _Config, out: Path, seed_override: int | None) -> int:
    epsilon = _positive(cfg, "epsilon", float)
    q_cap = _positive(cfg, "q_cap", int, 10**7)
    if cfg.has("betas"):
        _no_seed(seed_override)
        betas = cfg.numbers("betas")
        if not betas or not all(map(math.isfinite, betas)):
            raise ConfigError("betas", f"needs at least one beta, each finite, got {betas!r}")
    else:
        betas = cfg.load("random", partial(_random_betas, seed_override))
    cfg.done()
    wits = kronecker_witnesses(betas, epsilon, q_cap)
    doc = _meta(cfg.obj, "kronecker")
    doc["witnesses"] = [w.to_json_dict() for w in wits]
    doc["max_q"] = max(w.q for w in wits)
    _write_json(out / "witnesses.json", doc)
    _write_csv(out / "witnesses.csv", cfg.obj, "beta,q,l,achieved_error",
               (f"{w.beta:.17g},{w.q},{w.l},{w.achieved_error:.17g}\n" for w in wits))
    return EXIT_OK


def cmd_audit(cfg: _Config, out: Path, seed_override: int | None) -> int:
    kind = cfg.get("kind", str)
    seed = _seed(cfg, seed_override, 0)
    if kind == "prop1_fuzz":
        audit = partial(prop1_fuzz, cfg.get("count", int), seed,
                        k_range=cfg.numbers("k_range", int, [1, 6]),
                        exponent_separation=cfg.get("exponent_separation", float, 0.1),
                        coeff_range=cfg.get("coeff_range", float, 5.0),
                        interval=cfg.numbers("interval", float, [-8.0, 8.0]),
                        grid_points=cfg.get("grid_points", int, 2001))
    elif kind == "nonuap":
        audit = partial(nonuap_audit, cfg.load("family", _family), cfg.get("max_context", int),
                        cfg.get("trials", int), seed)
    else:
        raise ConfigError("kind", "must be 'prop1_fuzz' or 'nonuap'")
    cfg.done()
    record = audit()
    doc = _meta(cfg.obj, "audit")
    doc["kind"] = kind
    doc.update(record.to_json_dict())
    _write_json(out / "audit.json", doc)
    if kind == "prop1_fuzz":
        _write_csv(out / "audit.csv", cfg.obj, "trial,k,sign_changes",
                   (f"{t},{k},{z}\n" for t, (k, z) in enumerate(zip(
                       record.ks.tolist(), record.sign_changes.tolist()))))
    else:
        _write_csv(out / "audit.csv", cfg.obj, "trial,context_length,minmax_error,distinct_terms",
                   (f"{t},{n},{e:.17g},{d}\n" for t, (n, e, d) in enumerate(zip(
                       record.context_lengths.tolist(), record.minmax_errors.tolist(),
                       record.distinct_terms.tolist()))))
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
                        help="overrides the seed of construct, audit or kronecker random")
    args = parser.parse_args(argv)

    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:          # no error.json either: a usage error, as argparse's own
        parser.error(f"argument --out: {exc}")

    def fail(code: int, field: str, message: str, **evidence) -> int:
        _write_json(out / "error.json",
                    {"tool": "ctxapprox", "version": __version__,
                     "error": {"field": field, "message": message, "exit_code": code,
                               **evidence}})
        print(f"error: {message}", file=sys.stderr)
        return code

    try:
        cfg = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return fail(EXIT_CONFIG, "config", f"unreadable config: {exc}")

    try:
        return _COMMANDS[args.command](_Config(cfg), out, args.seed)
    except ConfigError as exc:
        return fail(EXIT_CONFIG, exc.field, str(exc))
    except PositionScanExhausted as exc:
        return fail(EXIT_BUDGET, "budget", str(exc), j_cap=exc.j_cap, unmet=exc.unmet)
    except BudgetError as exc:
        return fail(EXIT_BUDGET, "budget", str(exc), stage=exc.stage,
                    measured=exc.measured, budget=exc.budget)
    except KroneckerCapExceeded as exc:
        return fail(EXIT_BUDGET, "budget", str(exc))
    except MemoryError as exc:      # a count within numpy's bounds that memory cannot hold
        return fail(EXIT_BUDGET, "budget", str(exc))
    except (CtxApproxError, np.linalg.LinAlgError, FloatingPointError) as exc:
        return fail(EXIT_NUMERIC, "numeric", str(exc))


if __name__ == "__main__":
    sys.exit(main())
