import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from ctxapprox.cli import main

ROOT = Path(__file__).resolve().parent.parent


def run_python(*args):
    """Run ``python *args`` in a fresh interpreter that imports this ctxapprox."""
    import ctxapprox
    env = dict(os.environ, PYTHONPATH=str(Path(ctxapprox.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


def sha256s(out, *names):
    """The SHA-256 hex digest of each named artifact in ``out``."""
    return tuple(hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names)


# "<digest>  <config stem>/<artifact>" lines, which CI also checks with sha256sum -c
SHIPPED_SHA256 = {path: digest for digest, path in (
    line.split() for line in (ROOT / "tests" / "shipped_artifacts.sha256").read_text().splitlines())}


def shipped_pins(config, *names):
    """{artifact: pinned SHA-256} for the named artifacts of the shipped config ``config``."""
    return {name: SHIPPED_SHA256[f"{config}/{name}"] for name in names}


def run(tmp_path, name, config, command, seed=None):
    cfg_path = tmp_path / f"{name}.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / f"{name}_out"
    argv = [command, "--config", str(cfg_path), "--out", str(out)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    code = main(argv)
    return code, out


EMBED_IDENTITY = {
    "mode": "elementwise",
    "transformer": {"kind": "identity", "d_x": 3, "d_y": 1},
    "fnn": {"random": {"seed": 5, "k": 4, "d_in": 2, "d_y": 1,
                       "activation": "relu"}},
    "grid": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0], "counts": [15, 15]},
}

CONSTRUCT_SMALL = {
    "target": {"exprs": ["sin(2*pi*x)"]},
    "transformer": {"kind": "identity", "d_x": 2, "d_y": 1},
    "vocab": {"x_grid": {"lo": [-8.0, -8.0], "hi": [8.0, 8.0], "per_dim": 65},
              "d_y": 1},
    "scheme": {"kind": "calkin_wilf_lattice", "d_x": 2},
    "grid": {"lo": [0.0], "hi": [1.0], "counts": [400]},
    "epsilon": 0.3,
    "seed": 7,
    "fit": {"k": 14, "refine_steps": 300},
    "caps": {"j_cap": 40000000},
}

EMBED_SOFTMAX = json.loads((ROOT / "configs" / "embed_softmax.json").read_text())

DENSITY_SMALL = {"vocab": {"v_x": [[0.0]], "v_y": [[0.0]]},
                 "scheme": {"kind": "dyadic_lattice", "region": {"lo": [-1.0], "hi": [1.0]}},
                 "region": {"lo": [-1.0], "hi": [1.0]}, "n_max": 31, "probe_per_dim": 33}

PROP1_SMALL = {"kind": "prop1_fuzz", "count": 20, "seed": 3, "k_range": [1, 6],
               "exponent_separation": 0.1, "coeff_range": 5.0, "interval": [-8.0, 8.0],
               "grid_points": 201}

NONUAP_SMALL = {"kind": "nonuap", "max_context": 20, "trials": 50, "seed": 1,
                "family": {"a_set": [1.0], "w_set": [0.5], "b_set": [0.0]}}

# criterion 5 of the acceptance suite (multi-output construction), shipped as
# a config and run by the benchmark as workloads.MULTI_OUTPUT
CONSTRUCT_MULTI = json.loads((ROOT / "configs" / "construct_multi_output.json").read_text())

# the shipped construct configs, by short name
SHIPPED_CONSTRUCTS = {"acceptance": "construct_sin_acceptance", "multi": "construct_multi_output",
                      "wide_tolerance": "construct_sin_wide_tolerance"}

KRONECKER_BETAS = {"betas": [0.0, 1.5], "epsilon": 0.01, "q_cap": 100000}

KRONECKER_RANDOM = {"random": {"seed": 1, "count": 3, "lo": -5.0, "hi": 5.0}, "epsilon": 0.01}

# the benchmark's oracle inputs; ints stay ints, since config_sha256 hashes the JSON
KRONECKER_ORACLES = {"random": {"seed": 808, "count": 1000, "lo": -10.0, "hi": 10.0},
                     "epsilon": 1e-6, "q_cap": 100000000}
DENSITY_ORACLES = {"vocab": {"v_x": [[0.0, 0.0]], "v_y": [[0.0]]},
                   "scheme": {"kind": "dyadic_lattice",
                              "region": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]}},
                   "region": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
                   "n_max": 16000, "probe_per_dim": 64}


def transformer_blocks(d_x, general=False, F=None):
    """``transformer.blocks`` of the identity sparse partition (d_y = 1), with
    general blocks or a nonzero ``F`` when asked."""
    from ctxapprox import identity_sparse_params
    doc = identity_sparse_params(d_x, 1).to_json_dict()
    if general:
        doc["general"] = {"O11": np.eye(d_x).tolist(), "O12": [[0.0]] * d_x,
                          "O21": [[0.0] * d_x], "O22": [[0.0]]}
    if F is not None:
        doc["F"] = F
    return doc


def mutated(config, path, value):
    """A deep copy of ``config`` with ``value`` at the dotted ``path``."""
    cfg = json.loads(json.dumps(config))
    *parents, leaf = path.split(".")
    node = cfg
    for part in parents:
        node = node[part]
    node[leaf] = value
    return cfg


class TestEmbedCommand:
    def test_identity_config_exact(self, tmp_path):
        code, out = run(tmp_path, "embed", EMBED_IDENTITY, "embed")
        assert code == 0
        doc = json.loads((out / "embedding.json").read_text())
        assert doc["result"]["certified_sup_error"] == 0.0
        assert doc["grid_max_gap"] <= 1e-12
        assert doc["config_sha256"] and doc["version"]
        lines = (out / "errors.csv").read_text().splitlines()
        assert lines[0].startswith("# ctxapprox")
        assert lines[1] == "x1,x2,gap"
        assert len(lines) == 227

    def test_softmax_flow_meets_epsilon(self, tmp_path):
        cfg = {
            "mode": "softmax",
            "epsilon": 1e-3,
            "transformer": {"kind": "random", "seed": 3, "d_x": 2, "d_y": 1},
            "fnn": {"random": {"seed": 8, "k": 4, "d_in": 1, "d_y": 1,
                               "activation": "exp"}},
            "grid": {"lo": [-1.0], "hi": [1.0], "counts": [101]},
        }
        code, out = run(tmp_path, "softmax", cfg, "embed")
        assert code == 0
        doc = json.loads((out / "embedding.json").read_text())
        assert doc["grid_max_gap"] <= 1e-3
        assert doc["result"]["s"] > 0

    def test_malformed_config_exit_2(self, tmp_path):
        bad = dict(EMBED_IDENTITY)
        del bad["grid"]
        code, out = run(tmp_path, "bad", bad, "embed")
        assert code == 2
        err = json.loads((out / "error.json").read_text())
        assert err["error"]["field"] == "grid"

    def test_non_object_config_exit_2(self, tmp_path):
        code, out = run(tmp_path, "list", [EMBED_IDENTITY], "embed")
        assert code == 2
        err = json.loads((out / "error.json").read_text())["error"]
        assert err["field"] == "config" and "expected an object" in err["message"]

    @pytest.mark.parametrize("under,reason", [(False, "File exists"),
                                              (True, "Not a directory")],
                             ids=["a_file", "under_a_file"])
    def test_out_that_cannot_be_a_directory_is_a_usage_error(self, tmp_path, capsys,
                                                              under, reason):
        # exit 2 as argparse's own usage errors, and no error.json, which
        # could not be written there
        cfg = tmp_path / "embed.json"
        cfg.write_text(json.dumps(EMBED_IDENTITY))
        taken = tmp_path / "taken"
        taken.write_text("not a directory")
        with pytest.raises(SystemExit) as exc:
            main(["embed", "--config", str(cfg), "--out", str(taken / "run" if under else taken)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument --out: " in err and reason in err
        assert taken.read_text() == "not a directory"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["embed.json", "taken"]


class TestConstructCommand:
    def test_small_construct_run(self, tmp_path):
        code, out = run(tmp_path, "construct", CONSTRUCT_SMALL, "construct")
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["report"]["achieved_sup_error"] < 0.3
        assert doc["report"]["n"] >= 1
        tokens = (out / "tokens.csv").read_text().splitlines()
        assert tokens[1] == "position,vocab_index,role,neuron,component,y_value"
        curve = (out / "error_vs_n.csv").read_text().splitlines()
        assert curve[1] == "n,tokens_used,sup_error"
        # the curve ends at the report's achieved base-grid error
        last = float(curve[-1].split(",")[2])
        assert last == pytest.approx(doc["report"]["measured"]["base_grid_total"])

    def test_zero_target_empty_report(self, tmp_path):
        cfg = dict(CONSTRUCT_SMALL)
        cfg["target"] = {"exprs": ["0"]}
        code, out = run(tmp_path, "zero", cfg, "construct")
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["report"]["n"] == 0
        assert doc["report"]["achieved_sup_error"] == 0.0

    def test_exhausted_cap_exit_3_with_evidence(self, tmp_path):
        cfg = json.loads(json.dumps(CONSTRUCT_SMALL))
        cfg["caps"]["j_cap"] = 200
        code, out = run(tmp_path, "exhaust", cfg, "construct")
        assert code == 3
        err = json.loads((out / "error.json").read_text())
        assert err["error"]["exit_code"] == 3
        assert err["error"]["unmet"][0]["best_distance"] > 0

    def test_more_planned_tokens_than_positions_exit_3_at_once(self, tmp_path):
        # one x token spans nothing, so every relu neuron asks for about 1e12
        # unit copies; no more than j_cap of them can ever be placed
        cfg = mutated(CONSTRUCT_SMALL, "vocab.x_grid.per_dim", 1)
        cfg["caps"]["j_cap"] = 20000
        start = time.perf_counter()
        code, out = run(tmp_path, "demand", cfg, "construct")
        assert time.perf_counter() - start < 5.0
        assert code == 3
        err = json.loads((out / "error.json").read_text())["error"]
        assert err["stage"] == "positions" and err["budget"] == 20000
        assert err["measured"] > 20000
        assert "20000" in err["message"] and str(int(err["measured"])) in err["message"]

    @pytest.mark.parametrize("path,value,stage,measured", [
        ("budgets", {"fit": 0.1, "perturb": 1e-16, "tokens": 0.09}, "perturb", 2.52e-15),
        # the 19-cycle term vanishes on the 20-point fit grid, so only the
        # refined audit grid sees it
        ("target.exprs", ["sin(2*pi*x) + 0.5*sin(2*pi*19*x)"], "total", 0.499)])
    def test_stage_over_budget_exit_3(self, tmp_path, path, value, stage, measured):
        cfg = json.loads((ROOT / "configs" / "construct_sin_acceptance.json").read_text())
        cfg = mutated(cfg, path, value)
        if stage == "total":
            cfg["grid"]["counts"] = [20]
        code, out = run(tmp_path, stage, cfg, "construct")
        assert code == 3
        err = json.loads((out / "error.json").read_text())["error"]
        assert err["stage"] == stage and err["measured"] == pytest.approx(measured, rel=0.01)
        assert err["measured"] >= err["budget"]
        assert not (out / "report.json").exists()

    def test_token_stage_over_budget_exit_3(self, tmp_path, monkeypatch):
        # the token stage's own check: its sums are pushed off by one
        from ctxapprox import construction
        token_pass = construction._token_pass

        def inflated(*args):
            vals, curve = token_pass(*args)
            return vals + 1.0, curve

        monkeypatch.setattr(construction, "_token_pass", inflated)
        cfg = json.loads((ROOT / "configs" / "construct_sin_acceptance.json").read_text())
        code, out = run(tmp_path, "tokens", cfg, "construct")
        assert code == 3
        err = json.loads((out / "error.json").read_text())["error"]
        assert err["stage"] == "tokens" and err["measured"] >= err["budget"] == 0.2 / 3

    @pytest.mark.parametrize("field,value,named", [
        ("epsilon", float("nan"), "epsilon"), ("epsilon", float("inf"), "epsilon"),
        ("epsilon", -0.3, "epsilon"), ("caps.j_cap", 0, "j_cap"),
        ("caps.j_cap", -5, "j_cap"),
        ("budgets", {"fit": float("nan"), "perturb": 0.05, "tokens": 0.2}, "budget fit"),
        ("caps.q_cap", 0, "q_cap"), ("caps.j_cap", float("inf"), "j_cap"),
        ("fit.k", -3, "k must be"), ("fit.refine_steps", -5, "refine_steps"),
        ("fit.feature_scale", float("nan"), "feature_scale"), ("fit.ridge", -1, "ridge"),
        ("seed", float("inf"), "seed"), ("seed", 2.5, "seed"), ("caps.j_cap", 1e30, "j_cap"),
        ("caps.j_cap", 200.7, "j_cap"), ("fit.k", 14.9, "fit.k")])
    # one run per route family: the default relu route and the integer witnesses
    @pytest.mark.parametrize("mode", [pytest.param("auto", id="dense"),
                                      pytest.param("kronecker", id="kronecker")])
    def test_bad_numeric_field_exit_2(self, tmp_path, field, value, named, mode):
        # a small j_cap keeps a regression from scanning for minutes; fit.ridge
        # is no option, so it is named as an unknown key
        cfg = json.loads(json.dumps(CONSTRUCT_SMALL))
        cfg["caps"]["j_cap"] = 200
        cfg["coefficient_mode"] = mode
        node = cfg
        *parents, leaf = field.split(".")
        for part in parents:
            node = node[part]
        node[leaf] = value
        code, out = run(tmp_path, "bad_numeric", cfg, "construct")
        assert code == 2
        err = json.loads((out / "error.json").read_text())
        assert err["error"]["exit_code"] == 2
        assert named in err["error"]["message"]

    @pytest.mark.parametrize("mode", ["homogenous", "dense", "relu_rescaled", "rescaled",
                                      "rescaled_pow-2", "lambda_max_row", "rescaled_max_row",
                                      "rescaled_pow2", "rescaled_int"])
    def test_bad_route_exit_2(self, tmp_path, mode):
        # a small j_cap keeps a route that silently runs another one short; the
        # rescaled_* routes are removed
        cfg = json.loads(json.dumps(CONSTRUCT_SMALL))
        cfg["caps"]["j_cap"] = 200
        cfg["coefficient_mode"] = mode
        code, out = run(tmp_path, "bad_route", cfg, "construct")
        assert code == 2
        err = json.loads((out / "error.json").read_text())
        assert err["error"]["exit_code"] == 2
        assert err["error"]["field"] == "coefficient_mode"
        assert repr(mode) in err["error"]["message"]

    @pytest.mark.parametrize("field,value,construction", [
        ("construction", "relu-rescaled", "dense"),
        ("coefficient_mode", "homogenous", "dense"),
        ("lambda_policy", "pow-2", "relu_rescaled"),
        ("activation", "exp", "relu_rescaled"),
        ("lambda_polcy", "pow2", "relu_rescaled"),
        ("lambda_policy", "pow2", "dense"),
        ("coefficient_mode", "kronecker", "relu_rescaled")])
    def test_bad_choice_exit_2(self, tmp_path, field, value, construction):
        # configs in the old three-field route spelling: `construction` is no
        # longer read, so each exits 2 naming it before any route runs
        cfg = json.loads(json.dumps(CONSTRUCT_SMALL))
        cfg["caps"]["j_cap"] = 200
        cfg["construction"] = construction
        cfg[field] = value
        code, out = run(tmp_path, "bad_choice", cfg, "construct")
        assert code == 2
        err = json.loads((out / "error.json").read_text())["error"]
        assert err["field"] == "construction" and "unknown key" in err["message"]

    @pytest.mark.parametrize("field,key", [
        ("fit", "refine_step"), ("caps", "jcap"), ("budgets", "token")])
    def test_unknown_option_key_exit_2(self, tmp_path, field, key):
        # a misspelled key used to be ignored, running with the default
        cfg = json.loads(json.dumps(CONSTRUCT_SMALL))
        cfg["budgets"] = {"fit": 0.1, "perturb": 0.05, "tokens": 0.15}
        cfg[field][key] = 1
        code, out = run(tmp_path, "bad_key", cfg, "construct")
        assert code == 2
        err = json.loads((out / "error.json").read_text())
        assert err["error"]["field"] == f"{field}.{key}"

    @pytest.mark.parametrize("command,path,value", [
        ("construct", "scheme.scal", 0.5),
        ("construct", "vocab.x_grid.per_dm", 3),
        ("construct", "vocab.v_x", [[0.0, 0.0]]),
        ("construct", "transformer.seed", 3),          # identity takes no seed
        ("construct", "grid.count", [10]),
        ("construct", "target.expr", ["x"]),
        ("density", "scheme.d_x", 1),                  # a dyadic region fixes d_x
        ("density", "scheme.region.l", [0.0]),
        ("density", "vocab.d_y", 1),
        ("embed", "fnn.random.scal", 2.0),
        ("embed", "fnn.file_name", "net.json"),
        ("embed", "epsilon", 0.5),                     # an elementwise embed takes none
        ("density", "probe_per_dm", 3),
        ("density", "region.h", [1.0]),
        ("audit", "exponent_seperation", 0.2),
        ("audit", "family.c_set", [0.0]),
        ("kronecker", "qcap", 10),
        ("kronecker", "random.low", -1.0)])
    def test_unknown_nested_key_exit_2(self, tmp_path, command, path, value):
        # a misspelled nested key used to run with the default and exit 0
        cfg = json.loads(json.dumps({
            "construct": CONSTRUCT_SMALL, "embed": EMBED_IDENTITY,
            "density": json.loads((ROOT / "configs" / "density_dyadic.json").read_text()),
            "audit": json.loads((ROOT / "configs" / "nonuap_audit.json").read_text()),
            "kronecker": json.loads((ROOT / "configs" / "kronecker_seeded.json").read_text()),
        }[command]))
        *parents, key = path.split(".")
        obj = cfg
        for part in parents:
            obj = obj[part]
        obj[key] = value
        code, out = run(tmp_path, "bad_nested_key", cfg, command)
        assert code == 2
        err = json.loads((out / "error.json").read_text())["error"]
        assert err["field"] == path and "unknown key" in err["message"]

    def test_shipped_and_benchmark_configs_load(self, tmp_path, monkeypatch):
        # every shipped and benchmark config is read whole and builds every
        # object: each run reaches its library entry point, which raises here
        from ctxapprox import cli

        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        for name in ("construct_context", "density_audit", "kronecker_search",
                     "kronecker_witnesses", "nonuap_audit", "prop1_fuzz", "embed_fnn",
                     "embed_softmax_fnn"):
            monkeypatch.setattr(cli, name, reached)
        spec = importlib.util.spec_from_file_location("workloads",
                                                      ROOT / "perfbench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, "workloads", workloads)
        spec.loader.exec_module(workloads)
        commands = [c for name in workloads.WORKLOADS for c in workloads.workload(name, ROOT, None)]
        shipped = {"construct_sin_acceptance": "construct", "construct_multi_output": "construct",
                   "construct_sin_wide_tolerance": "construct",
                   "construct_sin_exhausted": "construct",
                   "density_dyadic": "density", "embed_softmax": "embed",
                   "kronecker_seeded": "kronecker", "kronecker_exhausted": "kronecker",
                   "nonuap_audit": "audit"}
        assert sorted(p.stem for p in (ROOT / "configs").glob("*.json")) == sorted(shipped)
        # the shipped multi-output construct is the benchmark's, ints and all
        assert json.dumps(CONSTRUCT_MULTI) == json.dumps(workloads.MULTI_OUTPUT)
        configs = [(c.name, c.config) for c in commands] + [
            (command, json.loads((ROOT / "configs" / f"{stem}.json").read_text()))
            for stem, command in shipped.items()]
        assert len(configs) == 15
        for i, (command, cfg) in enumerate(configs):
            with pytest.raises(Reached):
                run(tmp_path, f"load{i}", cfg, command)

    def test_benchmark_spans_nest_inside_construct(self, tmp_path):
        # the benchmark's layer breakdown hooks these names from outside
        from ctxapprox import cli, construction, embedding, kronecker, vocab_pe
        spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        modules = {"cli": cli, "construction": construction, "embedding": embedding,
                   "kronecker": kronecker, "vocab_pe": vocab_pe}
        # the Calkin-Wilf scan and token rows decode Morton streams directly;
        # the irrational rotation takes the block scan, which calls pe_block
        rotation = {"kind": "irrational_rotation",
                    "region": {"lo": [-0.125, -0.125], "hi": [0.125, 0.125]}}
        for scheme, layers in ((CONSTRUCT_SMALL["scheme"], {"fnn.fit_fnn"}),
                               (rotation, {"fnn.fit_fnn", "vocab_pe.pe_block"})):
            tracer = spans.Tracer("construct")
            with tracer.installed(modules):
                code, _ = run(tmp_path, scheme["kind"], {**CONSTRUCT_SMALL, "scheme": scheme},
                              "construct")
            assert code == 0
            by_id = {s["id"]: s for s in tracer.spans}

            def inside_construct(s):
                while s["parent"] is not None:
                    s = by_id[s["parent"]]
                    if s["name"] == "construction.construct":
                        return True
                return False

            assert [s["name"] for s in tracer.spans].count("construction.construct") == 1
            nested = {s["name"] for s in tracer.spans if inside_construct(s)}
            assert layers <= nested

    def test_multi_output_construct(self, tmp_path):
        cfg = json.loads(json.dumps(CONSTRUCT_SMALL))
        cfg["target"] = {"exprs": ["sin(2*pi*x)", "cos(2*pi*x)"]}
        cfg["transformer"] = {"kind": "identity", "d_x": 2, "d_y": 2}
        cfg["vocab"]["d_y"] = 2
        cfg["epsilon"] = 0.6
        cfg["budgets"] = {"fit": 0.2, "perturb": 0.05, "tokens": 0.35}
        code, out = run(tmp_path, "multi", cfg, "construct")
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["report"]["achieved_sup_error"] < 0.6
        comps = {t["component"] for t in doc["report"]["tokens"]}
        assert comps == {0, 1}

    def test_byte_identical_reruns(self, tmp_path):
        code1, out1 = run(tmp_path, "rep1", CONSTRUCT_SMALL, "construct")
        code2, out2 = run(tmp_path, "rep2", CONSTRUCT_SMALL, "construct")
        assert code1 == code2 == 0
        for name in ("report.json", "tokens.csv", "error_vs_n.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize("name,digests", [
        (name, tuple(shipped_pins(stem, "report.json", "tokens.csv", "error_vs_n.csv").values()))
        for name, stem in SHIPPED_CONSTRUCTS.items()])
    def test_construct_artifact_bytes(self, tmp_path, name, digests):
        # pinned: a change that moves one bit of a fit, a scan or a token sum
        # shows here; report.json and error_vs_n.csv were re-pinned when the
        # token stage took the scan's row formula (token rows moved by at most
        # 8.9e-16; tokens.csv did not)
        cfg = json.loads((ROOT / "configs" / f"{SHIPPED_CONSTRUCTS[name]}.json").read_text())
        code, out = run(tmp_path, name, cfg, "construct")
        assert code == 0
        assert sha256s(out, "report.json", "tokens.csv", "error_vs_n.csv") == digests

    def test_exhausted_construct_error_bytes(self, tmp_path):
        # the acceptance config at j_cap 10^5 leaves targets 3, 5, 6, 7 and
        # 13 unmet; error.json holds the best-distance walk's distances and
        # no config hash, pinned in tests/shipped_artifacts.sha256
        stem = "construct_sin_exhausted"
        cfg = json.loads((ROOT / "configs" / f"{stem}.json").read_text())
        code, out = run(tmp_path, "exhausted", cfg, "construct")
        assert code == 3 and sorted(p.name for p in out.iterdir()) == ["error.json"]
        unmet = json.loads((out / "error.json").read_text())["error"]["unmet"]
        assert [u["target_index"] for u in unmet] == [3, 5, 6, 7, 13]
        assert sha256s(out, "error.json") == tuple(shipped_pins(stem, "error.json").values())

    @pytest.mark.parametrize("name", list(SHIPPED_CONSTRUCTS))
    def test_token_rows_replay_within_their_plans_tol(self, tmp_path, name):
        # no scan: each token's row, rebuilt from its (vocab_index, position)
        # in tokens.csv and the config with pe_rows and _mapped, lies strictly
        # within its plan's tol of its target_row, both from report.json
        import ctxapprox as ca
        from ctxapprox.construction import _mapped
        cfg = json.loads((ROOT / "configs" / f"{SHIPPED_CONSTRUCTS[name]}.json").read_text())
        code, out = run(tmp_path, name, cfg, "construct")
        assert code == 0
        report = json.loads((out / "report.json").read_text())["report"]
        tokens = np.loadtxt(out / "tokens.csv", delimiter=",", skiprows=2, usecols=(0, 1, 3),
                            dtype=np.int64, ndmin=2)
        assert len(tokens) == len(report["tokens"]) > 0
        t, v, s = cfg["transformer"], cfg["vocab"], cfg["scheme"]
        tp = ca.random_sparse_params(t["seed"], t["d_x"], t["d_y"])
        vocab = ca.Vocabulary.x_grid(tuple(v["x_grid"]["lo"]), tuple(v["x_grid"]["hi"]),
                                     v["x_grid"]["per_dim"], v["d_y"])
        scheme = ca.calkin_wilf_lattice(s["d_x"], s.get("scale", 1.0))
        for position, vocab_index, neuron in tokens.tolist():
            z = vocab.v_x[vocab_index] + ca.pe_rows(scheme, [position])
            row = np.concatenate(_mapped(tp.C.T @ tp.B, z.T))
            plan = report["per_neuron"][neuron]
            assert plan["index"] == neuron
            assert np.max(np.abs(row - plan["target_row"])) < plan["tol"]

    @pytest.mark.parametrize("vocab", ["x_grid", "v_x"])
    def test_report_records_the_vocabulary_by_hash(self, tmp_path, vocab):
        import ctxapprox as ca
        cfg = json.loads(json.dumps(CONSTRUCT_SMALL))
        if vocab == "x_grid":
            g = cfg["vocab"]["x_grid"]
            spec = [g["lo"], g["hi"], g["per_dim"]]
            want = ca.Vocabulary.x_grid(tuple(g["lo"]), tuple(g["hi"]), g["per_dim"], 1)
        else:
            # points that form no grid take the exhaustive scan; a zero
            # target needs no tokens
            spec = None
            v_x = np.random.default_rng(3).uniform(-8, 8, (50, 2)).tolist()
            cfg["vocab"] = {"v_x": v_x, "v_y": ca.standard_y_tokens(1).tolist()}
            cfg["target"] = {"exprs": ["0"]}
            want = ca.Vocabulary(np.array(v_x), ca.standard_y_tokens(1))
        code, out = run(tmp_path, vocab, cfg, "construct")
        assert code == 0
        rep = json.loads((out / "report.json").read_text())["report"]
        # the keys perfbench/run.py and perfbench/workloads.check_construct read
        assert {"n", "tokens", "achieved_sup_error", "epsilon", "budgets",
                "measured"} <= rep.keys()
        assert set(rep["budgets"]) <= set(rep["measured"])
        digest = hashlib.sha256(np.ascontiguousarray(want.v_x, dtype="<f8").tobytes())
        assert rep["vocab"] == {"x_grid_spec": spec, "v_x_count": want.v_x.shape[0],
                                "v_x_sha256": digest.hexdigest(), "v_y": want.v_y.tolist()}
        # tokens (and tokens.csv) are the one record of the assignment
        assert "scale" not in rep
        assert not any({"positions_sqrt2", "positions_unit"} & p.keys() for p in rep["per_neuron"])
        assert len((out / "tokens.csv").read_text().splitlines()) == 2 + len(rep["tokens"])

    def test_grid_written_as_a_list_takes_the_nearest_cell_path(self, tmp_path, monkeypatch):
        import ctxapprox as ca
        from ctxapprox import construction
        g = CONSTRUCT_SMALL["vocab"]["x_grid"]
        v_x = ca.Vocabulary.x_grid(tuple(g["lo"]), tuple(g["hi"]), g["per_dim"], 1).v_x
        listed = mutated(CONSTRUCT_SMALL, "vocab",
                         {"v_x": v_x.tolist(), "v_y": ca.standard_y_tokens(1).tolist()})

        def no_block(*args, **kwargs):
            raise AssertionError("block scan used")

        # the exhaustive scan over 65^2 entries would take tens of seconds
        monkeypatch.setattr(construction, "_block_scan", no_block)
        outs = []
        for name, cfg in (("x_grid", CONSTRUCT_SMALL), ("v_x", listed)):
            code, out = run(tmp_path, name, cfg, "construct")
            assert code == 0
            outs.append(out)
        spelled, written = (json.loads((out / "report.json").read_text())["report"]
                            for out in outs)
        assert written == spelled
        assert written["vocab"]["x_grid_spec"] == [g["lo"], g["hi"], g["per_dim"]]
        for name in ("tokens.csv", "error_vs_n.csv"):
            # the comment line carries the config hash, which differs
            bodies = [(out / name).read_text().splitlines()[1:] for out in outs]
            assert bodies[0] == bodies[1]

    def test_missing_y_token_is_rejected_before_the_scan(self, tmp_path, monkeypatch):
        # a V_y without -1 used to be found out only after the scan had found
        # every position, and named "config"
        import ctxapprox as ca
        from ctxapprox import construction
        g = CONSTRUCT_SMALL["vocab"]["x_grid"]
        v_x = ca.Vocabulary.x_grid(tuple(g["lo"]), tuple(g["hi"]), g["per_dim"], 1).v_x
        cfg = mutated(CONSTRUCT_SMALL, "vocab",
                      {"v_x": v_x.tolist(), "v_y": [[0.0], [1.0], [2 ** 0.5]]})

        def no_scan(*args, **kwargs):
            raise AssertionError("the position scan ran")

        monkeypatch.setattr(construction, "_scan_engine", no_scan)
        code, out = run(tmp_path, "no_minus_unit", cfg, "construct")
        assert code == 2
        err = json.loads((out / "error.json").read_text())["error"]
        assert err["field"] == "vocab" and "not in V_y" in err["message"]

    def test_nearest_sample_target_in_bounded_memory(self, tmp_path):
        import tracemalloc
        from ctxapprox.cli import _samples_target
        rng = np.random.default_rng(5)
        samples = np.hstack([rng.uniform(-1, 1, (2000, 2)), rng.normal(size=(2000, 2))])
        path = tmp_path / "samples.csv"
        np.savetxt(path, samples, fmt="%.17g", delimiter=",", header="x1,x2,f1,f2",
                   comments="")
        x, f = samples[:, :2], samples[:, 2:]
        pts = rng.uniform(-1.2, 1.2, (5000, 2))
        target = _samples_target(str(path), 2, 2)
        # one (points, samples, d) difference array would take 160 MB
        tracemalloc.start()
        try:
            got = target(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6
        want = np.array([f[np.argmin(np.max(np.abs(x - p), axis=1))] for p in pts])
        assert np.array_equal(got, want)


class TestAuditCommands:
    def test_prop1_fuzz(self, tmp_path):
        cfg = {"kind": "prop1_fuzz", "count": 150, "seed": 3, "k_range": [1.0, 6.0]}
        code, out = run(tmp_path, "fuzz", cfg, "audit")
        assert code == 0
        doc = json.loads((out / "audit.json").read_text())
        assert doc["violations"] == 0

    def test_prop1_fuzz_zero_count(self, tmp_path):
        code, out = run(tmp_path, "fuzz0", mutated(PROP1_SMALL, "count", 0), "audit")
        assert code == 0
        assert json.loads((out / "audit.json").read_text())["violations"] == 0

    def test_nonuap_audit(self, tmp_path):
        cfg = {"kind": "nonuap", "max_context": 50, "trials": 200, "seed": 1,
               "family": {"a_set": [1.0, -1.0], "w_set": [0.5, -0.5],
                          "b_set": [0.0, 1.0]}}
        code, out = run(tmp_path, "nonuap", cfg, "audit")
        assert code == 0
        doc = json.loads((out / "audit.json").read_text())
        assert doc["min_minmax_error"] >= 0.5
        assert doc["structural_cap_holds"] is True
        assert doc["N"] == 4

    def test_count_memory_cannot_hold_exit_3(self, tmp_path):
        # within the trials bound, but 8 EiB: numpy refuses the request before
        # it allocates anything, and the run reports it as a budget, not a bug
        code, out = run(tmp_path, "huge", mutated(NONUAP_SMALL, "trials", 2**60 - 1), "audit")
        assert code == 3
        err = json.loads((out / "error.json").read_text())["error"]
        assert (err["field"], err["exit_code"]) == ("budget", 3)
        assert "Unable to allocate" in err["message"]

    def test_nonuap_audit_certified_floor(self, tmp_path):
        cfg = json.loads((ROOT / "configs" / "nonuap_audit.json").read_text())
        cfg["trials"] = 500
        code, out = run(tmp_path, "floor", cfg, "audit")
        assert code == 0
        doc = json.loads((out / "audit.json").read_text())
        assert doc["certified_floor"] == 1.0
        assert doc["min_minmax_error"] >= doc["certified_floor"]

    def test_nonuap_audit_under_the_floor_exit_4(self, tmp_path, monkeypatch):
        from ctxapprox.nonuap import NonUapAuditRecord
        monkeypatch.setattr(NonUapAuditRecord, "certified_floor", 2.0)
        cfg = {"kind": "nonuap", "max_context": 50, "trials": 20, "seed": 1,
               "family": {"a_set": [1.0, -1.0], "w_set": [0.5], "b_set": [0.0]}}
        code, out = run(tmp_path, "under", cfg, "audit")
        assert code == 4
        err = json.loads((out / "error.json").read_text())["error"]
        assert err["exit_code"] == 4
        assert "below the certified floor 2" in err["message"]
        assert not (out / "audit.json").exists()

    def test_nonuap_shipped_config_bytes(self, tmp_path):
        cfg = json.loads((ROOT / "configs" / "nonuap_audit.json").read_text())
        code, out = run(tmp_path, "nonuap_shipped", cfg, "audit")
        assert code == 0
        pinned = shipped_pins("nonuap_audit", "audit.json", "audit.csv")
        assert dict(zip(pinned, sha256s(out, *pinned))) == pinned

    def test_density_shipped_config_bytes(self, tmp_path):
        # pinned: the per-point boxes and the bisection of the non-increasing
        # r(n) must reproduce the dense pass bit for bit
        cfg = json.loads((ROOT / "configs" / "density_dyadic.json").read_text())
        code, out = run(tmp_path, "density_dyadic", cfg, "density")
        assert code == 0
        pinned = shipped_pins("density_dyadic", "density.json", "density.csv")
        assert dict(zip(pinned, sha256s(out, *pinned))) == pinned

    def test_density_oracles_input_bytes(self, tmp_path):
        # pinned: the benchmark's density inputs (2-D dyadic, n_max 16000,
        # 64^2 probes), which run through many chunks and falls of r
        code, out = run(tmp_path, "density_oracles", DENSITY_ORACLES, "density")
        assert code == 0
        assert sha256s(out, "density.json", "density.csv") == (
            "372c4aa9ec46a6c2f4748eb8294b122eda262e65665585de35278c682fedab0f",
            "3258e04beadde4bd56c3cbf0e84d4f34e1382c318c436c395028cd1e7c10bf1f")

    @pytest.mark.parametrize("command,config,pinned", [
        ("kronecker", json.loads((ROOT / "configs" / "kronecker_seeded.json").read_text()),
         shipped_pins("kronecker_seeded", "witnesses.json", "witnesses.csv")),
        ("kronecker", KRONECKER_ORACLES,
         {"witnesses.json": "9b3c50089e991debeee3b0c6ba4b8d5e538dd7acb5c4fe7a85184f5e0c85f5eb",
          "witnesses.csv": "b16cee2059c94bc73e392c9c5740ac3db787c008d351f39a663f73ac404c16bd"}),
        ("embed", EMBED_SOFTMAX,
         shipped_pins("embed_softmax", "embedding.json", "errors.csv")),
        ("audit", PROP1_SMALL,
         {"audit.json": "957b033b7a0599c1fc74061db1d6df63c99d624ff8ffce102ab4edb12eca917b",
          "audit.csv": "9e9c111aa8ed837f127ecaf60e6c23b90c0b6cddc06686fbef97ed4060e03394"})],
        ids=["kronecker_seeded", "kronecker_oracles", "embed_softmax", "prop1_fuzz"])
    def test_oracle_artifact_bytes(self, tmp_path, command, config, pinned):
        # pinned: the JSON and CSV bytes of the kronecker, embed and
        # prop1_fuzz commands, on the shipped and the benchmark's inputs
        code, out = run(tmp_path, "oracle", config, command)
        assert code == 0
        assert dict(zip(pinned, sha256s(out, *pinned))) == pinned

    def test_exhausted_kronecker_error_bytes(self, tmp_path):
        # betas 0.0 and -3.7 have no witness up to q_cap 300; the error names
        # 0.0, the first in input order, with its closest q 169, and its
        # bytes are pinned in tests/shipped_artifacts.sha256
        stem = "kronecker_exhausted"
        cfg = json.loads((ROOT / "configs" / f"{stem}.json").read_text())
        code, out = run(tmp_path, "exhausted", cfg, "kronecker")
        assert code == 3 and sorted(p.name for p in out.iterdir()) == ["error.json"]
        message = json.loads((out / "error.json").read_text())["error"]["message"]
        assert "|0.0 - q*sqrt2 + l|" in message and "best: q=169, error=2.092e-03" in message
        assert sha256s(out, "error.json") == tuple(shipped_pins(stem, "error.json").values())

    @pytest.mark.parametrize("field", ["n_max", "probe_per_dim"])
    @pytest.mark.parametrize("value", [0, -3])
    def test_density_counts_name_their_field(self, tmp_path, field, value):
        # these used to reach the library's check and exit 2 naming "config"
        code, out = run(tmp_path, "density_count", mutated(DENSITY_SMALL, field, value),
                        "density")
        assert code == 2
        err = json.loads((out / "error.json").read_text())["error"]
        assert err["field"] == field
        assert f"{field} must be >= 1, got {value}" in err["message"]

    @pytest.mark.parametrize("field,kind", [("region", "box"), ("scheme.region", "box"),
                                            ("vocab.x_grid", "grid")])
    def test_density_span_past_the_float_range_exit_2(self, tmp_path, capsys, field, kind):
        # such a span used to print numpy RuntimeWarnings and exit 0 with an
        # inf covering radius for every n
        big = {"lo": [-1e308], "hi": [1e308]}
        if field == "vocab.x_grid":
            cfg = mutated(DENSITY_SMALL, "vocab", {"x_grid": {**big, "per_dim": 3}, "d_y": 1})
        else:
            cfg = mutated(DENSITY_SMALL, field, big)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out = run(tmp_path, "density_span", cfg, "density")
        assert code == 2 and not caught
        err = json.loads((out / "error.json").read_text())["error"]
        assert err["field"] == field
        assert f"{kind} span hi - lo must be finite, got (inf,)" in err["message"]
        assert capsys.readouterr().err == f"error: {err['message']}\n"

    def test_density_token_far_outside_the_region(self, tmp_path):
        # the shipped dyadic config with its one token at 1e308 used to exit
        # 1 with an IndexError from a NaN box start cast to index -2^63
        cfg = json.loads((ROOT / "configs" / "density_dyadic.json").read_text())
        cfg["vocab"]["v_x"] = [[1e308]]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out = run(tmp_path, "far", cfg, "density")
        assert code == 0 and not caught
        radii = np.loadtxt(out / "density.csv", delimiter=",", skiprows=2)[:, 1]
        assert np.isfinite(radii).all() and np.all(np.diff(radii) <= 0)
        doc = json.loads((out / "density.json").read_text())
        assert doc["final_covering_radius"] == radii[-1] == 1e308

    def test_density_region_near_the_float_limit(self, tmp_path):
        # the shipped dyadic config on a region of span 2e307 used to fail
        # with "overflow encountered in multiply" in the dyadic encoding
        cfg = json.loads((ROOT / "configs" / "density_dyadic.json").read_text())
        cfg["region"] = cfg["scheme"]["region"] = {"lo": [-1e307], "hi": [1e307]}
        code, out = run(tmp_path, "wide", cfg, "density")
        assert code == 0
        radii = np.loadtxt(out / "density.csv", delimiter=",", skiprows=2)[:, 1]
        assert np.isfinite(radii).all() and np.all(np.diff(radii) <= 0)
        assert radii[-1] == pytest.approx(1e307 / 2**9)

    def test_density_dyadic(self, tmp_path):
        cfg = {"vocab": {"v_x": [[0.0]], "v_y": [[0.0]]},
               "scheme": {"kind": "dyadic_lattice",
                          "region": {"lo": [-1.0], "hi": [1.0]}},
               "region": {"lo": [-1.0], "hi": [1.0]},
               "n_max": 63, "probe_per_dim": 129}
        code, out = run(tmp_path, "density", cfg, "density")
        assert code == 0
        lines = (out / "density.csv").read_text().splitlines()
        # exact staircase at level completions
        radii = {int(l.split(",")[0]): float(l.split(",")[1]) for l in lines[2:]}
        for m in range(1, 7):
            assert radii[2**m - 1] == pytest.approx(2.0**(1 - m), abs=1e-15)

    def test_kronecker_command(self, tmp_path):
        cfg = {"betas": [0.0, 1.5, -3.3], "epsilon": 0.01}
        code, out = run(tmp_path, "kron", cfg, "kronecker")
        assert code == 0
        doc = json.loads((out / "witnesses.json").read_text())
        assert doc["witnesses"][0]["q"] == 70
        lines = (out / "witnesses.csv").read_text().splitlines()
        assert lines[0].startswith("# ctxapprox")
        assert lines[1] == "beta,q,l,achieved_error"
        assert len(lines) == 5

    @pytest.mark.parametrize("field,value,named", [
        ("q_cap", 0, "q_cap"), ("epsilon", float("nan"), "epsilon"),
        ("betas", [1.0, float("inf")], "beta")])
    def test_kronecker_bad_input_exit_2(self, tmp_path, field, value, named):
        cfg = {"betas": [0.0, 1.5], "epsilon": 0.01, field: value}
        code, out = run(tmp_path, "kron_bad", cfg, "kronecker")
        assert code == 2
        err = json.loads((out / "error.json").read_text())
        assert err["error"]["exit_code"] == 2 and err["error"]["field"] == field
        assert named in err["error"]["message"]

    @pytest.mark.parametrize("command,config,field,value", [
        ("kronecker", {"betas": [0.0, 1.5], "epsilon": 0.01}, "q_cap", float("inf")),
        ("kronecker", {"betas": [0.0, 1.5], "epsilon": 0.01}, "q_cap", 2.5),
        ("kronecker", {"random": {"seed": 1, "count": 3}, "epsilon": 0.01},
         "random.seed", float("inf")),
        ("kronecker", {"random": {"seed": 1, "count": 3}, "epsilon": 0.01},
         "random.count", float("nan")),
        ("density", {"vocab": {"v_x": [[0.0]], "v_y": [[0.0]]},
                     "scheme": {"kind": "dyadic_lattice", "region": {"lo": [-1.0], "hi": [1.0]}},
                     "region": {"lo": [-1.0], "hi": [1.0]}, "n_max": 7},
         "probe_per_dim", float("inf")),
        ("audit", {"kind": "prop1_fuzz", "count": 5}, "count", float("inf")),
        ("audit", {"kind": "prop1_fuzz", "count": 5}, "grid_points", float("-inf")),
        ("audit", {"kind": "prop1_fuzz", "count": 5}, "seed", "3"),
        ("audit", {"kind": "prop1_fuzz", "count": 5}, "k_range", [1.5, 3]),
        ("construct", CONSTRUCT_SMALL, "grid.counts", [2.5]),            # was cut to 2
        ("construct", CONSTRUCT_SMALL, "grid.counts", [float("inf")]),
        ("embed", EMBED_IDENTITY, "transformer.d_x", True)])
    def test_bad_integer_field_exit_2(self, tmp_path, command, config, field, value):
        # Infinity used to escape int() as an OverflowError traceback (exit 1)
        cfg = json.loads(json.dumps(config))
        node = cfg
        *parents, leaf = field.split(".")
        for part in parents:
            node = node[part]
        node[leaf] = value
        code, out = run(tmp_path, "bad_int", cfg, command)
        assert code == 2
        err = json.loads((out / "error.json").read_text())
        assert err["error"]["field"] == field
        assert "expected an integer" in err["error"]["message"]

    @pytest.mark.parametrize("command,config,field,value,named", [
        ("construct", CONSTRUCT_SMALL, "scheme.scale", float("nan"), "box bounds must be finite"),
        ("construct", CONSTRUCT_SMALL, "grid.hi", [float("inf")], "grid bounds must be finite"),
        ("density", {"vocab": {"v_x": [[0.0]], "v_y": [[0.0]]},
                     "scheme": {"kind": "dyadic_lattice", "region": {"lo": [-1.0], "hi": [1.0]}},
                     "region": {"lo": [-1.0], "hi": [1.0]}, "n_max": 7},
         "n_max", 0, "n_max must be >= 1"),
        ("density", {"vocab": {"v_x": [[0.0]], "v_y": [[0.0]]},
                     "scheme": {"kind": "dyadic_lattice", "region": {"lo": [-1.0], "hi": [1.0]}},
                     "region": {"lo": [-1.0], "hi": [1.0]}, "n_max": 7},
         "probe_per_dim", 0, "probe_per_dim must be >= 1"),
        ("density", {"vocab": {"v_x": [[0.0]], "v_y": [[0.0]]},
                     "scheme": {"kind": "dyadic_lattice", "region": {"lo": [-1.0], "hi": [1.0]}},
                     "region": {"lo": [-1.0], "hi": [1.0]}, "n_max": 7},
         "vocab.v_x", [[0.0], [float("nan")]], "tokens must be finite"),
        ("audit", {"kind": "prop1_fuzz", "count": 5}, "exponent_separation", float("nan"),
         "exponent_separation must be positive and finite"),
        ("audit", {"kind": "prop1_fuzz", "count": 5}, "exponent_separation", 1.5,
         "exponent_separation 1.5 leaves no room for 6 exponents"),
        ("audit", {"kind": "prop1_fuzz", "count": 5}, "coeff_range", float("nan"),
         "coeff_range must be positive and finite"),
        ("audit", {"kind": "prop1_fuzz", "count": 5}, "interval", [-1.0, float("inf")],
         "interval must be finite"),
        ("audit", {"kind": "prop1_fuzz", "count": 5}, "k_range", [3, 1],
         "k_range must satisfy 1 <= k_lo <= k_hi"),
        ("audit", {"kind": "nonuap", "max_context": 20, "trials": 50, "seed": 1,
                   "family": {"a_set": [1.0], "w_set": [0.5], "b_set": [0.0]}},
         "family.a_set", [1.0, float("nan")], "a_set must be finite"),
        ("audit", {"kind": "prop1_fuzz", "count": 5}, "interval", [],
         "interval must be two numbers"),
        ("audit", {"kind": "prop1_fuzz", "count": 5}, "interval", [-1.0, 0.0, 1.0],
         "interval must be two numbers"),
        ("embed", EMBED_SOFTMAX, "epsilon", float("nan"),
         "epsilon must be positive and finite"),
        ("construct", CONSTRUCT_SMALL, "vocab",
         {"v_x": [[0.0, 0.0], [float("nan"), 0.0], [1.0, 1.0]],
          "v_y": [[0.0], [1.0], [-1.0], [2 ** 0.5]]}, "tokens must be finite")])
    def test_out_of_range_input_exit_2(self, tmp_path, command, config, field, value, named):
        # these used to scan to exit 3, fail as "not finite" (exit 4), crash
        # with an IndexError traceback, or report a NaN error floor
        cfg = json.loads(json.dumps(config))
        if command == "construct":
            cfg["caps"]["j_cap"] = 200
        node = cfg
        *parents, leaf = field.split(".")
        for part in parents:
            node = node[part]
        node[leaf] = value
        code, out = run(tmp_path, "out_of_range", cfg, command)
        assert code == 2
        err = json.loads((out / "error.json").read_text())
        assert err["error"]["exit_code"] == 2
        assert named in err["error"]["message"]
        # a bad nested value names the object it is read into
        assert err["error"]["field"] == field.split(".")[0]

    @pytest.mark.parametrize("command,config,path,value,field", [
        ("construct", CONSTRUCT_SMALL, "transformer", {"file": "no-such-dir/tp.json"},
         "transformer.file"),
        ("construct", CONSTRUCT_SMALL, "target", {"samples_file": "no-such-dir/f.csv"},
         "target.samples_file"),
        ("embed", EMBED_IDENTITY, "fnn", {"file": "no-such-dir/net.json"}, "fnn.file"),
        ("construct", CONSTRUCT_SMALL, "epsilon", "0.3", "epsilon"),
        ("construct", CONSTRUCT_SMALL, "epsilon", True, "epsilon"),
        pytest.param("construct", CONSTRUCT_SMALL, "epsilon", 10**400, "epsilon",
                     id="construct-epsilon-beyond-float"),
        ("kronecker", KRONECKER_BETAS, "epsilon", "0.01", "epsilon"),
        ("embed", EMBED_SOFTMAX, "epsilon", True, "epsilon"),
        ("kronecker", KRONECKER_RANDOM, "random.lo", float("nan"), "random"),
        ("embed", EMBED_SOFTMAX, "fnn.random.scale", float("nan"), "fnn.random"),
        ("kronecker", KRONECKER_BETAS, "betas", [], "betas"),
        ("kronecker", KRONECKER_RANDOM, "random.count", 0, "random.count"),
        ("density", DENSITY_SMALL, "vocab.v_x", [], "vocab"),
        ("density", DENSITY_SMALL, "vocab.v_x", [[0.0, 0.0]], "vocab"),
        ("construct", CONSTRUCT_SMALL, "scheme.d_x", 3, "scheme.d_x"),
        ("construct", CONSTRUCT_SMALL, "scheme",
         {"kind": "dyadic_lattice", "region": {"lo": [-1.0], "hi": [1.0]}}, "scheme.region"),
        ("construct", CONSTRUCT_SMALL, "vocab",
         {"v_x": [[0.0]], "v_y": [[0.0], [1.0], [-1.0], [2 ** 0.5]]}, "vocab"),
        ("construct", CONSTRUCT_SMALL, "target.exprs", [], "target.exprs"),
        ("construct", CONSTRUCT_SMALL, "target.exprs", ["x", "x"], "target.exprs"),
        ("audit", PROP1_SMALL, "count", -1, "count"),
        ("construct", CONSTRUCT_SMALL, "vocab.d_y", 2, "vocab"),
        ("construct", CONSTRUCT_SMALL, "grid",
         {"lo": [0.0, 0.0], "hi": [1.0, 1.0], "counts": [4, 4]}, "grid"),
        ("construct", CONSTRUCT_SMALL, "target.exprs", ["+".join(["x"] * 2000)],
         "target.expr"),
        ("construct", CONSTRUCT_SMALL, "target.exprs", ["(" * 300 + "x" + ")" * 300],
         "target.expr"),
        ("construct", CONSTRUCT_SMALL, "target.exprs", ["x" + "1" * 5000], "target.expr"),
        ("construct", CONSTRUCT_SMALL, "epsilon", 0.0, "epsilon"),
        ("construct", CONSTRUCT_SMALL, "epsilon", -0.3, "epsilon"),
        ("kronecker", KRONECKER_BETAS, "epsilon", 0, "epsilon"),
        ("embed", EMBED_SOFTMAX, "epsilon", -1.0, "epsilon"),
        ("kronecker", KRONECKER_BETAS, "q_cap", 0, "q_cap"),
        ("audit", NONUAP_SMALL, "max_context", 0, "max_context"),
        ("audit", NONUAP_SMALL, "trials", 0, "trials"),
        ("construct", CONSTRUCT_SMALL, "transformer.d_x", 0, "transformer.d_x"),
        ("construct", CONSTRUCT_SMALL, "transformer.d_y", -1, "transformer.d_y"),
        ("embed", EMBED_SOFTMAX, "transformer.d_x", -1, "transformer.d_x"),
        ("embed", EMBED_IDENTITY, "transformer.d_y", 0, "transformer.d_y"),
        ("embed", EMBED_IDENTITY, "fnn.random.k", -1, "fnn.random.k"),
        ("embed", EMBED_IDENTITY, "fnn.random.d_in", 0, "fnn.random.d_in"),
        ("embed", EMBED_SOFTMAX, "fnn.random.d_y", 0, "fnn.random.d_y"),
        ("audit", PROP1_SMALL, "exponent_separation", -1, "exponent_separation"),
        ("audit", PROP1_SMALL, "exponent_separation", 1.5, "exponent_separation"),
        ("audit", PROP1_SMALL, "coeff_range", float("inf"), "coeff_range"),
        ("audit", PROP1_SMALL, "k_range", [], "k_range"),
        ("audit", PROP1_SMALL, "interval", [], "interval"),
        ("audit", mutated(PROP1_SMALL, "count", 0), "grid_points", -1, "grid_points"),
        ("construct", CONSTRUCT_SMALL, "activation", "tanh", "activation"),
        ("construct", CONSTRUCT_SMALL, "activation", "softmax", "activation"),
        ("construct", CONSTRUCT_SMALL, "coefficient_mode", ["kronecker"], "coefficient_mode"),
        ("construct", mutated(CONSTRUCT_SMALL, "coefficient_mode", "homogeneous"),
         "activation", "exp", "activation"),
        ("construct", CONSTRUCT_SMALL, "coefficient_mode", "homogenous", "coefficient_mode"),
        ("construct", mutated(CONSTRUCT_SMALL, "coefficient_mode", "kronecker"),
         "lambda_policy", "pow-2", "lambda_policy"),       # no longer a key
        ("construct", CONSTRUCT_SMALL, "budgets", {"fit": 0.2, "perturb": 0.1, "tokens": 0.1},
         "budgets"),
        ("construct", CONSTRUCT_SMALL, "fit.k", 401, "fit.k"),         # 400 grid points
        ("construct", CONSTRUCT_SMALL, "transformer",
         {"blocks": transformer_blocks(2, general=True)}, "transformer"),
        ("construct", CONSTRUCT_SMALL, "transformer",
         {"blocks": transformer_blocks(2, F=[[0.5, 0.0]])}, "transformer"),
        ("embed", EMBED_IDENTITY, "transformer",
         {"blocks": transformer_blocks(3, general=True)}, "transformer"),
        ("embed", EMBED_IDENTITY, "fnn.random.activation", "softmax", "fnn"),
        ("embed", EMBED_SOFTMAX, "fnn.random.activation", "relu", "fnn"),
        ("embed", EMBED_IDENTITY, "fnn.random.d_y", 2, "fnn"),
        ("embed", EMBED_IDENTITY, "transformer.d_x", 4, "fnn"),
        ("embed", EMBED_IDENTITY, "grid", {"lo": [-1.0], "hi": [1.0], "counts": [5]}, "fnn"),
        ("embed", EMBED_SOFTMAX, "fnn.random.d_y", 2, "fnn"),
        ("embed", EMBED_SOFTMAX, "transformer.d_x", 3, "fnn"),
        ("embed", EMBED_IDENTITY, "fnn.random.activation", "tanh", "fnn.random.activation"),
        ("kronecker", KRONECKER_BETAS, "betas", [1.0, float("inf")], "betas"),
        ("kronecker", KRONECKER_BETAS, "betas", [float("nan")], "betas"),
        ("audit", PROP1_SMALL, "k_range", [3, 1], "k_range"),
        ("audit", PROP1_SMALL, "k_range", [0, 3], "k_range"),
        ("audit", PROP1_SMALL, "k_range", [1, 2, 3], "k_range"),
        ("audit", PROP1_SMALL, "interval", [1.0, -1.0], "interval"),
        ("audit", PROP1_SMALL, "interval", [-1.0, float("inf")], "interval"),
        ("audit", NONUAP_SMALL, "max_context", 2**63, "max_context"),
        ("audit", NONUAP_SMALL, "trials", 2**63, "trials"),
        ("audit", PROP1_SMALL, "count", 2**63, "count"),
        ("audit", mutated(PROP1_SMALL, "count", 0), "grid_points", 2**63, "grid_points"),
        ("density", DENSITY_SMALL, "n_max", 2**63, "n_max"),
        ("density", DENSITY_SMALL, "probe_per_dim", 2**63, "probe_per_dim"),
        ("density", DENSITY_ORACLES, "probe_per_dim", 2**31, "probe_per_dim")])
    def test_bad_value_names_its_field(self, tmp_path, command, config, path, value, field):
        # these used to escape main as a traceback (exit 1; the 2000-term and
        # 300-deep targets as a RecursionError), run with a bool as 1.0, or
        # exit 2 naming no field (the dimension mismatches named "config", an
        # empty exprs list and a negative count with a raw numpy message, and
        # so did an epsilon, q_cap, max_context or trials out of range; a
        # 5000-digit variable index was named "target"; a transformer or
        # random-network dimension below 1 was named "transformer",
        # "fnn.random" or "config", with numpy's "cond is not defined on
        # empty arrays" or "negative dimensions are not allowed"; a prop1_fuzz
        # option out of range was named "config", and a grid_points below 2
        # ran when no trial reached its check; an activation, choice or budget
        # sum that construct_context rejects, a fit.k above the fit grid's
        # point count, a transformer with general blocks or F != 0, an fnn
        # that the embed mode cannot take or whose dimensions disagree, a
        # non-finite beta and a k_range or interval out of order were named
        # "config"; a count past int64 (max_context, drawn as int64) or past
        # the longest array numpy can make (the other counts, and a 2-D probe
        # grid of 2^31 a side) failed inside numpy, exit 1 with a traceback)
        cfg = mutated(config, path, value)
        if command == "construct":
            cfg["caps"]["j_cap"] = 200
        code, out = run(tmp_path, "bad_value", cfg, command)
        assert code == 2
        err = json.loads((out / "error.json").read_text())["error"]
        assert err["field"] == field and err["exit_code"] == 2

    @pytest.mark.parametrize("command,config,path,override,field", [
        ("construct", CONSTRUCT_SMALL, "seed", None, "seed"),
        ("audit", PROP1_SMALL, "seed", None, "seed"),
        ("audit", NONUAP_SMALL, "seed", None, "seed"),
        ("kronecker", KRONECKER_RANDOM, "random.seed", None, "random.seed"),
        ("construct", CONSTRUCT_MULTI, "transformer.seed", None, "transformer.seed"),
        ("embed", EMBED_SOFTMAX, "fnn.random.seed", None, "fnn.random.seed"),
        ("construct", CONSTRUCT_SMALL, None, -1, "--seed"),
        ("audit", PROP1_SMALL, None, -1, "--seed"),
        ("audit", NONUAP_SMALL, None, -1, "--seed"),
        ("kronecker", KRONECKER_RANDOM, None, -1, "--seed")])
    def test_negative_seed_names_the_seed(self, tmp_path, command, config, path, override,
                                          field):
        # numpy's "expected non-negative integer" used to reach the user
        # under the field "config" (or "transformer", "fnn.random")
        cfg = mutated(config, path, -1) if path else config
        code, out = run(tmp_path, "neg_seed", cfg, command, seed=override)
        assert code == 2
        err = json.loads((out / "error.json").read_text())["error"]
        assert err["field"] == field and err["exit_code"] == 2
        assert f"{field} must be >= 0, got -1" in err["message"]

    @pytest.mark.parametrize("command,config", [
        ("embed", EMBED_SOFTMAX), ("density", DENSITY_SMALL), ("kronecker", KRONECKER_BETAS)])
    def test_seed_override_that_no_seed_takes_exits_2(self, tmp_path, command, config):
        # these runs read no seed that --seed overrides, so a --seed would
        # change no byte of their artifacts: it fails before the run starts
        code, out = run(tmp_path, "unused_seed", config, command, seed=5)
        assert code == 2 and sorted(p.name for p in out.iterdir()) == ["error.json"]
        err = json.loads((out / "error.json").read_text())["error"]
        assert err["field"] == "--seed" and err["exit_code"] == 2

    def test_exp_activation_exhausts_without_walking_every_position(self, tmp_path,
                                                                   monkeypatch):
        # the exp route's scan tolerance (1.5e-9) is far below every reachable
        # distance; the scan used to decode all 8e7 positions before exit 3
        from ctxapprox import construction
        decoded = []

        def counting_pe_block(scheme, j_start, count):
            decoded.append(count)
            return pe_block(scheme, j_start, count)

        pe_block = construction.pe_block
        monkeypatch.setattr(construction, "pe_block", counting_pe_block)
        cfg = json.loads((ROOT / "configs" / "construct_sin_acceptance.json").read_text())
        cfg["activation"] = "exp"
        code, out = run(tmp_path, "exp", cfg, "construct")
        assert code == 3
        err = json.loads((out / "error.json").read_text())["error"]
        assert err["j_cap"] == 80_000_000 and err["unmet"]
        for unmet in err["unmet"]:
            assert unmet["tol"] < unmet["best_distance"] < float("inf")
        assert sum(decoded) <= 10**4

    def test_non_finite_target_exit_4(self, tmp_path):
        # 1/x is infinite at the grid point x = 0: a numerical failure,
        # reported before the fit; a small j_cap bounds a regression
        path = Path(__file__).resolve().parent.parent / "configs" / "construct_sin_acceptance.json"
        cfg = json.loads(path.read_text())
        cfg["target"] = {"exprs": ["1/x"]}
        cfg["caps"]["j_cap"] = 200
        with np.errstate(divide="ignore"):
            code, out = run(tmp_path, "inv", cfg, "construct")
        assert code == 4
        err = json.loads((out / "error.json").read_text())
        assert err["error"]["exit_code"] == 4
        assert "not finite" in err["error"]["message"]
        assert "[0.0]" in err["error"]["message"]

    def test_non_finite_fit_exit_4(self, tmp_path):
        # an exp fit with wide features overflows; it used to exit 2 naming
        # field "config", with numpy overflow warnings on stderr
        cfg = json.loads((ROOT / "configs" / "construct_sin_acceptance.json").read_text())
        cfg["activation"] = "exp"
        cfg["fit"] = {"k": 16, "refine_steps": 300, "feature_scale": 200}
        cfg_path, out = tmp_path / "exp_fit.json", tmp_path / "exp_fit_out"
        cfg_path.write_text(json.dumps(cfg))
        proc = run_python("-m", "ctxapprox.cli", "construct", "--config", str(cfg_path),
                      "--out", str(out))
        assert proc.returncode == 4
        err = json.loads((out / "error.json").read_text())["error"]
        assert err["exit_code"] == 4 and err["field"] == "numeric"
        assert "output component 0" in err["message"]
        assert "non-finite" in err["message"]
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr

    def test_numerical_failure_exit_4(self, tmp_path):
        # a singular B block fails the conditioning check
        cfg = {
            "mode": "elementwise",
            "transformer": {"blocks": {
                "B": [[0.0, 0.0], [0.0, 0.0]], "C": [[1.0, 0.0], [0.0, 1.0]],
                "D": [[0.0, 0.0], [0.0, 0.0]], "E": [[0.0], [0.0]],
                "F": [[0.0, 0.0]], "U": [[1.0]], "general": None}},
            "fnn": {"random": {"seed": 1, "k": 2, "d_in": 1, "d_y": 1,
                               "activation": "relu"}},
            "grid": {"lo": [-1.0], "hi": [1.0], "counts": [11]},
        }
        code, out = run(tmp_path, "sing", cfg, "embed")
        assert code == 4
        err = json.loads((out / "error.json").read_text())
        assert err["error"]["exit_code"] == 4

    def test_halved_epsilon_underflow_exit_4(self, tmp_path):
        # the exp lift takes epsilon / 2, which is 0 for the least subnormal;
        # that used to escape as a ValueError with a traceback (exit 1)
        code, out = run(tmp_path, "tiny", mutated(EMBED_SOFTMAX, "epsilon", 5e-324), "embed")
        assert code == 4
        err = json.loads((out / "error.json").read_text())["error"]
        assert err["exit_code"] == 4 and err["field"] == "numeric"
        assert "underflows" in err["message"]

    def test_overflowing_lift_coefficients_exit_4(self, tmp_path):
        # coefficients of scale 1e300 overflow the lift's a_i e^{b_i - b'_i}
        # although the exponent is small; that used to exit 1 with "non-finite
        # entries in A" from FnnParams, after numpy overflow warnings
        cfg = mutated(EMBED_SOFTMAX, "fnn.random.scale", 1e300)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out = run(tmp_path, "huge", cfg, "embed")
        assert code == 4 and not caught
        err = json.loads((out / "error.json").read_text())["error"]
        assert err["exit_code"] == 4 and err["field"] == "numeric"
        assert "overflow" in err["message"]

    def test_params_from_file_and_samples_target(self, tmp_path):
        import ctxapprox as ca
        tp = ca.identity_sparse_params(2, 1)
        tp_path = tmp_path / "tp.json"
        tp_path.write_text(json.dumps(tp.to_json_dict()))
        xs = np.linspace(0, 1, 300)
        samples = tmp_path / "samples.csv"
        with samples.open("w") as fh:
            fh.write("x,f\n")
            for x in xs:
                fh.write(f"{x},{np.sin(2 * np.pi * x)}\n")
        cfg = json.loads(json.dumps(CONSTRUCT_SMALL))
        cfg["transformer"] = {"file": str(tp_path)}
        cfg["target"] = {"samples_file": str(samples)}
        code, out = run(tmp_path, "files", cfg, "construct")
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["report"]["achieved_sup_error"] < 0.3

    def test_shipped_acceptance_config(self, tmp_path):
        cfg = Path(__file__).resolve().parent.parent / "configs" / "construct_sin_acceptance.json"
        out = tmp_path / "shipped"
        code = main(["construct", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["report"]["achieved_sup_error"] < 0.2

    def test_seed_override(self, tmp_path):
        cfg = {"kind": "nonuap", "max_context": 20, "trials": 50, "seed": 1,
               "family": {"a_set": [1.0], "w_set": [0.5], "b_set": [0.0]}}
        code1, out1 = run(tmp_path, "s1", cfg, "audit", seed=99)
        code2, out2 = run(tmp_path, "s2", cfg, "audit", seed=99)
        assert code1 == code2 == 0
        assert (out1 / "audit.csv").read_bytes() == (out2 / "audit.csv").read_bytes()


class TestCsvArtifacts:
    @pytest.mark.parametrize("command,config,columns,count", [
        ("embed", EMBED_IDENTITY, {"errors.csv": "x1,x2,gap"}, 15 * 15),
        ("construct", CONSTRUCT_SMALL,
         {"tokens.csv": "position,vocab_index,role,neuron,component,y_value",
          "error_vs_n.csv": "n,tokens_used,sup_error"}, None),
        ("density", DENSITY_SMALL, {"density.csv": "n,covering_radius"}, 31),
        ("kronecker", KRONECKER_BETAS, {"witnesses.csv": "beta,q,l,achieved_error"}, 2),
        ("audit", PROP1_SMALL, {"audit.csv": "trial,k,sign_changes"}, None),
        ("audit", NONUAP_SMALL,
         {"audit.csv": "trial,context_length,minmax_error,distinct_terms"}, 50)],
        ids=["embed", "construct", "density", "kronecker", "prop1_fuzz", "nonuap"])
    def test_header_and_rows(self, tmp_path, command, config, columns, count):
        # README "CSV schemas": a comment line with the tool version and the
        # hash of the canonical config, then the column line, then the rows
        import ctxapprox as ca
        code, out = run(tmp_path, "csv", config, command)
        assert code == 0
        canon = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
        comment = f"# ctxapprox {ca.__version__} config_sha256={hashlib.sha256(canon).hexdigest()}"
        rows = {}
        for name, column_line in columns.items():
            lines = (out / name).read_text().splitlines()
            assert lines[:2] == [comment, column_line]
            rows[name] = lines[2:]
        if command == "construct":
            # one row per assigned token, in position order: every other
            # position up to n is nulled
            report = json.loads((out / "report.json").read_text())["report"]
            tokens = report["tokens"]
            assert len(tokens) < report["n"]
            positions = [t["position"] for t in tokens]
            assert positions == sorted(set(positions))
            assert rows["tokens.csv"] == [
                f"{t['position']},{t['vocab_index']},{t['role']},{t['neuron']},"
                f"{t['component']},{t['y_value']:.17g}" for t in tokens]
            assert len(rows["error_vs_n.csv"]) == len(tokens) + 1
        elif command == "audit" and config["kind"] == "prop1_fuzz":
            options = {k: v for k, v in config.items() if k not in ("kind", "count", "seed")}
            rec = ca.prop1_fuzz(config["count"], config["seed"], **options)
            assert rows["audit.csv"] == [f"{t},{k},{z}" for t, (k, z) in enumerate(
                zip(rec.ks.tolist(), rec.sign_changes.tolist()))]
        else:
            # one row per grid point, beta, n (from 1) or trial (from 0)
            (body,) = rows.values()
            assert len(body) == count
            if command in ("density", "audit"):
                first = 1 if command == "density" else 0
                assert [int(line.split(",")[0]) for line in body] == \
                    list(range(first, first + count))


def test_cli_import_leaves_mpmath_out():
    # mpmath is a test oracle only; the runtime checks witnesses in integers
    proc = run_python("-c", "import sys, ctxapprox.cli; print('mpmath' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("preset,seen", [(None, "1"), ("2", "2")])
def test_import_pins_one_blas_thread_unless_set(monkeypatch, preset, seen):
    # OpenBLAS's default thread count made the fit's least-squares solve many
    # times slower on a small host; a value the user set is kept
    if preset is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", preset)
    proc = run_python("-c", "import os, ctxapprox; print(os.environ['OPENBLAS_NUM_THREADS'])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == seen


def test_a_library_value_error_is_a_bug_not_a_config_error(tmp_path, monkeypatch):
    # main used to report any ValueError as exit 2 under the field "config";
    # one that no config check raised now escapes with its traceback
    from ctxapprox import cli

    def broken(*args, **kwargs):
        raise ValueError("an internal failure")

    monkeypatch.setattr(cli, "density_audit", broken)
    with pytest.raises(ValueError, match="an internal failure"):
        run(tmp_path, "bug", DENSITY_SMALL, "density")
    cfg, out = tmp_path / "bug.json", tmp_path / "bug_fresh"
    cfg.write_text(json.dumps(DENSITY_SMALL))
    proc = run_python("-c", "import sys\nfrom ctxapprox import cli\n"
                      "def broken(*args, **kwargs):\n"
                      "    raise ValueError('an internal failure')\n"
                      "cli.density_audit = broken\n"
                      f"sys.exit(cli.main(['density', '--config', {str(cfg)!r}, "
                      f"'--out', {str(out)!r}]))")
    assert proc.returncode == 1
    assert "Traceback" in proc.stderr and "ValueError: an internal failure" in proc.stderr
    assert not (out / "error.json").exists()


def key_paths(obj, prefix=""):
    """The dotted path of every key in ``obj``, nested objects included."""
    for key, value in obj.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from key_paths(value, f"{prefix}{key}.")


# a small j_cap bounds every scan a mutation leaves runnable
MUTATED_CONFIGS = {
    "embed_identity": ("embed", EMBED_IDENTITY),
    "embed_softmax": ("embed", EMBED_SOFTMAX),
    "construct": ("construct", mutated(CONSTRUCT_SMALL, "caps.j_cap", 20_000)),
    "construct_dense_options": ("construct", {
        **mutated(CONSTRUCT_SMALL, "caps.j_cap", 20_000), "activation": "relu",
        "coefficient_mode": "auto",
        "budgets": {"fit": 0.1, "perturb": 0.05, "tokens": 0.15}}),
    "construct_kronecker": ("construct", {
        **mutated(CONSTRUCT_SMALL, "caps.j_cap", 20_000),
        "coefficient_mode": "kronecker"}),
    "prop1": ("audit", PROP1_SMALL),
    "nonuap": ("audit", NONUAP_SMALL),
    "density": ("density", DENSITY_SMALL),
    "kronecker_betas": ("kronecker", KRONECKER_BETAS),
    "kronecker_random": ("kronecker", KRONECKER_RANDOM),
}
MUTATIONS = {"string": "0.5", "list": [], "object": {}, "nan": float("nan"),
             "inf": float("inf"), "negative": -1, "bool": True, "null": None}


class TestConfigMutations:
    @pytest.mark.parametrize("name", sorted(MUTATED_CONFIGS))
    def test_every_mutation_exits_with_a_documented_code(self, tmp_path, name):
        # delete, rename or retype each key in turn: nothing escapes main, a
        # failure writes a well-formed error.json naming a field, not the
        # whole config, and a renamed key is unknown
        command, config = MUTATED_CONFIGS[name]
        cases = [(path, kind) for path in key_paths(config)
                 for kind in ("delete", "rename", *MUTATIONS)]
        for i, (path, kind) in enumerate(cases):
            *parents, leaf = path.split(".")
            cfg = json.loads(json.dumps(config))
            node = cfg
            for part in parents:
                node = node[part]
            if kind in MUTATIONS:
                node[leaf] = MUTATIONS[kind]
            else:
                value = node.pop(leaf)
                if kind == "rename":
                    node[leaf + "_x"] = value
            case = f"{name}: {kind} {path}"
            try:
                with np.errstate(all="ignore"):
                    code, out = run(tmp_path, f"m{i}", cfg, command)
            except Exception as exc:
                pytest.fail(f"{case} escaped main: {type(exc).__name__}: {exc}")
            assert code in (0, 2, 3, 4), case
            assert not (kind == "rename" and code == 0), case
            if code:
                doc = json.loads((out / "error.json").read_text())
                err = doc["error"]
                assert doc["tool"] == "ctxapprox" and doc["version"], case
                assert err["exit_code"] == code and err["field"] and err["message"], case
                assert err["field"] != "config", case
