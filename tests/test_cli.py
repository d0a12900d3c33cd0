import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from ctxapprox.cli import main

ROOT = Path(__file__).resolve().parent.parent


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
    @pytest.mark.parametrize("construction", ["dense", "relu_rescaled"])
    def test_bad_numeric_field_exit_2(self, tmp_path, field, value, named, construction):
        # a small j_cap keeps a regression from scanning for minutes
        cfg = json.loads(json.dumps(CONSTRUCT_SMALL))
        cfg["caps"]["j_cap"] = 200
        cfg["construction"] = construction
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

    @pytest.mark.parametrize("field,value,construction", [
        ("construction", "relu-rescaled", "dense"),
        ("coefficient_mode", "homogenous", "dense"),
        ("lambda_policy", "pow-2", "relu_rescaled"),
        ("activation", "exp", "relu_rescaled"),
        ("lambda_polcy", "pow2", "relu_rescaled"),
        ("lambda_policy", "pow2", "dense"),
        ("coefficient_mode", "kronecker", "relu_rescaled")])
    def test_bad_choice_exit_2(self, tmp_path, field, value, construction):
        # a small j_cap keeps a choice that silently runs another route short
        cfg = json.loads(json.dumps(CONSTRUCT_SMALL))
        cfg["caps"]["j_cap"] = 200
        cfg["construction"] = construction
        cfg[field] = value
        code, out = run(tmp_path, "bad_choice", cfg, "construct")
        assert code == 2
        err = json.loads((out / "error.json").read_text())
        assert err["error"]["exit_code"] == 2
        assert field in err["error"]["message"]

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

    def test_benchmark_spans_nest_inside_construct(self, tmp_path):
        # the benchmark's layer breakdown hooks these names from outside
        from ctxapprox import cli, construction, embedding, kronecker, vocab_pe
        spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        tracer = spans.Tracer("construct")
        modules = {"cli": cli, "construction": construction, "embedding": embedding,
                   "kronecker": kronecker, "vocab_pe": vocab_pe}
        with tracer.installed(modules):
            code, _ = run(tmp_path, "traced", CONSTRUCT_SMALL, "construct")
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
        assert {"fnn.fit_fnn", "vocab_pe.pe_block"} <= nested

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

    def test_relu_rescaled_construct(self, tmp_path):
        cfg = json.loads(json.dumps(CONSTRUCT_SMALL))
        cfg["construction"] = "relu_rescaled"
        cfg["lambda_policy"] = "pow2"
        cfg["epsilon"] = 1.0
        cfg["fit"] = {"k": 5, "refine_steps": 400}
        cfg["vocab"] = {"x_grid": {"lo": [-1.5, -1.5], "hi": [1.5, 1.5],
                                   "per_dim": 25}, "d_y": 1}
        code, out = run(tmp_path, "rescaled", cfg, "construct")
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["report"]["lambda"] >= 1.0
        assert doc["report"]["mode"] == "rescaled"
        assert doc["report"]["achieved_sup_error"] < 1.0

    def test_byte_identical_reruns(self, tmp_path):
        code1, out1 = run(tmp_path, "rep1", CONSTRUCT_SMALL, "construct")
        code2, out2 = run(tmp_path, "rep2", CONSTRUCT_SMALL, "construct")
        assert code1 == code2 == 0
        for name in ("report.json", "tokens.csv", "error_vs_n.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestAuditCommands:
    def test_prop1_fuzz(self, tmp_path):
        cfg = {"kind": "prop1_fuzz", "count": 150, "seed": 3}
        code, out = run(tmp_path, "fuzz", cfg, "audit")
        assert code == 0
        doc = json.loads((out / "audit.json").read_text())
        assert doc["violations"] == 0

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
        assert err["error"]["exit_code"] == 2
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
        ("audit", {"kind": "prop1_fuzz", "count": 5}, "seed", "3")])
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
        ("audit", {"kind": "nonuap", "max_context": 20, "trials": 50, "seed": 1,
                   "family": {"a_set": [1.0], "w_set": [0.5], "b_set": [0.0]}},
         "family.a_set", [1.0, float("nan")], "a_set must be finite")])
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
