"""Acceptance suite.

Each criterion runs at its stated tolerance and prints one pass/fail line
(run with -s to see them).  Criteria with runtime limits measure wall time.
"""

import json
import time

import mpmath
import numpy as np

import ctxapprox as ca
from ctxapprox.cli import main as cli_main
from ctxapprox.construction import Caps, FitOptions
from ctxapprox.kronecker import SQRT2

from conftest import query_readout, random_fnn


def report(number, name, ok, detail=""):
    print(f"\n[criterion {number:>2}] {'PASS' if ok else 'FAIL'} {name} {detail}")
    assert ok, f"criterion {number} failed: {name} {detail}"


def test_criterion_01_exact_embedding():
    t0 = time.time()
    shapes = [(2, 1, 4), (3, 1, 8), (3, 2, 6), (4, 2, 12), (5, 3, 16),
              (2, 1, 16), (4, 3, 10), (5, 1, 5), (3, 3, 9), (4, 1, 14)]
    counts = {1: (1000,), 2: (32, 32), 3: (10, 10, 10), 4: (6, 6, 6, 6)}
    worst = 0.0
    for seed, (d_x, d_y, k) in enumerate(shapes):
        tp = ca.random_sparse_params(seed, d_x, d_y)
        assert np.linalg.cond(tp.B.T @ tp.C) < 1e6
        assert np.linalg.cond(tp.U) < 1e6
        fnn = random_fnn(np.random.default_rng(seed), k, d_x - 1, d_y, ca.RELU)
        res = ca.embed_fnn(tp, fnn)
        pts = ca.Grid((-1.0,) * (d_x - 1), (1.0,) * (d_x - 1),
                      counts[d_x - 1]).points()
        assert pts.shape[0] >= 1000
        gap = np.max(np.abs(ca.readout_batch(tp, res, pts, ca.RELU)
                            - ca.fnn_forward_batch(fnn, pts)))
        worst = max(worst, gap)
    elapsed = time.time() - t0
    report(1, "exact element-wise embedding", worst <= 1e-10 and elapsed < 10.0,
           f"(max gap {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_02_softmax_embedding_shift():
    t0 = time.time()
    worst, bound_ok = 0.0, True
    for seed in range(5):
        d_x = 2 + seed % 2
        tp = ca.random_sparse_params(50 + seed, d_x, 1)
        src = random_fnn(np.random.default_rng(seed), 5, d_x - 1, 1, ca.EXP,
                         scale=1.2)
        grid = ca.Grid((-1.0,) * (d_x - 1), (1.0,) * (d_x - 1),
                       (101,) if d_x == 2 else (25, 25))
        res = ca.embed_softmax_fnn(tp, src, grid, 1e-3)
        worst = max(worst, res.certified_sup_error)
        bound_ok = bound_ok and res.certified_sup_error <= res.closed_form_bound
        # shift-stage inequality chain: the readout's gap to the lifted
        # softmax network obeys max||net|| * max e^{t(x) - s}
        lifted = ca.exp_to_softmax_fnn(src, grid.points(), 1e-3 / 2.0)
        fine = grid.refined(10).points()
        shift_gap = np.max(np.abs(ca.readout_batch(tp, res, fine, ca.SOFTMAX)
                                  - ca.fnn_forward_batch(lifted, fine)))
        x_t = np.hstack([fine, np.ones((fine.shape[0], 1))])
        t_vals = np.einsum("ni,ij,nj->n", x_t, tp.B.T @ tp.C, x_t)
        net_max = np.max(np.abs(ca.fnn_forward_batch(lifted, fine)))
        shift_bound = net_max * np.max(np.exp(t_vals - res.shift_s))
        bound_ok = bound_ok and shift_gap <= shift_bound
    elapsed = time.time() - t0
    report(2, "softmax embedding with constructed shift",
           worst <= 1e-3 and bound_ok and elapsed < 30.0,
           f"(max refined-grid gap {worst:.2e}, bounds hold {bound_ok}, {elapsed:.1f}s)")


def test_criterion_03_exp_to_softmax_lift():
    worst = 0.0
    for seed in range(5):
        src = random_fnn(np.random.default_rng(100 + seed), 6, 2, 1, ca.EXP)
        grid = ca.Grid((-1.0, -1.0), (1.0, 1.0), (21, 21))
        lifted = ca.exp_to_softmax_fnn(src, grid.points(), 1e-3)
        assert lifted.k == 7
        fine = grid.refined(10).points()
        gap = np.max(np.abs(ca.fnn_forward_batch(lifted, fine)
                            - ca.fnn_forward_batch(src, fine)))
        worst = max(worst, gap)
    report(3, "exp-to-softmax lift", worst <= 1e-3,
           f"(max refined-grid gap {worst:.2e})")


def test_criterion_04_construction_end_to_end():
    t0 = time.time()
    tp = ca.random_sparse_params(101, 2, 1)
    vocab = ca.Vocabulary.x_grid((-10.0, -10.0), (10.0, 10.0), 81, 1)
    assert all(vocab.y_index_of(tok) is not None for tok in ca.standard_y_tokens(1))
    scheme = ca.calkin_wilf_lattice(2)
    grid = ca.Grid((0.0,), (1.0,), (2000,))
    target = ca.parse_target("sin(2*pi*x) + 0.5*cos(pi*x)")
    rep = ca.construct_context(target, grid, vocab, scheme, tp, 0.2, seed=4,
                               fit=FitOptions(k=16, refine_steps=300),
                               caps=Caps(j_cap=80_000_000))
    elapsed = time.time() - t0
    b = rep.budgets
    budget_ok = (b.total <= 0.2 + 1e-12
                 and rep.measured["fit"] <= b.fit
                 and rep.measured["perturb"] <= b.perturb
                 and rep.measured["tokens"] <= b.tokens)
    ok = (rep.achieved_sup_error < 0.2
          and rep.measured["base_grid_total"] < 0.2
          and budget_ok and elapsed < 300.0)
    report(4, "finite-vocabulary construction end to end", ok,
           f"(sup error {rep.achieved_sup_error:.4f}, n={rep.n}, "
           f"max q+l={max(p.demand for p in rep.per_neuron)}, stages "
           f"fit {rep.measured['fit']:.3f}/{b.fit:.3f} "
           f"perturb {rep.measured['perturb']:.1e}/{b.perturb:.3f} "
           f"tokens {rep.measured['tokens']:.3f}/{b.tokens:.3f}, {elapsed:.1f}s)")


def test_criterion_05_multi_output():
    tp = ca.random_sparse_params(7, 2, 2)
    vocab = ca.Vocabulary.x_grid((-10.0, -10.0), (10.0, 10.0), 81, 2)
    assert all(vocab.y_index_of(tok) is not None for tok in ca.standard_y_tokens(2))
    scheme = ca.calkin_wilf_lattice(2)
    grid = ca.Grid((0.0,), (1.0,), (1500,))

    def target(pts):
        return np.column_stack([np.sin(2 * np.pi * pts[:, 0]),
                                np.cos(2 * np.pi * pts[:, 0])])

    rep = ca.construct_context(
        target, grid, vocab, scheme, tp, 0.3, seed=9,
        budgets=ca.StageBudgets(0.08, 0.02, 0.20),
        fit=FitOptions(k=14, refine_steps=300), caps=Caps(j_cap=80_000_000))
    # positions are unique and each token writes one component, so every y
    # column carries at most one nonzero entry
    positions = [t.position for t in rep.tokens]
    unique = len(set(positions)) == len(positions)
    one_nonzero = unique and all(t.y_value != 0.0 and 0 <= t.component < 2
                                 for t in rep.tokens)
    ok = (rep.achieved_sup_error < 0.3 and one_nonzero
          and {t.component for t in rep.tokens} == {0, 1})
    report(5, "multi-output construction", ok,
           f"(vector sup error {rep.achieved_sup_error:.4f}, n={rep.n}, "
           f"tokens={len(rep.tokens)}, unique positions={unique})")


def test_criterion_06_proposition1_fuzz():
    t0 = time.time()
    violations = ca.prop1_fuzz(1000, 606, grid_points=1501).violations
    elapsed = time.time() - t0
    report(6, "exponential-sum zero-count fuzz",
           violations == 0 and elapsed < 10.0,
           f"(1000 sums, {violations} violations, {elapsed:.1f}s)")


def test_criterion_07_nonuap_structural_audit():
    family = ca.FiniteFamilySpec([-2.0, -1.0, 1.0, 2.0], [0.5, -1.0], [0.0, 0.7])
    assert family.N == 4
    small = ca.nonuap_audit(family, 100, 10_000, seed=77)
    big = ca.nonuap_audit(family, 10_000, 10_000, seed=77)
    ok = (big.structural_cap_holds and big.max_distinct_terms <= 4
          and big.min_minmax_error >= 0.5 and small.min_minmax_error >= 0.5
          and big.min_minmax_error >= small.min_minmax_error - 1e-9)
    report(7, "non-UAP audit (structural premise + error floor)", ok,
           f"(floor {small.min_minmax_error:.3f} @1e2 -> "
           f"{big.min_minmax_error:.3f} @1e4, distinct terms <= "
           f"{big.max_distinct_terms})")


def test_criterion_08_kronecker_witnesses():
    rng = np.random.default_rng(808)
    ok = True
    for beta in rng.uniform(-10, 10, 100):
        w = ca.kronecker_search(float(beta), 1e-3)
        with mpmath.workdps(60):
            err = abs(mpmath.mpf(float(beta)) - w.q * mpmath.sqrt(2) + w.l)
        ok = ok and float(err) < 1e-3
    w0 = ca.kronecker_search(0.0, 0.01)
    # criterion's l = -99 is the q*sqrt2 + l form; the witness formula
    # |beta - q sqrt2 + l| puts l = +99
    zero_ok = (w0.q, abs(w0.l)) == (70, 99) and abs(0.0 - w0.q * SQRT2 + w0.l) < 0.01
    report(8, "Kronecker witnesses", ok and zero_ok,
           f"(100 seeded betas re-verified at 60 digits; beta=0 -> q={w0.q}, "
           f"l={w0.l})")


def test_criterion_09_finite_difference_stencils():
    w_star = np.array([0.25, -0.4])
    delta = 0.6
    pts = ca.Grid((-1.0, -1.0), (1.0, 1.0), (41, 41)).points()
    ok = True
    detail = []
    for alpha in ((1, 0), (1, 1)):
        tgt = pts[:, 0] ** alpha[0] * pts[:, 1] ** alpha[1] * np.exp(pts @ w_star)
        errs = []
        for m in range(4, 9):
            net = ca.build_exp_fd_network({alpha: 1.0}, w_star, delta, 2.0 ** -m)
            ok = ok and np.max(np.abs(net.W - w_star)) < delta
            errs.append(float(np.max(np.abs(
                ca.fnn_forward_batch(net, pts)[:, 0] - tgt))))
        ratios = [b / a for a, b in zip(errs, errs[1:])]
        ok = ok and all(0.35 <= r <= 0.65 for r in ratios)
        detail.append(f"{alpha}: {', '.join(f'{r:.3f}' for r in ratios)}")
    report(9, "finite-difference exp stencils", ok, "(ratios " + "; ".join(detail) + ")")


def test_criterion_10_structural_invariants():
    rng = np.random.default_rng(1010)
    tp = ca.random_sparse_params(42, 3, 2)
    asm = ca.InputAssembly(rng.standard_normal((3, 8)), rng.standard_normal((2, 8)),
                           rng.standard_normal(2))
    base = {a.kind: query_readout(tp, asm, a) for a in (ca.RELU, ca.SOFTMAX)}
    perm_gap = 0.0
    for trial in range(100):
        perm = np.random.default_rng(trial).permutation(asm.n)
        pasm = ca.InputAssembly(asm.X[:, perm], asm.Y[:, perm], asm.query)
        for act in (ca.RELU, ca.SOFTMAX):
            perm_gap = max(perm_gap, float(np.max(np.abs(
                query_readout(tp, pasm, act) - base[act.kind]))))

    fnn = random_fnn(rng, 6, 2, 2, ca.RELU)
    lam = 2.9
    scaled = ca.FnnParams(fnn.A / lam, lam * fnn.W, lam * fnn.b, ca.RELU)
    pts = rng.uniform(-1, 1, (200, 2))
    homog_gap = float(np.max(np.abs(ca.fnn_forward_batch(fnn, pts)
                                    - ca.fnn_forward_batch(scaled, pts))))

    Z = rng.standard_normal((5, 9))
    scores = (tp.Q @ Z).T @ (tp.K @ Z)
    col_gap = float(np.max(np.abs(ca.softmax_columns(scores).sum(axis=0) - 1.0)))

    general = ca.GeneralBlocks(tp.B.T @ tp.C, np.zeros((3, 2)),
                               np.zeros((2, 3)), np.zeros((2, 2)))
    tpg = ca.TransformerParams(tp.B, tp.C, tp.D, tp.E, tp.F, tp.U, general)
    gen_gap = 0.0
    for act in (ca.RELU, ca.EXP, ca.SOFTMAX):
        gen_gap = max(gen_gap, float(np.max(np.abs(
            query_readout(tpg, asm, act)
            - query_readout(tp, asm, act)))))

    ok = (perm_gap <= 1e-12 and homog_gap <= 1e-12 and col_gap <= 1e-12
          and gen_gap <= 1e-10)
    report(10, "structural invariants", ok,
           f"(perm {perm_gap:.1e}, homog {homog_gap:.1e}, softmax-cols "
           f"{col_gap:.1e}, general-vs-sparse {gen_gap:.1e})")


def test_criterion_11_reproducibility(tmp_path):
    config = {
        "target": {"exprs": ["sin(2*pi*x)"]},
        "transformer": {"kind": "random", "seed": 11, "d_x": 2, "d_y": 1},
        "vocab": {"x_grid": {"lo": [-8.0, -8.0], "hi": [8.0, 8.0],
                             "per_dim": 65}, "d_y": 1},
        "scheme": {"kind": "calkin_wilf_lattice", "d_x": 2},
        "grid": {"lo": [0.0], "hi": [1.0], "counts": [500]},
        "epsilon": 0.3,
        "seed": 7,
        "fit": {"k": 14, "refine_steps": 300},
        "caps": {"j_cap": 60000000},
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    outs = []
    for run in (1, 2):
        out = tmp_path / f"run{run}"
        code = cli_main(["construct", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        outs.append(out)
    identical = all((outs[0] / n).read_bytes() == (outs[1] / n).read_bytes()
                    for n in ("report.json", "tokens.csv", "error_vs_n.csv"))
    kcfg = tmp_path / "kron.json"
    kcfg.write_text(json.dumps({"random": {"seed": 2, "count": 20}, "epsilon": 1e-3}))
    kouts = []
    for run in (1, 2):
        out = tmp_path / f"kron{run}"
        assert cli_main(["kronecker", "--config", str(kcfg), "--out", str(out)]) == 0
        kouts.append(out)
    identical = identical and all(
        (kouts[0] / n).read_bytes() == (kouts[1] / n).read_bytes()
        for n in ("witnesses.json", "witnesses.csv"))
    report(11, "byte-identical reruns", identical, "(construct + kronecker artifacts)")
