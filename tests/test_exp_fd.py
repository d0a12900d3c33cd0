import numpy as np
import pytest

import ctxapprox as ca


class TestExpFdNetwork:
    w_star = np.array([0.3, -0.2])
    grid = ca.Grid((-1.0, -1.0), (1.0, 1.0), (41, 41))

    def monomial_exp(self, alpha):
        pts = self.grid.points()
        vals = np.exp(pts @ self.w_star)
        for t, power in enumerate(alpha):
            vals = vals * pts[:, t] ** power
        return pts, vals

    def test_constant_polynomial_is_exact(self):
        net = ca.build_exp_fd_network({(0, 0): 1.0}, self.w_star, 0.5, 0.01)
        assert net.k == 1
        pts, vals = self.monomial_exp((0, 0))
        gap = np.abs(ca.fnn_forward_batch(net, pts)[:, 0] - vals)
        assert np.max(gap) <= 1e-12

    @pytest.mark.parametrize("alpha,neurons", [((1, 0), 2), ((1, 1), 4)])
    def test_stencil_error_halves_with_lambda(self, alpha, neurons):
        pts, vals = self.monomial_exp(alpha)
        errs = []
        for m in range(4, 9):
            net = ca.build_exp_fd_network({alpha: 1.0}, self.w_star, 0.5, 2.0**-m)
            assert net.k == neurons
            assert np.all(net.b == 0.0)
            assert np.max(np.abs(net.W - self.w_star)) < 0.5
            errs.append(np.max(np.abs(ca.fnn_forward_batch(net, pts)[:, 0] - vals)))
        for a, b in zip(errs, errs[1:]):
            assert 0.35 <= b / a <= 0.65

    def test_lambda_cap(self):
        with pytest.raises(ValueError):
            ca.build_exp_fd_network({(1, 1): 1.0}, self.w_star, 0.1, 0.06)

    def test_combined_polynomial(self):
        coeffs = {(0, 0): 0.5, (1, 0): -1.2, (0, 1): 0.7}
        net = ca.build_exp_fd_network(coeffs, self.w_star, 0.5, 1e-3)
        pts = self.grid.points()
        vals = (0.5 - 1.2 * pts[:, 0] + 0.7 * pts[:, 1]) * np.exp(pts @ self.w_star)
        gap = np.max(np.abs(ca.fnn_forward_batch(net, pts)[:, 0] - vals))
        assert gap < 5e-3
        # shared stencil rows are merged: {(0,0),(1,0),(0,1)}
        assert net.k == 3


class TestFitPolynomial:
    def test_constant_damped_target(self):
        pts = ca.Grid((0.0, 0.0), (1.0, 1.0), (12, 12)).points()
        w_star = np.array([0.4, -0.1])
        damped = np.exp(pts @ w_star) * np.exp(-pts @ w_star)  # == 1
        fit = ca.fit_polynomial(pts, damped, degree=2)
        assert fit.residual < 1e-10
        assert fit.coeffs[(0, 0)] == pytest.approx(1.0, abs=1e-9)

    def test_recovers_linear_coefficient(self):
        pts = ca.Grid((0.0,), (1.0,), (60,)).points()
        fit = ca.fit_polynomial(pts, pts[:, 0], degree=3)
        assert fit.coeffs[(1,)] == pytest.approx(1.0, abs=1e-8)
        for alpha in ((0,), (2,), (3,)):
            assert abs(fit.coeffs.get(alpha, 0.0)) < 1e-8

    def test_degree_zero_is_grid_optimal_constant(self):
        pts = ca.Grid((0.0,), (1.0,), (101,)).points()
        vals = pts[:, 0] ** 2
        fit = ca.fit_polynomial(pts, vals, degree=0)
        assert fit.coeffs[(0,)] == pytest.approx(np.mean(vals), abs=1e-10)
        assert fit.residual == pytest.approx(np.max(np.abs(vals - np.mean(vals))),
                                             abs=1e-10)

    def test_end_to_end_with_fd_network(self):
        # polynomial step feeding the stencil construction
        w_star = np.array([0.5])
        grid = ca.Grid((0.0,), (1.0,), (200,))
        pts = grid.points()
        f = pts[:, 0] * np.exp(0.5 * pts[:, 0])
        fit = ca.fit_polynomial(pts, f * np.exp(-pts @ w_star), degree=3)
        assert fit.residual < 1e-9
        net = ca.build_exp_fd_network(fit.coeffs, w_star, 0.3, 1e-4)
        gap = np.max(np.abs(ca.fnn_forward_batch(net, pts)[:, 0] - f))
        assert gap < 1e-3
