import numpy as np
import pytest

from vmprox.diagnostics import dense_prox_oracle
from vmprox.prox import (
    BoxProx,
    DualTVProx,
    InexactProxError,
    TVNonnegRegularizer,
    exact_prox_box,
    project_dual_tv,
)
from vmprox.strategies import DiagonalMetric


def _random_instance(seed, shape=(2, 2), rho=0.2, alpha=0.5):
    rng = np.random.default_rng(seed)
    n = shape[0] * shape[1]
    reg = TVNonnegRegularizer(shape, rho)
    x = rng.random(n)
    grad = rng.standard_normal(n)
    metric = DiagonalMetric.from_inverse_diag(rng.uniform(0.5, 2.0, n), 4.0)
    return reg, x, grad, alpha, metric


def _h_value(y, x, grad, f1_x, alpha, metric, reg):
    dy = y - x
    return (
        float(np.dot(grad, dy))
        + 0.5 / alpha * metric.norm_sq(dy)
        + reg.f1(y)
        - f1_x
    )


class TestExactProxBox:
    def test_inside_box_is_identity(self):
        z = np.array([0.3, 0.9, 0.1])
        np.testing.assert_array_equal(exact_prox_box(z, 0.0, 1.0), z)

    def test_linesearch_example_value(self):
        assert exact_prox_box(np.array([2.0]), 0.0, 10.0)[0] == 2.0

    def test_clamps_both_sides(self):
        np.testing.assert_array_equal(
            exact_prox_box(np.array([-1.0, 2.0]), 0.0, 1.5), [0.0, 1.5]
        )

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            exact_prox_box(np.zeros(2), 1.0, 0.0)


class TestProjectDualTV:
    def test_idempotent_on_feasible(self):
        rng = np.random.default_rng(1)
        v = project_dual_tv(rng.standard_normal(12), 0.7, 4)
        np.testing.assert_array_equal(project_dual_tv(v, 0.7, 4), v)

    def test_pair_scaling(self):
        v = np.zeros(3)
        v = np.concatenate([[3.0, 4.0], np.zeros(1)])
        out = project_dual_tv(v, 1.0, 1)
        np.testing.assert_allclose(out[:2], [0.6, 0.8], atol=1e-15)

    def test_tail_clipping(self):
        v = np.array([0.0, 0.0, 2.0])
        assert project_dual_tv(v, 1.0, 1)[2] == 0.0
        v = np.array([0.0, 0.0, -2.0])
        assert project_dual_tv(v, 1.0, 1)[2] == -2.0

    def test_nonexpansive(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            u = rng.standard_normal(24) * 3
            v = rng.standard_normal(24) * 3
            pu = project_dual_tv(u, 0.5, 8)
            pv = project_dual_tv(v, 0.5, 8)
            assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-12

    def test_zero_radius_zeroes_pairs(self):
        rng = np.random.default_rng(3)
        v = rng.standard_normal(12)
        v[:2] = 0.0  # a zero pair must not become 0/0
        out = project_dual_tv(v, 0.0, 4)
        assert np.all(np.isfinite(out))
        np.testing.assert_array_equal(out[:8], 0.0)
        np.testing.assert_array_equal(out[8:], np.minimum(v[8:], 0.0))


class TestDualObjective:
    """The dual value ``psi_dual`` that the dual prox reports."""

    def test_zero_everything_gives_zero(self):
        reg = TVNonnegRegularizer((2, 2), 0.3)
        x = np.array([0.5, 0.5, 0.5, 0.5])
        grad = np.zeros(4)
        metric = DiagonalMetric.identity(4, 10.0)
        # constant image: f1(x) = 0, z = x, so the zero dual vector is optimal
        cert = DualTVProx(reg, warm_start=False).solve(
            x, grad, 0.0, 1.0, metric, 1.0, 1e6 - 1)
        assert cert.inner_iters == 0
        assert cert.psi_dual == 0.0

    def test_weak_duality_against_sampled_primal(self):
        rng = np.random.default_rng(6)
        for seed in range(5, 10):
            reg, x, grad, alpha, metric = _random_instance(seed)
            f1_x = reg.f1(x)
            for gap_tol in (np.inf, 1e-2, 1e-6):
                cert = DualTVProx(reg, warm_start=False).solve(
                    x, grad, f1_x, alpha, metric, 1.0, 1e6 - 1, gap_tol=gap_tol)
                for _ in range(5):
                    y = np.abs(rng.standard_normal(4))
                    h = _h_value(y, x, grad, f1_x, alpha, metric, reg)
                    assert cert.psi_dual <= h + 1e-12

    def test_dual_below_oracle_minimum(self):
        reg, x, grad, alpha, metric = _random_instance(8, shape=(1, 4))
        f1_x = reg.f1(x)
        z = x - alpha * grad / metric.diag
        y_star = dense_prox_oracle(z, alpha, metric, reg)
        h_star = _h_value(y_star, x, grad, f1_x, alpha, metric, reg)
        for gap_tol in (np.inf, 1e-1, 1e-3, 1e-6, 1e-10):
            cert = DualTVProx(reg, warm_start=False).solve(
                x, grad, f1_x, alpha, metric, 1.0, 1e6 - 1, gap_tol=gap_tol)
            assert cert.psi_dual <= h_star + 1e-10
            assert cert.h_primal >= h_star - 1e-10


class TestPrimalFromDual:
    """The primal point ``y_tilde`` that the dual prox reports."""

    def test_zero_dual_gives_projected_target(self):
        reg, x, grad, alpha, metric = _random_instance(11)
        z = x - alpha * grad / metric.diag
        cert = DualTVProx(reg, warm_start=False).solve(
            x, grad, reg.f1(x), alpha, metric, 1.0, 1e6 - 1, gap_tol=np.inf)
        assert cert.inner_iters == 0
        np.testing.assert_array_equal(cert.dual_v, 0.0)
        np.testing.assert_array_equal(cert.y_tilde, np.maximum(z, 0.0))

    def test_converges_to_exact_prox(self):
        reg, x, grad, alpha, metric = _random_instance(12, shape=(1, 4))
        f1_x = reg.f1(x)
        prox = DualTVProx(reg, inner_limit=200000, warm_start=False)
        cert = prox.solve(x, grad, f1_x, alpha, metric, 1.0, 1e6 - 1,
                          gap_tol=1e-13)
        z = x - alpha * grad / metric.diag
        y_star = dense_prox_oracle(z, alpha, metric, reg)
        assert np.abs(cert.y_tilde - y_star).max() <= 1e-6


class TestDualTVProx:
    def test_certificate_chain_at_acceptance(self):
        for seed in range(5):
            reg, x, grad, alpha, metric = _random_instance(seed)
            tau = 1e6 - 1
            eta = 1.0 / (1.0 + tau / 2.0)
            prox = DualTVProx(reg, warm_start=False)
            cert = prox.solve(x, grad, reg.f1(x), alpha, metric, 1.0, tau)
            assert cert.psi_dual <= cert.h_primal + 1e-12
            assert cert.h_primal <= eta * cert.psi_dual + 1e-12
            assert cert.h_primal <= 1e-12 and cert.psi_dual <= 1e-12
            assert cert.h_gamma <= cert.h_primal + 1e-15
            assert cert.epsilon_k >= 0.0

    def test_huge_tau_accepts_projected_target_when_feasible(self):
        # With x feasible and zero rho the projected target already solves
        # the subproblem, so the first candidate is certified.
        reg = TVNonnegRegularizer((2, 2), rho=0.0)
        rng = np.random.default_rng(3)
        x = rng.random(4) + 1.0
        grad = -rng.random(4)  # pushes z upward, stays feasible
        metric = DiagonalMetric.identity(4, 10.0)
        prox = DualTVProx(reg, warm_start=False)
        cert = prox.solve(x, grad, 0.0, 1.0, metric, 1.0, tau=1e12)
        assert cert.inner_iters == 0
        np.testing.assert_allclose(cert.y_tilde, x - grad, atol=1e-12)

    def test_monotone_gap_shrinks(self):
        reg, x, grad, alpha, metric = _random_instance(21, shape=(1, 4))
        f1_x = reg.f1(x)
        prox = DualTVProx(reg, inner_limit=200, warm_start=False)
        with pytest.raises(InexactProxError):
            prox.solve(x, grad, f1_x, alpha, metric, 1.0, 1e6 - 1,
                       gap_tol=-1.0)  # unattainable: runs all iterations
        # run to 200 iterations and check the achieved gap is tiny
        prox2 = DualTVProx(reg, inner_limit=200000, warm_start=False)
        cert = prox2.solve(x, grad, f1_x, alpha, metric, 1.0, 1e6 - 1,
                           gap_tol=1e-8)
        assert cert.inner_iters <= 200
        assert cert.gap <= 1e-8

    def test_inner_limit_failure_reports_gap(self):
        reg, x, grad, alpha, metric = _random_instance(22)
        prox = DualTVProx(reg, inner_limit=3, warm_start=False)
        with pytest.raises(InexactProxError) as ei:
            prox.solve(x, grad, reg.f1(x), alpha, metric, 1.0, 1e6 - 1,
                       gap_tol=1e-30)
        assert ei.value.last_gap > 0.0

    def test_warm_start_carries_dual_vector(self):
        reg, x, grad, alpha, metric = _random_instance(30)
        prox = DualTVProx(reg, warm_start=True)
        prox.solve(x, grad, reg.f1(x), alpha, metric, 1.0, 1e6 - 1)
        assert prox._v_prev is not None
        prox.reset()
        assert prox._v_prev is None


class TestBoxProx:
    def test_exact_certificate(self):
        box = BoxProx(0.0, 10.0)
        metric = DiagonalMetric.identity(1, 10.0)
        cert = box.solve(np.array([0.0]), np.array([-2.0]), 0.0, 1.0, metric,
                         1.0, 1e6 - 1)
        assert cert.y_tilde[0] == 2.0
        assert cert.h_primal == -2.0
        assert cert.gap == 0.0
        assert cert.inner_iters == 0
        assert cert.epsilon_k == 0.5 * (1e6 - 1) * 2.0


@pytest.mark.parametrize("seed,shape", [(0, (2, 2)), (1, (1, 8)), (2, (4, 4)),
                                        (3, (3, 3)), (4, (2, 6))])
def test_oracle_equivalence(seed, shape):
    reg, x, grad, alpha, metric = _random_instance(seed + 100, shape=shape)
    f1_x = reg.f1(x)
    prox = DualTVProx(reg, inner_limit=300000, warm_start=False)
    cert = prox.solve(x, grad, f1_x, alpha, metric, 1.0, 1e6 - 1, gap_tol=1e-12)
    z = x - alpha * grad / metric.diag
    y_star = dense_prox_oracle(z, alpha, metric, reg)
    assert np.abs(cert.y_tilde - y_star).max() <= 1e-6
