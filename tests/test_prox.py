import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vmprox import prox as prox_module
from vmprox.diagnostics import dense_prox_oracle
from vmprox.operators import (
    ConvOperator2D,
    ForwardDifference2D,
    Laplacian2D,
    gaussian_psf,
)
from vmprox.problems import CauchyDeblurProblem, cartoon_image, degrade_synthetic
from vmprox.prox import (
    BoxProx,
    DualTVProx,
    InexactProxError,
    TVNonnegRegularizer,
    _merit_lower_bound,
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
        + 0.5 / alpha * float(np.dot(metric.diag * dy, dy))
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


def _hypot_projection(v, rho, n):
    """The projection with ``np.hypot`` norms, the exact reference
    (``rho > 0``)."""
    out = np.array(v, dtype=float)
    norms = np.hypot(out[:n], out[n : 2 * n])
    out[: 2 * n] *= np.tile(rho / np.maximum(norms, rho), 2)
    np.minimum(out[2 * n :], 0.0, out=out[2 * n :])
    return out


def _pair_draw(seed, rho, n):
    """Planar dual vector whose pairs lie from 1e-3 to 1e3 times ``rho``
    from the origin, with signed and zero entries."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(3 * n)
    v[: 2 * n] *= np.tile(rho * 10.0 ** rng.uniform(-3, 3, n), 2)
    v[rng.integers(0, 3 * n, n // 10)] = 0.0
    return v


def _pair_distance(a, b, n):
    """Largest distance of a pair of ``a`` from its pair in ``b``, relative
    to the latter's norm, in units of machine epsilon."""
    dist = np.hypot(a[:n] - b[:n], a[n : 2 * n] - b[n : 2 * n])
    norm = np.hypot(b[:n], b[n : 2 * n])
    return float(np.max(dist[norm > 0] / norm[norm > 0])) / np.finfo(float).eps


class TestProjectionAgainstHypot:
    """The projection's squared-sum norms against ``np.hypot``, and its
    range guard."""

    @pytest.mark.parametrize("rho", [1e-140, 1e-30, 0.03, 0.35, 1.0, 1e40,
                                     1e150])
    def test_close_to_hypot_projection_and_in_the_ball(self, rho):
        # Each norm is within 2u of the exact one (u = eps/2), as is hypot's;
        # with the quotient and the product rounded on each side a pair
        # moves by at most 8u = 4 eps relative.  The same rounding bounds
        # how far a projected pair lies outside the ball and how far a
        # second projection moves it.  Measured worst cases over 20 such
        # draws: 2.5, 2 and 1.8 eps.
        n = 4000
        for seed in range(3):
            v = _pair_draw(seed, rho, n)
            out = project_dual_tv(v, rho, n)
            assert _pair_distance(out, _hypot_projection(v, rho, n), n) <= 4.0
            norms = np.hypot(out[:n], out[n : 2 * n])
            assert np.all(norms <= rho * (1.0 + 4.0 * np.finfo(float).eps))
            assert _pair_distance(project_dual_tv(out, rho, n), out, n) <= 4.0
            np.testing.assert_array_equal(out[2 * n :],
                                          np.minimum(v[2 * n :], 0.0))

    def test_overflowing_squares_take_hypot(self):
        v = np.array([3e200, -1.5, 1e-300, 4e200, 2.0, 0.0, 0.5, -0.5, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = project_dual_tv(v, 1.0, 3)
        _assert_same_bits(out, _hypot_projection(v, 1.0, 3))
        np.testing.assert_allclose(out[[0, 3]], [0.6, 0.8], rtol=1e-15)

    def test_tiny_radius_takes_hypot(self):
        v = np.array([3e-200, 3e-201, 4e-200, 4e-201, 1.0, -1.0])
        out = project_dual_tv(v, 1e-200, 2)
        _assert_same_bits(out, _hypot_projection(v, 1e-200, 2))
        np.testing.assert_allclose(out[[0, 2]], [0.6e-200, 0.8e-200],
                                   rtol=1e-15)
        np.testing.assert_array_equal(out[[1, 3]], v[[1, 3]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_do_not_mask_overflow(self, bad):
        # A NaN norm makes the maximum NaN, not inf: the guard must still
        # catch the overflowing pair.
        v = np.array([bad, 3e200, 0.2, 0.0, 4e200, 0.1, -1.0, 0.0, 1.0])
        with warnings.catch_warnings(), np.errstate(invalid="ignore"):
            warnings.filterwarnings("error", "overflow")
            out = project_dual_tv(v, 1.0, 3)
            want = _hypot_projection(v, 1.0, 3)  # 0 * inf is NaN on both sides
        np.testing.assert_array_equal(out, want)
        np.testing.assert_allclose(out[[1, 4]], [0.6, 0.8], rtol=1e-15)


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
        assert cert.h_primal - cert.psi_dual <= 1e-8

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
        assert cert.h_primal - cert.psi_dual == 0.0
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


# ---------------------------------------------------------------------------
# Bit-identity oracle: the dual loop as it ran on the interleaved layout
# ``[dv_0, dh_0, dv_1, dh_1, ...; q]`` with a stacked operator, before the
# planar fused loop.  The fused loop must reproduce it bit for bit.


def _old_differences(x, shape):
    h, w = shape
    u = np.asarray(x, dtype=float).reshape(h, w)
    dv = np.zeros((h, w))
    dh = np.zeros((h, w))
    dv[:-1, :] = u[1:, :] - u[:-1, :]
    dh[:, :-1] = u[:, 1:] - u[:, :-1]
    return dv, dh


def _old_apply(x, shape):
    dv, dh = _old_differences(x, shape)
    out = np.empty(2 * dv.size)
    out[0::2] = dv.ravel()
    out[1::2] = dh.ravel()
    return np.concatenate([out, np.asarray(x, dtype=float)])


def _old_adjoint(p, shape):
    h, w = shape
    n = h * w
    fd_part, id_part = np.split(np.asarray(p, dtype=float), [2 * n])
    pv = fd_part[0::2].reshape(h, w)
    ph = fd_part[1::2].reshape(h, w)
    out = np.zeros((h, w))
    out[:-1, :] -= pv[:-1, :]
    out[1:, :] += pv[:-1, :]
    out[:, :-1] -= ph[:, :-1]
    out[:, 1:] += ph[:, :-1]
    out = out.ravel()
    return out + id_part


def _old_project(v, rho, n):
    out = np.asarray(v, dtype=float).copy()
    pairs = out[: 2 * n].reshape(n, 2)
    norms = np.sqrt(pairs[:, 0] * pairs[:, 0] + pairs[:, 1] * pairs[:, 1])
    pairs *= np.divide(rho, norms, out=np.ones_like(norms), where=norms > rho)[:, None]
    np.minimum(out[2 * n :], 0.0, out=out[2 * n :])
    return out


def _old_norm_sq_bound(shape):
    rng = np.random.default_rng(0)
    v = rng.standard_normal(shape[0] * shape[1])
    v /= np.linalg.norm(v)
    est = 0.0
    for _ in range(50):
        w = _old_adjoint(_old_apply(v, shape), shape)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            break
        est = nw
        v = w / nw
    return 1.05 * est


def _old_dual_tv(shape, rho, v_prev, inner_limit, x, grad, f1_x, alpha, d,
                 gamma, tau, gap_tol):
    """Returns ``(y, v, h1, psi, hg, ell)``, or ``("gap", last_gap)``."""
    n = shape[0] * shape[1]
    z = x - alpha * grad / d
    base = (-f1_x - 0.5 * alpha * float(np.dot(grad / d, grad))
            + 0.5 / alpha * float(np.dot(d * z, z)))
    step = d.min() / (alpha * _old_norm_sq_bound(shape))
    eta = 1.0 / (1.0 + 0.5 * tau)

    def accepted(h1, psi):
        if gap_tol is not None:
            return h1 - psi <= gap_tol
        return h1 <= eta * psi + 1e-14 * (1.0 + abs(psi))

    v = np.zeros(3 * n) if v_prev is None else _old_project(v_prev, rho, n)
    a = 2.1
    v_old = v
    for ell in range(inner_limit + 1):
        if ell > 0:
            t_cur = (ell + a - 1.0) / a
            t_next = (ell + a) / a
            beta = (t_cur - 1.0) / t_next
            u = v + beta * (v - v_old)
            atu = _old_adjoint(u, shape)
            grad_psi = _old_apply(z - alpha * atu / d, shape)
            v_old, v = v, _old_project(u + step * grad_psi, rho, n)
        atv = _old_adjoint(v, shape)
        y = np.maximum(z - alpha * atv / d, 0.0)
        dy = y - x
        quad = 0.5 / alpha * float(np.dot(d * dy, dy))
        lin = float(np.dot(grad, dy))
        f1_y = rho * float(np.hypot(*_old_differences(y, shape)).sum())
        h1 = lin + quad + f1_y - f1_x
        hg = lin + gamma * quad + f1_y - f1_x
        w = alpha * atv / d - z
        psi = -0.5 / alpha * float(np.dot(d * w, w)) + base
        if accepted(h1, psi):
            return y, v, h1, psi, hg, ell
    return "gap", h1 - psi


def _planar(v_old_layout, n):
    return np.concatenate([v_old_layout[0 : 2 * n : 2],
                           v_old_layout[1 : 2 * n : 2], v_old_layout[2 * n :]])


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def _assert_same_bits(a, b):
    np.testing.assert_array_equal(_bits(a), _bits(b))


def _assert_matches_old_loop(prox, v_prev, x, grad, alpha, metric, gamma, tau,
                             gap_tol):
    reg = prox.reg
    f1_x = reg.f1(x)
    old = _old_dual_tv(reg.shape, reg.rho, v_prev, prox.inner_limit, x, grad,
                       f1_x, alpha, metric.diag, gamma, tau, gap_tol)
    if isinstance(old[0], str):
        with pytest.raises(InexactProxError) as ei:
            prox.solve(x, grad, f1_x, alpha, metric, gamma, tau, gap_tol=gap_tol)
        _assert_same_bits(ei.value.last_gap, old[1])
        return None
    cert = prox.solve(x, grad, f1_x, alpha, metric, gamma, tau, gap_tol=gap_tol)
    y, v, h1, psi, hg, ell = old
    _assert_same_bits(cert.y_tilde, y)
    _assert_same_bits(cert.dual_v, _planar(v, reg.n))
    for new_value, old_value in ((cert.h_primal, h1), (cert.psi_dual, psi),
                                 (cert.h_gamma, hg)):
        _assert_same_bits(new_value, old_value)
    assert cert.inner_iters == ell
    assert cert.f1_tilde == reg.f1(y)
    return v


@st.composite
def _dual_instances(draw):
    h = draw(st.integers(1, 12))
    w = draw(st.integers(1, 12))
    rho = draw(st.sampled_from([0.0, 0.01, 0.2, 1.5]))
    seed = draw(st.integers(0, 2**32 - 1))
    alpha = draw(st.sampled_from([1e-3, 0.05, 0.5, 3.0, 80.0]))
    spread = draw(st.sampled_from([0.0, 1.0, 4.0]))  # decades of metric range
    gap_tol = draw(st.sampled_from([None, None, 1e-2, 1e-6]))
    tau = draw(st.sampled_from([1e6 - 1, 1.0]))
    return (h, w), rho, seed, alpha, spread, gap_tol, tau


@settings(max_examples=60, deadline=None)
@given(_dual_instances())
def test_fused_loop_matches_interleaved_loop_bitwise(instance):
    shape, rho, seed, alpha, spread, gap_tol, tau = instance
    n = shape[0] * shape[1]
    rng = np.random.default_rng(seed)
    reg = TVNonnegRegularizer(shape, rho)
    _assert_same_bits(reg.norm_A_sq, _old_norm_sq_bound(shape))
    metric = DiagonalMetric.from_inverse_diag(
        10.0 ** rng.uniform(-spread, spread, n), 1e10)
    prox = DualTVProx(reg, inner_limit=2000, warm_start=True)
    x = rng.random(n)
    v_prev = None
    # two consecutive calls: the second one starts from the first's dual vector
    for _ in range(2):
        grad = rng.standard_normal(n)
        v_prev = _assert_matches_old_loop(prox, v_prev, x, grad, alpha, metric,
                                          1.0, tau, gap_tol)
        if v_prev is None:
            break
        x = np.maximum(x - 0.1 * grad, 0.0)


def test_exhausted_budget_reports_exact_last_gap():
    for seed in range(6):
        reg, x, grad, alpha, metric = _random_instance(40 + seed, shape=(5, 4))
        f1_x = reg.f1(x)
        old = _old_dual_tv(reg.shape, reg.rho, None, 1, x, grad, f1_x, alpha,
                           metric.diag, 1.0, 1e6 - 1, 1e-30)
        assert old[0] == "gap"
        prox = DualTVProx(reg, inner_limit=1, warm_start=False)
        with pytest.raises(InexactProxError) as ei:
            prox.solve(x, grad, f1_x, alpha, metric, 1.0, 1e6 - 1, gap_tol=1e-30)
        _assert_same_bits(ei.value.last_gap, old[1])
        assert f"{old[1]:.3e}" in str(ei.value)


def _recording(fn, written, arg):
    """``fn`` with the array it writes (argument ``arg``) appended to
    ``written`` at each call."""
    def wrapper(*args):
        written.append(args[arg] if len(args) > arg else None)
        return fn(*args)
    return wrapper


def test_certificates_share_no_memory_with_later_calls(monkeypatch):
    written = []
    monkeypatch.setattr(TVNonnegRegularizer, "apply",
                        _recording(TVNonnegRegularizer.apply, written, 2))
    monkeypatch.setattr(TVNonnegRegularizer, "adjoint",
                        _recording(TVNonnegRegularizer.adjoint, written, 2))
    monkeypatch.setattr(ForwardDifference2D, "apply",
                        _recording(ForwardDifference2D.apply, written, 2))
    monkeypatch.setattr(prox_module, "_project_dual_tv_in_place",
                        _recording(prox_module._project_dual_tv_in_place,
                                   written, 0))
    reg, x, grad, alpha, metric = _random_instance(50, shape=(4, 5))
    x2 = np.maximum(x - 0.1 * grad, 0.0)
    residues = set()
    # 9, 25 and 26 iterations: the first dual vector is, in turn, each of
    # the loop's three rotating buffers
    for gap_tol in (1e-2, 1e-3, 1e-4):
        prox = DualTVProx(reg, warm_start=True)
        first = prox.solve(x, grad, reg.f1(x), alpha, metric, 1.0, 1e6 - 1,
                           gap_tol=gap_tol)
        residues.add(first.inner_iters % 3)
        kept = [first.y_tilde, first.dual_v]
        saved = [a.copy() for a in kept]
        written.clear()

        second = prox.solve(x2, -grad, reg.f1(x2), alpha, metric, 1.0,
                            1e6 - 1, gap_tol=1e-8)
        assert second.inner_iters > 0
        prox.inner_limit = 1
        with pytest.raises(InexactProxError):
            prox.solve(x, grad, reg.f1(x), alpha, metric, 1.0, 1e6 - 1,
                       gap_tol=1e-30)

        later = [a for a in written if a is not None]
        later += [second.y_tilde, second.dual_v]
        assert len(later) > 10
        for array, copy in zip(kept, saved):
            _assert_same_bits(array, copy)
            assert not any(np.shares_memory(array, b) for b in later)
    assert residues == {0, 1, 2}


def test_operators_and_proxes_keep_no_per_call_arrays():
    shape = (5, 6)
    n = 30
    rng = np.random.default_rng(3)
    x, p = rng.random(n), rng.standard_normal(3 * n)
    reg = TVNonnegRegularizer(shape, 0.2)
    operators = [ConvOperator2D(gaussian_psf(3, 1.0), shape),
                 ForwardDifference2D(shape), Laplacian2D(shape), reg]
    proxes = [DualTVProx(reg, warm_start=False), DualTVProx(reg), BoxProx(0.0, 1.0)]

    def arrays(obj, path="", seen=None):
        # every ndarray reachable through attributes and containers
        seen = set() if seen is None else seen
        if isinstance(obj, np.ndarray):
            return {path: obj}
        if id(obj) in seen:
            return {}
        seen.add(id(obj))
        if isinstance(obj, dict):
            items = obj.items()
        elif isinstance(obj, (list, tuple)):
            items = enumerate(obj)
        elif hasattr(obj, "__dict__"):
            items = vars(obj).items()
        else:
            return {}
        found = {}
        for key, value in items:
            found.update(arrays(value, f"{path}.{key}", seen))
        return found

    before = {id(o): arrays(o) for o in operators + proxes}
    for op in operators:
        for _ in range(2):
            op.apply(x if op.n_in == n else p[: op.n_in])
            op.adjoint(p[: op.n_out])
    metric = DiagonalMetric.identity(n, 10.0)
    for prox in proxes:
        for _ in range(2):
            prox.solve(x, p[:n], prox.f1(x), 0.5, metric, 1.0, 1e6 - 1)
    for obj in operators + proxes:
        after = arrays(obj)
        if isinstance(obj, DualTVProx) and obj.warm_start:
            after.pop("._v_prev")  # the warm start, by design
        assert after.keys() == before[id(obj)].keys()
        assert all(after[k] is before[id(obj)][k] for k in after)


class TestMeritLowerBound:
    """The screen that spares the exact TV sum of rejected candidates."""

    @pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e-155, 1e-8, 1.0,
                                       1e100, 1e150, 1e154, 1e160])
    def test_never_above_the_exact_value(self, scale):
        rng = np.random.default_rng(abs(int(np.log10(scale))))
        shape = (13, 11)
        work = np.empty((2, *shape))
        for trial in range(40):
            dv, dh = scale * rng.standard_normal((2, *shape))
            dv[rng.random(shape) < 0.2] = 0.0
            rho = float(rng.choice([0.0, 1e-3, 1.0, 7.0]))
            f1 = rho * float(np.hypot(dv, dh).sum())
            # lin + quad close to cancelling the TV change, as near acceptance
            f1_x = f1 * rng.uniform(0.0, 2.0)
            quad = abs(rng.standard_normal()) * max(f1, 1e-300)
            lin = f1_x - f1 - quad + rng.standard_normal() * 1e-15 * max(f1, 1e-300)
            exact = lin + quad + f1 - f1_x
            low = _merit_lower_bound(lin, quad, dv, dh, rho, f1_x, work)
            assert not np.isfinite(low) or low <= exact
            if np.isfinite(low) and scale >= 1e-150:
                # and tight enough to reject candidates clearly above the line
                assert exact - low <= 1e-11 * (abs(lin) + quad + f1 + f1_x) + 1e-140

    def test_overflowing_squares_disable_the_screen(self):
        dv = np.full((3, 3), 1e160)
        dh = np.full((3, 3), -2e160)
        low = _merit_lower_bound(0.0, 0.0, dv, dh, 1.0, 0.0, np.empty((2, 3, 3)))
        assert not np.isfinite(low)

    def test_underflowing_squares_still_bound_from_below(self):
        # squares of 1e-170 are 0 in double precision, hypot is not
        dv = np.full((4, 4), 1e-170)
        dh = np.full((4, 4), 3e-170)
        f1 = float(np.hypot(dv, dh).sum())
        low = _merit_lower_bound(0.0, 0.0, dv, dh, 1.0, 0.0, np.empty((2, 4, 4)))
        assert low <= f1

    def test_rejects_exactly_what_the_exact_test_rejects_at_extremes(self):
        # Differences near 1e-160 have underflowing squares.  Beyond 1e150
        # the dual value itself overflows, so that is the largest scale.
        for scale in (1e-160, 1e150):
            reg, x, grad, alpha, metric = _random_instance(77, shape=(4, 5),
                                                           rho=0.3)
            x, grad = scale * x, scale * grad
            _assert_matches_old_loop(DualTVProx(reg, warm_start=False), None,
                                     x, grad, alpha, metric, 1.0, 1e6 - 1, None)


class TestNormBoundTable:
    """``norm_A_sq`` is computed once per grid shape and reused bit for bit."""

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (5, 9), (32, 32)])
    def test_table_value_is_a_fresh_bound(self, shape, monkeypatch):
        monkeypatch.setattr(prox_module, "_NORM_A_SQ", {})
        first = TVNonnegRegularizer(shape, 0.3)  # fills the table
        again = TVNonnegRegularizer(shape, 2.0)  # reads it
        fresh = again.norm_sq_bound()
        _assert_same_bits(first.norm_A_sq, fresh)
        _assert_same_bits(again.norm_A_sq, fresh)
        _assert_same_bits(fresh, _old_norm_sq_bound(shape))
        assert list(prox_module._NORM_A_SQ) == [shape]

    def test_eight_same_shape_problems_run_one_power_iteration(self, monkeypatch):
        monkeypatch.setattr(prox_module, "_NORM_A_SQ", {})
        calls = []
        bound = TVNonnegRegularizer.norm_sq_bound

        def counted(self):
            calls.append(self.shape)
            return bound(self)

        monkeypatch.setattr(TVNonnegRegularizer, "norm_sq_bound", counted)
        shape = (32, 32)
        H = ConvOperator2D(gaussian_psf(9, 1.0), shape)
        truth = cartoon_image(shape)
        norms = set()
        for seed in range(8):
            g = np.clip(degrade_synthetic(truth, H, "cauchy", seed=seed), 0.0, 1.0)
            norms.add(CauchyDeblurProblem(H, g, shape).prox.reg.norm_A_sq)
        assert calls == [shape]
        assert len(norms) == 1


@pytest.mark.parametrize("rho", [-1.0, np.nan, np.inf])
def test_regularizer_rejects_a_weight_outside_zero_to_inf(rho):
    with pytest.raises(ValueError, match="^rho must be nonnegative and finite$"):
        TVNonnegRegularizer((2, 2), rho)
