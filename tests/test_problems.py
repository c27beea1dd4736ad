import inspect

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

from vmprox.diagnostics import fd_gradient_check
from vmprox.operators import ConvOperator2D, gaussian_psf
from vmprox.problems import (
    CauchyDeblurProblem,
    DomainError,
    LinearSolveError,
    MaskCompressionProblem,
    SignalDependentGaussianProblem,
    Toy1DBoxProblem,
    cartoon_image,
    degrade_synthetic,
    smooth_image,
)


class IdentityOperator:
    """The identity map on a ``shape`` grid, as the blur of hand-checkable
    problems."""

    def __init__(self, shape):
        self.shape = shape
        self.n_in = self.n_out = shape[0] * shape[1]

    def apply(self, x):
        return np.array(x, dtype=float)

    adjoint = apply


def _deconv_setup(seed=11, shape=(8, 8), model="gaussian_sd"):
    H = ConvOperator2D(gaussian_psf(7, 1.0), shape)
    truth = cartoon_image(shape)
    g = degrade_synthetic(truth, H, model, seed=seed)
    return H, truth, g


class TestSignalDependentGaussian:
    def test_scalar_hand_value(self):
        p = SignalDependentGaussianProblem(
            IdentityOperator((1, 1)), np.array([0.0]), (1, 1), a=1.0, b=1.0, rho=0.0
        )
        assert p.f0(np.array([1.0])) == pytest.approx(
            0.5 * (0.5 + np.log(2.0)), rel=1e-15
        )

    def test_zero_residual_zero_gradient(self):
        # With a = 0, b = 1 the misfit is a plain least-squares term.
        shape = (4, 4)
        H = ConvOperator2D(gaussian_psf(3, 1.0), shape)
        x = np.abs(cartoon_image(shape))
        g = H.apply(x)
        p = SignalDependentGaussianProblem(H, g, shape, a=0.0, b=1.0, rho=0.0)
        assert p.f0(x) == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(p.grad_f0(x), 0.0, atol=1e-14)

    def test_fd_gradient(self):
        H, truth, g = _deconv_setup()
        p = SignalDependentGaussianProblem(H, g, (8, 8), rho=0.03)
        rng = np.random.default_rng(1)
        for trial in range(3):
            x = rng.random(64) + 0.05
            assert fd_gradient_check(p.f0, p.grad_f0, x, h=1e-6, trials=10,
                                     seed=trial) <= 1e-6

    def test_domain_guard(self):
        p = SignalDependentGaussianProblem(
            IdentityOperator((1, 1)), np.array([0.0]), (1, 1), a=1.0, b=0.5, rho=0.0
        )
        with pytest.raises(DomainError):
            p.f0(np.array([-2.0]))

    def test_parameter_validation(self):
        for a in (-1.0, -np.inf, np.inf, np.nan):
            with pytest.raises(ValueError, match="^a must be nonnegative and finite$"):
                SignalDependentGaussianProblem(
                    IdentityOperator((1, 1)), np.zeros(1), (1, 1), a=a
                )
        for b in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="^b must be positive and finite$"):
                SignalDependentGaussianProblem(
                    IdentityOperator((1, 1)), np.zeros(1), (1, 1), b=b
                )

    @pytest.mark.parametrize("name", ["g", "a", "b"])
    def test_non_finite_data_rejected(self, name):
        # Data synthesized with a non-finite ``a`` or ``b`` is non-finite
        # too, so ``g`` is as well, and the message names the parameter.
        data = {"g": np.array([np.inf, 0.0]), "a": 1.0, "b": 1.0}
        if name == "g":
            data["g"][1] = np.nan
        else:
            data[name] = np.nan
        with pytest.raises(ValueError,
                           match=f"^{name} (has non-finite|must be .* finite$)"):
            SignalDependentGaussianProblem(
                IdentityOperator((1, 2)), data["g"], (1, 2), a=data["a"], b=data["b"]
            )

    def test_finite_on_nonneg_orthant(self):
        H, truth, g = _deconv_setup()
        p = SignalDependentGaussianProblem(H, g, (8, 8))
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = rng.random(64) * 3
            assert np.isfinite(p.f0(x))
            assert np.all(np.isfinite(p.grad_f0(x)))

    def test_scalar_noise_matches_per_pixel_arrays_bitwise(self):
        # The reference is the model as it was when it stored ``a`` and
        # ``b`` as per-pixel arrays; Python's float power rounds unlike
        # numpy's array power in about 5% of these draws.
        shape = (4, 4)
        H = ConvOperator2D(gaussian_psf(3, 1.0), shape)
        truth = cartoon_image(shape)
        rng = np.random.default_rng(3)
        for seed in range(60):
            a, b = 10.0 ** rng.uniform(-6.0, 4.0, 2)
            g = degrade_synthetic(truth, H, "gaussian_sd", seed, a=a, b=b)
            p = SignalDependentGaussianProblem(H, g, shape, a=a, b=b)
            x = rng.uniform(0.0, 2.0, 16)
            t = H.apply(x)
            A, B = np.full(16, a), np.full(16, b)
            t0 = H.apply(truth)
            ref_g = t0 + np.sqrt(np.maximum(A * t0 + B, 0.0)) * (
                np.random.default_rng(seed).standard_normal(16))
            c, r = A * t + B, t - g
            s = t * (A * (t + g) + 2.0 * B) / (2.0 * c * c) + 0.5 * A / c
            bound = np.maximum((A * g + B) ** 2 / B**3, 0.5 * A**2 / B**2)
            assert g.tobytes() == ref_g.tobytes()
            assert p.f0(x) == 0.5 * float(np.sum(r * r / c + np.log(c)))
            assert p.grad_f0(x).tobytes() == H.adjoint(
                r / c - 0.5 * A * r * r / (c * c) + 0.5 * A / c).tobytes()
            assert p.split_gradient_metric(x).tobytes() == (
                x / (H.adjoint(s) + np.finfo(float).eps)).tobytes()
            assert p.curvature_bound() == float(np.max(bound))


class TestCauchy:
    def test_scalar_hand_values(self):
        p = CauchyDeblurProblem(IdentityOperator((1, 1)), np.array([0.0]), (1, 1),
                                gamma_noise=1.0, lambda_reg=2.0)
        assert p.f0(np.array([1.0])) == pytest.approx(np.log(2.0), rel=1e-15)
        assert p.grad_f0(np.array([1.0]))[0] == pytest.approx(1.0, rel=1e-15)

    def test_zero_residual(self):
        shape = (4, 4)
        H = ConvOperator2D(gaussian_psf(3, 1.0), shape)
        x = cartoon_image(shape)
        g = H.apply(x)
        p = CauchyDeblurProblem(H, g, shape, gamma_noise=0.02, lambda_reg=0.35)
        n = 16
        assert p.f0(x) == pytest.approx(
            0.5 * 0.35 * n * np.log(0.02**2), rel=1e-12
        )
        np.testing.assert_allclose(p.grad_f0(x), 0.0, atol=1e-14)

    def test_fd_gradient(self):
        H, truth, g = _deconv_setup(model="cauchy")
        p = CauchyDeblurProblem(H, g, (8, 8))
        rng = np.random.default_rng(2)
        for trial in range(3):
            x = rng.random(64)
            assert fd_gradient_check(p.f0, p.grad_f0, x, h=1e-6, trials=10,
                                     seed=trial) <= 1e-6

    def test_non_finite_observation_rejected(self):
        H, _, g = _deconv_setup(model="cauchy")
        g[5] = np.nan
        with pytest.raises(ValueError, match="^g has non-finite"):
            CauchyDeblurProblem(H, g, (8, 8))

    @pytest.mark.parametrize("lam", [-1.0, 0.0, float("nan")])
    def test_nonpositive_weight_rejected(self, lam):
        H, _, g = _deconv_setup(model="cauchy")
        with pytest.raises(ValueError, match="^lambda_reg must be positive"):
            CauchyDeblurProblem(H, g, (8, 8), lambda_reg=lam)

    def test_infinite_weight_rejected(self):
        H, _, g = _deconv_setup(model="cauchy")
        with pytest.raises(ValueError, match="^lambda_reg must be finite$"):
            CauchyDeblurProblem(H, g, (8, 8), lambda_reg=np.inf)

    def test_infinite_scale_rejected(self):
        H, _, g = _deconv_setup(model="cauchy")
        with pytest.raises(ValueError,
                           match="^gamma_noise must be positive and finite$"):
            CauchyDeblurProblem(H, g, (8, 8), gamma_noise=np.inf)

    def test_curvature_bound_dominates_samples(self):
        p = CauchyDeblurProblem(IdentityOperator((1, 1)), np.array([0.3]), (1, 1),
                                gamma_noise=0.5, lambda_reg=0.7)
        bound = p.curvature_bound()
        assert bound == pytest.approx(0.7 / 0.25)
        # sampled second derivative of the scalar misfit
        for t in np.linspace(-3, 3, 61):
            h = 1e-5
            x0, xp, xm = (np.array([v]) for v in (t, t + h, t - h))
            num = (p.f0(xp) - 2 * p.f0(x0) + p.f0(xm)) / h**2
            assert abs(num) <= bound * (1 + 1e-4) + 1e-6


class TestCompression:
    def test_all_ones_mask(self):
        shape = (6, 6)
        p = MaskCompressionProblem(smooth_image(shape), shape, lambda_reg=0.01)
        c = np.ones(36)
        assert p.f0(c) == pytest.approx(0.01 * 36, rel=1e-12)
        u = p.reconstruction(c)
        np.testing.assert_allclose(u, p.u0, atol=1e-12)

    def test_forward_map_consistency(self):
        shape = (6, 6)
        p = MaskCompressionProblem(smooth_image(shape), shape)
        rng = np.random.default_rng(3)
        c = rng.uniform(0.1, 1.4, 36)
        u = p.reconstruction(c)
        A, _, _ = p._system(c)
        rhs = c * p.u0
        resid = np.linalg.norm(A @ u - rhs)
        assert resid <= 1e-9 * max(1.0, np.linalg.norm(rhs))

    def test_fd_gradient(self):
        shape = (6, 6)
        p = MaskCompressionProblem(smooth_image(shape), shape, lambda_reg=0.01)
        rng = np.random.default_rng(4)
        for trial in range(3):
            c = rng.uniform(0.2, 1.3, 36)
            assert fd_gradient_check(p.f0, p.grad_f0, c, h=1e-6, trials=10,
                                     seed=trial) <= 1e-5

    def test_data_term_zero_whenever_reconstruction_matches(self):
        shape = (5, 5)
        for lam in (0.0, 0.3):
            p = MaskCompressionProblem(smooth_image(shape), shape,
                                       lambda_reg=lam)
            c = np.ones(25)
            assert p.f0(c) == pytest.approx(lam * 25, abs=1e-12)

    def test_zero_mask_is_consistent(self):
        # c = 0 makes the system singular but homogeneous; the factorization
        # returns the zero solution with zero residual.
        shape = (4, 4)
        p = MaskCompressionProblem(smooth_image(shape), shape)
        u = p.reconstruction(np.zeros(16))
        np.testing.assert_array_equal(u, 0.0)

    def test_residual_monitor_trips(self, monkeypatch):
        shape = (4, 4)
        p = MaskCompressionProblem(smooth_image(shape), shape)
        monkeypatch.setattr(p, "solve_rtol", 0.0)
        with pytest.raises(LinearSolveError) as ei:
            p.f0(np.full(16, 0.5))
        assert ei.value.residual > 0.0

    def test_non_finite_image_rejected(self):
        u0 = smooth_image((2, 2))
        u0[0] = np.inf
        with pytest.raises(ValueError, match="^u0 has non-finite"):
            MaskCompressionProblem(u0, (2, 2))

    @pytest.mark.parametrize("upper", [-1.0, 0.0])
    def test_nonpositive_box_upper_rejected(self, upper):
        with pytest.raises(ValueError, match="^box_upper must be positive"):
            MaskCompressionProblem(smooth_image((2, 2)), (2, 2), box_upper=upper)

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_rejected(self, lam):
        with pytest.raises(ValueError, match="^lambda_reg must be finite"):
            MaskCompressionProblem(smooth_image((2, 2)), (2, 2), lambda_reg=lam)

    @pytest.mark.parametrize("shape", [(1, 8), (8, 1), (1, 1)],
                             ids=lambda shape: "%dx%d" % shape)
    def test_thin_grid_matches_the_dense_definition(self, shape):
        # A(c) = C + (C - I) L with L = -D^T D, D the forward differences
        # of the neighbour pairs of the grid, built densely here.
        h, w = shape
        n = h * w
        D = np.zeros((0, n))
        for r in range(h):
            for col in range(w):
                for nr, nc in ((r + 1, col), (r, col + 1)):
                    if nr < h and nc < w:
                        row = np.zeros((1, n))
                        row[0, r * w + col], row[0, nr * w + nc] = -1.0, 1.0
                        D = np.vstack([D, row])
        L = -D.T @ D
        u0 = np.random.default_rng(n).uniform(0.0, 1.0, n)
        p = MaskCompressionProblem(u0, shape, lambda_reg=0.01)
        for c in (np.full(n, 0.5), np.random.default_rng(1).uniform(0.2, 1.3, n)):
            A = np.diag(c) + (np.diag(c) - np.eye(n)) @ L
            u = np.linalg.solve(A, c * u0)
            f0 = 0.5 * np.sum((u - u0) ** 2) + 0.01 * c.sum()
            grad = -np.linalg.solve(A.T, u - u0) * (u + L @ u - u0) + 0.01
            assert p.f0(c) == pytest.approx(f0, rel=1e-10)
            np.testing.assert_allclose(p.grad_f0(c), grad, rtol=1e-10,
                                       atol=1e-14)

    def test_active_mask_rule(self):
        p = MaskCompressionProblem(smooth_image((2, 2)), (2, 2))
        c = np.array([0.0, 0.7, 1.5, 1.2])
        np.testing.assert_array_equal(p.active_mask(c),
                                      [True, False, True, False])


@pytest.mark.parametrize("cls", [SignalDependentGaussianProblem,
                                 CauchyDeblurProblem])
def test_blur_grid_must_match_the_image_grid(cls):
    H = ConvOperator2D(gaussian_psf(7, 1.0), (32, 32))
    with pytest.raises(ValueError,
                       match=r"^blur grid \(32, 32\) differs from image grid \(16, 64\)"):
        cls(H, np.full(1024, 0.5), (16, 64))


@pytest.mark.parametrize("kind", ["gaussian_sd", "cauchy", "compression",
                                  "toy1d"])
def test_active_mask_is_the_rule_each_kind_stated(kind):
    """The prox's active set matches the rule each problem class restated
    before delegating: zero for the deblurring models, either bound of the
    box for the others."""
    x = np.array([0.0, -0.0, 0.3, 1.5, 10.0, 2.0, 5e-324, 1e-300])
    shape = (2, 4)
    if kind == "toy1d":
        problem, rule = Toy1DBoxProblem(), (x == 0.0) | (x == 10.0)
    elif kind == "compression":
        problem = MaskCompressionProblem(smooth_image(shape), shape)
        rule = (x == 0.0) | (x == 1.5)
    else:
        cls = {"gaussian_sd": SignalDependentGaussianProblem,
               "cauchy": CauchyDeblurProblem}[kind]
        problem, rule = cls(IdentityOperator(shape), np.ones(8), shape), x == 0.0
    np.testing.assert_array_equal(problem.active_mask(x), rule)
    np.testing.assert_array_equal(problem.active_mask(list(x)), rule)


def _old_system(p, c):
    """``MaskCompressionProblem._system`` as it was before the assembly on
    the fixed pattern and the reused column orders: a fresh COLAMD
    factorization of ``diags(c) + diags(c - 1) @ L`` for every mask."""
    A = (scipy.sparse.diags(c) + scipy.sparse.diags(c - 1.0) @ p.L).tocsc()
    lu = scipy.sparse.linalg.splu(A)
    rhs = c * p.u0
    u = lu.solve(rhs)
    if np.linalg.norm(A @ u - rhs) > p.solve_rtol * max(1.0, np.linalg.norm(rhs)):
        u = u + lu.solve(rhs - A @ u)
    return A, lu, u


def _edge_mask(shape):
    h, w = shape
    edge = np.zeros(shape, dtype=bool)
    edge[[0, -1], :] = edge[:, [0, -1]] = True
    return edge.ravel()


class TestCompressionBitIdentity:
    """Assembly on the fixed pattern and the per-pattern column order give
    the same matrices, solutions, values and gradients, bit for bit, as a
    fresh ``splu`` of the scipy-assembled matrix."""

    @staticmethod
    def _masks(shape, rng):
        n = shape[0] * shape[1]
        edge = _edge_mask(shape)
        bases = []
        for exact in ((0.0, 1.0, 1.5), (1.5, 0.0)):
            c = rng.uniform(0.05, 1.45, n)
            pick = rng.random(n) < 0.4
            c[pick] = rng.choice(exact, pick.sum())
            c[edge & (rng.random(n) < 0.5)] = 1.5  # zero diagonal entries
            bases.append(c)
        bases.append(rng.choice([0.0, 1.0, 1.5], n))  # exact values only
        masks = []
        for t in range(12):
            c = bases[t % 2 if t < 8 else t % 3].copy()
            free = (c != 0.0) & (c != 1.0) & (c != 1.5)
            c[free] = rng.uniform(0.05, 1.45, free.sum())  # same zero pattern
            masks.append(c)
        return masks

    @staticmethod
    def _bits(a):
        return np.asarray(a, dtype=float).view(np.int64)

    @pytest.mark.parametrize("shape", [(6, 6), (5, 7), (12, 9)])
    def test_matches_fresh_factorization(self, shape):
        rng = np.random.default_rng(sum(shape))
        p = MaskCompressionProblem(smooth_image(shape), shape, lambda_reg=0.01)
        masks = self._masks(shape, rng)
        solved = 0
        for c in masks:
            try:
                A0, lu0, u0 = _old_system(p, c)
            except RuntimeError:  # exactly singular: both paths refuse it
                with pytest.raises(LinearSolveError, match="singular"):
                    p._system(c)
                continue
            solved += 1
            r = u0 - p.u0
            f0 = 0.5 * float(np.dot(r, r)) + p.lambda_reg * float(np.sum(c))
            w = lu0.solve(r, trans="T")
            g0 = -w * (u0 + p.L @ u0 - p.u0) + p.lambda_reg

            A, _, u = p._system(c)
            np.testing.assert_array_equal(A.indptr, A0.indptr)
            np.testing.assert_array_equal(A.indices, A0.indices)
            np.testing.assert_array_equal(self._bits(A.data), self._bits(A0.data))
            np.testing.assert_array_equal(self._bits(u), self._bits(u0))
            assert self._bits(p.f0(c)) == self._bits(f0)
            np.testing.assert_array_equal(self._bits(p.grad_f0(c)), self._bits(g0))
        # every mask was a new point; each zero pattern was ordered once and
        # the other masks of that pattern reused the order
        assert solved >= 8 and 2 <= len(p._orders) <= 3

    def test_reset_and_reconstruction_release_the_factor(self):
        shape = (6, 6)
        p = MaskCompressionProblem(smooth_image(shape), shape)
        c = np.full(36, 0.5)
        p.f0(c)
        assert p._cache is not None and p._orders
        p.reset()
        assert p._cache is None and not p._orders
        u = p.reconstruction(c)
        np.testing.assert_array_equal(u, _old_system(p, c)[2])
        assert p._cache is None and not p._orders


class TestToy1D:
    def test_values(self):
        p = Toy1DBoxProblem()
        assert p.f0(np.array([0.0])) == 2.0
        assert p.grad_f0(np.array([0.0]))[0] == -2.0
        assert p.f(np.array([11.0])) == np.inf
        with pytest.raises(DomainError):
            p.f0(np.array([-1.5]))


class TestDegradeSynthetic:
    def test_deterministic(self):
        H, truth, _ = _deconv_setup()
        g1 = degrade_synthetic(truth, H, "cauchy", seed=99)
        g2 = degrade_synthetic(truth, H, "cauchy", seed=99)
        np.testing.assert_array_equal(g1, g2)
        g3 = degrade_synthetic(truth, H, "cauchy", seed=100)
        assert np.any(g1 != g3)

    def test_zero_noise_path(self):
        H, truth, _ = _deconv_setup()
        g = degrade_synthetic(truth, H, "gaussian_sd", seed=1, a=0.0, b=0.0)
        np.testing.assert_array_equal(g, H.apply(truth))
        g = degrade_synthetic(truth, H, "cauchy", seed=1, gamma_noise=0.0)
        np.testing.assert_array_equal(g, H.apply(truth))

    def test_defaults_are_the_models_defaults(self):
        noise = {name: param.default for name, param
                 in inspect.signature(degrade_synthetic).parameters.items()
                 if param.kind is param.KEYWORD_ONLY}
        shared = set()
        for model in (SignalDependentGaussianProblem, CauchyDeblurProblem):
            params = inspect.signature(model).parameters
            for key in set(noise) & set(params):
                assert noise[key] == params[key].default, key
                shared.add(key)
        assert shared == set(noise) == {"a", "b", "gamma_noise"}

    def test_omitted_noise_is_the_models_defaults(self):
        H, truth, _ = _deconv_setup()
        gauss = inspect.signature(SignalDependentGaussianProblem).parameters
        cauchy = inspect.signature(CauchyDeblurProblem).parameters
        np.testing.assert_array_equal(
            degrade_synthetic(truth, H, "gaussian_sd", seed=4),
            degrade_synthetic(truth, H, "gaussian_sd", seed=4,
                              a=gauss["a"].default, b=gauss["b"].default))
        np.testing.assert_array_equal(
            degrade_synthetic(truth, H, "cauchy", seed=4),
            degrade_synthetic(truth, H, "cauchy", seed=4,
                              gamma_noise=cauchy["gamma_noise"].default))

    def test_unknown_model(self):
        H, truth, _ = _deconv_setup()
        with pytest.raises(ValueError):
            degrade_synthetic(truth, H, "poisson", seed=1)

    def test_cauchy_median_order_statistic(self):
        n = 1_000_000
        H = IdentityOperator((1, n))
        gamma = 0.02
        v = degrade_synthetic(np.zeros(n), H, "cauchy", seed=8,
                              gamma_noise=gamma)
        tol = 3.0 * gamma / np.sqrt(n) * np.pi / 2.0
        assert abs(np.median(v)) <= tol

    def test_cauchy_tail_mass(self):
        n = 1_000_000
        gamma = 0.02
        v = degrade_synthetic(np.zeros(n), IdentityOperator((1, n)), "cauchy",
                              seed=12, gamma_noise=gamma)
        frac = np.mean(np.abs(v) > 10 * gamma)
        expected = 1.0 - 2.0 / np.pi * np.arctan(10.0)
        assert abs(frac - expected) <= 0.01

    def test_gaussian_sd_mean_within_three_sigma(self):
        shape = (16, 16)
        H = ConvOperator2D(gaussian_psf(7, 1.0), shape)
        truth = cartoon_image(shape)
        t = H.apply(truth)
        g = degrade_synthetic(truth, H, "gaussian_sd", seed=21, a=1.0, b=1.0)
        n = truth.size
        sigma_mean = np.sqrt(np.sum(t + 1.0)) / n
        assert abs(g.mean() - t.mean()) <= 3.0 * sigma_mean


def test_synthetic_images_in_unit_range():
    for img in (cartoon_image((32, 32)), smooth_image((32, 32))):
        assert img.min() >= 0.0 and img.max() <= 1.0
        assert img.size == 1024
