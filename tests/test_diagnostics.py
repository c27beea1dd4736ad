import dataclasses

import numpy as np
import pytest

from vmprox.diagnostics import (
    AUDIT_NAMES,
    AuditReport,
    IncompleteTraceError,
    audit_trace,
    dense_prox_oracle,
    fd_gradient_check,
    iteration_flags,
    mse,
    psnr,
)
from vmprox.operators import ConvOperator2D, gaussian_psf
from vmprox.problems import (
    CauchyDeblurProblem,
    SignalDependentGaussianProblem,
    cartoon_image,
    degrade_synthetic,
)
from vmprox.prox import BoxProx, TVNonnegRegularizer, exact_prox_box
from vmprox.solver import SolverConfig, minimize
from vmprox.strategies import DiagonalMetric


def _clean_run(iters=200, shape=(8, 8), seed=13):
    H = ConvOperator2D(gaussian_psf(7, 1.0), shape)
    g = np.clip(degrade_synthetic(cartoon_image(shape), H, "cauchy",
                                  seed=seed), 0.0, 1.0)
    p = CauchyDeblurProblem(H, g, shape)
    cfg = SolverConfig(max_outer_iters=iters, stop_tol=0.0)
    res = minimize(p, cfg, np.maximum(g, 1e-3), metric="sg", steplength="bb")
    return res, cfg


def _stationary_run(shape, model, seed, metric, steplength, **config):
    """25 iterations on a cartoon scene under a 1x1 blur: the iterates come
    close enough to stationarity for the merit values to be rounding
    residue."""
    H = ConvOperator2D(gaussian_psf(1, 1.0), shape)
    g = np.clip(degrade_synthetic(cartoon_image(shape), H, model, seed=seed),
                0.0, 1.0)
    problem_cls = {"cauchy": CauchyDeblurProblem,
                   "gaussian_sd": SignalDependentGaussianProblem}[model]
    cfg = SolverConfig(max_outer_iters=25, stop_tol=0.0, **config)
    res = minimize(problem_cls(H, g, shape), cfg, np.maximum(g, 1e-3),
                   metric=metric, steplength=steplength)
    return res, cfg


class TestAuditTrace:
    def test_passing_run_has_zero_violations(self):
        res, cfg = _clean_run()
        report = audit_trace(res.trace, cfg)
        assert report.ok
        assert report.n_iterations == len(res.trace)
        assert report.total_violations == 0
        assert np.all(report.epsilon >= 0.0)
        assert 0 < report.lambda_min_observed <= 1.0
        assert report.a_empirical > 0.0

    def test_fault_injection_flags_expected_checks(self):
        res, cfg = _clean_run(iters=30)
        trace = list(res.trace)
        bad = dataclasses.replace(trace[10],
                                  f_next=trace[10].f_value + 1.0)
        trace[10] = bad
        report = audit_trace(trace, cfg)
        # Raising f at the produced iterate breaks the step-choice bound and
        # monotonicity at k = 10, nothing else.
        assert report.violation_counts["step_choice_descent"] == 1
        assert report.violation_counts["monotone_objective"] == 1
        assert report.total_violations == 2
        assert (10, "monotone_objective") in report.violations

    def test_empty_trace(self):
        report = audit_trace([], SolverConfig())
        assert report.n_iterations == 0
        assert report.total_violations == 0
        assert report.ok

    def test_incomplete_trace_raises(self):
        res, cfg = _clean_run(iters=3)
        broken = dataclasses.replace(res.trace[0], h_gamma=None)
        with pytest.raises(IncompleteTraceError):
            audit_trace([broken], cfg)

    def test_flags_match_audit(self):
        res, cfg = _clean_run(iters=25)
        full_mask = (1 << len(AUDIT_NAMES)) - 1
        for rec in res.trace:
            assert rec.flags == full_mask
            assert iteration_flags(rec, cfg) == full_mask

    def test_merit_residue_bounds_no_prox_distance(self):
        # A positive rounding residue in h_gamma (4.8e-15 at k = 17) is
        # audit 1's to judge; audit 2 must not turn it into a negative
        # bound on the squared prox distance.
        res, cfg = _stationary_run((4, 4), "gaussian_sd", 1, "identity", "bb",
                                   mu=100.0, tau=1.0)
        assert max(r.h_gamma for r in res.trace) > 0.0
        assert audit_trace(res.trace, cfg).ok

    def test_merit_accepted_by_solver_passes_audit(self):
        # The solver accepts h_gamma = +1.84e-10 at f = -72.98 (k = 19),
        # above the absolute 1e-10 slack; its own audit must accept it too.
        res, cfg = _stationary_run((5, 13), "cauchy", 26012, "sg", "ritz",
                                   mu=1e3, tau=10**-0.375, gamma=0.0)
        assert max(r.h_gamma for r in res.trace) > 1e-10
        assert audit_trace(res.trace, cfg).ok

    def test_report_serializable(self):
        res, cfg = _clean_run(iters=5)
        d = audit_trace(res.trace, cfg).to_dict()
        assert d["ok"] is True
        assert set(d["violation_counts"]) == set(AUDIT_NAMES)


class TestQualityMetrics:
    def test_mse_hand_value(self):
        assert mse([0.0, 1.0], [0.0, 0.9]) == pytest.approx(0.005, rel=1e-12)

    def test_psnr_hand_value(self):
        val = psnr(np.array([0.0, 1.0]), np.array([0.0, 0.9]))
        assert val == pytest.approx(10.0 * np.log10(200.0), rel=1e-12)

    def test_identical_arguments(self):
        x = np.array([0.2, 0.4])
        assert psnr(x, x) == np.inf
        assert mse(x, x) == 0.0

    def test_constant_reconstruction_rejected(self):
        with pytest.raises(ValueError):
            psnr(np.ones(4), np.zeros(4))

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            mse(np.ones(3), np.ones(4))


class TestFDGradientCheck:
    def test_quadratic_is_tiny(self):
        # Central differences are exact for quadratics, so a moderately
        # large h leaves only roundoff.
        f = lambda x: 0.5 * float(np.dot(x, x))
        g = lambda x: x
        x = np.random.default_rng(0).standard_normal(12)
        assert fd_gradient_check(f, g, x, h=1e-4, trials=12) <= 1e-10

    def test_detects_wrong_gradient(self):
        f = lambda x: 0.5 * float(np.dot(x, x))
        g = lambda x: 1.01 * x
        x = np.ones(4)
        assert fd_gradient_check(f, g, x, h=1e-6, trials=4) >= 1e-3


class TestDenseProxOracle:
    def test_box_matches_exact_projection(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal(12) * 2.0
        metric = DiagonalMetric.from_inverse_diag(rng.uniform(0.5, 2.0, 12),
                                                  4.0)
        y = dense_prox_oracle(z, 0.7, metric, BoxProx(0.0, 1.5))
        assert np.abs(y - exact_prox_box(z, 0.0, 1.5)).max() <= 1e-12

    def test_rejects_unsupported_regularizers(self):
        metric = DiagonalMetric.identity(3, 10.0)
        for regularizer in (None, object()):
            with pytest.raises(TypeError, match="^unsupported regularizer "):
                dense_prox_oracle(np.zeros(3), 1.0, metric, regularizer)

    def test_self_consistency(self):
        rng = np.random.default_rng(2)
        reg = TVNonnegRegularizer((2, 2), 0.3)
        z = rng.standard_normal(4)
        metric = DiagonalMetric.identity(4, 10.0)
        y1 = dense_prox_oracle(z, 1.0, metric, reg, iters=100_000)
        y2 = dense_prox_oracle(z, 1.0, metric, reg, iters=200_000)
        assert np.abs(y1 - y2).max() <= 1e-8

    def test_rejects_large_instances(self):
        with pytest.raises(ValueError):
            dense_prox_oracle(np.zeros(100), 1.0,
                              DiagonalMetric.identity(100, 2.0),
                              BoxProx(0.0, 1.0))

    def test_matches_convex_solver(self):
        cp = pytest.importorskip("cvxpy")
        rng = np.random.default_rng(5)
        shape = (2, 3)
        n = 6
        reg = TVNonnegRegularizer(shape, 0.25)
        z = rng.standard_normal(n)
        alpha = 0.8
        metric = DiagonalMetric.from_inverse_diag(rng.uniform(0.5, 2.0, n), 4.0)
        y_ref = dense_prox_oracle(z, alpha, metric, reg)

        yv = cp.Variable(n)
        eye = np.eye(n)
        fd_mat = np.column_stack([reg.fd.apply(eye[:, j]) for j in range(n)])
        pairs = cp.reshape(fd_mat @ yv, (2, n), order="C")  # planar [dv; dh]
        obj = 0.5 / alpha * cp.sum(
            cp.multiply(metric.diag, cp.square(yv - z))
        ) + reg.rho * cp.sum(cp.norm(pairs, axis=0))
        cp.Problem(cp.Minimize(obj), [yv >= 0]).solve(solver=cp.CLARABEL)
        assert np.abs(y_ref - yv.value).max() <= 1e-5


def test_audit_report_dataclass_defaults():
    rep = AuditReport(n_iterations=0,
                      violation_counts={n: 0 for n in AUDIT_NAMES})
    assert rep.ok and rep.total_violations == 0
