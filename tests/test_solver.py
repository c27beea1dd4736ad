import gc
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg

from vmprox import prox as prox_module
from vmprox.config import build_problem, load_experiment
from vmprox.diagnostics import audit_trace
from vmprox.operators import ConvOperator2D, gaussian_psf
from vmprox.problems import (
    CauchyDeblurProblem,
    MaskCompressionProblem,
    Problem,
    SignalDependentGaussianProblem,
    Toy1DBoxProblem,
    cartoon_image,
    degrade_synthetic,
    smooth_image,
)
from vmprox.prox import BoxProx, InexactProxError
from vmprox.solver import (
    IterateState,
    LinesearchError,
    SolverConfig,
    armijo_backtrack,
    minimize,
)
from vmprox.strategies import (
    BBSteplengthStrategy,
    DiagonalMetric,
    IdentityMetricStrategy,
)


def _toy_state(x=0.0):
    p = Toy1DBoxProblem()
    xv = np.array([float(x)])
    return p, IterateState(
        x=xv,
        f_value=p.f(xv),
        f1_value=0.0,
        grad_f0=p.grad_f0(xv),
        k=0,
    )


class _QuadProblem(Problem):
    """f0 = ||x||^2 / 2 over a huge box (effectively unconstrained)."""

    kind = "quad"
    n = 2

    def __init__(self):
        self.prox = BoxProx(-1e12, 1e12)

    def f0(self, x):
        return 0.5 * float(np.dot(x, x))

    def grad_f0(self, x):
        return np.asarray(x, dtype=float)

    def f1(self, x):
        return 0.0

    def in_domain(self, x):
        return True

    def f(self, x):
        return self.f0(x)

    def active_mask(self, x):
        return np.zeros_like(x, dtype=bool)


class TestSolverConfig:
    def test_defaults_follow_benchmark_setup(self):
        cfg = SolverConfig()
        assert cfg.alpha_min == 1e-5
        assert cfg.alpha_max == 1e2
        assert cfg.mu == 1e10
        assert cfg.delta == 0.5
        assert cfg.beta == 1e-4
        assert cfg.gamma == 1.0
        assert cfg.tau == 1e6 - 1
        assert cfg.max_backtracks == 60
        assert cfg.stop_tol == 1e-8

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha_min": 0.0},
            {"alpha_min": 2.0, "alpha_max": 1.0},
            {"mu": 0.5},
            {"delta": 1.0},
            {"beta": 0.0},
            {"gamma": 1.5},
            {"tau": 0.0},
            {"max_backtracks": 0},
            {"stop_tol": -1.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


def _toy_certificate(p, st, gamma=1.0, metric=None):
    """The certificate the solver gets for the toy state's prox step at
    ``alpha = 1`` (identity metric unless given)."""
    metric = DiagonalMetric.identity(1, 1e10) if metric is None else metric
    return p.prox.solve(st.x, st.grad_f0, st.f1_value, 1.0, metric, gamma,
                        1e6 - 1)


class TestEvalHGamma:
    """The merit value ``h_gamma`` at the prox point, as ``BoxProx.solve``
    certifies it."""

    def test_zero_at_current_iterate(self):
        p, st = _toy_state()
        st.grad_f0 = np.zeros(1)
        cert = _toy_certificate(p, st)
        assert cert.y_tilde[0] == st.x[0]
        assert cert.h_gamma == 0.0 and cert.h_primal == 0.0

    def test_linesearch_example_values(self):
        p, st = _toy_state()
        cert = _toy_certificate(p, st)
        assert cert.y_tilde[0] == 2.0
        assert cert.h_gamma == -2.0 and cert.h_primal == -2.0
        assert cert.epsilon_k == 0.5 * (1e6 - 1) * 2.0

    def test_gamma_zero_drops_quadratic(self):
        p, st = _toy_state()
        cert = _toy_certificate(p, st, gamma=0.0)
        assert cert.h_gamma == -4.0 and cert.h_primal == -2.0

    def test_infeasible_target_is_clipped(self):
        p, st = _toy_state()
        st.grad_f0 = np.array([-12.0])  # target z = 12 lies outside [0, 10]
        cert = _toy_certificate(p, st)
        assert cert.y_tilde[0] == 10.0 and cert.f1_tilde == 0.0
        assert cert.h_gamma == -120.0 + 50.0


class TestProximalTarget:
    """The point ``y_tilde = P(x - alpha D^{-1} grad)`` of ``BoxProx.solve``."""

    def test_zero_gradient_fixed_point(self):
        p, st = _toy_state()
        st.grad_f0 = np.zeros(1)
        assert _toy_certificate(p, st).y_tilde[0] == st.x[0]

    def test_linesearch_example(self):
        p, st = _toy_state()
        assert _toy_certificate(p, st).y_tilde[0] == 2.0

    def test_entrywise_metric_division(self):
        p, st = _toy_state()
        metric = DiagonalMetric(np.array([2.0]), 10.0)
        assert _toy_certificate(p, st, metric=metric).y_tilde[0] == 1.0


class TestArmijo:
    def test_linesearch_example_accepts_full_step(self):
        p, st = _toy_state()
        cfg = SolverConfig(beta=0.5)
        y = np.array([2.0])
        lam, f_new, bts, probe, f1_new, f_tilde = armijo_backtrack(
            st, y, -2.0, 0.0, p, cfg)
        assert lam == 1.0
        assert bts == 0
        assert f_new == pytest.approx(2.0 / 3.0, rel=1e-15)
        # the unit probe is the prox point itself, evaluated once
        assert probe is y and f1_new == 0.0 and f_tilde == f_new

    def test_stationary_accepts_immediately(self):
        p, st = _toy_state()
        lam, f_new, bts, *_ = armijo_backtrack(st, st.x.copy(), 0.0, 0.0, p,
                                               SolverConfig())
        assert lam == 1.0 and bts == 0 and f_new == st.f_value

    def test_quadratic_full_step(self):
        p = _QuadProblem()
        x = np.array([1.0, 0.0])
        st = IterateState(x=x, f_value=0.5, f1_value=0.0, grad_f0=x.copy(),
                          k=0)
        # prox target is the origin; h_gamma there is -1/2
        lam, f_new, bts, *_ = armijo_backtrack(st, np.zeros(2), -0.5, 0.0, p,
                                               SolverConfig())
        assert lam == 1.0 and f_new == 0.0 and bts == 0

    def test_probes_stay_feasible(self):
        p = Toy1DBoxProblem()
        x = np.array([10.0])
        st = IterateState(x=x, f_value=p.f(x), f1_value=0.0,
                          grad_f0=p.grad_f0(x), k=0)
        lam, f_new, _, probe, _, _ = armijo_backtrack(
            st, np.array([0.0]), -1e-9, 0.0, p, SolverConfig())
        assert 0.0 <= probe[0] <= 10.0
        assert np.isfinite(f_new)

    def test_failure_carries_probe_trace(self):
        # An uphill direction paired with a (bogus) negative merit value can
        # never satisfy the decrease test: the failure carries every probe.
        p, st = _toy_state(x=4.0)
        cfg = SolverConfig(max_backtracks=5)
        with pytest.raises(LinesearchError) as ei:
            armijo_backtrack(st, np.array([0.0]), -1e-9, 0.0, p, cfg)
        assert len(ei.value.probes) == 6


class TestSolverStep:
    def test_linesearch_example_first_step(self):
        p = Toy1DBoxProblem()
        cfg = SolverConfig()
        res = minimize(p, cfg, np.array([0.0]), retain_prox_points=True)
        rec = res.trace[0]
        assert rec.y_tilde[0] == 2.0
        assert rec.lam == 1.0
        assert rec.f_next == pytest.approx(2.0 / 3.0, rel=1e-15)
        # tie between the two candidates resolves to the linesearch point
        assert not rec.chose_tilde

    def test_stationary_point_is_fixed(self):
        p = _QuadProblem()
        cfg = SolverConfig(max_outer_iters=3, stop_tol=0.0)
        res = minimize(p, cfg, np.zeros(2))
        assert res.trace[0].step_norm == 0.0
        np.testing.assert_array_equal(res.x, 0.0)

    def test_single_step_decreases_cauchy_objective(self):
        shape = (8, 8)
        H = ConvOperator2D(gaussian_psf(7, 1.0), shape)
        g = np.clip(degrade_synthetic(cartoon_image(shape), H, "cauchy",
                                      seed=4), 0.0, 1.0)
        p = CauchyDeblurProblem(H, g, shape)
        cfg = SolverConfig(max_outer_iters=1, stop_tol=0.0)
        x0 = np.maximum(g, 1e-3)
        res = minimize(p, cfg, x0)
        assert res.trace[0].f_next < res.trace[0].f_value

    def test_next_state_alpha_and_metric_clamped(self):
        p = _QuadProblem()
        cfg = SolverConfig(alpha_min=0.2, alpha_max=0.7, max_outer_iters=4,
                           stop_tol=0.0)
        res = minimize(p, cfg, np.array([3.0, -1.0]))
        for rec in res.trace:
            assert 0.2 <= rec.alpha <= 0.7


class TestMinimize:
    def test_zero_iterations_returns_start(self):
        p = Toy1DBoxProblem()
        cfg = SolverConfig(max_outer_iters=0)
        res = minimize(p, cfg, np.array([0.0]))
        assert res.trace == []
        assert res.x[0] == 0.0

    def test_infeasible_start_rejected(self):
        p = Toy1DBoxProblem()
        with pytest.raises(ValueError):
            minimize(p, SolverConfig(), np.array([-3.0]))

    def test_non_finite_start_rejected(self):
        p = Toy1DBoxProblem()
        with pytest.raises(ValueError, match="x0 has non-finite entries"):
            minimize(p, SolverConfig(), np.array([np.nan]))

    def test_linesearch_example_converges_to_boundary(self):
        p = Toy1DBoxProblem()
        cfg = SolverConfig(max_outer_iters=50)
        res = minimize(p, cfg, np.array([0.0]))
        assert abs(res.x[0] - 10.0) <= 1e-6
        assert res.trace[-1].f_next == pytest.approx(2.0 / 11.0, rel=1e-12)

    def test_trace_objective_monotone(self):
        shape = (16, 16)
        p = MaskCompressionProblem(smooth_image(shape), shape,
                                   lambda_reg=0.01)
        cfg = SolverConfig(alpha_max=1e5, max_outer_iters=100, stop_tol=0.0)
        res = minimize(p, cfg, np.ones(p.n), steplength="ritz")
        f = [r.f_value for r in res.trace] + [res.trace[-1].f_next]
        assert all(f[i + 1] <= f[i] for i in range(len(f) - 1))

    def test_cached_objective_matches_fresh_evaluation(self):
        p = Toy1DBoxProblem()
        res = minimize(p, SolverConfig(max_outer_iters=20), np.array([0.0]))
        assert p.f(res.x) == res.trace[-1].f_next

    def test_run_audits_clean(self):
        shape = (8, 8)
        H = ConvOperator2D(gaussian_psf(7, 1.0), shape)
        g = np.clip(degrade_synthetic(cartoon_image(shape), H, "cauchy",
                                      seed=6), 0.0, 1.0)
        p = CauchyDeblurProblem(H, g, shape)
        cfg = SolverConfig(max_outer_iters=80, stop_tol=0.0)
        res = minimize(p, cfg, np.maximum(g, 1e-3), metric="sg",
                       steplength="bb")
        assert audit_trace(res.trace, cfg).ok

    def test_step5_bound_holds(self):
        # f(x_{k+1}) <= min(f(y~), f(x + lam d)) exactly by construction
        p = Toy1DBoxProblem()
        res = minimize(p, SolverConfig(max_outer_iters=30), np.array([0.0]))
        for rec in res.trace:
            assert rec.f_next <= min(rec.f_tilde, rec.f_linesearch)
            assert rec.step_norm <= rec.dist_tilde + 1e-15

    def test_deterministic_reruns_bitwise(self):
        shape = (8, 8)
        H = ConvOperator2D(gaussian_psf(7, 1.0), shape)
        g = np.clip(degrade_synthetic(cartoon_image(shape), H, "cauchy",
                                      seed=8), 0.0, 1.0)

        def run():
            p = CauchyDeblurProblem(H, g, shape)
            cfg = SolverConfig(max_outer_iters=40, stop_tol=0.0)
            return minimize(p, cfg, np.maximum(g, 1e-3), metric="sg",
                            steplength="ritz")

        r1, r2 = run(), run()
        np.testing.assert_array_equal(r1.x, r2.x)
        for a, b in zip(r1.trace, r2.trace):
            assert (a.f_value, a.alpha, a.lam, a.h_gamma, a.epsilon_k,
                    a.step_norm) == \
                   (b.f_value, b.alpha, b.lam, b.h_gamma, b.epsilon_k,
                    b.step_norm)

    def test_strategy_instances_accepted(self):
        p = Toy1DBoxProblem()
        cfg = SolverConfig(max_outer_iters=10)
        res = minimize(
            p,
            cfg,
            np.array([0.0]),
            metric=IdentityMetricStrategy(),
            steplength=BBSteplengthStrategy(),
        )
        assert res.trace


def test_combined_descent_inequality_holds():
    # f(x + lam d) <= f(x) - beta lam / (4 alpha_max mu (1 + tau)) ||y~ - x||^2,
    # the consequence of the Armijo test and the prox-distance bound.
    shape = (8, 8)
    H = ConvOperator2D(gaussian_psf(7, 1.0), shape)
    g = np.clip(degrade_synthetic(cartoon_image(shape), H, "cauchy", seed=14),
                0.0, 1.0)
    p = CauchyDeblurProblem(H, g, shape)
    cfg = SolverConfig(max_outer_iters=60, stop_tol=0.0)
    res = minimize(p, cfg, np.maximum(g, 1e-3), metric="sg", steplength="ritz")
    coef = cfg.beta / (4.0 * cfg.alpha_max * cfg.mu * (1.0 + cfg.tau))
    for rec in res.trace:
        bound = rec.f_value - coef * rec.lam * rec.dist_tilde**2
        assert rec.f_linesearch <= bound + 1e-10 + 1e-12 * abs(bound)


def test_inner_solver_economy_identity_metric():
    # Soft performance regression: the certified prox should need only a few
    # dual iterations per outer iteration at desk scale.
    shape = (16, 16)
    H = ConvOperator2D(gaussian_psf(7, 1.0), shape)
    g = degrade_synthetic(cartoon_image(shape), H, "gaussian_sd", seed=15)
    p = SignalDependentGaussianProblem(H, g, shape, rho=0.03)
    cfg = SolverConfig(max_outer_iters=50, stop_tol=0.0)
    res = minimize(p, cfg, np.maximum(g, 1e-3), metric="identity",
                   steplength="ritz")
    assert np.mean([r.inner_iters for r in res.trace]) <= 10.0


def test_h_gamma_nonpositive_along_runs():
    shape = (8, 8)
    H = ConvOperator2D(gaussian_psf(7, 1.0), shape)
    g = np.clip(degrade_synthetic(cartoon_image(shape), H, "gaussian_sd",
                                  seed=10), 0.0, None)
    p = CauchyDeblurProblem(H, np.clip(g, 0, 1), shape)
    res = minimize(p, SolverConfig(max_outer_iters=60, stop_tol=0.0),
                   np.maximum(np.clip(g, 0, 1), 1e-3))
    for rec in res.trace:
        assert rec.h_gamma <= 0.0
        assert rec.epsilon_k >= 0.0
        assert rec.lam in {0.5**i for i in range(61)}


class TestEvaluationCounts:
    """Each point's objective pieces are computed once per outer step:
    one ``f0`` per Armijo probe, one blur per distinct point, and an exact
    TV sum only for accepted prox candidates and non-unit probes."""

    @staticmethod
    def _counters(monkeypatch, problem):
        calls = {"f0": 0, "tv": 0, "pair_norms": 0}
        f0, hypot = problem.f0, np.hypot
        project = prox_module._project_dual_tv_in_place

        def counted_f0(x):
            calls["f0"] += 1
            return f0(x)

        def counted_hypot(a, b, *args, **kwargs):
            # TV sums take 2-D difference images; the dual projection's
            # range guard takes 1-D slices of the dual vector.
            if np.ndim(a) == 2:
                calls["tv"] += 1
            return hypot(a, b, *args, **kwargs)

        def counted_project(*args):
            calls["pair_norms"] += 1
            return project(*args)

        monkeypatch.setattr(problem, "f0", counted_f0)
        monkeypatch.setattr(np, "hypot", counted_hypot)
        monkeypatch.setattr(prox_module, "_project_dual_tv_in_place",
                            counted_project)
        return calls

    def test_cauchy_16(self, monkeypatch):
        shape = (16, 16)
        H = ConvOperator2D(gaussian_psf(9, 1.0), shape)
        g = np.clip(degrade_synthetic(cartoon_image(shape), H, "cauchy", seed=5),
                    0.0, 1.0)
        problem = CauchyDeblurProblem(H, g, shape)
        calls = self._counters(monkeypatch, problem)
        blurred = []
        apply = H.apply

        def recorded_apply(x):
            blurred.append(np.asarray(x, dtype=float).tobytes())
            return apply(x)

        monkeypatch.setattr(H, "apply", recorded_apply)
        res = minimize(problem, SolverConfig(max_outer_iters=20),
                       np.maximum(g, 1e-3), metric="sg", steplength="ritz")
        trace = res.trace
        backtracks = sum(r.backtracks for r in trace)
        assert len(trace) == 20 and backtracks > 0
        assert calls["f0"] == 1 + len(trace) + backtracks
        assert len(blurred) == len(set(blurred))
        # f1(x0), one accepted candidate per prox call, one per non-unit probe
        assert calls["tv"] == 1 + len(trace) + backtracks
        assert calls["pair_norms"] > 0

    def test_compression_32(self, monkeypatch):
        preset = Path(__file__).resolve().parents[1] / "presets" / "compression_32.yaml"
        cfg = load_experiment(preset)
        problem, _, _, x0, _ = build_problem(cfg, preset.parent)
        calls = self._counters(monkeypatch, problem)
        probed, patterns, factorizations = set(), set(), []
        system, splu = problem._system, scipy.sparse.linalg.splu

        def recorded_system(c):
            A, lu, u = system(c)
            probed.add(c.tobytes())
            patterns.add(A.indices.tobytes() + A.indptr.tobytes())
            return A, lu, u

        def recorded_splu(A, permc_spec=None, **kwargs):
            factorizations.append(permc_spec)
            return splu(A, permc_spec=permc_spec, **kwargs)

        monkeypatch.setattr(problem, "_system", recorded_system)
        monkeypatch.setattr(scipy.sparse.linalg, "splu", recorded_splu)
        res = minimize(problem, replace(cfg.solver, max_outer_iters=20), x0,
                       metric=cfg.metric, steplength=cfg.steplength)
        backtracks = sum(r.backtracks for r in res.trace)
        assert len(res.trace) == 20 and backtracks > 0
        assert calls["f0"] == 1 + len(res.trace) + backtracks
        assert calls["tv"] == calls["pair_norms"] == 0
        # one factorization per probed mask, and COLAMD once per zero pattern
        colamd = sum(spec != "NATURAL" for spec in factorizations)
        assert len(factorizations) == len(probed)
        assert colamd == len(patterns) < len(probed)
        # neither the finished solve nor the reconstruction keeps a factor
        assert problem._cache is None and not problem._orders
        problem.reconstruction(res.x)
        assert problem._cache is None and not problem._orders


class TestBlurCache:
    """``DeblurProblem.blur`` matches points by their bits and holds the one
    used most recently."""

    @staticmethod
    def _counted(monkeypatch):
        shape = (8, 8)
        H = ConvOperator2D(gaussian_psf(3, 1.0), shape)
        problem = CauchyDeblurProblem(H, np.full(64, 0.5), shape)
        calls = []
        apply = H.apply

        def counted_apply(x):
            calls.append(1)
            return apply(x)

        monkeypatch.setattr(H, "apply", counted_apply)
        return problem, calls

    def test_signed_zeros_are_distinct_points(self, monkeypatch):
        problem, calls = self._counted(monkeypatch)
        problem.blur(np.zeros(64))
        problem.blur(np.zeros(64))
        assert len(calls) == 1
        problem.blur(np.full(64, -0.0))
        assert len(calls) == 2
        problem.blur(np.full(64, -0.0))
        assert len(calls) == 2

    def test_repeated_point_costs_no_convolution(self, monkeypatch):
        problem, calls = self._counted(monkeypatch)
        x = np.random.default_rng(0).uniform(0.0, 1.0, 64)
        first = problem.blur(x)
        assert problem.blur(x.copy()) is first
        assert problem.blur(x.reshape(8, 8)) is first
        assert len(calls) == 1

    def test_holds_the_most_recent_point(self, monkeypatch):
        problem, calls = self._counted(monkeypatch)
        a, b = np.full(64, 0.1), np.full(64, 0.2)
        problem.blur(a)
        problem.blur(b)
        assert len(calls) == 2
        problem.blur(b)  # held: no convolution
        assert len(calls) == 2
        problem.blur(a)  # evicted by b: convolved again, evicts b
        assert len(calls) == 3
        problem.blur(b)
        assert len(calls) == 4


class _UphillFromStep3(_QuadProblem):
    """The gradient points uphill from the state of outer iteration 3 on."""

    def __init__(self):
        super().__init__()
        self.grad_calls = 0

    def grad_f0(self, x):
        self.grad_calls += 1  # call m computes the gradient of state m - 1
        g = super().grad_f0(x)
        return -g if self.grad_calls > 3 else g


class TestFailuresNameTheOuterIteration:
    def test_linesearch_error(self):
        config = SolverConfig(alpha_max=0.1, stop_tol=0.0, max_backtracks=5)
        with pytest.raises(LinesearchError) as ei:
            minimize(_UphillFromStep3(), config, np.array([1.0, -2.0]))
        assert ei.value.k == 3
        assert str(ei.value).startswith("outer iteration 3: no sufficient decrease")
        assert len(ei.value.probes) == 6

    def test_inexact_prox_error(self):
        shape = (16, 16)
        H = ConvOperator2D(gaussian_psf(9, 1.0), shape)
        g = np.clip(degrade_synthetic(cartoon_image(shape), H, "cauchy", seed=5),
                    0.0, 1.0)
        problem = CauchyDeblurProblem(H, g, shape)
        problem.prox.inner_limit = 1
        x0 = np.maximum(g, 1e-3)

        def run(iters):
            return minimize(problem, SolverConfig(max_outer_iters=iters,
                                                  stop_tol=0.0),
                            x0, metric="sg", steplength="ritz")

        with pytest.raises(InexactProxError) as ei:
            run(40)
        # the failed solve still clears the warm start and the blur cache
        assert problem.prox._v_prev is None
        assert problem._blurred is None
        k = ei.value.k
        assert k > 0
        assert str(ei.value).startswith(
            f"outer iteration {k}: no certificate within 1 dual iterations")
        assert f"{ei.value.last_gap:.3e}" in str(ei.value)
        # iterations 0 .. k-1 complete; iteration k is the one that fails
        assert len(run(k).trace) == k
        with pytest.raises(InexactProxError):
            run(k + 1)


# Memory a finished 150-iteration 32x32 Cauchy solve keeps (tracemalloc,
# Python 3.11, numpy 2.4): nearly all of it is the 150 trace records.  The
# margin is less than one more retained 32x32 float64 raster (8,304 bytes
# with its header), so a solve that keeps a raster of scratch state fails.
_RETAINED_BEFORE_FLAT_RUNS = 78_376
_RETAINED_MARGIN = 8_000


def test_iterate_records_have_no_instance_dict():
    # One record is kept per outer iteration, so each one is slotted.
    problem = Toy1DBoxProblem()
    result = minimize(problem, SolverConfig(max_outer_iters=2), np.array([0.0]))
    record = result.trace[0]
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        record.extra = 1


def test_finished_solve_retains_no_scratch_state():
    shape = (32, 32)
    H = ConvOperator2D(gaussian_psf(9, 1.0), shape)
    g = np.clip(degrade_synthetic(cartoon_image(shape), H, "cauchy", seed=3),
                0.0, 1.0)
    problem = CauchyDeblurProblem(H, g, shape)
    x0 = np.maximum(g, 1e-3)
    config = SolverConfig(max_outer_iters=150)

    def solve():
        return minimize(problem, config, x0, metric="sg", steplength="ritz")

    solve()  # fills FFT plan and import caches
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = solve()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(result.trace) == 150
    assert retained <= _RETAINED_BEFORE_FLAT_RUNS + _RETAINED_MARGIN
