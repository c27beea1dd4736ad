import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import vmprox.strategies
from vmprox.operators import ConvOperator2D, gaussian_psf
from vmprox.problems import (
    CauchyDeblurProblem,
    MaskCompressionProblem,
    Problem,
    SignalDependentGaussianProblem,
    cartoon_image,
    degrade_synthetic,
)
from vmprox.prox import BoxProx
from vmprox.solver import SolverConfig, minimize
from vmprox.strategies import (
    RITZ_WINDOW,
    STEPLENGTH_STRATEGIES,
    BBSteplengthStrategy,
    DiagonalMetric,
    MajorantMetricStrategy,
    RitzSteplengthStrategy,
    SplitGradientMetricStrategy,
    bb_steplength,
    reduced_gradient,
    ritz_steplengths,
)


class _Stub:
    """Duck-typed problem carrying just what a strategy needs."""


class _QuadProblem(Problem):
    """f0 = sum_i c_i x_i^2 / 2 over a huge box (effectively unconstrained)."""

    kind = "quad"

    def __init__(self, n, c=1.0):
        self.n = n
        self.c = c
        self.prox = BoxProx(-1e12, 1e12)

    def f0(self, x):
        return 0.5 * float(np.dot(self.c * x, x))

    def grad_f0(self, x):
        return self.c * np.asarray(x, dtype=float)

    def active_mask(self, x):
        return np.zeros_like(x, dtype=bool)


class _Proposer:
    """Metric and steplength strategy in one: proposes a fixed ``D^{-1}``
    (the identity when ``None``) and the given steplengths in turn, and
    records the metric the outer step hands back."""

    def __init__(self, inv_diag=None, steps=(1.0,)):
        self.inv_diag = inv_diag
        self.steps = list(steps)
        self.metrics = []

    def metric(self, x, grad, problem):
        if self.inv_diag is None:
            return np.ones(problem.n)
        return np.asarray(self.inv_diag, dtype=float)

    def choose(self, x, grad, metric, problem):
        self.metrics.append(metric.diag.copy())
        return self.steps[(len(self.metrics) - 1) % len(self.steps)]

    def update(self, x, grad, metric, alpha_used, problem):
        pass

    def reset(self):
        pass


def _clamped(proposer, n=1, iters=1, **config):
    """Trace steplengths and the metrics seen when ``proposer`` drives the
    outer loop on a quadratic: what the solver makes of its proposals."""
    cfg = SolverConfig(max_outer_iters=iters, stop_tol=0.0, **config)
    res = minimize(_QuadProblem(n), cfg, np.ones(n), metric=proposer,
                   steplength=proposer)
    return [r.alpha for r in res.trace], proposer.metrics


def _clamped_metric(inv_diag, mu):
    """The metric the solver builds from the proposal ``inv_diag``."""
    inv_diag = np.asarray(inv_diag, dtype=float)
    _, metrics = _clamped(_Proposer(inv_diag), n=inv_diag.size, mu=mu)
    return metrics[0]


class _IdentityBlur:
    """``H = I`` on a ``shape`` grid, so hand values need no convolution."""

    def __init__(self, shape):
        self.shape = shape
        self.n_in = self.n_out = shape[0] * shape[1]

    def apply(self, x):
        return np.array(x, dtype=float)

    def adjoint(self, y):
        return np.array(y, dtype=float)

    def norm_sq_bound(self):
        return 1.0


def _gaussian(n=1, a=1.0, b=1.0, g=1.0):
    return SignalDependentGaussianProblem(_IdentityBlur((1, n)), np.full(n, g),
                                          (1, n), a=a, b=b)


def _cauchy(n=1, gamma=1.0, lam=1.0, g=0.0):
    return CauchyDeblurProblem(_IdentityBlur((1, n)), np.full(n, g), (1, n),
                               gamma_noise=gamma, lambda_reg=lam)


def _compression(n=4):
    return MaskCompressionProblem(np.linspace(0.0, 1.0, n), (1, n))


class TestDiagonalMetric:
    def test_clamping(self):
        m = DiagonalMetric.from_inverse_diag(np.array([1e-30, 1.0, 1e30]), 1e3)
        assert np.all(m.diag >= 1e-3) and np.all(m.diag <= 1e3)
        inv = 1.0 / m.diag
        assert np.all(inv >= 1e-3) and np.all(inv <= 1e3)

    def test_mu_one_collapses_to_identity_bitwise(self):
        m = DiagonalMetric.from_inverse_diag(np.array([0.3, 7.0]), 1.0)
        assert np.all(m.diag == 1.0)
        x = np.array([1.7, -0.3])
        assert float(np.dot(m.diag * x, x)) == float(np.dot(x, x))


class TestReducedGradient:
    def test_interior_passthrough(self):
        g = np.array([1.0, -2.0, 3.0])
        out = reduced_gradient(g, np.array([False, False, False]))
        np.testing.assert_array_equal(out, g)

    def test_all_active(self):
        out = reduced_gradient(np.array([1.0, 2.0, 3.0]), np.ones(3, dtype=bool))
        np.testing.assert_array_equal(out, 0.0)

    def test_box_rule(self):
        c = np.array([0.0, 0.7, 1.5])
        grad = np.array([1.0, 2.0, 3.0])
        mask = (c == 0.0) | (c == 1.5)
        np.testing.assert_array_equal(reduced_gradient(grad, mask),
                                      [0.0, 2.0, 0.0])


class TestBBSteplength:
    def test_identity_hessian(self):
        s = np.array([1.0, -2.0])
        assert bb_steplength(s, s) == 1.0

    def test_scaled_hessian(self):
        s = np.array([1.0, 3.0])
        assert bb_steplength(s, 2.0 * s) == 0.5

    def test_nonpositive_curvature_falls_back(self):
        s = np.array([1.0, 0.0])
        y = np.array([-1.0, 0.0])
        assert bb_steplength(s, y) == np.inf
        # the outer step turns the infinite proposal into alpha_max
        alphas, _ = _clamped(_Proposer(steps=[bb_steplength(s, y)]),
                             alpha_min=1e-8, alpha_max=123.0)
        assert alphas == [123.0]

    def test_scale_consistency(self):
        rng = np.random.default_rng(0)
        s = rng.standard_normal(6)
        y = rng.standard_normal(6)
        y = y if s @ y > 0 else -y
        base = bb_steplength(s, y)
        for c in (0.1, 2.0, 50.0):
            scaled = bb_steplength(s, c * y)
            assert scaled == pytest.approx(base / c, rel=1e-12)

    def test_strategy_first_iteration_is_one(self):
        strat = BBSteplengthStrategy()
        p = _cauchy(n=2)
        alpha = strat.choose(np.zeros(2), np.ones(2),
                             DiagonalMetric.identity(2, 10.0), p)
        assert alpha == 1.0


class TestRitzSteplengths:
    def _quadratic_history(self, rng, n=5, m=3):
        B = rng.standard_normal((n, n))
        Q = B @ B.T + 0.5 * np.eye(n)
        lo, hi = np.linalg.eigvalsh(Q)[[0, -1]]
        x = rng.standard_normal(n)
        hist = []
        for _ in range(m):
            g = Q @ x
            a = rng.uniform(0.2, 1.0) / hi
            hist.append((a, g.copy()))
            x = x - a * g
        return Q, lo, hi, hist, Q @ x

    def test_spectrum_property_on_quadratics(self):
        rng = np.random.default_rng(7)
        metric = DiagonalMetric.identity(5, 1e10)
        for _ in range(20):
            Q, lo, hi, hist, g_cur = self._quadratic_history(rng)
            steps = ritz_steplengths(hist, metric, g_cur)
            assert steps is not None
            eigs = 1.0 / steps
            assert np.all(eigs >= lo - 1e-8)
            assert np.all(eigs <= hi + 1e-8)

    def test_single_pair_matches_hand_algebra(self):
        rng = np.random.default_rng(3)
        B = rng.standard_normal((4, 4))
        Q = B @ B.T + np.eye(4)
        x = rng.standard_normal(4)
        g0 = Q @ x
        a0 = 0.1
        g1 = Q @ (x - a0 * g0)
        steps = ritz_steplengths([(a0, g0)], DiagonalMetric.identity(4, 1e10),
                                 g1)
        phi = (1.0 - g0 @ g1 / (g0 @ g0)) / a0
        assert steps[0] == pytest.approx(1.0 / phi, rel=1e-12)

    def test_degenerate_history_returns_none(self):
        metric = DiagonalMetric.identity(4, 1e10)
        hist = [(0.5, np.zeros(4)) for _ in range(3)]
        assert ritz_steplengths(hist, metric, np.zeros(4)) is None

    def test_strategy_fallback_and_queue(self):
        strat = RitzSteplengthStrategy()
        p = _Stub()
        p.kind = "quad"
        p.active_mask = lambda x: np.zeros_like(x, dtype=bool)
        metric = DiagonalMetric.identity(4, 1e10)
        Q = np.diag([1.0, 2.0, 4.0, 8.0])
        x = np.array([1.0, 1.0, 1.0, 1.0])
        # first call: no history -> alpha0 = 1; then BB until the window fills
        chosen = []
        for _ in range(RITZ_WINDOW):
            chosen.append(strat.choose(x, Q @ x, metric, p))
            strat.update(x, Q @ x, metric, chosen[-1], p)
            x = x - chosen[-1] * Q @ x
        assert chosen[0] == 1.0 and not strat.queue
        a3 = strat.choose(x, Q @ x, metric, p)  # window now full: Ritz queue
        assert strat.queue  # values left queued
        eigs_remaining = 1.0 / np.array(strat.queue)
        assert np.all(eigs_remaining >= 1.0 - 1e-6)
        assert np.all(eigs_remaining <= 8.0 + 1e-6)
        assert 1.0 / a3 >= eigs_remaining.max() - 1e-9  # smallest step first


def _scipy_ritz_steplengths(history, metric, reduced_grad):
    """``ritz_steplengths`` through the checked ``scipy.linalg`` wrappers."""
    m = len(history)
    alphas = np.array([a for a, _ in history])
    G = np.column_stack([g for _, g in history])
    Gamma = np.zeros((m + 1, m))
    for j in range(m):
        Gamma[j, j] = 1.0 / alphas[j]
        Gamma[j + 1, j] = -1.0 / alphas[j]
    gtg = G.T @ G
    if not np.all(np.isfinite(gtg)):
        return None
    try:
        R = scipy.linalg.cholesky(gtg, lower=False)
    except scipy.linalg.LinAlgError:
        return None
    current = np.sqrt(metric.diag) * reduced_grad
    r = scipy.linalg.solve_triangular(R.T, G.T @ current, lower=True)
    Rinv = scipy.linalg.solve_triangular(R, np.eye(m), lower=False)
    Phi = np.hstack([R, r[:, None]]) @ Gamma @ Rinv
    lower = np.tril(Phi, -1)
    Phi_sym = np.diag(np.diag(Phi)) + lower + lower.T
    eigs = scipy.linalg.eigvalsh(Phi_sym)
    pos = eigs[eigs > 0.0]
    if pos.size == 0:
        return None
    return np.sort(1.0 / pos)


@st.composite
def _ritz_windows(draw):
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = [10.0 ** rng.uniform(-6, 6) * rng.standard_normal(n) for _ in range(m)]
    defect = draw(st.sampled_from(["none", "none", "zero", "repeat", "inf"]))
    if defect == "zero":
        cols[-1][:] = 0.0
    elif defect == "repeat" and m > 1:
        cols[-1] = cols[0].copy()
    elif defect == "inf":
        cols[0][0] = np.inf
    history = [(10.0 ** rng.uniform(-4, 2), g) for g in cols]
    metric = DiagonalMetric(10.0 ** rng.uniform(-3, 3, n), 1e10)
    grad = rng.standard_normal(n)
    if draw(st.integers(0, 9)) == 0:
        grad[-1] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return history, metric, grad


@settings(max_examples=300, deadline=None)
@given(_ritz_windows())
def test_ritz_lapack_calls_match_scipy_linalg_bitwise(window):
    history, metric, grad = window
    try:
        expected = _scipy_ritz_steplengths(history, metric, grad)
    except ValueError:
        with pytest.raises(ValueError):
            ritz_steplengths(history, metric, grad)
        return
    steps = ritz_steplengths(history, metric, grad)
    if expected is None:
        assert steps is None
    else:
        np.testing.assert_array_equal(steps.view(np.int64),
                                      expected.view(np.int64))


class TestSGMetrics:
    """Each deblurring model proposes its split-gradient ``D^{-1}``; the
    clamps into ``[1/mu, mu]`` are checked on the metric the solver builds
    from it."""

    def test_gaussian_hand_value(self):
        inv = _gaussian().split_gradient_metric(np.array([1.0]))
        assert inv[0] == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_gaussian_zero_clamps_to_floor(self):
        inv = _gaussian(g=0.0).split_gradient_metric(np.zeros(1))
        assert inv[0] == 0.0
        m = _clamped_metric(inv, mu=100.0)
        assert 1.0 / m[0] == pytest.approx(1.0 / 100.0)

    def test_cauchy_hand_value(self):
        inv = _cauchy().split_gradient_metric(np.array([1.0]))
        assert inv[0] == pytest.approx(2.0, rel=1e-12)

    def test_cauchy_zero_clamps_to_floor(self):
        inv = _cauchy(n=2).split_gradient_metric(np.zeros(2))
        np.testing.assert_array_equal(inv, 0.0)
        m = _clamped_metric(inv, mu=50.0)
        np.testing.assert_allclose(1.0 / m, 1.0 / 50.0)

    def test_mu_one_gives_identity(self):
        for p in (_cauchy(), _gaussian()):
            inv = SplitGradientMetricStrategy().metric(np.array([1.0]), None, p)
            assert _clamped_metric(inv, mu=1.0)[0] == 1.0

    def test_membership_bounds(self):
        rng = np.random.default_rng(4)
        p = _cauchy(n=16, gamma=0.1, lam=0.5, g=0.2)
        for _ in range(10):
            x = np.abs(rng.standard_normal(16))
            x[rng.random(16) < 0.3] = 0.0
            m = _clamped_metric(p.split_gradient_metric(x), mu=1e4)
            assert np.all(m >= 1e-4) and np.all(m <= 1e4)

    def test_dispatch_unknown_kind(self):
        strat = SplitGradientMetricStrategy()
        with pytest.raises(ValueError, match="for kind 'compression'"):
            strat.metric(np.zeros(4), np.zeros(4), _compression())


def _sg_metric_gaussian(x, problem):
    """The split-gradient metric as the strategies module computed it
    before the models took it over: the oracle for the method."""
    x = np.asarray(x, dtype=float)
    t = problem.blur(x)
    a, b, g = problem.a, problem.b, problem.g
    c = a * t + b
    s = t * (a * (t + g) + 2.0 * b) / (2.0 * c * c) + 0.5 * a / c
    V = problem.H.adjoint(s)
    return x / (V + np.finfo(float).eps)


def _sg_metric_cauchy(x, problem):
    x = np.asarray(x, dtype=float)
    t = problem.blur(x)
    r = t - problem.g
    s = t / (problem.gamma_noise**2 + r * r)
    V = problem.lambda_reg * problem.H.adjoint(s)
    ratio = np.divide(x, V, out=np.full(x.shape, np.inf), where=V > 0)
    ratio[x == 0.0] = 0.0
    return ratio


@st.composite
def _sg_cases(draw):
    """A deblurring problem and a point: identity or Gaussian blur, and
    points with zeros, signed zeros and negative entries, so that ``V``
    vanishes or turns negative at some pixels."""
    h, w = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    n = h * w
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blurred = h >= 3 and w >= 3 and draw(st.booleans())
    H = (ConvOperator2D(gaussian_psf(3, 1.0), (h, w)) if blurred
         else _IdentityBlur((h, w)))
    g = rng.uniform(-0.5, 1.5, n)
    x = rng.uniform(0.0, 2.0, n)
    x[rng.random(n) < 0.3] = 0.0
    x[rng.random(n) < 0.1] = -0.0
    if draw(st.booleans()):
        x[rng.random(n) < 0.3] *= -1.0
    if draw(st.sampled_from(["gaussian_sd", "cauchy"])) == "gaussian_sd":
        p = SignalDependentGaussianProblem(H, g, (h, w), a=rng.uniform(0.0, 2.0),
                                           b=rng.uniform(0.01, 2.0))
        return p, x, _sg_metric_gaussian
    lam = draw(st.sampled_from([0.35, rng.uniform(0.01, 5.0)]))
    p = CauchyDeblurProblem(H, g, (h, w), gamma_noise=rng.uniform(0.01, 1.0),
                            lambda_reg=lam)
    return p, x, _sg_metric_cauchy


@settings(max_examples=200, deadline=None)
@given(_sg_cases())
def test_split_gradient_metric_matches_strategy_functions_bitwise(case):
    problem, x, oracle = case
    with np.errstate(all="ignore"):
        expected = oracle(x, problem)
        got = problem.split_gradient_metric(x)
        via_strategy = SplitGradientMetricStrategy().metric(x, None, problem)
    for inv in (got, via_strategy):
        np.testing.assert_array_equal(inv.view(np.int64), expected.view(np.int64))


class TestMajorantMetric:
    def test_unit_norm_quadratic_gives_identity(self):
        # a = 0, b = 1 misfit is least squares with curvature 1; identity
        # blur has unit norm, so the scaling collapses to the identity.
        p = _gaussian(n=4, a=0.0, b=1.0, g=0.0)
        assert p.curvature_bound() == 1.0
        inv = MajorantMetricStrategy().metric(np.ones(4), None, p)
        np.testing.assert_array_equal(inv, 1.0)

    def test_clamped_at_mu(self):
        p = _cauchy(n=3, gamma=1.0, lam=1e18)
        inv = MajorantMetricStrategy().metric(np.ones(3), None, p)
        np.testing.assert_array_equal(inv, 1e18)
        np.testing.assert_allclose(1.0 / _clamped_metric(inv, mu=1e3), 1e3)

    def test_cauchy_curvature_scaling(self):
        p = _cauchy(n=2, gamma=0.02, lam=0.35)
        inv = MajorantMetricStrategy().metric(np.ones(2), None, p)
        np.testing.assert_allclose(inv, 0.35 / 0.0004)

    def test_strategy_caches(self):
        p = _gaussian(n=2, a=0.0, b=1.0, g=0.0)
        strat = MajorantMetricStrategy()
        m1 = strat.metric(np.zeros(2), np.zeros(2), p)
        m2 = strat.metric(np.ones(2), np.ones(2), p)
        assert m1 is m2

    def test_rejects_kind_like_split_gradient(self):
        with pytest.raises(ValueError, match="for kind 'compression'"):
            MajorantMetricStrategy().metric(np.zeros(4), np.zeros(4),
                                            _compression())


def _cauchy_run(shape, metric, steplength):
    """A 60-step Cauchy deblurring solve on a fresh problem of ``shape``."""
    H = ConvOperator2D(gaussian_psf(7, 1.0), shape)
    g = np.clip(degrade_synthetic(cartoon_image(shape), H, "cauchy", seed=5),
                0.0, 1.0)
    problem = CauchyDeblurProblem(H, g, shape)
    cfg = SolverConfig(max_outer_iters=60, stop_tol=0.0)
    return minimize(problem, cfg, np.maximum(g, 1e-3), metric=metric,
                    steplength=steplength)


def _assert_same_run(a, b):
    np.testing.assert_array_equal(a.x.view(np.int64), b.x.view(np.int64))
    assert [(r.alpha, r.f_next) for r in a.trace] == \
        [(r.alpha, r.f_next) for r in b.trace]


class TestReusedStrategies:
    """``minimize`` resets the strategies it is given, so a reused instance
    runs exactly as a fresh one."""

    @pytest.mark.parametrize("name", ["bb", "ritz"])
    def test_steplength_reused_gives_fresh_bits(self, name):
        strategy = STEPLENGTH_STRATEGIES[name]()
        first = _cauchy_run((16, 16), "sg", strategy)
        again = _cauchy_run((16, 16), "sg", strategy)
        fresh = _cauchy_run((16, 16), "sg", STEPLENGTH_STRATEGIES[name]())
        assert again.trace[0].alpha == 1.0
        _assert_same_run(first, fresh)
        _assert_same_run(again, fresh)

    def test_majorant_reused_across_sizes(self):
        strategy = MajorantMetricStrategy()
        _cauchy_run((16, 16), strategy, "ritz")
        again = _cauchy_run((8, 8), strategy, "ritz")
        fresh = _cauchy_run((8, 8), MajorantMetricStrategy(), "ritz")
        _assert_same_run(again, fresh)

    def test_state_cleared_after_solve(self):
        ritz, majorant = RitzSteplengthStrategy(), MajorantMetricStrategy()
        _cauchy_run((8, 8), majorant, ritz)
        assert not ritz.history and not ritz.queue
        assert ritz._bb._prev_x is None and majorant._cached is None


def test_unknown_strategy_names_are_rejected():
    problem, cfg = _QuadProblem(2), SolverConfig(max_outer_iters=1)
    with pytest.raises(ValueError, match="^unknown metric strategy 'mm'$"):
        minimize(problem, cfg, np.ones(2), metric="mm")
    with pytest.raises(ValueError, match="^unknown steplength strategy 'fixed'$"):
        minimize(problem, cfg, np.ones(2), steplength="fixed")


def test_every_default_ritz_window_is_the_same(monkeypatch):
    built = []

    class Recorded(RitzSteplengthStrategy):
        def __init__(self):
            super().__init__()
            built.append(self)

    monkeypatch.setitem(STEPLENGTH_STRATEGIES, "ritz", Recorded)
    minimize(_QuadProblem(2), SolverConfig(max_outer_iters=1), np.ones(2),
             steplength="ritz")
    windows = [RitzSteplengthStrategy().history.maxlen, built[0].history.maxlen]
    assert windows == [RITZ_WINDOW] * 2 == [3] * 2


def test_every_ritz_solve_passes_full_windows(monkeypatch):
    windows = []
    ritz = vmprox.strategies.ritz_steplengths

    def recorded(history, *args):
        windows.append(len(history))
        return ritz(history, *args)

    monkeypatch.setattr(vmprox.strategies, "ritz_steplengths", recorded)
    cfg = SolverConfig(max_outer_iters=12, stop_tol=0.0)
    for steplength in ("ritz", RitzSteplengthStrategy()):
        minimize(_QuadProblem(4, c=np.array([1.0, 2.0, 4.0, 8.0])), cfg,
                 np.ones(4), steplength=steplength)
    assert windows and set(windows) == {RITZ_WINDOW}


def test_ritz_consumed_smallest_first():
    rng = np.random.default_rng(11)
    B = rng.standard_normal((5, 5))
    Q = B @ B.T + 0.5 * np.eye(5)
    x = rng.standard_normal(5)
    hist = []
    for _ in range(3):
        g = Q @ x
        a = 0.05
        hist.append((a, g.copy()))
        x = x - a * g
    metric = DiagonalMetric.identity(5, 1e10)
    steps = ritz_steplengths(hist, metric, Q @ x)
    assert steps is not None and len(steps) >= 2

    def drain():
        strat = RitzSteplengthStrategy()
        strat.history.extend(hist)
        p = _Stub()
        p.active_mask = lambda v: np.zeros_like(v, dtype=bool)
        return [strat.choose(x, Q @ x, metric, p) for _ in range(len(steps))]

    drained = drain()
    assert drained == sorted(drained)
    assert drained == list(steps)


def test_all_emitted_steplengths_clamped():
    proposed = []

    class Recorded(RitzSteplengthStrategy):
        def choose(self, *args):
            proposed.append(super().choose(*args))
            return proposed[-1]

    rng = np.random.default_rng(9)
    cfg = SolverConfig(alpha_min=0.2, alpha_max=0.4, mu=10.0,
                       max_outer_iters=8, stop_tol=0.0)
    res = minimize(_QuadProblem(2, c=np.array([3.0, 1.0])), cfg,
                   rng.standard_normal(2),
                   metric="identity", steplength=Recorded())
    assert len(res.trace) == 8
    assert max(proposed) > 0.4  # alpha_0 = 1 is proposed and clamped
    for rec in res.trace:
        assert 0.2 <= rec.alpha <= 0.4


def test_solver_clamps_step_proposals():
    alphas, _ = _clamped(_Proposer(steps=[np.inf, 0.0]), iters=2,
                         alpha_min=1e-3, alpha_max=50.0)
    assert alphas == [50.0, 1e-3]


def test_solver_clamps_metric_proposals():
    # D^{-1} = [0, 1, inf] gives D = [100, 1, 0.01] at mu = 100, and the
    # steplength strategy receives that clamped metric
    m = _clamped_metric([0.0, 1.0, np.inf], mu=100.0)
    np.testing.assert_array_equal(m, [100.0, 1.0, 0.01])
