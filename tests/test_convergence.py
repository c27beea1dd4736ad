"""The paper's conclusion, checked at the end of long runs: the iterates
have finite length and reach a critical point.

Each instance is a small seeded problem run with ``stop_tol: 0`` until the
linesearch accepts an exactly zero step.  The final point's prox-gradient
residual is compared with the rounding floor ``sqrt(2 L eps |f|)``: below
it, ``f`` cannot resolve a decrease along the gradient.  For deblurring the
residual comes from the dense oracle, independent of the dual solver; the
compression prox is an exact box projection.
"""

import numpy as np
import pytest

from vmprox.diagnostics import dense_prox_oracle
from vmprox.operators import ConvOperator2D, gaussian_psf
from vmprox.problems import (
    CauchyDeblurProblem,
    MaskCompressionProblem,
    SignalDependentGaussianProblem,
    cartoon_image,
    degrade_synthetic,
)
from vmprox.solver import SolverConfig, minimize
from vmprox.strategies import DiagonalMetric

# (model, noise seed).  Measured at b5f03da: the runs reach the zero step
# at k = 526 (Cauchy) and 329 (Gaussian).  Residuals at alpha 1e-3 and 0.1
# are 1.59e-6 and 1.56e-6 for Cauchy (0.32x and 0.31x its floor of
# 5.0e-6), and 5.4e-10 and 1.3e-10 for Gaussian (floor 1.3e-7).
INSTANCES = [(CauchyDeblurProblem, 0), (SignalDependentGaussianProblem, 1)]


@pytest.mark.parametrize("model, seed", INSTANCES,
                         ids=["cauchy-seed0", "gaussian_sd-seed1"])
def test_long_run_reaches_a_critical_point_with_finite_length(model, seed):
    shape = (8, 8)
    H = ConvOperator2D(gaussian_psf(3, 1.0), shape)
    g = np.clip(degrade_synthetic(cartoon_image(shape), H, model.kind, seed=seed),
                0.0, 1.0)
    problem = model(H, g, shape)
    budget = 5000
    result = minimize(problem, SolverConfig(max_outer_iters=budget, stop_tol=0.0),
                      np.maximum(g, 1e-3), metric="sg", steplength="ritz")
    assert len(result.trace) < budget and result.trace[-1].step_norm == 0.0

    x = result.x
    lipschitz = problem.curvature_bound() * H.norm_sq_bound()
    floor = np.sqrt(2.0 * lipschitz * np.finfo(float).eps * abs(problem.f(x)))
    grad = problem.grad_f0(x)
    identity = DiagonalMetric.identity(x.size, 1.0)
    for alpha in (1e-3, 0.1):
        y = dense_prox_oracle(x - alpha * grad, alpha, identity, problem.prox.reg)
        assert np.linalg.norm(x - y) / alpha <= 4.0 * floor

    # Finite length: the last tenth of the iterations adds at most 1e-6 of
    # the path's length (measured 1.7e-8 for Cauchy, 2.9e-9 for Gaussian).
    _assert_finite_length(result.trace)


def _assert_finite_length(trace):
    steps = np.array([r.step_norm for r in trace])
    assert steps[-(len(steps) // 10):].sum() <= 1e-6 * steps.sum()


def test_compression_reaches_a_critical_point_with_finite_length():
    # A random 8x8 image; the preset's solver settings.  Measured at
    # b5f03da: the zero step comes at k = 226, the residual is 8.3e-10 at
    # every alpha below (0.02x its floor of 4.1e-8) and the last tenth adds
    # 1.9e-9 of the path's length.
    shape = (8, 8)
    u0 = np.random.default_rng(0).uniform(0.0, 1.0, 64)
    problem = MaskCompressionProblem(u0, shape)
    budget = 5000
    config = SolverConfig(alpha_min=1e-5, alpha_max=1e5,
                          max_outer_iters=budget, stop_tol=0.0)
    result = minimize(problem, config, np.ones(64), metric="identity",
                      steplength="ritz")
    assert len(result.trace) < budget and result.trace[-1].step_norm == 0.0

    # f0 has no global curvature bound, so L is the local one: the spectral
    # norm of the central-difference Hessian at the final point (7.1).
    x = result.x
    h = 1e-5
    hessian = np.column_stack([
        (problem.grad_f0(x + e) - problem.grad_f0(x - e)) / (2.0 * h)
        for e in h * np.eye(x.size)])
    lipschitz = np.abs(np.linalg.eigvalsh(0.5 * (hessian + hessian.T))).max()
    floor = np.sqrt(2.0 * lipschitz * np.finfo(float).eps * abs(problem.f(x)))
    grad = problem.grad_f0(x)
    for alpha in (1e-3, 0.1, 1.0):
        y = np.clip(x - alpha * grad, problem.prox.lower, problem.prox.upper)
        assert np.linalg.norm(x - y) / alpha <= 4.0 * floor
    _assert_finite_length(result.trace)
