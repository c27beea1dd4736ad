"""The paper's conclusion, checked at the end of long runs: the iterates
have finite length and reach a critical point.

Each instance is a small seeded deblurring problem run with ``stop_tol: 0``
until the linesearch accepts an exactly zero step.  The final point's
prox-gradient residual comes from the dense oracle, independent of the dual
solver, and is compared with the rounding floor ``sqrt(2 L eps |f|)``: below
it, ``f`` cannot resolve a decrease along the gradient.
"""

import numpy as np
import pytest

from vmprox.diagnostics import dense_prox_oracle
from vmprox.operators import ConvOperator2D, gaussian_psf
from vmprox.problems import (
    CauchyDeblurProblem,
    SignalDependentGaussianProblem,
    cartoon_image,
    degrade_synthetic,
)
from vmprox.solver import SolverConfig, minimize
from vmprox.strategies import DiagonalMetric

# (model, noise seed).  The runs reach the zero step at k = 570 (Cauchy)
# and 390 (Gaussian).  Measured residuals at alpha 1e-3 and 0.1 are 1.0e-5
# and 9.0e-6 for Cauchy (2.0x and 1.8x its floor of 5.0e-6), and 2.3e-10
# and 1.7e-10 for Gaussian (floor 1.3e-7).
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
    # the path's length (measured 3.1e-9 for Cauchy, 1.0e-10 for Gaussian).
    steps = np.array([r.step_norm for r in result.trace])
    assert steps[-(len(steps) // 10):].sum() <= 1e-6 * steps.sum()
