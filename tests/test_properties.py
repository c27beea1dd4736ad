"""Property test: random small deblurring runs keep the guarantees of the
outer iteration, or stop with a typed error."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from vmprox.diagnostics import audit_trace
from vmprox.operators import ConvOperator2D, gaussian_psf
from vmprox.problems import (
    CauchyDeblurProblem,
    SignalDependentGaussianProblem,
    cartoon_image,
    degrade_synthetic,
)
from vmprox.prox import InexactProxError
from vmprox.solver import SolverConfig, SolverError, minimize
from vmprox.strategies import METRIC_STRATEGIES, STEPLENGTH_STRATEGIES

PROBLEMS = {"cauchy": CauchyDeblurProblem,
            "gaussian_sd": SignalDependentGaussianProblem}


@st.composite
def runs(draw):
    shape = (draw(st.integers(4, 16)), draw(st.integers(4, 16)))
    psf_size = draw(st.sampled_from([k for k in (1, 3, 5) if k <= min(shape)]))
    config = SolverConfig(
        mu=10.0 ** draw(st.floats(0.0, 10.0)),
        tau=10.0 ** draw(st.floats(-2.0, 7.0)),
        gamma=draw(st.floats(0.0, 1.0)),
        max_outer_iters=25,
        stop_tol=0.0,
    )
    return dict(
        shape=shape,
        psf=gaussian_psf(psf_size, draw(st.floats(0.3, 2.0))),
        model=draw(st.sampled_from(sorted(PROBLEMS))),
        noise_seed=draw(st.integers(0, 2**16)),
        metric=draw(st.sampled_from(sorted(METRIC_STRATEGIES))),
        steplength=draw(st.sampled_from(sorted(STEPLENGTH_STRATEGIES))),
        config=config,
    )


@settings(max_examples=60, derandomize=True, deadline=None)
@given(run=runs())
def test_random_runs_audit_clean_with_bounded_steplengths(run):
    shape, config = run["shape"], run["config"]
    H = ConvOperator2D(run["psf"], shape)
    g = np.clip(degrade_synthetic(cartoon_image(shape), H, run["model"],
                                  seed=run["noise_seed"]), 0.0, 1.0)
    problem = PROBLEMS[run["model"]](H, g, shape)
    try:
        res = minimize(problem, config, np.maximum(g, 1e-3),
                       metric=run["metric"], steplength=run["steplength"])
    except (SolverError, InexactProxError):
        return
    assert audit_trace(res.trace, config).violations == []
    assert all(config.alpha_min <= r.alpha <= config.alpha_max
               for r in res.trace)
