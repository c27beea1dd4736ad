"""Pluggable scaling-metric and steplength strategies for the solver.

Strategies propose; :func:`vmprox.solver.solver_step` clamps.  A metric
strategy returns the entries of a diagonal ``D^{-1}``: identity, the
split-gradient scaling that each deconvolution model derives from its own
gradient, or a Lipschitz-diagonal majorant fallback; ``kinds`` lists the
problem kinds it can scale (``None``: all).  A steplength strategy returns
a positive steplength from a Barzilai-Borwein rule or from a queue of
reciprocal Ritz values built from recent scaled reduced gradients.
:func:`vmprox.solver.minimize` resets every strategy around each solve.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dpotrf, dsyevr, dtrtrs

from .problems import DEBLUR_KINDS

logger = logging.getLogger(__name__)
RITZ_WINDOW = 3  # gradients per Ritz window

__all__ = [
    "DiagonalMetric",
    "reduced_gradient",
    "bb_steplength",
    "ritz_steplengths",
    "IdentityMetricStrategy",
    "SplitGradientMetricStrategy",
    "MajorantMetricStrategy",
    "BBSteplengthStrategy",
    "RitzSteplengthStrategy",
]


@dataclass
class DiagonalMetric:
    """Diagonal scaling matrix D with entries clamped into [1/mu, mu]."""

    diag: np.ndarray
    mu_bound: float

    @classmethod
    def identity(cls, n, mu_bound):
        return cls(np.ones(n), float(mu_bound))

    @classmethod
    def from_inverse_diag(cls, inv_diag, mu_bound):
        """Build from the entries of D^{-1}, clamping both representations."""
        mu = float(mu_bound)
        inv = np.clip(np.asarray(inv_diag, dtype=float), 1.0 / mu, mu)
        diag = np.clip(1.0 / inv, 1.0 / mu, mu)
        return cls(diag, mu)


def reduced_gradient(grad, active_mask):
    """Gradient with entries zeroed exactly on the declared active set."""
    return np.where(active_mask, 0.0, grad)


def bb_steplength(s, y):
    """First Barzilai-Borwein steplength ``s.s / s.y``.

    Returns ``inf`` when the curvature estimate ``s.y`` is not positive; the
    outer step clamps it to ``alpha_max``.
    """
    sty = float(np.dot(s, y))
    if sty <= 0.0:
        return np.inf
    return float(np.dot(s, s) / sty)


def ritz_steplengths(history, metric, reduced_grad):
    """Reciprocal Ritz values from a window of scaled reduced gradients.

    ``history`` holds ``m`` pairs ``(alpha_j, D_j^{1/2} g_j)`` from the most
    recent iterations (storage-time metric).  The routine assembles the
    window matrix and the bidiagonal steplength matrix, factorizes, forms
    the tridiagonal symmetrization and returns the reciprocals of its
    positive eigenvalues sorted increasingly (smallest steplength first).
    Returns ``None`` when the window is numerically rank deficient or no
    eigenvalue is positive, and raises ``ValueError`` when the current
    scaled gradient or the symmetrized matrix is not finite.

    The factorization, the triangular solves and the eigenvalues call LAPACK
    directly: the routines ``scipy.linalg.cholesky``, ``solve_triangular``
    and ``eigvalsh`` reach, without their input checks.
    """
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
    R, info = dpotrf(gtg, lower=0)
    if info != 0:  # not positive definite
        return None
    rhs = G.T @ (np.sqrt(metric.diag) * reduced_grad)
    if not np.all(np.isfinite(rhs)):
        raise ValueError("current scaled gradient must not contain infs or NaNs")
    # R has a positive diagonal, so neither solve can fail.
    r, _ = dtrtrs(R, rhs, lower=0, trans=1)
    Rinv, _ = dtrtrs(R, np.eye(m), lower=0)
    Phi = np.hstack([R, r[:, None]]) @ Gamma @ Rinv
    lower = np.tril(Phi, -1)
    Phi_sym = np.diag(np.diag(Phi)) + lower + lower.T
    if not np.all(np.isfinite(Phi_sym)):  # overflow in an ill-conditioned window
        raise ValueError("Ritz matrix must not contain infs or NaNs")
    eigs, *_, info = dsyevr(Phi_sym, compute_v=0, lower=1)
    if info != 0:
        raise scipy.linalg.LinAlgError("dsyevr failed on the Ritz matrix")
    pos = eigs[eigs > 0.0]
    if pos.size == 0:
        return None
    return np.sort(1.0 / pos)


def _check_kind(strategy, problem):
    if problem.kind not in strategy.kinds:
        raise ValueError(f"no {type(strategy).__name__} for kind {problem.kind!r}")


class IdentityMetricStrategy:
    kinds = None

    def reset(self):
        pass

    def metric(self, x, grad, problem):
        return np.ones(problem.n)


class SplitGradientMetricStrategy:
    kinds = DEBLUR_KINDS

    def reset(self):
        pass

    def metric(self, x, grad, problem):
        _check_kind(self, problem)
        return problem.split_gradient_metric(x)


class MajorantMetricStrategy:
    """Constant ``D^{-1}``, the misfit's curvature bound times ``||H||^2``: a
    fallback, not a majorization-minimization matrix."""

    kinds = DEBLUR_KINDS
    _cached = None

    def reset(self):
        self._cached = None

    def metric(self, x, grad, problem):
        if self._cached is None:
            _check_kind(self, problem)
            bound = problem.curvature_bound() * problem.H.norm_sq_bound()
            self._cached = np.full(problem.n, bound)
        return self._cached


class BBSteplengthStrategy:
    """First Barzilai-Borwein rule with alpha_0 = 1."""

    _prev_x = _prev_grad = None

    def reset(self):
        self._prev_x = self._prev_grad = None

    def choose(self, x, grad, metric, problem):
        if self._prev_x is None:
            return 1.0
        return bb_steplength(x - self._prev_x, grad - self._prev_grad)

    def update(self, x, grad, metric, alpha_used, problem):
        self._prev_x = np.array(x)
        self._prev_grad = np.array(grad)


class RitzSteplengthStrategy:
    """Steplengths from reciprocal Ritz values, one consumed per iteration.

    ``history`` keeps the most recent :data:`RITZ_WINDOW` pairs of
    steplength and scaled reduced gradient; ``queue`` the pending reciprocal
    Ritz values, rebuilt from a full window whenever it runs empty.  Before
    the window fills (and on factorization failure) the strategy falls back
    to the BB1 rule.  Steplengths are consumed smallest first.
    """

    def __init__(self):
        self.history = deque(maxlen=RITZ_WINDOW)
        self.queue = deque()
        self._bb = BBSteplengthStrategy()

    def reset(self):
        self.history.clear()
        self.queue.clear()
        self._bb.reset()

    def choose(self, x, grad, metric, problem):
        if self.queue:
            return float(self.queue.popleft())
        if len(self.history) == self.history.maxlen:
            reduced = reduced_gradient(grad, problem.active_mask(x))
            steps = ritz_steplengths(list(self.history), metric, reduced)
            if steps is not None:
                self.queue.extend(steps)
                return float(self.queue.popleft())
            logger.info("Ritz window rank deficient; falling back to BB1")
        return self._bb.choose(x, grad, metric, problem)

    def update(self, x, grad, metric, alpha_used, problem):
        reduced = reduced_gradient(grad, problem.active_mask(x))
        self.history.append((float(alpha_used), np.sqrt(metric.diag) * reduced))
        self._bb.update(x, grad, metric, alpha_used, problem)


METRIC_STRATEGIES = {
    "identity": IdentityMetricStrategy,
    "sg": SplitGradientMetricStrategy,
    "majorant": MajorantMetricStrategy,
}
STEPLENGTH_STRATEGIES = {"bb": BBSteplengthStrategy, "ritz": RitzSteplengthStrategy}

