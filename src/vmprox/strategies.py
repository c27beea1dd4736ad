"""Pluggable scaling-metric and steplength strategies for the solver.

Metrics are diagonal: identity, split-gradient scalings for the two
deconvolution objectives, and a Lipschitz-diagonal majorant fallback.
Steplengths come from Barzilai-Borwein rules or from a queue of reciprocal
Ritz values built from recent scaled reduced gradients.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

logger = logging.getLogger(__name__)

__all__ = [
    "DiagonalMetric",
    "reduced_gradient",
    "bb_steplength",
    "ritz_steplengths",
    "sg_metric_gaussian",
    "sg_metric_cauchy",
    "majorant_diag_metric",
    "IdentityMetricStrategy",
    "SplitGradientMetricStrategy",
    "MajorantMetricStrategy",
    "BBSteplengthStrategy",
    "RitzSteplengthStrategy",
    "make_metric_strategy",
    "make_steplength_strategy",
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

    @property
    def inv_diag(self):
        return 1.0 / self.diag

    def norm_sq(self, x):
        """Squared D-norm: sum_i diag_i x_i^2."""
        return float(np.dot(self.diag * x, x))

    def inv_norm_sq(self, x):
        return float(np.dot(x / self.diag, x))


def reduced_gradient(x, grad, active_mask):
    """Gradient with entries zeroed exactly on the declared active set."""
    return np.where(active_mask, 0.0, grad)


def bb_steplength(s, y, alpha_min, alpha_max):
    """First Barzilai-Borwein steplength ``s.s / s.y``, safeguarded.

    Falls back to ``alpha_max`` when the curvature estimate ``s.y`` is not
    positive, and clamps into ``[alpha_min, alpha_max]`` otherwise.
    """
    sty = float(np.dot(s, y))
    if sty <= 0.0:
        return float(alpha_max)
    return float(np.clip(np.dot(s, s) / sty, alpha_min, alpha_max))


def ritz_steplengths(history, metric, reduced_grad):
    """Reciprocal Ritz values from a window of scaled reduced gradients.

    ``history`` holds ``m`` pairs ``(alpha_j, D_j^{1/2} g_j)`` from the most
    recent iterations (storage-time metric).  The routine assembles the
    window matrix and the bidiagonal steplength matrix, factorizes, forms
    the tridiagonal symmetrization and returns the reciprocals of its
    positive eigenvalues sorted increasingly (smallest steplength first).
    Returns ``None`` when the window is numerically rank deficient.
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


def sg_metric_gaussian(x, problem, mu):
    """Split-gradient scaling for the signal-dependent Gaussian objective.

    ``D^{-1}_{ii} = clamp(x_i / (V_i + eps_mach))`` where ``V = H^T s`` is
    the positive part of the gradient splitting.
    """
    x = np.asarray(x, dtype=float)
    t = problem.blur(x)
    a, b, g = problem.a, problem.b, problem.g
    c = a * t + b
    s = t * (a * (t + g) + 2.0 * b) / (2.0 * c * c) + 0.5 * a / c
    V = problem.H.adjoint(s)
    ratio = x / (V + np.finfo(float).eps)
    return DiagonalMetric.from_inverse_diag(ratio, mu)


def sg_metric_cauchy(x, problem, mu):
    """Split-gradient scaling for the Cauchy-noise objective.

    ``D^{-1}_{ii} = clamp(x_i / V_i)`` with ``V = lambda H^T s`` and
    ``s_i = (Hx)_i / (gamma^2 + ((Hx)_i - g_i)^2)``.
    """
    x = np.asarray(x, dtype=float)
    t = problem.blur(x)
    r = t - problem.g
    s = t / (problem.gamma_noise**2 + r * r)
    V = problem.lambda_reg * problem.H.adjoint(s)
    ratio = np.divide(x, V, out=np.full(x.shape, np.inf), where=V > 0)
    ratio[x == 0.0] = 0.0
    return DiagonalMetric.from_inverse_diag(ratio, mu)


def majorant_diag_metric(problem, mu):
    """Constant Lipschitz-diagonal scaling ``D^{-1} = c I``.

    ``c`` multiplies a bound on the componentwise curvature of the misfit by
    the squared operator norm of the blur.  This is a documented fallback,
    not a majorization-minimization matrix; runs using it are flagged in
    their summaries.
    """
    c = problem.curvature_bound() * problem.h_norm_sq
    inv = np.full(problem.n, c)
    return DiagonalMetric.from_inverse_diag(inv, mu)


class IdentityMetricStrategy:
    name = "identity"

    def __init__(self, mu):
        self.mu = float(mu)

    def metric(self, x, grad, problem):
        return DiagonalMetric.identity(problem.n, self.mu)


class SplitGradientMetricStrategy:
    name = "sg"

    def __init__(self, mu):
        self.mu = float(mu)

    def metric(self, x, grad, problem):
        if problem.kind == "gaussian_sd":
            return sg_metric_gaussian(x, problem, self.mu)
        if problem.kind == "cauchy":
            return sg_metric_cauchy(x, problem, self.mu)
        raise ValueError(
            f"no split-gradient metric for problem kind {problem.kind!r}"
        )


class MajorantMetricStrategy:
    name = "majorant"

    def __init__(self, mu):
        self.mu = float(mu)
        self._cached = None

    def metric(self, x, grad, problem):
        if self._cached is None:
            self._cached = majorant_diag_metric(problem, self.mu)
        return self._cached


class BBSteplengthStrategy:
    """First Barzilai-Borwein rule with alpha_0 = 1 (clamped)."""

    name = "bb"

    def __init__(self, alpha_min, alpha_max):
        self.alpha_min = float(alpha_min)
        self.alpha_max = float(alpha_max)
        self._prev_x = None
        self._prev_grad = None

    def choose(self, x, grad, metric, problem):
        if self._prev_x is None:
            return float(np.clip(1.0, self.alpha_min, self.alpha_max))
        s = x - self._prev_x
        y = grad - self._prev_grad
        return bb_steplength(s, y, self.alpha_min, self.alpha_max)

    def update(self, x, grad, metric, alpha_used, problem):
        self._prev_x = np.array(x)
        self._prev_grad = np.array(grad)


@dataclass
class SteplengthMemory:
    """Ring buffer of (steplength, scaled reduced gradient) pairs plus the
    queue of pending reciprocal Ritz values."""

    window: int = 3
    history: deque = field(default_factory=deque)
    queue: deque = field(default_factory=deque)

    def push(self, alpha, scaled_grad):
        self.history.append((float(alpha), scaled_grad))
        while len(self.history) > self.window:
            self.history.popleft()

    @property
    def full(self):
        return len(self.history) == self.window


class RitzSteplengthStrategy:
    """Steplengths from reciprocal Ritz values, one consumed per iteration.

    The queue is rebuilt from the most recent ``window`` scaled reduced
    gradients whenever it runs empty; before the window fills (and on
    factorization failure) the strategy falls back to the BB1 rule.
    Steplengths are consumed smallest first.
    """

    name = "ritz"

    def __init__(self, alpha_min, alpha_max, window=3):
        if window < 1:
            raise ValueError("window must be at least 1")
        self.alpha_min = float(alpha_min)
        self.alpha_max = float(alpha_max)
        self.memory = SteplengthMemory(window=window)
        self._bb = BBSteplengthStrategy(alpha_min, alpha_max)

    def _clamp(self, alpha):
        return float(np.clip(alpha, self.alpha_min, self.alpha_max))

    def choose(self, x, grad, metric, problem):
        if self.memory.queue:
            return self._clamp(self.memory.queue.popleft())
        if self.memory.full:
            reduced = reduced_gradient(x, grad, problem.active_mask(x))
            steps = ritz_steplengths(list(self.memory.history), metric, reduced)
            if steps is not None:
                self.memory.queue.extend(steps)
                return self._clamp(self.memory.queue.popleft())
            logger.info("Ritz window rank deficient; falling back to BB1")
        return self._bb.choose(x, grad, metric, problem)

    def update(self, x, grad, metric, alpha_used, problem):
        reduced = reduced_gradient(x, grad, problem.active_mask(x))
        self.memory.push(alpha_used, np.sqrt(metric.diag) * reduced)
        self._bb.update(x, grad, metric, alpha_used, problem)


def make_metric_strategy(name, mu):
    strategies = {
        "identity": IdentityMetricStrategy,
        "sg": SplitGradientMetricStrategy,
        "majorant": MajorantMetricStrategy,
    }
    if name not in strategies:
        raise ValueError(f"unknown metric strategy {name!r}")
    return strategies[name](mu)


def make_steplength_strategy(name, alpha_min, alpha_max, window=3):
    if name == "bb":
        return BBSteplengthStrategy(alpha_min, alpha_max)
    if name == "ritz":
        return RitzSteplengthStrategy(alpha_min, alpha_max, window=window)
    raise ValueError(f"unknown steplength strategy {name!r}")
