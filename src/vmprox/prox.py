"""Proximal maps for the solver.

Two families are supported: exact box projections, and an inexact solver for
composite regularizers of the form ``f1(x) = g(Ax)`` (isotropic total
variation plus nonnegativity) that runs accelerated projected gradient
ascent on the dual of the scaled proximal subproblem and stops on a
primal-dual gap certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import ForwardDifference2D, IdentityOperator, VStackOperator, isotropic_tv

__all__ = [
    "ProxCertificate",
    "InexactProxError",
    "TVNonnegRegularizer",
    "BoxProx",
    "DualTVProx",
    "exact_prox_box",
    "project_dual_tv",
]


class InexactProxError(RuntimeError):
    """Dual iteration limit hit before the gap certificate was met."""

    def __init__(self, message, last_gap):
        super().__init__(message)
        self.last_gap = last_gap


@dataclass
class ProxCertificate:
    """Accepted inexact proximal point together with its dual certificate.

    ``h_primal`` is the value of the full (curvature-1) proximal merit at
    ``y_tilde``, ``psi_dual`` the dual objective at ``dual_v``; weak duality
    gives ``psi_dual <= h_primal`` and acceptance enforces
    ``h_primal <= psi_dual / (1 + tau/2)``, both nonpositive.
    ``epsilon_k = -(tau/2) * h_gamma`` is the certified inexactness level.
    """

    y_tilde: np.ndarray
    dual_v: np.ndarray | None
    h_primal: float
    psi_dual: float
    h_gamma: float
    epsilon_k: float
    inner_iters: int

    @property
    def gap(self):
        return self.h_primal - self.psi_dual


def exact_prox_box(z, lower, upper):
    """Entrywise projection onto ``[lower, upper]``."""
    if lower > upper:
        raise ValueError("lower must not exceed upper")
    return np.clip(np.asarray(z, dtype=float), lower, upper)


def project_dual_tv(v, rho, n):
    """Project a dual vector onto the conjugate domain of TV + nonnegativity.

    The first ``2n`` entries are per-pixel pairs projected onto the ball of
    radius ``rho``; the last ``n`` entries are clipped to the nonpositive
    half-line.  Idempotent and nonexpansive.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (3 * n,):
        raise ValueError(f"dual vector must have length {3 * n}")
    out = v.copy()
    pairs = out[: 2 * n].reshape(n, 2)
    norms = np.hypot(pairs[:, 0], pairs[:, 1])
    pairs *= np.divide(rho, norms, out=np.ones_like(norms), where=norms > rho)[:, None]
    np.minimum(out[2 * n :], 0.0, out=out[2 * n :])
    return out


class TVNonnegRegularizer:
    """``f1(x) = rho * sum_i ||gradient pair_i||`` plus nonnegativity.

    Encoded as ``g(Ax)`` with ``A = [gradient; identity]`` mapping R^n to
    R^{3n}; the conjugate ``g*`` vanishes on its domain (a product of
    rho-balls and the nonpositive orthant), so dual evaluations only need
    the domain projection.
    """

    def __init__(self, shape, rho):
        h, w = shape
        if rho < 0:
            raise ValueError("rho must be nonnegative")
        self.shape = (h, w)
        self.n = h * w
        self.rho = float(rho)
        self.fd = ForwardDifference2D(shape)
        self.A = VStackOperator([self.fd, IdentityOperator(self.n)])
        self.norm_A_sq = self.A.norm_sq_bound()

    def tv(self, x):
        return isotropic_tv(x, self.shape)

    def f1(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x < 0):
            return np.inf
        return self.rho * self.tv(x)

    def in_domain(self, x):
        return bool(np.all(np.asarray(x) >= 0))

    def project_domain(self, x):
        return np.maximum(np.asarray(x, dtype=float), 0.0)

    def project_conjugate(self, v):
        return project_dual_tv(v, self.rho, self.n)


class BoxProx:
    """Exact proximal map of a box indicator under a diagonal metric."""

    is_exact = True

    def __init__(self, lower, upper):
        if lower > upper:
            raise ValueError("lower must not exceed upper")
        self.lower = float(lower)
        self.upper = float(upper)

    def reset(self):
        pass

    def in_domain(self, x):
        x = np.asarray(x)
        return bool(np.all(x >= self.lower) and np.all(x <= self.upper))

    def f1(self, x):
        return 0.0 if self.in_domain(x) else np.inf

    def solve(self, x, grad, f1_x, alpha, metric, gamma, tau, gap_tol=None):
        d = metric.diag
        z = x - alpha * grad / d
        y = np.clip(z, self.lower, self.upper)
        dy = y - x
        quad = 0.5 / alpha * float(np.dot(d * dy, dy))
        lin = float(np.dot(grad, dy))
        h_primal = lin + quad
        h_gamma = lin + gamma * quad
        # Exact prox: strong duality holds, report the primal value as the
        # dual one (zero gap).
        return ProxCertificate(
            y_tilde=y,
            dual_v=None,
            h_primal=h_primal,
            psi_dual=h_primal,
            h_gamma=h_gamma,
            epsilon_k=0.5 * tau * max(0.0, -h_gamma),
            inner_iters=0,
        )


class DualTVProx:
    """Inexact proximal map for TV + nonnegativity via dual ascent.

    The inner solver is accelerated projected gradient ascent on the dual
    objective with the Chambolle-Dossal stepsize sequence
    ``t_l = (l + a - 1) / a`` (``a = 2.1``) and Lipschitz step
    ``1 / (alpha * max(D^{-1}) * ||A||^2)``.

    Acceptance takes the first inner iterate whose primal merit value drops
    below ``eta`` times the dual value, ``eta = 1 / (1 + tau/2)``; passing
    ``gap_tol`` switches to a primal-dual gap threshold instead (used by the
    equivalence tests).  With ``warm_start=True`` the accepted dual vector
    seeds the next call.
    """

    is_exact = False

    def __init__(self, regularizer, inner_limit=5000, warm_start=True):
        if inner_limit < 1:
            raise ValueError("inner_limit must be at least 1")
        self.reg = regularizer
        self.inner_limit = int(inner_limit)
        self.warm_start = bool(warm_start)
        self._v_prev = None

    def reset(self):
        self._v_prev = None

    def in_domain(self, x):
        return self.reg.in_domain(x)

    def f1(self, x):
        return self.reg.f1(x)

    def solve(self, x, grad, f1_x, alpha, metric, gamma, tau, gap_tol=None):
        reg = self.reg
        d = metric.diag
        z = x - alpha * grad / d
        base = (
            -f1_x
            - 0.5 * alpha * float(np.dot(grad / d, grad))
            + 0.5 / alpha * float(np.dot(d * z, z))
        )
        step = d.min() / (alpha * reg.norm_A_sq)
        eta = 1.0 / (1.0 + 0.5 * tau)

        def psi_of(atv):
            w = alpha * atv / d - z
            return -0.5 / alpha * float(np.dot(d * w, w)) + base

        def h_parts(y):
            dy = y - x
            quad = 0.5 / alpha * float(np.dot(d * dy, dy))
            lin = float(np.dot(grad, dy))
            f1_y = reg.rho * reg.tv(y)
            h1 = lin + quad + f1_y - f1_x
            hg = lin + gamma * quad + f1_y - f1_x
            return h1, hg

        def accepted(h1, psi):
            if gap_tol is not None:
                return h1 - psi <= gap_tol
            # Tiny absolute slack absorbs rounding when both sides vanish at
            # stationary points.
            return h1 <= eta * psi + 1e-14 * (1.0 + abs(psi))

        if self.warm_start and self._v_prev is not None:
            v = reg.project_conjugate(self._v_prev)
        else:
            v = np.zeros(reg.A.n_out)

        a = 2.1
        v_old = v
        for ell in range(self.inner_limit + 1):
            if ell > 0:
                t_cur = (ell + a - 1.0) / a
                t_next = (ell + a) / a
                beta = (t_cur - 1.0) / t_next
                u = v + beta * (v - v_old)
                atu = reg.A.adjoint(u)
                grad_psi = reg.A.apply(z - alpha * atu / d)
                v_old, v = v, reg.project_conjugate(u + step * grad_psi)

            # Candidate P_dom(z - alpha D^{-1} A^T v): projecting onto the
            # domain of f1 keeps the primal merit finite at every iterate.
            atv = reg.A.adjoint(v)
            y = reg.project_domain(z - alpha * atv / d)
            h1, hg = h_parts(y)
            psi = psi_of(atv)
            if accepted(h1, psi):
                if self.warm_start:
                    self._v_prev = v
                return ProxCertificate(y, v, h1, psi, hg,
                                       0.5 * tau * max(0.0, -hg), ell)

        raise InexactProxError(
            f"no certificate within {self.inner_limit} dual iterations "
            f"(last gap {h1 - psi:.3e})",
            last_gap=h1 - psi,
        )
