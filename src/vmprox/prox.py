"""Proximal maps for the solver.

Two families are supported: exact box projections, and an inexact solver for
composite regularizers of the form ``f1(x) = g(Ax)`` (isotropic total
variation plus nonnegativity) that runs accelerated projected gradient
ascent on the dual of the scaled proximal subproblem and stops on a
primal-dual gap certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import ForwardDifference2D, _tv_sum, isotropic_tv

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
    """Dual iteration limit hit before the gap certificate was met.

    ``last_gap`` is the gap of the last candidate; ``k`` is the outer
    iteration when the error escapes :func:`vmprox.solver.minimize`, else
    None.
    """

    k = None

    def __init__(self, message, last_gap):
        super().__init__(message)
        self.last_gap = last_gap


@dataclass
class ProxCertificate:
    """Accepted inexact proximal point together with its dual certificate.

    ``h_primal`` is the value of the full (curvature-1) proximal merit at
    ``y_tilde``, ``psi_dual`` the dual objective at ``dual_v``; weak duality
    gives ``psi_dual <= h_primal`` and acceptance enforces
    ``h_primal <= psi_dual / (1 + tau/2)``, both nonpositive.  ``h_gamma`` is
    the merit value at curvature ``gamma``, ``epsilon_k`` the certified
    inexactness level and ``f1_tilde`` the value of ``f1`` at ``y_tilde``.
    """

    y_tilde: np.ndarray
    dual_v: np.ndarray | None
    h_primal: float
    psi_dual: float
    h_gamma: float
    epsilon_k: float
    inner_iters: int
    f1_tilde: float


def _certificate(y, v, psi, lin, quad, f1_y, f1_x, gamma, tau, inner_iters):
    """Certificate of the candidate ``y`` with dual vector ``v`` and dual
    value ``psi`` (None: an exact prox, with zero gap).  The merit value at
    curvature ``c`` is ``lin + c * quad + f1_y - f1_x``; ``h_primal`` takes
    ``c = 1`` and ``h_gamma`` takes ``c = gamma``."""
    h_primal = lin + quad + f1_y - f1_x
    h_gamma = lin + gamma * quad + f1_y - f1_x
    return ProxCertificate(y, v, h_primal, h_primal if psi is None else psi,
                           h_gamma, 0.5 * tau * max(0.0, -h_gamma), inner_iters, f1_y)


def exact_prox_box(z, lower, upper):
    """Entrywise projection onto ``[lower, upper]``."""
    if lower > upper:
        raise ValueError("lower must not exceed upper")
    return np.clip(np.asarray(z, dtype=float), lower, upper)


def project_dual_tv(v, rho, n):
    """Project a planar dual vector ``[pv; ph; q]`` onto the conjugate domain
    of TV + nonnegativity.

    Each pixel's pair ``(pv_i, ph_i)`` is projected onto the ball of radius
    ``rho``; the last ``n`` entries are clipped to the nonpositive half-line.
    Idempotent and nonexpansive.  Returns a new array.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (3 * n,):
        raise ValueError(f"dual vector must have length {3 * n}")
    if not 0 <= rho < np.inf:
        raise ValueError("rho must be nonnegative and finite")
    return _project_dual_tv_in_place(v.copy(), rho, n, np.empty((2, n)))


def _project_dual_tv_in_place(v, rho, n, work):
    """:func:`project_dual_tv` on ``v`` itself; ``work`` holds two arrays of
    length ``n``."""
    pv, ph, q = v[:n], v[n : 2 * n], v[2 * n :]
    if rho > 0:
        # Each pair's norm is sqrt(pv^2 + ph^2), within about an ulp of
        # hypot and several times cheaper.  The rounding cannot weaken the
        # certificate, which is computed from whatever v the projection
        # produces, never from how it was produced.  The squares keep that
        # accuracy while they stay normal: with rho >= 1e-150 every pair on
        # or outside the ball has a sum of squares of at least 1e-300,
        # where a subnormal addend errs by at most 5e-324, and a pair whose
        # squares underflow lies inside the ball either way.  Smaller rho,
        # and squares that overflow (or NaN entries), take hypot itself.
        if rho < 1e-150:
            norms = np.hypot(pv, ph, out=work[0])
        else:
            norms = _pair_norms(pv, ph, work)
            if not math.isfinite(norms.max()):
                np.hypot(pv, ph, out=norms)
        # rho / max(norm, rho) is exactly 1 inside the ball (x / x == 1).
        np.maximum(norms, rho, out=norms)
        scale = np.divide(rho, norms, out=norms)
    else:
        scale = 0.0
    pv *= scale
    ph *= scale
    np.minimum(q, 0.0, out=q)
    return v


def _pair_norms(a, b, work):
    """``sqrt(a^2 + b^2)`` into ``work[0]``, with ``work[1]`` as scratch.
    Squares that overflow give inf, without a warning."""
    norms, sq = work
    with np.errstate(over="ignore"):
        np.add(np.square(a, out=norms), np.square(b, out=sq), out=norms)
    return np.sqrt(norms, out=norms)


def _merit_lower_bound(lin, quad, dv, dh, rho, f1_x, work):
    """Lower bound on ``lin + quad + rho * sum(hypot(dv, dh)) - f1_x`` from
    the cheaper norms ``sqrt(dv^2 + dh^2)``; ``work`` holds two arrays.

    Each such norm is within a few ulp of ``hypot`` and both TV sums are
    numpy's pairwise sums in the same order, so with the rounding of the
    four-term sum they differ by O(log n) ulp, far inside the 1e-12 relative
    margin.  Underflowing squares err by at most 3e-162 per pair (the
    absolute term); overflowing ones give a non-finite bound, not to be used.
    """
    f1_fast = rho * float(_pair_norms(dv, dh, work).sum())
    margin = (1e-12 * (abs(lin) + abs(quad) + f1_fast + abs(f1_x))
              + 1e-150 * (1.0 + rho * dv.size))
    return lin + quad + f1_fast - f1_x - margin


# TVNonnegRegularizer.norm_A_sq per grid shape (h, w); entries are only added.
_NORM_A_SQ = {}


class TVNonnegRegularizer:
    """``f1(x) = rho * sum_i ||gradient pair_i||`` plus nonnegativity.

    Encoded as ``g(Ax)`` with ``A = [gradient; identity]`` mapping R^n to
    R^{3n} in the planar layout ``[dv; dh; x]``; this class applies ``A``
    and ``A^T`` itself.  The conjugate ``g*`` vanishes on its domain (a
    product of rho-balls and the nonpositive orthant), so dual evaluations
    only need the domain projection :func:`project_dual_tv`.

    ``norm_A_sq`` is :meth:`norm_sq_bound` of ``A``.  Since ``A`` does not
    depend on ``rho``, the first regularizer of each grid shape computes it
    and later ones of that shape reuse the same value from a per-process
    table.
    """

    def __init__(self, shape, rho):
        h, w = shape
        if not 0 <= rho < np.inf:
            raise ValueError("rho must be nonnegative and finite")
        self.shape = (h, w)
        self.n = h * w
        self.n_in, self.n_out = self.n, 3 * self.n
        self.rho = float(rho)
        self.fd = ForwardDifference2D(shape)
        if self.shape not in _NORM_A_SQ:
            _NORM_A_SQ[self.shape] = self.norm_sq_bound()
        self.norm_A_sq = _NORM_A_SQ[self.shape]

    def apply(self, x, out=None):
        """``[dv; dh; x]``, written into ``out`` when given."""
        out = np.empty(self.n_out) if out is None else out
        self.fd.apply(x, out[: 2 * self.n])
        out[2 * self.n :] = x
        return out

    def adjoint(self, p, out=None):
        """Negative divergence of ``[pv; ph]`` plus ``q``, into ``out`` when given."""
        out = self.fd.adjoint(p[: 2 * self.n], out)
        out += p[2 * self.n :]
        return out

    def norm_sq_bound(self):
        """Upper estimate of ||A||^2 via 50 power iterations on A^T A from a
        seeded random start.

        The power method approaches the top eigenvalue from below, hence the
        multiplicative safety factor 1.05.
        """
        rng = np.random.default_rng(0)
        v = rng.standard_normal(self.n_in)
        v /= np.linalg.norm(v)
        est = 0.0
        for _ in range(50):
            w = self.adjoint(self.apply(v))
            nw = np.linalg.norm(w)
            if nw == 0.0:
                break
            est = nw
            v = w / nw
        return 1.05 * est

    def f1(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x < 0):
            return np.inf
        return self.rho * isotropic_tv(x, self.shape)


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

    def active_mask(self, x):
        x = np.asarray(x)
        return (x == self.lower) | (x == self.upper)

    def solve(self, x, grad, f1_x, alpha, metric, gamma, tau):
        d = metric.diag
        z = x - alpha * grad / d
        y = exact_prox_box(z, self.lower, self.upper)
        dy = y - x
        quad = 0.5 / alpha * float(np.dot(d * dy, dy))
        lin = float(np.dot(grad, dy))
        # Exact prox: strong duality holds (zero gap).  f1 is 0 at y and at a
        # feasible x, and lin + c * quad is never -0.0 (quad >= +0.0), so the
        # f1 terms of the merit values change none of their bits.
        return _certificate(y, None, None, lin, quad, self.f1(y), f1_x, gamma,
                            tau, 0)


class DualTVProx:
    """Inexact proximal map for TV + nonnegativity via dual ascent.

    The inner solver is accelerated projected gradient ascent on the dual
    objective with the Chambolle-Dossal stepsize sequence
    ``t_l = (l + a - 1) / a`` (``a = 2.1``) and Lipschitz step
    ``1 / (alpha * max(D^{-1}) * ||A||^2)``, run as one loop over the planar
    dual vector ``[pv; ph; q]``.  Each call allocates its work arrays once,
    among them three dual buffers that rotate as the previous, current and
    next iterate; the projection works in place and no iteration allocates.

    Acceptance takes the first inner iterate whose primal merit value drops
    below ``eta`` times the dual value, ``eta = 1 / (1 + tau/2)``; passing
    ``gap_tol`` switches to a primal-dual gap threshold instead (used by the
    equivalence tests).  A cheap lower bound on each candidate's merit value
    screens it first; the exact TV value is computed only for candidates the
    bound cannot reject, so the exact test picks the same iterate.  With
    ``warm_start`` (the default) the accepted dual vector seeds the next call.
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
        return bool(np.all(np.asarray(x) >= 0))

    def f1(self, x):
        return self.reg.f1(x)

    def active_mask(self, x):
        return np.asarray(x) == 0

    def solve(self, x, grad, f1_x, alpha, metric, gamma, tau, gap_tol=None):
        reg = self.reg
        n, rho = reg.n, reg.rho
        d = metric.diag
        z = x - alpha * grad / d
        base = (
            -f1_x
            - 0.5 * alpha * float(np.dot(grad / d, grad))
            + 0.5 / alpha * float(np.dot(d * z, z))
        )
        step = d.min() / (alpha * reg.norm_A_sq)
        eta = 1.0 / (1.0 + 0.5 * tau)

        def accepted(h1, psi):
            if gap_tol is not None:
                return h1 - psi <= gap_tol
            # Tiny absolute slack absorbs rounding when both sides vanish at
            # stationary points.
            return h1 <= eta * psi + 1e-14 * (1.0 + abs(psi))

        # Only a warm-started prox keeps its last dual vector.
        v = np.zeros(reg.n_out) if self._v_prev is None else project_dual_tv(self._v_prev, rho, n)
        # Three dual buffers rotate: each iteration builds the extrapolated
        # point in the oldest one and projects the next iterate in place in
        # the spare one.  They are fresh per call, so a certificate's arrays
        # are never written again.  v_old starts as a copy of v, not v
        # itself, since u is built in its buffer.
        v_old, v_next = v.copy(), np.empty(reg.n_out)
        atv, t, y, dy, prod = (np.empty(n) for _ in range(5))
        diff = np.empty(2 * n)
        work = np.empty((2, *reg.shape))  # scratch of the bound and,
        pair_work = work.reshape(2, n)    # as a view, of the projection

        def scaled_adjoint(p):  # t = alpha D^{-1} A^T p
            np.multiply(alpha, reg.adjoint(p, atv), out=t)
            return np.divide(t, d, out=t)

        a = 2.1
        for ell in range(self.inner_limit + 1):
            if ell > 0:
                t_cur = (ell + a - 1.0) / a
                t_next = (ell + a) / a
                beta = (t_cur - 1.0) / t_next
                # u = v + beta (v - v_old); v_new = P(u + step A(z - alpha D^-1 A^T u))
                u = np.subtract(v, v_old, out=v_old)
                u *= beta
                u += v
                reg.apply(np.subtract(z, scaled_adjoint(u), out=t), v_next)
                v_next *= step
                v_next += u
                _project_dual_tv_in_place(v_next, rho, n, pair_work)
                v_old, v, v_next = v, v_next, u

            # Candidate P_dom(w), w = z - alpha D^{-1} A^T v: projecting onto
            # the domain of f1 keeps the primal merit finite at every
            # iterate.  The dual value takes w before the projection:
            # (d * w) * w equals (d * -w) * -w bit for bit.
            w = np.subtract(z, scaled_adjoint(v), out=y)
            np.multiply(d, w, out=prod)
            psi = -0.5 / alpha * float(np.dot(prod, w)) + base
            np.maximum(w, 0.0, out=y)
            np.subtract(y, x, out=dy)
            np.multiply(d, dy, out=prod)
            quad = 0.5 / alpha * float(np.dot(prod, dy))
            lin = float(np.dot(grad, dy))

            # Both acceptance tests are monotone in the merit value, so a
            # candidate failing one on a lower bound fails it exactly.  The
            # last candidate is certified anyway, for the reported gap.
            dv, dh = reg.fd.apply(y, diff).reshape(2, *reg.shape)
            low = _merit_lower_bound(lin, quad, dv, dh, rho, f1_x, work)
            if (math.isfinite(low) and not accepted(low, psi)
                    and ell < self.inner_limit):
                continue
            cert = _certificate(y, v, psi, lin, quad, rho * _tv_sum(dv, dh),
                                f1_x, gamma, tau, ell)
            if accepted(cert.h_primal, psi):
                if self.warm_start:
                    self._v_prev = v
                return cert

        gap = cert.h_primal - psi
        raise InexactProxError(
            f"no certificate within {self.inner_limit} dual iterations "
            f"(last gap {gap:.3e})",
            last_gap=gap,
        )
