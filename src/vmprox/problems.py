"""Benchmark objectives: two deconvolution models, a diffusion-based image
compression problem, and a 1-D box-constrained example, plus synthetic data
generation.

Every problem exposes the smooth part (``f0``/``grad_f0``) and a proximal
strategy, which owns the convex nonsmooth part (``f1``), the domain test and
the active-set rule used by reduced gradients.
"""

from __future__ import annotations

import inspect

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .operators import laplacian
from .prox import BoxProx, DualTVProx, TVNonnegRegularizer

__all__ = [
    "DomainError",
    "LinearSolveError",
    "Problem",
    "DeblurProblem",
    "SignalDependentGaussianProblem",
    "CauchyDeblurProblem",
    "MaskCompressionProblem",
    "Toy1DBoxProblem",
    "degrade_synthetic",
    "cartoon_image",
    "smooth_image",
]


class DomainError(ValueError):
    """Evaluation requested outside the objective's domain."""


class LinearSolveError(RuntimeError):
    """Linear solve failed to reach the required residual."""

    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual


class Problem:
    """Composite objective f = f0 + f1 with a pluggable proximal strategy."""

    kind = "generic"
    n = 0
    prox = None

    def f0(self, x):
        raise NotImplementedError

    def grad_f0(self, x):
        raise NotImplementedError

    def f1(self, x):
        return self.prox.f1(x)

    def in_domain(self, x):
        return self.prox.in_domain(x)

    def reset(self):
        """Drop the state kept between the steps of one solve."""
        self.prox.reset()

    def f(self, x):
        val1 = self.f1(x)
        if not np.isfinite(val1):
            return np.inf
        return self.f0(x) + val1

    def active_mask(self, x):
        """Coordinates whose reduced gradient is zeroed (at active bounds)."""
        return self.prox.active_mask(x)


def _finite(name, values):
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{name} has non-finite entries")
    return values


class DeblurProblem(Problem):
    """Shared set-up of the deblurring models: blur ``H``, observed image
    ``g`` and a ``rho``-weighted TV plus nonnegativity regularizer handled by
    the inexact dual prox ``self.prox``, whose ``inner_limit`` and
    ``warm_start`` a caller may set."""

    def __init__(self, H, g, shape, rho):
        h, w = shape
        self.n = h * w
        self.shape = (h, w)
        grid = tuple(H.shape)
        if grid != self.shape:
            raise ValueError(f"blur grid {grid} differs from image grid {self.shape}")
        self.H = H
        self.g = _finite("g", np.asarray(g, dtype=float).ravel())
        if self.g.size != self.n:
            raise ValueError("observed image size mismatch")
        self.prox = DualTVProx(TVNonnegRegularizer(shape, rho))
        self._blurred = None  # (bytes of x, H x) of the most recent point

    def reset(self):
        super().reset()
        self._blurred = None

    def blur(self, x):
        """``H x``, kept for the most recent point so that ``f0``, ``grad_f0``
        and the split-gradient metric of a point share one convolution.  The
        array is shared: callers must not write to it."""
        x = np.asarray(x, dtype=float).ravel()
        key = x.tobytes()  # match bits: 0.0 and -0.0 are distinct points
        if self._blurred is None or self._blurred[0] != key:
            self._blurred = (key, self.H.apply(x))
        return self._blurred[1]


class SignalDependentGaussianProblem(DeblurProblem):
    """Deconvolution under Gaussian noise whose variance is affine in the
    blurred intensity.

    The misfit is ``0.5 * sum_i ((Hx)_i - g_i)^2 / (a (Hx)_i + b)
    + log(a (Hx)_i + b)`` (nonconvex, smooth wherever the affine variance
    is positive); the regularizer is ``rho * TV`` plus nonnegativity.
    """

    kind = "gaussian_sd"

    def __init__(self, H, g, shape, a=1.0, b=1.0, rho=0.03):
        # Before ``g``: data synthesized with a non-finite ``a`` or ``b`` is
        # non-finite too, and the message should name the parameter.
        a, b = float(a), float(b)  # one affine variance for every pixel
        if not 0 <= a < np.inf:
            raise ValueError("a must be nonnegative and finite")
        if not 0 < b < np.inf:
            raise ValueError("b must be positive and finite")
        super().__init__(H, g, shape, rho)
        self.a, self.b = a, b

    def _variance(self, t):
        c = self.a * t + self.b
        if np.any(c <= 0):
            raise DomainError("affine variance must stay positive")
        return c

    def f0(self, x):
        t = self.blur(x)
        c = self._variance(t)
        r = t - self.g
        return 0.5 * float(np.sum(r * r / c + np.log(c)))

    def grad_f0(self, x):
        t = self.blur(x)
        c = self._variance(t)
        r = t - self.g
        q = r / c - 0.5 * self.a * r * r / (c * c) + 0.5 * self.a / c
        return self.H.adjoint(q)

    def split_gradient_metric(self, x):
        """Split-gradient ``D^{-1}``: ``x_i / (V_i + eps_mach)``, where
        ``V = H^T s`` is the positive part of the gradient splitting."""
        x = np.asarray(x, dtype=float)
        t = self.blur(x)
        a, b, g = self.a, self.b, self.g
        c = a * t + b
        s = t * (a * (t + g) + 2.0 * b) / (2.0 * c * c) + 0.5 * a / c
        V = self.H.adjoint(s)
        return x / (V + np.finfo(float).eps)

    def curvature_bound(self):
        """Bound on the per-component second derivative of the misfit, valid
        on the nonnegative blurred range."""
        a, b = np.asarray(self.a), np.asarray(self.b)  # numpy's power, not float's
        pos = (a * self.g + b) ** 2 / b**3
        neg = 0.5 * a**2 / b**2
        return float(np.max(np.maximum(pos, neg)))


class CauchyDeblurProblem(DeblurProblem):
    """Deblurring under additive Cauchy noise.

    The misfit is ``(lambda/2) * sum_i log(gamma^2 + ((Hx)_i - g_i)^2)``
    (smooth everywhere, nonconvex); the regularizer is unit-weight TV plus
    nonnegativity.
    """

    kind = "cauchy"

    def __init__(self, H, g, shape, gamma_noise=0.02, lambda_reg=0.35):
        if not 0 < gamma_noise < np.inf:
            raise ValueError("gamma_noise must be positive and finite")
        if not lambda_reg > 0:
            raise ValueError("lambda_reg must be positive")
        if not np.isfinite(lambda_reg):
            raise ValueError("lambda_reg must be finite")
        super().__init__(H, g, shape, 1.0)
        self.gamma_noise = float(gamma_noise)
        self.lambda_reg = float(lambda_reg)

    def f0(self, x):
        r = self.blur(x) - self.g
        return 0.5 * self.lambda_reg * float(
            np.sum(np.log(self.gamma_noise**2 + r * r))
        )

    def grad_f0(self, x):
        r = self.blur(x) - self.g
        return self.lambda_reg * self.H.adjoint(
            r / (self.gamma_noise**2 + r * r)
        )

    def split_gradient_metric(self, x):
        """Split-gradient ``D^{-1} = x / V``, ``V = lambda H^T (Hx / (gamma^2
        + (Hx - g)^2))``; ``inf`` where ``V <= 0``, ``0`` where ``x == 0``."""
        x = np.asarray(x, dtype=float)
        t = self.blur(x)
        r = t - self.g
        s = t / (self.gamma_noise**2 + r * r)
        V = self.lambda_reg * self.H.adjoint(s)
        ratio = np.divide(x, V, out=np.full(x.shape, np.inf), where=V > 0)
        ratio[x == 0.0] = 0.0
        return ratio

    def curvature_bound(self):
        return self.lambda_reg / self.gamma_noise**2


DEBLUR_KINDS = ("gaussian_sd", "cauchy")


class _ColumnOrder:
    """COLAMD's column order for one zero pattern, applied as the symmetric
    reordering ``A[perm][:, perm]`` that SuperLU then factors in natural
    order.

    Relabelling the rows too keeps SuperLU's preferred pivot on the diagonal
    of ``A``, and keeping each column's rows in their order in ``A`` makes
    its symbolic search visit them in the same order.  So the pivots, ties
    included, and every floating-point operation match ``splu(A)``.
    """

    def __init__(self, A, perm_c):
        perm_c = np.asarray(perm_c)
        self.perm = np.argsort(perm_c)  # ordered column j is column perm[j]
        counts = np.diff(A.indptr)[self.perm]
        self.indptr = np.concatenate([[0], np.cumsum(counts)])
        self.gather = (np.repeat(A.indptr[self.perm] - self.indptr[:-1], counts)
                       + np.arange(A.nnz))
        self.indices = perm_c[A.indices[self.gather]]

    def apply(self, A):
        """``A[perm][:, perm]`` for a matrix ``A`` of this zero pattern."""
        B = scipy.sparse.csc_matrix(
            (A.data[self.gather], self.indices, self.indptr), shape=A.shape)
        B.has_canonical_format = True  # splu must not sort the rows
        return B


class _OrderedLU:
    """Solves with ``A`` through a SuperLU factor of ``A`` itself (``perm``
    None) or of ``A[perm][:, perm]``."""

    def __init__(self, lu, perm):
        self.lu = lu
        self.perm = perm

    def solve(self, b, trans="N"):
        if self.perm is None:
            return self.lu.solve(b, trans=trans)
        x = np.empty_like(b)
        x[self.perm] = self.lu.solve(b[self.perm], trans=trans)
        return x


class MaskCompressionProblem(Problem):
    """Interpolation-mask selection for linear-diffusion image compression.

    With ``C = diag(c)`` and ``A(c) = C + (C - I) L`` (``L`` the Neumann
    Laplacian), the smooth part is
    ``0.5 * ||A(c)^{-1} C u0 - u0||^2 + lambda * sum_i c_i`` (the l1 penalty
    is linear on the box and thus absorbed into the smooth part); ``f1`` is
    the indicator of ``[0, box_upper]^n``.

    Linear systems are solved by sparse LU with one iterative-refinement
    pass; residuals beyond ``solve_rtol`` raise :class:`LinearSolveError`.
    ``A(c)`` is assembled on the fixed 5-point pattern of ``L``, dropping
    exact zeros.  The column order that COLAMD picks depends only on which
    entries are zero, so it is computed once per zero pattern and reused;
    the factors, and hence every solution, are bit-identical to factoring
    each ``A(c)`` from scratch.  The last factorization and the column
    orders are released by :meth:`reset`, which ``minimize`` calls when the
    solve ends, and by :meth:`reconstruction`.
    """

    kind = "compression"
    solve_rtol = 1e-10

    def __init__(self, u0, shape, lambda_reg=0.01, box_upper=1.5):
        h, w = shape
        self.n = h * w
        self.shape = (h, w)
        self.u0 = _finite("u0", np.asarray(u0, dtype=float).ravel())
        if self.u0.size != self.n:
            raise ValueError("image size mismatch")
        if not np.isfinite(lambda_reg):
            raise ValueError("lambda_reg must be finite")
        self.lambda_reg = float(lambda_reg)
        if not box_upper > 0:
            raise ValueError("box_upper must be positive")
        self.L = laplacian(shape)
        self.prox = BoxProx(0.0, box_upper)
        # L in canonical CSC; its diagonal is stored on every grid
        Lc = self.L.tocsc()
        self._rows, self._indptr, self._lvals = Lc.indices, Lc.indptr, Lc.data
        self._diag = np.flatnonzero(
            Lc.indices == np.repeat(np.arange(self.n), np.diff(Lc.indptr)))
        self._orders = {}  # zero pattern -> _ColumnOrder
        self._cache_key = None
        self._cache = None

    def reset(self):
        super().reset()
        self._orders = {}
        self._cache_key = None
        self._cache = None

    def _assemble(self, c):
        """Canonical CSC ``A(c) = C + (C - I) L`` without exact zeros, and
        its zero pattern as a key.  Each entry is computed as
        ``diags(c) + diags(c - 1) @ L`` computes it: ``(c_i - 1) L_ij`` plus
        ``c_i`` on the diagonal."""
        data = (c[self._rows] - 1.0) * self._lvals
        data[self._diag] += c
        keep = data != 0.0
        ends = np.concatenate([[0], np.cumsum(keep)])
        A = scipy.sparse.csc_matrix(
            (data[keep], self._rows[keep], ends[self._indptr]),
            shape=(self.n, self.n))
        return A, keep.tobytes()

    def _factor(self, A, key):
        order = self._orders.get(key)
        if order is None:
            lu = scipy.sparse.linalg.splu(A)
            self._orders[key] = _ColumnOrder(A, lu.perm_c)
            return _OrderedLU(lu, None)
        return _OrderedLU(scipy.sparse.linalg.splu(order.apply(A),
                                                   permc_spec="NATURAL"),
                          order.perm)

    def _system(self, c):
        key = c.tobytes()
        if key == self._cache_key:
            return self._cache
        A, pattern = self._assemble(c)
        rhs = c * self.u0
        try:
            lu = self._factor(A, pattern)
        except RuntimeError as exc:
            raise LinearSolveError(
                f"diffusion system factorization failed: {exc}", np.inf
            ) from exc
        u = lu.solve(rhs)
        if not np.all(np.isfinite(u)):
            raise LinearSolveError("diffusion solve produced non-finite values",
                                   np.inf)
        res = np.linalg.norm(A @ u - rhs)
        tol = self.solve_rtol * max(1.0, np.linalg.norm(rhs))
        if res > tol:
            u = u + lu.solve(rhs - A @ u)
            res = np.linalg.norm(A @ u - rhs)
            if res > tol:
                raise LinearSolveError(
                    f"diffusion solve residual {res:.3e} above {tol:.3e}", res
                )
        self._cache_key = key
        self._cache = (A, lu, u)
        return self._cache

    def reconstruction(self, c):
        """Diffusion reconstruction ``A(c)^{-1} C u0``.  It is asked for
        after a solve, so it leaves no factorization behind."""
        c = np.asarray(c, dtype=float).ravel()
        _, _, u = self._system(c)
        self.reset()
        return u

    def f0(self, x):
        c = np.asarray(x, dtype=float).ravel()
        _, _, u = self._system(c)
        r = u - self.u0
        return 0.5 * float(np.dot(r, r)) + self.lambda_reg * float(np.sum(c))

    def grad_f0(self, x):
        c = np.asarray(x, dtype=float).ravel()
        _, lu, u = self._system(c)
        w = lu.solve(u - self.u0, trans="T")
        return -w * (u + self.L @ u - self.u0) + self.lambda_reg


class Toy1DBoxProblem(Problem):
    """Scalar example: minimize ``2 / (x + 1)`` over the box ``[0, 10]``.

    The smooth part decreases toward the upper bound, so the minimizer sits
    at ``x = 10`` with value ``2/11``.
    """

    kind = "toy1d"
    n = 1

    def __init__(self):
        self.prox = BoxProx(0.0, 10.0)

    def f0(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x <= -1.0):
            raise DomainError("f0 undefined at x <= -1")
        return float(np.sum(2.0 / (x + 1.0)))

    def grad_f0(self, x):
        x = np.asarray(x, dtype=float)
        return -2.0 / (x + 1.0) ** 2


def _keywords(func):
    """Name -> default of each parameter of ``func`` that has a default."""
    params = inspect.signature(func).parameters.values()
    return {p.name: p.default for p in params if p.default is not p.empty}


_GAUSSIAN_SD = _keywords(SignalDependentGaussianProblem)


def degrade_synthetic(x_true, H, model, seed, *, a=_GAUSSIAN_SD["a"],
                      b=_GAUSSIAN_SD["b"],
                      gamma_noise=_keywords(CauchyDeblurProblem)["gamma_noise"]):
    """Synthesize an observed image from ground truth, deterministically.

    ``gaussian_sd`` draws ``g = Hx + sqrt(a * Hx + b) * w`` with standard
    normal ``w``; ``cauchy`` draws ``g = Hx + gamma * tan(pi (u - 1/2))``
    with uniform ``u`` (inverse-CDF sampling).  Each noise parameter
    defaults to the model constructor's keyword of that name.
    """
    x_true = np.asarray(x_true, dtype=float).ravel()
    rng = np.random.default_rng(seed)
    t = H.apply(x_true)
    if model == "gaussian_sd":
        sigma = np.sqrt(np.maximum(a * t + b, 0.0))
        return t + sigma * rng.standard_normal(t.size)
    if model == "cauchy":
        u = rng.random(t.size)
        return t + gamma_noise * np.tan(np.pi * (u - 0.5))
    raise ValueError(f"unknown degradation model {model!r}")


def cartoon_image(shape):
    """Deterministic piecewise-constant test image with values in [0, 1]."""
    h, w = shape
    img = np.full((h, w), 0.15)
    img[int(0.12 * h):int(0.55 * h), int(0.10 * w):int(0.45 * w)] = 0.75
    yy, xx = np.ogrid[0:h, 0:w]
    disk = (yy - 0.62 * h) ** 2 + (xx - 0.64 * w) ** 2 <= (0.22 * min(h, w)) ** 2
    img[disk] = 0.50
    small = (yy - 0.30 * h) ** 2 + (xx - 0.72 * w) ** 2 <= (0.10 * min(h, w)) ** 2
    img[small] = 0.95
    img[int(0.78 * h):int(0.88 * h), int(0.15 * w):int(0.85 * w)] = 0.35
    return img.ravel()


def smooth_image(shape):
    """Deterministic smooth test image (Gaussian bumps), values in [0, 1]."""
    h, w = shape
    yy, xx = np.ogrid[0:h, 0:w]
    yy = yy / max(h - 1, 1)
    xx = xx / max(w - 1, 1)
    img = (
        0.9 * np.exp(-((yy - 0.35) ** 2 + (xx - 0.3) ** 2) / 0.05)
        + 0.7 * np.exp(-((yy - 0.7) ** 2 + (xx - 0.65) ** 2) / 0.03)
        + 0.1
    )
    return (img / img.max()).ravel()
