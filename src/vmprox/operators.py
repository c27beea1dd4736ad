"""Linear operators for 2-D imaging problems.

All operators act on flat float64 vectors holding row-major rasters of a
fixed (height, width) grid.  Every operator provides an exact adjoint and a
power-iteration upper bound on its squared spectral norm.
"""

from __future__ import annotations

import os

import numpy as np
import scipy.fft
import scipy.sparse
from scipy import ndimage

__all__ = [
    "LinearOperator",
    "ConvOperator2D",
    "ForwardDifference2D",
    "Laplacian2D",
    "IdentityOperator",
    "VStackOperator",
    "gaussian_psf",
    "isotropic_tv",
]


def fft_workers():
    """Worker count for FFT-based operator application (env override)."""
    try:
        return max(1, int(os.environ.get("VMPROX_NUM_THREADS", "1")))
    except ValueError:
        return 1


class LinearOperator:
    """Linear map between flat vectors with forward and adjoint application."""

    n_in = 0
    n_out = 0

    def apply(self, x):
        raise NotImplementedError

    def adjoint(self, y):
        raise NotImplementedError

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


class ConvOperator2D(LinearOperator):
    """2-D convolution with a nonnegative kernel scaled to unit sum, periodic
    boundary.

    Application goes through the frequency domain on grids whose smallest
    side is at least ``fft_threshold`` and through direct (spatial)
    convolution otherwise; the two paths agree to roughly 1e-13 and the test
    suite pins that.  The adjoint is correlation with the same kernel under
    the same boundary rule.
    """

    fft_threshold = 64

    def __init__(self, psf, shape, mode="auto"):
        psf = np.asarray(psf, dtype=float)
        if psf.ndim != 2 or psf.shape[0] % 2 == 0 or psf.shape[1] % 2 == 0:
            raise ValueError("psf must be 2-D with odd side lengths")
        if np.any(psf < 0):
            raise ValueError("psf entries must be nonnegative")
        total = psf.sum()
        if total <= 0:
            raise ValueError("psf must have positive mass")
        psf = psf / total
        h, w = shape
        kh, kw = psf.shape
        if kh > h or kw > w:
            raise ValueError("psf larger than image grid")
        if mode not in ("auto", "fft", "direct"):
            raise ValueError(f"unknown mode {mode!r}")
        self.psf = psf
        self.shape = (h, w)
        self.n_in = self.n_out = h * w
        self.mode = mode
        embedded = np.zeros(shape)
        embedded[:kh, :kw] = psf
        embedded = np.roll(embedded, (-(kh // 2), -(kw // 2)), axis=(0, 1))
        self._otf = scipy.fft.fft2(embedded, workers=fft_workers())

    def _use_fft(self):
        if self.mode == "auto":
            return min(self.shape) >= self.fft_threshold
        return self.mode == "fft"

    def _apply_path(self, x, adjoint, use_fft):
        img = np.asarray(x, dtype=float).reshape(self.shape)
        if use_fft:
            spec = scipy.fft.fft2(img, workers=fft_workers())
            otf = np.conj(self._otf) if adjoint else self._otf
            out = scipy.fft.ifft2(spec * otf, workers=fft_workers()).real
        elif adjoint:
            out = ndimage.correlate(img, self.psf, mode="wrap")
        else:
            out = ndimage.convolve(img, self.psf, mode="wrap")
        return out.ravel()

    def apply(self, x):
        return self._apply_path(x, adjoint=False, use_fft=self._use_fft())

    def adjoint(self, y):
        return self._apply_path(y, adjoint=True, use_fft=self._use_fft())


def _differences(x, shape):
    """Vertical and horizontal forward differences, zero on the last row/column."""
    h, w = shape
    u = np.asarray(x, dtype=float).reshape(h, w)
    dv = np.zeros((h, w))
    dh = np.zeros((h, w))
    dv[:-1, :] = u[1:, :] - u[:-1, :]
    dh[:, :-1] = u[:, 1:] - u[:, :-1]
    return dv, dh


class ForwardDifference2D(LinearOperator):
    """Per-pixel forward differences with Neumann boundary.

    The output interleaves the two components: entries ``2i`` and ``2i + 1``
    hold the vertical and horizontal difference at pixel ``i`` (row-major),
    with zero difference on the last row/column.  The adjoint is the negative
    discrete divergence.
    """

    def __init__(self, shape):
        h, w = shape
        self.shape = (h, w)
        self.n_in = h * w
        self.n_out = 2 * h * w

    def apply(self, x):
        dv, dh = _differences(x, self.shape)
        out = np.empty(self.n_out)
        out[0::2] = dv.ravel()
        out[1::2] = dh.ravel()
        return out

    def adjoint(self, p):
        h, w = self.shape
        p = np.asarray(p, dtype=float)
        pv = p[0::2].reshape(h, w)
        ph = p[1::2].reshape(h, w)
        out = np.zeros((h, w))
        out[:-1, :] -= pv[:-1, :]
        out[1:, :] += pv[:-1, :]
        out[:, :-1] -= ph[:, :-1]
        out[:, 1:] += ph[:, :-1]
        return out.ravel()


def isotropic_tv(x, shape):
    """Sum over pixels of the Euclidean norm of the forward-difference pair."""
    return float(np.hypot(*_differences(x, shape)).sum())


class Laplacian2D(LinearOperator):
    """5-point Neumann Laplacian (interior stencil: center -4, neighbors +1).

    Built as minus the composition of the forward-difference operator with
    its adjoint, which keeps it exactly self-adjoint.
    """

    def __init__(self, shape):
        h, w = shape
        self.shape = (h, w)
        self.n_in = self.n_out = h * w
        self._fd = ForwardDifference2D(shape)

    def apply(self, x):
        return -self._fd.adjoint(self._fd.apply(x))

    def adjoint(self, y):
        return self.apply(y)

    def sparse(self):
        """CSR matrix of the same map, for direct linear solves."""
        h, w = self.shape

        def second_diff(k):
            d = scipy.sparse.diags(
                [np.ones(k - 1), -2.0 * np.ones(k), np.ones(k - 1)],
                offsets=[-1, 0, 1],
                format="lil",
            )
            d[0, 0] = -1.0
            d[k - 1, k - 1] = -1.0
            return d.tocsr()

        eye_h = scipy.sparse.identity(h, format="csr")
        eye_w = scipy.sparse.identity(w, format="csr")
        lap = scipy.sparse.kron(eye_h, second_diff(w)) + scipy.sparse.kron(
            second_diff(h), eye_w
        )
        return lap.tocsr()


class IdentityOperator(LinearOperator):
    def __init__(self, n):
        self.n_in = self.n_out = n

    def apply(self, x):
        return np.asarray(x, dtype=float)

    def adjoint(self, y):
        return np.asarray(y, dtype=float)


class VStackOperator(LinearOperator):
    """Vertical stack [A_1; A_2; ...] of operators sharing the input space."""

    def __init__(self, ops):
        if not ops:
            raise ValueError("need at least one operator")
        n_in = ops[0].n_in
        if any(op.n_in != n_in for op in ops):
            raise ValueError("stacked operators must share the input size")
        self.ops = list(ops)
        self.n_in = n_in
        self.n_out = sum(op.n_out for op in ops)
        self._splits = np.cumsum([op.n_out for op in ops])[:-1]

    def apply(self, x):
        return np.concatenate([op.apply(x) for op in self.ops])

    def adjoint(self, y):
        parts = np.split(np.asarray(y, dtype=float), self._splits)
        out = self.ops[0].adjoint(parts[0])
        for op, part in zip(self.ops[1:], parts[1:]):
            out = out + op.adjoint(part)
        return out


def gaussian_psf(size, sigma):
    """Truncated Gaussian kernel of odd side ``size``, normalized to sum one."""
    if size % 2 == 0 or size < 1:
        raise ValueError("size must be odd and positive")
    r = (size - 1) / 2.0
    yy, xx = np.mgrid[0:size, 0:size] - r
    k = np.exp(-(xx**2 + yy**2) / (2.0 * sigma**2))
    return k / k.sum()
