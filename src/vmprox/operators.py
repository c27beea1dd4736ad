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

__all__ = [
    "LinearOperator",
    "ConvOperator2D",
    "ForwardDifference2D",
    "Laplacian2D",
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
    boundary, applied through the frequency domain on every grid.

    ``apply`` multiplies the spectrum by the kernel's transfer function; the
    adjoint (correlation with the same kernel under the same boundary rule)
    multiplies by its complex conjugate.
    """

    def __init__(self, psf, shape):
        psf = np.asarray(psf, dtype=float)
        if psf.ndim != 2 or psf.shape[0] % 2 == 0 or psf.shape[1] % 2 == 0:
            raise ValueError("psf must be 2-D with odd side lengths")
        if np.any(psf < 0):
            raise ValueError("psf entries must be nonnegative")
        total = psf.sum()
        if total <= 0:
            raise ValueError("psf must have positive mass")
        h, w = shape
        kh, kw = psf.shape
        if kh > h or kw > w:
            raise ValueError("psf larger than image grid")
        self.shape = (h, w)
        self.n_in = self.n_out = h * w
        embedded = np.zeros(shape)
        embedded[:kh, :kw] = psf / total
        embedded = np.roll(embedded, (-(kh // 2), -(kw // 2)), axis=(0, 1))
        self._otf = scipy.fft.fft2(embedded, workers=fft_workers())

    def _use_fft(self):
        # Every application goes through the FFT.  The benchmark's traced
        # observer (vmbench/run.py) still calls this to count direct ones.
        return True

    def _filter(self, x, otf):
        # Keep ``spec * otf`` a product of two named arrays, out of place.
        # numpy's complex product rounds differently when its factors swap,
        # and from 256 KiB it computes into a temporary factor in place,
        # swapping them; either would change the bits of every result.
        workers = fft_workers()
        spec = scipy.fft.fft2(np.asarray(x, dtype=float).reshape(self.shape),
                              workers=workers)
        return scipy.fft.ifft2(spec * otf, workers=workers).real.ravel()

    def apply(self, x):
        return self._filter(x, self._otf)

    def adjoint(self, y):
        return self._filter(y, np.conj(self._otf))


class ForwardDifference2D(LinearOperator):
    """Per-pixel forward differences with Neumann boundary.

    The output is planar: the first ``h * w`` entries hold the vertical
    differences and the next ``h * w`` the horizontal ones, both row-major,
    with zero difference on the last row/column.  The adjoint is the
    negative discrete divergence.  Both write into ``out`` when given.
    """

    def __init__(self, shape):
        h, w = shape
        self.shape = (h, w)
        self.n_in = h * w
        self.n_out = 2 * h * w

    def apply(self, x, out=None):
        h, w = self.shape
        u = np.asarray(x, dtype=float).reshape(h, w)
        out = np.empty(self.n_out) if out is None else out
        dv, dh = out.reshape(2, h, w)
        np.subtract(u[1:, :], u[:-1, :], out=dv[:-1, :])
        dv[-1, :] = 0.0
        np.subtract(u[:, 1:], u[:, :-1], out=dh[:, :-1])
        dh[:, -1] = 0.0
        return out

    def adjoint(self, p, out=None):
        h, w = self.shape
        pv, ph = np.asarray(p, dtype=float).reshape(2, h, w)
        out = np.empty(self.n_in) if out is None else out
        img = out.reshape(h, w)
        # Start from zeros and subtract: ``-p`` would turn zero entries into
        # -0.0, and the adjoint has always returned +0.0 there.
        img.fill(0.0)
        img[:-1, :] -= pv[:-1, :]
        img[1:, :] += pv[:-1, :]
        img[:, :-1] -= ph[:, :-1]
        img[:, 1:] += ph[:, :-1]
        return out


def isotropic_tv(x, shape):
    """Sum over pixels of the Euclidean norm of the forward-difference pair."""
    pairs = ForwardDifference2D(shape).apply(x).reshape(2, *shape)
    return float(np.hypot(*pairs).sum())


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


def gaussian_psf(size, sigma):
    """Truncated Gaussian kernel of odd side ``size``, normalized to sum one."""
    if size % 2 == 0 or size < 1:
        raise ValueError("size must be odd and positive")
    r = (size - 1) / 2.0
    yy, xx = np.mgrid[0:size, 0:size] - r
    k = np.exp(-(xx**2 + yy**2) / (2.0 * sigma**2))
    return k / k.sum()
