"""Linear operators for 2-D imaging problems.

All operators act on flat float64 vectors holding row-major rasters of a
fixed (height, width) grid.  Every operator provides an exact adjoint; the
convolution also gives its exact squared spectral norm.  The Laplacian is a
sparse matrix, which the compression problem factors.
"""

from __future__ import annotations

import weakref

import numpy as np
import scipy.sparse
from scipy.fft._pocketfft import pypocketfft

__all__ = [
    "ConvOperator2D",
    "ForwardDifference2D",
    "gaussian_psf",
    "isotropic_tv",
    "laplacian",
]


# The transfer-function pairs of live ConvOperator2Ds, by (PSF bytes, PSF
# shape, grid).  They are read-only, so any thread may share one.
_TRANSFER = weakref.WeakValueDictionary()


class ConvOperator2D:
    """2-D convolution with a nonnegative kernel scaled to unit sum, periodic
    boundary, applied through the frequency domain on every grid.

    ``apply`` multiplies the half spectrum of its real input (the last axis
    holds ``w // 2 + 1`` frequencies, which fix the rest by Hermitian
    symmetry) by the kernel's transfer function; the adjoint (correlation
    with the same kernel under the same boundary rule) multiplies by its
    complex conjugate, computed once with it.

    Each call is pocketfft's ``r2c`` then ``c2r``, the backend of
    ``scipy.fft.rfft2``/``irfft2(s=shape)``, with the arguments those
    wrappers pass, so the results are theirs bit for bit; real transforms
    cost about half as much as complex ones.  Calling the backend directly
    skips the wrappers' dispatch, shape checks and environment read, which
    cost more than the transform on small grids, and lets the product work
    in the forward transform's output.  Each transform runs on one worker.

    The transfer function and its conjugate are the two rows of one
    read-only ``(2, h, w // 2 + 1)`` array.  Operators of the same PSF bytes
    and grid share it through a table of weak references, so it lives
    exactly as long as some operator holds it.
    """

    def __init__(self, psf, shape):
        psf = np.asarray(psf, dtype=float)
        if psf.ndim != 2 or psf.shape[0] % 2 == 0 or psf.shape[1] % 2 == 0:
            raise ValueError("psf must be 2-D with odd side lengths")
        if np.any(psf < 0):
            raise ValueError("psf entries must be nonnegative")
        total = psf.sum()
        if not total < np.inf:  # a NaN or infinite entry
            raise ValueError("psf entries must be finite")
        if total <= 0:
            raise ValueError("psf must have positive mass")
        h, w = shape
        kh, kw = psf.shape
        if kh > h or kw > w:
            raise ValueError("psf larger than image grid")
        self.shape = (h, w)
        self.n_in = self.n_out = h * w
        key = (psf.tobytes(), psf.shape, self.shape)
        pair = _TRANSFER.get(key)
        if pair is None:
            # The kernel centred on pixel (0, 0), wrapping round the edges:
            # the four quadrants of ``np.roll`` of the corner-placed kernel,
            # written directly, which costs a third as much.
            kernel = psf / total
            r, c = kh // 2, kw // 2
            embedded = np.zeros(shape)
            embedded[:kh - r, :kw - c] = kernel[r:, c:]
            embedded[:kh - r, w - c:] = kernel[r:, :c]
            embedded[h - r:, :kw - c] = kernel[:r, c:]
            embedded[h - r:, w - c:] = kernel[:r, :c]
            pair = np.empty((2, h, w // 2 + 1), dtype=complex)
            pypocketfft.r2c(embedded, (0, 1), True, 0, pair[0], 1)
            np.conjugate(pair[0], out=pair[1])
            pair.flags.writeable = False
            _TRANSFER[key] = pair
        self._otf, self._otf_conj = pair  # views, which keep ``pair`` alive

    def norm_sq_bound(self):
        """``max |otf|^2``, the exact ``||H||^2`` of a circulant.  The half
        spectrum holds the maximum, since ``|otf(-k)| = |otf(k)|`` for a real
        kernel."""
        return float(np.max(np.abs(self._otf))) ** 2

    def _use_fft(self):
        # Every application goes through the FFT.  The benchmark's traced
        # observer (vmbench/run.py) still calls this to count direct ones.
        return True

    def _filter(self, x, otf):
        # ``spec`` is this call's own array.  The product is written into it
        # with the spectrum as first factor, the order of ``spec * otf``:
        # numpy's complex product rounds differently when its factors swap,
        # which would change the bits of every result.  The call writes
        # neither ``x`` nor the transfer functions.  The arguments of
        # ``r2c(a, axes, forward, inorm, out, nthreads)`` and ``c2r(a, axes,
        # lastsize, forward, inorm, out, nthreads)`` are positional because
        # keywords add about half as much again to a 32x32 call.
        spec = pypocketfft.r2c(
            np.asarray(x, dtype=float).reshape(self.shape), (0, 1), True, 0,
            None, 1)
        np.multiply(spec, otf, out=spec)
        return pypocketfft.c2r(spec, (0, 1), self.shape[1], False, 2, None,
                               1).ravel()

    def apply(self, x):
        return self._filter(x, self._otf)

    def adjoint(self, y):
        return self._filter(y, self._otf_conj)


class ForwardDifference2D:
    """Per-pixel forward differences with Neumann boundary.

    The output is planar: the first ``h * w`` entries hold the vertical
    differences and the next ``h * w`` the horizontal ones, both row-major,
    with zero difference on the last row/column.  The adjoint is the
    negative discrete divergence.  Both write into ``out`` when given.

    Both maps run on contiguous runs of the flat raster rather than on 2-D
    column slices, which are several times slower.  A horizontal run also
    touches the pairs that straddle a row end; ``apply`` zeroes them with
    the last column, and ``adjoint`` reads a copy of ``ph`` whose last
    column is +0.0, so every entry gets the same operations as on the grid.
    """

    def __init__(self, shape):
        h, w = shape
        self.shape = (h, w)
        self.n_in = h * w
        self.n_out = 2 * h * w

    def apply(self, x, out=None):
        h, w = self.shape
        n = h * w
        u = np.asarray(x, dtype=float).reshape(n)
        out = np.empty(self.n_out) if out is None else out
        np.subtract(u[w:], u[:-w], out=out[: n - w])
        out[n - w : n] = 0.0
        np.subtract(u[1:], u[:-1], out=out[n : 2 * n - 1])
        out[n : 2 * n].reshape(h, w)[:, -1] = 0.0
        return out

    def adjoint(self, p, out=None):
        h, w = self.shape
        n = h * w
        p = np.asarray(p, dtype=float)
        pv = p[:n]
        ph = p[n : 2 * n].copy()  # a per-call copy, never operator state
        ph.reshape(h, w)[:, -1] = 0.0
        out = np.empty(self.n_in) if out is None else out
        # Per entry: 0 - pv + pv_above - ph + ph_left, as on the grid;
        # ``-pv`` would turn zero entries into -0.0 where 0 - pv gives +0.0.
        np.subtract(0.0, pv[: n - w], out=out[: n - w])
        out[n - w :] = 0.0
        out[w:] += pv[: n - w]
        # The flat runs also take the zeroed last column: one subtraction
        # where the grid has none (exact for every value) and one addition
        # at the first column of each row.  Adding +0.0 is exact except on
        # -0.0, and ``out`` never holds -0.0 here: it starts from +0.0, and
        # x - y or x + y is -0.0 only when x is.
        out[:-1] -= ph[:-1]
        out[1:] += ph[:-1]
        return out


def _tv_sum(dv, dh):
    """Exact isotropic TV of the difference pairs ``(dv, dh)``."""
    return float(np.hypot(dv, dh).sum())


def isotropic_tv(x, shape):
    """Sum over pixels of the Euclidean norm of the forward-difference pair."""
    return _tv_sum(*ForwardDifference2D(shape).apply(x).reshape(2, *shape))


def laplacian(shape):
    """5-point Neumann Laplacian (interior stencil: center -4, neighbors +1).

    One canonical CSR matrix ``L = -D^T D``, where ``D`` differences the
    pixel pairs that :class:`ForwardDifference2D` differences: each pixel
    with the one below it and with the one to its right.  ``L`` has +1 at
    both off-diagonal places of each pair and minus the pixel's neighbour
    count on the diagonal, which is stored on every grid, also where it is
    zero (1x1).  ``L`` is symmetric, so it is its own adjoint.
    """
    h, w = shape
    n = h * w
    pixel = np.arange(n).reshape(h, w)
    lo = np.concatenate([pixel[:-1].ravel(), pixel[:, :-1].ravel()])
    hi = np.concatenate([pixel[1:].ravel(), pixel[:, 1:].ravel()])
    rows = np.concatenate([lo, hi, pixel.ravel()])
    cols = np.concatenate([hi, lo, pixel.ravel()])
    degree = np.bincount(rows[: 2 * lo.size], minlength=n)
    data = np.concatenate([np.ones(2 * lo.size), 0.0 - degree])  # 0.0, not -0.0
    order = np.lexsort((cols, rows))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    return scipy.sparse.csr_matrix((data[order], cols[order], indptr),
                                   shape=(n, n))


def gaussian_psf(size, sigma):
    """Truncated Gaussian kernel of odd side ``size``, normalized to sum one."""
    if size % 2 == 0 or size < 1:
        raise ValueError(f"psf_size must be odd and positive, got {size}")
    if not sigma > 0:
        raise ValueError(f"psf_sigma must be positive, got {sigma}")
    if sigma == np.inf:
        raise ValueError(f"psf_sigma must be finite, got {sigma}")
    r = (size - 1) / 2.0
    yy, xx = np.ogrid[-r:r + 1, -r:r + 1]
    k = np.exp(-(xx**2 + yy**2) / (2.0 * sigma**2))
    return k / k.sum()
