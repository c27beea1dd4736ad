import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vmprox
from vmprox.diagnostics import adjoint_max_residual
from vmprox.operators import (
    ConvOperator2D,
    ForwardDifference2D,
    Laplacian2D,
    gaussian_psf,
    isotropic_tv,
)
from vmprox.prox import TVNonnegRegularizer

RNG = np.random.default_rng(0)
THIN_GRIDS = ((1, 5), (5, 1), (1, 1))


def test_gaussian_psf_normalized_nonnegative():
    k = gaussian_psf(7, 1.0)
    assert k.shape == (7, 7)
    assert np.all(k >= 0)
    assert abs(k.sum() - 1.0) < 1e-14
    with pytest.raises(ValueError, match="^psf_size must be odd and positive, got 6"):
        gaussian_psf(6, 1.0)


@pytest.mark.parametrize("sigma", [0.0, -1.0, float("nan")])
def test_gaussian_psf_rejects_a_nonpositive_sigma(sigma):
    with pytest.raises(ValueError, match="^psf_sigma must be positive"):
        gaussian_psf(7, sigma)


def test_conv_delta_kernel_is_identity():
    delta = np.zeros((5, 5))
    delta[2, 2] = 1.0
    op = ConvOperator2D(delta, (12, 12))
    x = RNG.standard_normal(144)
    np.testing.assert_allclose(op.apply(x), x, atol=1e-14)
    np.testing.assert_allclose(op.adjoint(x), x, atol=1e-14)


def test_conv_preserves_constants():
    op = ConvOperator2D(gaussian_psf(7, 1.5), (16, 16))
    x = np.full(256, 0.7)
    np.testing.assert_allclose(op.apply(x), x, atol=1e-12)


def test_conv_rejects_bad_kernels():
    with pytest.raises(ValueError):
        ConvOperator2D(np.ones((4, 4)), (8, 8))
    with pytest.raises(ValueError):
        ConvOperator2D(-np.ones((3, 3)), (8, 8))
    with pytest.raises(ValueError):
        ConvOperator2D(np.ones((9, 9)), (4, 4))


def _dense_conv(psf, shape):
    """Circulant matrix of the periodic convolution, from its definition:
    out[i, j] = sum_{a, b} psf[a, b] * x[(i - a + kh//2) % h, (j - b + kw//2) % w].
    """
    h, w = shape
    kh, kw = psf.shape
    psf = psf / psf.sum()
    mat = np.zeros((h * w, h * w))
    for i in range(h):
        for j in range(w):
            for a in range(kh):
                for b in range(kw):
                    src = ((i - a + kh // 2) % h) * w + (j - b + kw // 2) % w
                    mat[i * w + j, src] += psf[a, b]
    return mat


@pytest.mark.parametrize(
    "psf, shape",
    [
        (np.random.default_rng(5).uniform(0.0, 1.0, (3, 5)), (5, 7)),
        (gaussian_psf(9, 1.3), (16, 12)),
    ],
    ids=["random3x5_on_5x7", "gauss9_on_16x12"],
)
def test_conv_matches_dense_definition(psf, shape):
    op = ConvOperator2D(psf, shape)
    mat = _dense_conv(psf, shape)
    for trial in range(5):
        x = np.random.default_rng(trial).standard_normal(op.n_in)
        np.testing.assert_allclose(op.apply(x), mat @ x, rtol=0, atol=1e-10)
        np.testing.assert_allclose(op.adjoint(x), mat.T @ x,
                                   rtol=0, atol=1e-10)


def _embedded(psf, shape):
    """The kernel scaled to unit sum, zero-padded to ``shape`` and centred
    on pixel (0, 0)."""
    kh, kw = psf.shape
    embedded = np.zeros(shape)
    embedded[:kh, :kw] = psf / psf.sum()
    return np.roll(embedded, (-(kh // 2), -(kw // 2)), axis=(0, 1))


def _scipy_fft_filter(op, x, otf):
    """The ``scipy.fft.rfft2``/``irfft2`` path that ``_filter`` calls the
    backend of, with the product out of place."""
    spec = scipy.fft.rfft2(np.asarray(x, dtype=float).reshape(op.shape))
    return scipy.fft.irfft2(spec * otf, s=op.shape).ravel()


@pytest.mark.parametrize("shape", [(5, 8), (16, 12), (32, 32), (64, 64),
                                   (128, 128), (256, 256)])
def test_conv_matches_scipy_fft_path_bitwise(shape):
    psf = np.random.default_rng(7).uniform(0.0, 1.0, (5, 5))
    op = ConvOperator2D(psf, shape)
    np.testing.assert_array_equal(
        op._otf.view(np.int64),
        scipy.fft.rfft2(_embedded(psf, shape)).view(np.int64))
    rng = np.random.default_rng(shape[0] * shape[1])
    for x in (rng.standard_normal(op.n_in), rng.uniform(0.0, 1.0, op.n_in)):
        x[::3] = -0.0
        x[1::5] = 0.0
        for got, otf in ((op.apply(x), op._otf),
                         (op.adjoint(x), np.conj(op._otf))):
            np.testing.assert_array_equal(
                got.view(np.int64), _scipy_fft_filter(op, x, otf).view(np.int64))


@pytest.mark.parametrize("shape", [(7, 9), (9, 7), (5, 8), (1, 5), (5, 1),
                                   (1, 1), (33, 64), (128, 128)])
def test_conv_half_spectrum_matches_full_complex_path(shape):
    # The full-spectrum reference: complex transforms of the real image and
    # of the embedded kernel, the product over every frequency, the real
    # part of the inverse.
    side = [min(5, m if m % 2 else m - 1) for m in shape]
    psf = np.random.default_rng(11).uniform(0.0, 1.0, side)
    op = ConvOperator2D(psf, shape)
    otf = scipy.fft.fft2(_embedded(psf, shape))
    np.testing.assert_allclose(op.norm_sq_bound(),
                               float(np.max(np.abs(otf))) ** 2, rtol=1e-14)
    rng = np.random.default_rng(shape[0] + 100 * shape[1])
    for x in (rng.standard_normal(op.n_in), rng.uniform(0.0, 1.0, op.n_in)):
        spec = scipy.fft.fft2(x.reshape(shape))
        for got, h in ((op.apply(x), otf), (op.adjoint(x), np.conj(otf))):
            want = scipy.fft.ifft2(spec * h).real.ravel()
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_conv_writes_neither_its_input_nor_its_transfer_functions():
    op = ConvOperator2D(gaussian_psf(9, 1.0), (128, 128))
    x = np.random.default_rng(3).standard_normal(op.n_in)
    x[::4] = -0.0
    kept = [a.copy() for a in (x, op._otf, op._otf_conj)]
    first = op.apply(x), op.adjoint(x)
    for _ in range(3):
        again = op.apply(x), op.adjoint(x)
        for a, b in zip(first, again):
            np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))
    for old, now in zip(kept, (x, op._otf, op._otf_conj)):
        np.testing.assert_array_equal(old.view(np.int64), now.view(np.int64))


@pytest.mark.parametrize("side", [16, 128])
def test_conv_adjoint_uses_the_conjugate_transfer_function(side):
    # 128x128 complex spectra are 256 KiB, where numpy may reuse temporaries.
    H = ConvOperator2D(gaussian_psf(9, 1.0), (side, side))
    y = np.random.default_rng(side).standard_normal(side * side)
    expected = H._filter(y, np.conj(H._otf))
    np.testing.assert_array_equal(H.adjoint(y).view(np.int64),
                                  expected.view(np.int64))


def test_import_does_not_load_ndimage():
    src = str(Path(vmprox.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = "import sys, vmprox; print('scipy.ndimage' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize(
    "op",
    [
        ConvOperator2D(gaussian_psf(7, 1.0), (16, 16)),
        ConvOperator2D(gaussian_psf(9, 1.0), (16, 16)),
        # asymmetric kernels on odd and thin grids: the adjoint is not apply
        *(ConvOperator2D(np.random.default_rng(4).uniform(0.0, 1.0, psf), shape)
          for psf, shape in (((5, 7), (7, 9)), ((7, 3), (16, 12)),
                             ((1, 5), (1, 5)))),
        ForwardDifference2D((16, 16)),
        Laplacian2D((16, 16)),
        TVNonnegRegularizer((16, 16), 1.0),
        *(ForwardDifference2D(shape) for shape in THIN_GRIDS),
        *(Laplacian2D(shape) for shape in THIN_GRIDS),
        *(TVNonnegRegularizer(shape, 1.0) for shape in THIN_GRIDS),
    ],
    ids=["conv7", "conv9fft", "conv5x7-7x9", "conv7x3-16x12", "conv1x5-1x5",
         "fd", "laplacian", "stack",
         *(f"{name}-{h}x{w}" for name in ("fd", "laplacian", "stack")
           for h, w in THIN_GRIDS)],
)
def test_adjoint_identity(op):
    assert adjoint_max_residual(op, trials=20, seed=3) <= 1e-10


def test_forward_difference_on_ramp():
    h, w = 6, 5
    x = np.tile(np.arange(w, dtype=float), (h, 1))  # horizontal ramp
    out = ForwardDifference2D((h, w)).apply(x.ravel())
    dv, dh = out.reshape(2, h, w)
    assert np.all(dv == 0)
    assert np.all(dh[:, :-1] == 1.0)
    assert np.all(dh[:, -1] == 0.0)


def test_forward_difference_constant_image():
    out = ForwardDifference2D((8, 8)).apply(np.full(64, 3.3))
    assert np.all(out == 0.0)


def test_isotropic_tv_matches_stacked_operator():
    shape = (7, 9)
    x = RNG.standard_normal(63)
    dv, dh = ForwardDifference2D(shape).apply(x).reshape(2, -1)
    expected = np.hypot(dv, dh).sum()
    assert isotropic_tv(x, shape) == pytest.approx(expected, rel=1e-15)
    assert isotropic_tv(np.full(63, 2.0), shape) == 0.0


def test_laplacian_stencil_and_symmetry():
    lap = Laplacian2D((9, 9))
    x = np.zeros((9, 9))
    x[4, 4] = 1.0
    out = lap.apply(x.ravel()).reshape(9, 9)
    assert out[4, 4] == -4.0
    assert out[3, 4] == out[5, 4] == out[4, 3] == out[4, 5] == 1.0
    # L is one matrix: a constant maps to exactly zero where the products
    # are exact, and to rounding level where -3 * 1.7 rounds (the edges).
    assert np.all(lap.apply(np.full(81, 3.0)) == 0.0)
    assert np.abs(lap.apply(np.full(81, 1.7))).max() <= 4 * np.finfo(float).eps * 1.7
    a = RNG.standard_normal(81)
    b = RNG.standard_normal(81)
    assert abs(np.dot(lap.apply(a), b) - np.dot(a, lap.apply(b))) <= 1e-10


@pytest.mark.parametrize("shape", [(1, 5), (5, 1), (1, 1), (2, 2), (17, 5),
                                   (32, 32)], ids=lambda shape: "%dx%d" % shape)
def test_laplacian_matrix_is_minus_fd_adjoint_fd(shape):
    # Column j of L is -D^T D e_j, exactly; on a side of length 1 that side
    # has no pairs, so its diagonal share is 0 (and L is zero on 1x1).
    fd, lap = ForwardDifference2D(shape), Laplacian2D(shape)
    dense = lap.sparse().toarray()
    for j in range(lap.n_in):
        e = np.zeros(lap.n_in)
        e[j] = 1.0
        expected = -fd.adjoint(fd.apply(e))
        np.testing.assert_array_equal(dense[:, j], expected)
        np.testing.assert_array_equal(lap.apply(e), expected)
        np.testing.assert_array_equal(lap.adjoint(e), expected)


def test_laplacian_sparse_matches_operator():
    lap = Laplacian2D((6, 7))
    mat = lap.sparse()
    x = RNG.standard_normal(42)
    np.testing.assert_allclose(mat @ x, lap.apply(x), atol=1e-12)


def test_vstack_shapes_and_adjoint_sum():
    # The regularizer's operator is the stack [gradient; identity].
    fd = ForwardDifference2D((4, 4))
    stack = TVNonnegRegularizer((4, 4), 1.0)
    assert stack.n_out == 48
    x = RNG.standard_normal(16)
    y = RNG.standard_normal(48)
    np.testing.assert_allclose(
        stack.adjoint(y), fd.adjoint(y[:32]) + y[32:], atol=1e-14
    )
    np.testing.assert_array_equal(stack.apply(x)[:32], fd.apply(x))
    np.testing.assert_allclose(stack.apply(x)[32:], x)


def test_out_buffers_match_fresh_results():
    fd = ForwardDifference2D((5, 7))
    x = RNG.standard_normal(35)
    p = RNG.standard_normal(70)
    buf, img = np.full(70, np.nan), np.full(35, np.nan)
    assert fd.apply(x, buf) is buf
    np.testing.assert_array_equal(buf, fd.apply(x))
    assert fd.adjoint(p, img) is img
    np.testing.assert_array_equal(img, fd.adjoint(p))
    # zeros map to +0.0, never -0.0
    assert not np.signbit(fd.adjoint(np.zeros(70))).any()


# The 2-D-slice forward differences that the flat runs replaced; the
# operator must reproduce them bit for bit.


def _grid_apply(x, shape):
    h, w = shape
    u = np.asarray(x, dtype=float).reshape(h, w)
    out = np.empty(2 * h * w)
    dv, dh = out.reshape(2, h, w)
    np.subtract(u[1:, :], u[:-1, :], out=dv[:-1, :])
    dv[-1, :] = 0.0
    np.subtract(u[:, 1:], u[:, :-1], out=dh[:, :-1])
    dh[:, -1] = 0.0
    return out


def _grid_adjoint(p, shape):
    h, w = shape
    pv, ph = np.asarray(p, dtype=float).reshape(2, h, w)
    img = np.zeros((h, w))
    img[:-1, :] -= pv[:-1, :]
    img[1:, :] += pv[:-1, :]
    img[:, :-1] -= ph[:, :-1]
    img[:, 1:] += ph[:, :-1]
    return img.ravel()


def _assert_same_bits_up_to_nan(a, b):
    # The sign of a NaN made from two NaNs depends on the position of the
    # entry in numpy's vector loop (the same sum gives -nan at one index
    # and +nan at another), so NaNs only have to sit in the same places.
    nan = np.isnan(a)
    np.testing.assert_array_equal(nan, np.isnan(b))
    np.testing.assert_array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64))


_EXTREMES = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300, 1e-300,
             -1e-300, 1.7e308, -5e-324]
_ENTRIES = st.one_of(st.sampled_from(_EXTREMES), st.floats(-4.0, 4.0),
                     st.floats())


@st.composite
def _fd_cases(draw):
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    n = h * w
    x = np.array(draw(st.lists(_ENTRIES, min_size=n, max_size=n)))
    p = np.array(draw(st.lists(_ENTRIES, min_size=2 * n, max_size=2 * n)))
    # the entries the adjoint must ignore: the last row of pv and the last
    # column of ph
    pv, ph = p.reshape(2, h, w)
    pv[-1, :] = draw(st.lists(st.sampled_from(_EXTREMES), min_size=w, max_size=w))
    ph[:, -1] = draw(st.lists(st.sampled_from(_EXTREMES), min_size=h, max_size=h))
    return (h, w), x, p, draw(st.booleans())


@settings(max_examples=200, deadline=None)
@given(_fd_cases())
@example(((1, 1), np.array([np.nan]), np.array([-0.0, np.inf]), True))
@example(((1, 6), np.full(6, -0.0), np.full(12, -0.0), False))
@example(((7, 1), np.full(7, 1e300), np.full(14, -np.inf), True))
def test_flat_runs_match_grid_slices_bitwise(case):
    shape, x, p, use_out = case
    fd = ForwardDifference2D(shape)
    n = shape[0] * shape[1]
    with np.errstate(all="ignore"):
        if use_out:
            buf, img = np.full(2 * n, np.nan), np.full(n, np.nan)
            assert fd.apply(x, buf) is buf
            assert fd.adjoint(p, img) is img
        else:
            buf, img = fd.apply(x), fd.adjoint(p)
        _assert_same_bits_up_to_nan(buf, _grid_apply(x, shape))
        _assert_same_bits_up_to_nan(img, _grid_adjoint(p, shape))
        # finite input never yields -0.0 from the adjoint
        adj = fd.adjoint(np.where(np.isfinite(p), p, -0.0))
        assert not np.signbit(adj[adj == 0.0]).any()


@pytest.mark.parametrize("psf, shape", [
    (gaussian_psf(3, 0.8), (5, 8)),
    (np.random.default_rng(3).random((5, 5)), (16, 12)),
    (gaussian_psf(9, 1.0), (32, 32)),
    (gaussian_psf(7, 1.0), (64, 64)),
    (gaussian_psf(9, 1.0), (128, 128)),
], ids=["3x3-5x8", "random5x5-16x12", "9x9-32", "7x7-64", "9x9-128"])
def test_conv_norm_is_the_largest_transfer_modulus(psf, shape):
    H = ConvOperator2D(psf, shape)
    bound = H.norm_sq_bound()
    assert bound == float(np.max(np.abs(H._otf))) ** 2
    # a unit-sum nonnegative kernel passes constants unchanged and damps
    # every other frequency
    assert abs(bound - 1.0) <= 1e-15
    x = RNG.standard_normal(H.n_in)
    assert np.dot(H.apply(x), H.apply(x)) <= bound * np.dot(x, x) * (1 + 1e-12)
