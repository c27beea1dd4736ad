import numpy as np
import pytest

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


def test_gaussian_psf_normalized_nonnegative():
    k = gaussian_psf(7, 1.0)
    assert k.shape == (7, 7)
    assert np.all(k >= 0)
    assert abs(k.sum() - 1.0) < 1e-14
    with pytest.raises(ValueError):
        gaussian_psf(6, 1.0)


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


def test_conv_auto_mode_switches_on_grid_size():
    psf = gaussian_psf(7, 1.0)
    assert not ConvOperator2D(psf, (32, 32))._use_fft()
    assert ConvOperator2D(psf, (64, 64))._use_fft()


def test_conv_fft_and_direct_paths_agree():
    psf = gaussian_psf(9, 1.0)
    fft_op = ConvOperator2D(psf, (32, 32), mode="fft")
    dir_op = ConvOperator2D(psf, (32, 32), mode="direct")
    for trial in range(5):
        x = np.random.default_rng(trial).standard_normal(1024)
        np.testing.assert_allclose(fft_op.apply(x), dir_op.apply(x),
                                   rtol=0, atol=1e-10)
        np.testing.assert_allclose(fft_op.adjoint(x), dir_op.adjoint(x),
                                   rtol=0, atol=1e-10)


@pytest.mark.parametrize(
    "op",
    [
        ConvOperator2D(gaussian_psf(7, 1.0), (16, 16)),
        ConvOperator2D(gaussian_psf(9, 1.0), (16, 16), mode="fft"),
        ForwardDifference2D((16, 16)),
        Laplacian2D((16, 16)),
        TVNonnegRegularizer((16, 16), 1.0),
    ],
    ids=["conv7", "conv9fft", "fd", "laplacian", "stack"],
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
    assert lap.apply(np.full(81, 1.7)).max() == 0.0
    a = RNG.standard_normal(81)
    b = RNG.standard_normal(81)
    assert abs(np.dot(lap.apply(a), b) - np.dot(a, lap.apply(b))) <= 1e-10


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


def test_norm_bound_is_an_upper_bound():
    fd = ForwardDifference2D((16, 16))
    est = fd.norm_sq_bound()
    # The forward-difference operator has squared norm < 8.
    assert est <= 8.0 * 1.05 + 1e-9
    x = RNG.standard_normal(256)
    rayleigh = np.dot(fd.apply(x), fd.apply(x)) / np.dot(x, x)
    assert est >= rayleigh
