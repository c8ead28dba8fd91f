import numpy as np
import numpy.linalg as la
import pytest

from pvdkit.linalg import (ATOL, as_matrix, as_tensor, as_weights, frob_inner,
                           frob_norm, ip_dot, ip_norm, spectral_norm, stable_norm,
                           tensor_whitener, whitened)

import oracles


def test_tolerance_defaults():
    assert ATOL == 1e-9


def test_as_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        as_matrix(np.ones(3))
    with pytest.raises(ValueError):
        as_matrix(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        as_matrix(np.array([[1.0, np.nan]]))


def test_as_weights_validation():
    assert np.allclose(as_weights(None, 3), np.ones(3))
    with pytest.raises(ValueError):
        as_weights(np.array([1.0, 0.0]), 2)
    with pytest.raises(ValueError):
        as_weights(np.array([1.0, 2.0]), 3)


def test_weighted_frobenius_matches_loops():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m, n = rng.integers(2, 6, size=2)
        X = rng.normal(size=(m, n))
        d = rng.uniform(0.5, 2.0, size=m)
        e = rng.uniform(0.5, 2.0, size=n)
        # [DERIVED] pure-loop sum of squares
        assert frob_norm(X, d, e) == pytest.approx(oracles.weighted_frob(X, d, e), rel=1e-12)
        assert frob_norm(X) == pytest.approx(la.norm(X), rel=1e-12)


def test_inner_product_polarization():
    rng = np.random.default_rng(8)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        d = rng.uniform(0.5, 2.0, size=n)
        lhs = ip_dot(x, y, d)
        rhs = 0.25 * (ip_norm(x + y, d) ** 2 - ip_norm(x - y, d) ** 2)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_whitening_preserves_weighted_norm():
    rng = np.random.default_rng(9)
    for _ in range(10):
        m, n = rng.integers(2, 6, size=2)
        X = rng.normal(size=(m, n))
        d = rng.uniform(0.5, 2.0, size=m)
        e = rng.uniform(0.5, 2.0, size=n)
        W = whitened(X, d, e)
        assert la.norm(W) == pytest.approx(frob_norm(X, d, e), rel=1e-12)
        assert frob_inner(X, X, d, e) == pytest.approx(frob_norm(X, d, e) ** 2, rel=1e-12)


def test_stable_norm_is_numpy_norm_where_that_is_finite():
    """Bitwise ``numpy.linalg.norm`` on ordinary arrays; entries whose
    squares overflow give the scaled norm, without an overflow warning."""
    rng = np.random.default_rng(11)
    for shape in ((7,), (4, 5), (3, 2, 4)):
        X = rng.normal(size=shape)
        assert stable_norm(X) == float(la.norm(X))
        assert stable_norm(X * 1e160) == pytest.approx(1e160 * float(la.norm(X)), rel=1e-14)
    assert stable_norm(np.array([1e300, -1e300])) == pytest.approx(2 ** 0.5 * 1e300)
    assert stable_norm(np.zeros(3)) == 0.0


def test_spectral_norm_matches_svd():
    rng = np.random.default_rng(10)
    A = rng.normal(size=(5, 4))
    assert spectral_norm(A) == pytest.approx(la.svd(A, compute_uv=False)[0], rel=1e-12)
    d = rng.uniform(0.5, 2.0, size=5)
    e = rng.uniform(0.5, 2.0, size=4)
    W = A / np.sqrt(np.outer(d, e))
    assert spectral_norm(A, d, e) == pytest.approx(la.svd(W, compute_uv=False)[0], rel=1e-12)


def test_tensor_whitener_shape_and_values():
    w = tensor_whitener((2, 3), [np.array([1.0, 4.0]), np.array([1.0, 1.0, 9.0])])
    assert w.shape == (2, 3)
    assert w[1, 2] == pytest.approx(6.0)
    assert w[0, 0] == pytest.approx(1.0)


def test_as_tensor_checks():
    with pytest.raises(ValueError):
        as_tensor(np.ones(4))
    T = as_tensor(np.ones((2, 2, 2)))
    assert T.shape == (2, 2, 2)
