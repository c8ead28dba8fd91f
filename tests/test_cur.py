import math

import numpy as np
import numpy.linalg as la
import pytest

from pvdkit.cur import column_row_domain, cur_pvd, selected_indices
from pvdkit.pvd import p_norm

import oracles


def _low_rank_plus_noise(rng, m, n, rank, noise):
    B = rng.normal(size=(m, rank)) @ rng.normal(size=(rank, n))
    return B + noise * rng.normal(size=(m, n))


def test_cur_meets_advertised_bound():
    rng = np.random.default_rng(70)
    for trial in range(8):
        A = _low_rank_plus_noise(rng, 6, 6, 2, 0.1)
        eps = 0.4
        approx, result = cur_pvd(A, eps)
        dom = result.domain
        lhs = p_norm(A - approx, dom)
        assert lhs <= eps * la.norm(A) + 1e-9, f"trial {trial}"


def test_cur_residual_bound_every_pair():
    rng = np.random.default_rng(71)
    A = _low_rank_plus_noise(rng, 5, 4, 2, 0.05)
    approx, result = cur_pvd(A, 0.5)
    R = A - approx
    bound = 0.5 * la.norm(A) + 1e-9
    # [DERIVED] check the restricted norm directly on every atom of the domain
    for _, atom in result.domain.atoms():
        assert abs(float(np.sum(atom * R))) <= bound


def test_cur_exact_on_rank_one():
    A = np.outer([1.0, 2.0, -1.0], [3.0, 0.5, 1.0, -2.0])
    approx, result = cur_pvd(A, 0.3)
    assert np.allclose(approx, A, atol=1e-8)
    assert result.exhausted


def test_selected_indices_point_into_source():
    rng = np.random.default_rng(72)
    A = _low_rank_plus_noise(rng, 5, 5, 2, 0.1)
    _, result = cur_pvd(A, 0.4)
    m, n = A.shape
    for j, i in selected_indices(result):
        assert 0 <= j < n and 0 <= i < m


def test_increments_live_in_column_row_products():
    rng = np.random.default_rng(73)
    A = _low_rank_plus_noise(rng, 4, 4, 2, 0.1)
    _, result = cur_pvd(A, 0.4)
    # selected keys must name actual (column, row) products of the source
    dom = column_row_domain(A)
    valid = {k for k, _ in dom.atoms()}
    assert set(result.keys) <= valid


def test_cur_guarantee_is_checked_without_assert(monkeypatch):
    """The residual bound is enforced by a raise that ``python -O`` keeps."""
    A = np.outer([1.0, 2.0, -1.0], [3.0, 0.5, 1.0])
    monkeypatch.setattr("pvdkit.cur.best_truncation",
                        lambda result, r: (np.zeros(A.shape), 1))
    with pytest.raises(RuntimeError, match="guarantee"):
        cur_pvd(A, 0.5)


def test_cur_rejects_bad_eps():
    with pytest.raises(ValueError):
        cur_pvd(np.ones((2, 2)), 0.0)
