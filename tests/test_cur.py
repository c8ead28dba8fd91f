import json

import numpy as np
import numpy.linalg as la
import pytest

from pvdkit import cli
from pvdkit.cur import cur_pvd
from pvdkit.domains import ColumnRowDomain
from pvdkit.pvd import p_norm


def _low_rank_plus_noise(rng, m, n, rank, noise):
    B = rng.normal(size=(m, rank)) @ rng.normal(size=(rank, n))
    return B + noise * rng.normal(size=(m, n))


def test_cur_meets_advertised_bound():
    rng = np.random.default_rng(70)
    for trial in range(8):
        A = _low_rank_plus_noise(rng, 6, 6, 2, 0.1)
        eps = 0.4
        approx, result, _ = cur_pvd(A, eps)
        dom = result.domain
        lhs = p_norm(A - approx, dom)
        assert lhs <= eps * la.norm(A) + 1e-9, f"trial {trial}"


def test_cur_residual_bound_every_pair():
    rng = np.random.default_rng(71)
    A = _low_rank_plus_noise(rng, 5, 4, 2, 0.05)
    approx, result, _ = cur_pvd(A, 0.5)
    R = A - approx
    bound = 0.5 * la.norm(A) + 1e-9
    # [DERIVED] check the restricted norm directly on every atom of the domain
    for _, atom in result.domain.atoms():
        assert abs(float(np.sum(atom * R))) <= bound


def test_cur_exact_on_rank_one():
    A = np.outer([1.0, 2.0, -1.0], [3.0, 0.5, 1.0, -2.0])
    approx, result, _ = cur_pvd(A, 0.3)
    assert np.allclose(approx, A, atol=1e-8)
    assert result.exhausted


def test_selected_indices_point_into_source():
    rng = np.random.default_rng(72)
    A = _low_rank_plus_noise(rng, 5, 5, 2, 0.1)
    _, result, _ = cur_pvd(A, 0.4)
    m, n = A.shape
    for j, i in result.keys:
        assert type(j) is int and type(i) is int
        assert 0 <= j < n and 0 <= i < m


def test_increments_live_in_column_row_products():
    rng = np.random.default_rng(73)
    A = _low_rank_plus_noise(rng, 4, 4, 2, 0.1)
    _, result, _ = cur_pvd(A, 0.4)
    # selected keys must name actual (column, row) products of the source
    dom = ColumnRowDomain(A)
    valid = {k for k, _ in dom.atoms()}
    assert set(result.keys) <= valid


def test_cur_guarantee_is_checked_without_assert(monkeypatch, tmp_path, capsys):
    """A failed residual bound is a failing ``cur-chain`` certificate, not an
    exception: the library returns it and the CLI reports it with exit 1."""
    A = np.outer([1.0, 2.0, -1.0], [3.0, 0.5, 1.0])
    monkeypatch.setattr("pvdkit.cur.best_truncation",
                        lambda result, r: (np.zeros(A.shape), 1))
    _, _, cert = cur_pvd(A, 0.5)
    assert cert["name"] == "cur-chain" and not cert["pass"]
    assert cert["lhs"] > cert["rhs"] == pytest.approx(0.5 * la.norm(A) + 1e-9)
    path = tmp_path / "a.json"
    path.write_text(json.dumps(A.tolist()))
    assert cli.main(["cur", "--input", str(path), "--eps", "0.5"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["all_certificates_pass"] is False
    assert report["certificates"] == [cert]
    assert report["results"]["residual_pnorm_of_truncation"] == cert["lhs"]


def test_cur_rejects_bad_eps():
    with pytest.raises(ValueError):
        cur_pvd(np.ones((2, 2)), 0.0)
