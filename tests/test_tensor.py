import itertools

import numpy as np
import numpy.linalg as la
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvdkit.pvd import p_norm, verify_pvd
from pvdkit.tensor import (CutTuples, ExplicitTuples, s_form, tensor_bound_check,
                           tensor_frob_norm, tensor_pvd)

import oracles


def test_s_form_matches_loops():
    rng = np.random.default_rng(80)
    T = rng.normal(size=(2, 3, 2))
    vecs = [rng.normal(size=k) for k in T.shape]
    want = 0.0
    for i in range(2):
        for j in range(3):
            for k in range(2):
                want += T[i, j, k] * vecs[0][i] * vecs[1][j] * vecs[2][k]
    assert s_form(T, vecs) == pytest.approx(want, rel=1e-12)


def test_s_form_checks_lengths():
    with pytest.raises(ValueError):
        s_form(np.ones((2, 2)), [np.ones(2), np.ones(3)])


def test_tensor_frob_norm_is_plain():
    T = np.arange(8.0).reshape(2, 2, 2)
    assert tensor_frob_norm(T) == pytest.approx(la.norm(T.ravel()))


def test_cut_tuples_atoms_unit_and_counted():
    dom = CutTuples([np.ones(2), np.ones(2), np.ones(2)])
    atoms = list(dom.atoms())
    assert dom.size() == 27 == len(atoms)
    for key, atom in atoms:
        assert la.norm(atom.ravel()) == pytest.approx(1.0, abs=1e-12)


def test_cut_tuples_max_step_matches_oracle():
    rng = np.random.default_rng(81)
    for trial in range(6):
        T = rng.normal(size=(2, 3, 2))
        weights = [rng.uniform(0.5, 2.0, size=k) for k in T.shape]
        dom = CutTuples(weights)
        _, value = dom.max_step(T / dom.whitener)
        # [DERIVED] loop over every tuple of nonempty subsets
        assert abs(value) == pytest.approx(
            oracles.tensor_pnorm_max(T, weights), abs=1e-12), f"trial {trial}"


def test_tensor_pvd_values_equal_projection_norm():
    rng = np.random.default_rng(82)
    T = rng.normal(size=(2, 2, 2))
    dom = CutTuples([np.ones(2)] * 3)
    res = tensor_pvd(T, dom)
    G = np.stack([atom.ravel() for _, atom in dom.atoms()])
    coef, *_ = la.lstsq(G.T, T.ravel(), rcond=None)
    want = la.norm(G.T @ coef)
    assert la.norm(res.sigmas) == pytest.approx(want, abs=1e-8)


def test_tensor_pvd_step_dominance():
    rng = np.random.default_rng(83)
    T = rng.normal(size=(2, 2, 3))
    dom = CutTuples([np.ones(k) for k in T.shape])
    res = tensor_pvd(T, dom)
    R = T.copy()
    for j in range(res.num_terms):
        assert oracles.tensor_pnorm_max(R) <= res.sigmas[j] + 1e-9
        R = R - res.increments[j]


def test_tensor_bound_check_passes():
    rng = np.random.default_rng(84)
    T = rng.normal(size=(3, 3, 2))
    dom = CutTuples([np.ones(k) for k in T.shape])
    for r in (0, 2, 5):
        out = tensor_bound_check(T, dom, r)
        assert out["pass"], out["certificates"]


def test_tensor_verify_pvd_works():
    rng = np.random.default_rng(85)
    T = rng.normal(size=(2, 2, 2))
    dom = CutTuples([np.ones(2)] * 3)
    res = tensor_pvd(T, dom)
    assert verify_pvd(res)["pass"]


def test_explicit_tuples_normalization():
    rng = np.random.default_rng(86)
    weights = [rng.uniform(0.5, 2.0, size=2) for _ in range(3)]
    tuples = [tuple(rng.normal(size=2) for _ in range(3)) for _ in range(5)]
    dom = ExplicitTuples(tuples, weights)
    assert dom.size() == 5
    for _, atom in dom.atoms():
        assert la.norm(atom.ravel()) == pytest.approx(1.0, abs=1e-12)


def test_explicit_tuples_max_step_matches_gram():
    rng = np.random.default_rng(87)
    weights = [rng.uniform(0.5, 2.0, size=k) for k in (2, 3, 2)]
    tuples = [tuple(rng.normal(size=k) for k in (2, 3, 2)) for _ in range(6)]
    dom = ExplicitTuples(tuples, weights)
    keys = [k for k, _ in dom.atoms()]
    gram = np.stack([atom.ravel() for _, atom in dom.atoms()])
    for _ in range(5):
        resid = rng.normal(size=(2, 3, 2))
        key, value = dom.max_step(resid)
        want_key, want = oracles.gram_max_step(keys, gram, resid)
        assert key == want_key
        assert value == pytest.approx(want, rel=1e-12, abs=1e-12)
    res = tensor_pvd(rng.normal(size=(2, 3, 2)), dom)
    assert verify_pvd(res)["pass"]


def test_cut_tuples_cap():
    with pytest.raises(ValueError):
        CutTuples([np.ones(9), np.ones(9), np.ones(9)])


@st.composite
def _cut_tuple_instances(draw):
    """2-, 3- and 4-mode shapes, non-integer weights, grid tensors."""
    modes = draw(st.integers(2, 4))
    top = {2: 4, 3: 3, 4: 2}[modes]
    shape = tuple(draw(st.lists(st.integers(1, top), min_size=modes, max_size=modes)))
    real = st.integers(2, 32).filter(lambda k: k % 8).map(lambda k: k / 8.0)
    weights = [np.array(draw(st.lists(real, min_size=k, max_size=k))) for k in shape]
    grid = st.integers(-8, 8).map(lambda k: k / 4.0)
    size = int(np.prod(shape))
    T = np.array(draw(st.lists(grid, min_size=size, max_size=size))).reshape(shape)
    return T, weights


@settings(max_examples=150, deadline=None)
@given(_cut_tuple_instances())
def test_cut_tuples_match_brute_force_over_atoms(instance):
    """Keys in product order, and the greedy step against the flattened Gram
    matrix of ``atoms()`` and the loop oracle."""
    T, weights = instance
    dom = CutTuples(weights)
    atoms = list(dom.atoms())
    keys = [k for k, _ in atoms]
    assert keys == list(itertools.product(*(range(1, 2 ** k) for k in T.shape)))
    assert dom.size() == len(keys)
    gram = np.stack([a.ravel() for _, a in atoms])
    resid = T / dom.whitener
    key, value = dom.max_step(resid)
    want_key, want = oracles.gram_max_step(keys, gram, resid)
    assert key == want_key
    assert value == pytest.approx(want, rel=1e-12, abs=1e-12)
    assert abs(value) == pytest.approx(oracles.tensor_pnorm_max(T, weights), rel=1e-12, abs=1e-12)
