import itertools
import tracemalloc

import numpy as np
import numpy.linalg as la
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvdkit.domains import ColumnRowDomain, ExplicitTuples
from pvdkit.pvd import compute_pvd, verify_pvd
from pvdkit.tensor import CUT_TUPLE_CAP, CutTuples, s_form, tensor_bound_check

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
    res = compute_pvd(T, dom)
    G = np.stack([atom.ravel() for _, atom in dom.atoms()])
    coef, *_ = la.lstsq(G.T, T.ravel(), rcond=None)
    want = la.norm(G.T @ coef)
    assert la.norm(res.sigmas) == pytest.approx(want, abs=1e-8)


def test_tensor_pvd_step_dominance():
    rng = np.random.default_rng(83)
    T = rng.normal(size=(2, 2, 3))
    dom = CutTuples([np.ones(k) for k in T.shape])
    res = compute_pvd(T, dom)
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
    res = compute_pvd(T, dom)
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
    res = compute_pvd(rng.normal(size=(2, 3, 2)), dom)
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


@st.composite
def _residuals_for(draw, shape):
    """A residual of ``shape`` and an ``atol``: Gaussian, zero, or small
    integers with one slice repeated (exact ties); the ``atol`` is the
    default, or is put on, just below or just above the gap between the
    largest magnitude and another one, so that a value straddles the band."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["gauss", "zero", "ties"]))
    if kind == "gauss":
        resid = rng.normal(size=shape)
    elif kind == "zero":
        resid = np.zeros(shape)
    else:
        resid = rng.integers(-2, 3, size=shape).astype(float)
        mode = draw(st.integers(0, len(shape) - 1))
        if shape[mode] > 1:
            moved = np.moveaxis(resid, mode, 0)
            moved[1] = moved[0]
    return resid, draw(st.sampled_from([None, "on", "below", "above"]))


def _band_atol(factors, resid, where, rank):
    """The default ``atol``, or the gap between the largest magnitude of the
    oracle's values and the ``rank``-th largest distinct one, nudged by
    one ulp as ``where`` says."""
    if where is None:
        return 1e-9
    mags = np.unique(np.abs(oracles.tensordot_values(factors, resid)))[::-1]
    gap = float(mags[0] - mags[min(rank, mags.size - 1)])
    return {"on": gap, "below": np.nextafter(gap, 0.0), "above": np.nextafter(gap, np.inf)}[where]


def _assert_steps_match_oracle(domains, cases, rank):
    """Call the domains in turn, each on its next case, and after each call
    mutate that residual in place and step again; every (key, value) must
    equal the tensordot oracle's exactly."""
    for dom, (resid, where) in zip(itertools.cycle(domains), cases):
        for _ in range(2):
            atol = _band_atol(dom.factors, resid, where, rank)
            got = dom.max_step(resid, atol)
            assert got == oracles.tensordot_max_step(dom.factors, dom.labels, resid, atol)
            resid *= -0.5
            resid.flat[0] += 1.0


@st.composite
def _cut_tuple_shapes(draw):
    """2-4 modes of sides 1-5, kept within ``CUT_TUPLE_CAP`` tuples."""
    shape, budget = [], CUT_TUPLE_CAP
    for _ in range(draw(st.integers(2, 4))):
        top = max(side for side in range(1, 6) if 2 ** side - 1 <= budget)
        shape.append(draw(st.integers(1, top)))
        budget //= 2 ** shape[-1] - 1
    return tuple(shape)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_cut_tuples_step_is_bit_identical_to_tensordot(data):
    """Two domains of one shape, with unrelated positive weights, stepped in
    turn through the work arrays they keep: equal keys and equal values to
    ``np.tensordot`` and the ``np.abs`` scan, ties and the atol band
    included."""
    shape = data.draw(_cut_tuple_shapes())
    weight = st.floats(0.05, 20.0)
    domains = [CutTuples([np.array(data.draw(st.lists(weight, min_size=k, max_size=k)))
                          for k in shape]) for _ in range(2)]
    cases = [data.draw(_residuals_for(shape)) for _ in range(4)]
    _assert_steps_match_oracle(domains, cases, data.draw(st.integers(1, 3)))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_column_row_step_is_bit_identical_to_tensordot(data):
    """The same for column-row domains of two sources of unrelated shapes,
    whose repeated columns and rows are deduplicated."""
    domains = []
    for _ in range(2):
        m, n = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
        entries = st.integers(-2, 2).map(float)
        A = np.array(data.draw(st.lists(entries, min_size=m * n, max_size=m * n))).reshape(m, n)
        A[0, 0] = 1.0  # one nonzero column-row pair at least
        domains.append(ColumnRowDomain(A))
    cases = [data.draw(_residuals_for(dom.shape)) for dom in domains * 2]
    _assert_steps_match_oracle(domains, cases, data.draw(st.integers(1, 3)))


@pytest.mark.parametrize("make", [
    lambda: CutTuples([np.ones(2), np.ones(3), np.ones(2)]),
    lambda: ColumnRowDomain(np.arange(1.0, 7.0).reshape(2, 3)),
    lambda: ExplicitTuples([(np.ones(2), np.ones(3), np.ones(2)),
                            (np.ones(2), np.arange(3.0), np.ones(2))]),
])
def test_max_step_of_a_residual_holding_nan_raises(make):
    """A NaN has no magnitude to rank: the step raises instead of returning
    the first candidate."""
    dom = make()
    resid = np.ones(dom.shape)
    resid.flat[1] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        dom.max_step(resid)


def test_warm_cut_tuples_step_allocates_no_value_vector():
    """A warm 5x5x5 step writes its 31^3 values (238 KB) into the arrays the
    domain keeps; what it still allocates (a transposed copy of the
    residual per mode, one boolean mask) stays below 64 KB."""
    dom = CutTuples([np.ones(5)] * 3)
    resid = np.random.default_rng(88).normal(size=(5, 5, 5))
    want = dom.max_step(resid)
    tracemalloc.start()
    try:
        got = dom.max_step(resid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < 64 * 1024
