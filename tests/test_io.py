import numpy as np
import pytest

from pvdkit.io import (InputError, guess_format, load_matrix, read_edge_list,
                       read_json_matrix, read_json_tensor, read_matrix_market,
                       read_weights)


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_guess_format():
    assert guess_format("x.mtx") == "matrix-market"
    assert guess_format("x.json") == "json"
    assert guess_format("x.edges") == "edge-list"


def test_matrix_market_coordinate_general(tmp_path):
    path = _write(tmp_path, "a.mtx", "\n".join([
        "%%MatrixMarket matrix coordinate real general",
        "% a comment",
        "2 3 3",
        "1 1 1.5",
        "2 3 -2.0",
        "1 3 4.0",
    ]))
    A = read_matrix_market(path)
    assert A.shape == (2, 3)
    assert A[0, 0] == 1.5 and A[1, 2] == -2.0 and A[0, 2] == 4.0
    assert A[1, 0] == 0.0


def test_matrix_market_coordinate_symmetric(tmp_path):
    path = _write(tmp_path, "s.mtx", "\n".join([
        "%%MatrixMarket matrix coordinate integer symmetric",
        "3 3 2",
        "2 1 5",
        "3 3 7",
    ]))
    A = read_matrix_market(path)
    assert A[1, 0] == 5 and A[0, 1] == 5
    assert A[2, 2] == 7


def test_matrix_market_duplicate_entries_accumulate(tmp_path):
    path = _write(tmp_path, "d.mtx", "\n".join([
        "%%MatrixMarket matrix coordinate real general",
        "2 2 2",
        "1 1 1.0",
        "1 1 2.5",
    ]))
    assert read_matrix_market(path)[0, 0] == 3.5


def test_matrix_market_array_general_column_major(tmp_path):
    path = _write(tmp_path, "m.mtx", "\n".join([
        "%%MatrixMarket matrix array real general",
        "2 2",
        "1", "2", "3", "4",
    ]))
    A = read_matrix_market(path)
    assert np.allclose(A, [[1.0, 3.0], [2.0, 4.0]])


def test_matrix_market_array_symmetric_lower_triangle(tmp_path):
    path = _write(tmp_path, "t.mtx", "\n".join([
        "%%MatrixMarket matrix array real symmetric",
        "3 3",
        "1", "2", "3",  # column 1: rows 1..3
        "4", "5",       # column 2: rows 2..3
        "6",            # column 3: row 3
    ]))
    A = read_matrix_market(path)
    want = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 5.0], [3.0, 5.0, 6.0]])
    assert np.allclose(A, want)


def test_matrix_market_errors_carry_location(tmp_path):
    path = _write(tmp_path, "bad.mtx", "\n".join([
        "%%MatrixMarket matrix coordinate real general",
        "2 2 1",
        "3 1 1.0",
    ]))
    with pytest.raises(InputError) as err:
        read_matrix_market(path)
    assert "bad.mtx:3:" in str(err.value)


def test_matrix_market_rejects_nan(tmp_path):
    path = _write(tmp_path, "nan.mtx", "\n".join([
        "%%MatrixMarket matrix coordinate real general",
        "1 1 1",
        "1 1 nan",
    ]))
    with pytest.raises(InputError, match="non-finite"):
        read_matrix_market(path)


def test_matrix_market_bad_header(tmp_path):
    path = _write(tmp_path, "h.mtx", "%%MatrixMarket tensor coordinate real general\n1 1 0\n")
    with pytest.raises(InputError, match="h.mtx:1:"):
        read_matrix_market(path)


def test_matrix_market_wrong_count(tmp_path):
    path = _write(tmp_path, "c.mtx", "\n".join([
        "%%MatrixMarket matrix coordinate real general",
        "2 2 3",
        "1 1 1.0",
    ]))
    with pytest.raises(InputError, match="expected 3 entries"):
        read_matrix_market(path)


def test_edge_list_labels_first_appearance(tmp_path):
    path = _write(tmp_path, "g.edges", "\n".join([
        "# comment line",
        "carol bob 2.0",
        "bob alice",
        "carol carol 0.5   # trailing note",
    ]))
    A, meta = read_edge_list(path)
    assert meta["labels"] == ["carol", "bob", "alice"]
    assert A[0, 1] == 2.0 and A[1, 0] == 2.0
    assert A[1, 2] == 1.0
    assert A[0, 0] == 0.5  # self loop not doubled
    assert np.allclose(A, A.T)


def test_edge_list_repeated_edges_accumulate(tmp_path):
    path = _write(tmp_path, "r.edges", "a b 1.0\nb a 2.0\n")
    A, _ = read_edge_list(path)
    assert A[0, 1] == 3.0 and A[1, 0] == 3.0


def test_edge_list_bad_line(tmp_path):
    path = _write(tmp_path, "b.edges", "a b c d\n")
    with pytest.raises(InputError, match="b.edges:1:"):
        read_edge_list(path)


def test_edge_list_empty_rejected(tmp_path):
    path = _write(tmp_path, "e.edges", "# nothing\n")
    with pytest.raises(InputError):
        read_edge_list(path)


def test_json_matrix_forms(tmp_path):
    p1 = _write(tmp_path, "m1.json", "[[1, 2], [3, 4]]")
    assert np.allclose(read_json_matrix(p1), [[1, 2], [3, 4]])
    p2 = _write(tmp_path, "m2.json", '{"matrix": [[0.5]]}')
    assert read_json_matrix(p2)[0, 0] == 0.5
    p3 = _write(tmp_path, "m3.json", "[1, 2, 3]")
    with pytest.raises(InputError):
        read_json_matrix(p3)


def test_json_tensor_forms(tmp_path):
    p1 = _write(tmp_path, "t1.json", '{"dims": [2, 2, 2], "entries": [0,1,2,3,4,5,6,7]}')
    T = read_json_tensor(p1)
    assert T.shape == (2, 2, 2)
    assert T[1, 0, 1] == 5.0  # row-major order
    p2 = _write(tmp_path, "t2.json", "[[[1, 0], [0, 1]], [[0, 1], [1, 0]]]")
    assert read_json_tensor(p2).shape == (2, 2, 2)
    p3 = _write(tmp_path, "t3.json", '{"dims": [2, 2], "entries": [1, 2, 3]}')
    with pytest.raises(InputError, match="expected 4 entries"):
        read_json_tensor(p3)


def test_json_tensor_object_form(tmp_path):
    path = _write(tmp_path, "t.json", '{"tensor": [[1, 2], [3, 4]]}')
    assert np.array_equal(read_json_tensor(path), [[1.0, 2.0], [3.0, 4.0]])


@pytest.mark.parametrize("reader, text, message", [
    (read_json_tensor, '{"dims": [2, 2]}', "entries must be nested lists"),
    (read_json_tensor, '{"dims": 3, "entries": [1, 2, 3]}', "dims must be a list"),
    (read_json_tensor, '{"dims": [2.5, 2], "entries": [1, 2, 3, 4]}', "dims must be a list"),
    (read_json_tensor, '{"tensor": {"a": 1}}', "tensor must be nested lists"),
    (read_json_tensor, '[[], []]', "expected a nonempty tensor"),
    (read_json_matrix, '{"matrix": {"a": 1}}', "matrix must be nested lists"),
    (read_json_matrix, '[[1, 2], [3]]', "matrix must be nested lists"),
])
def test_json_malformed_document_is_input_error(tmp_path, reader, text, message):
    path = _write(tmp_path, "bad.json", text)
    with pytest.raises(InputError, match=r"bad\.json:1: " + message):
        reader(path)


def test_json_parse_error_location(tmp_path):
    path = _write(tmp_path, "bad.json", "[[1, 2,\n")
    with pytest.raises(InputError, match="bad.json:"):
        read_json_matrix(path)


def test_weights_file(tmp_path):
    path = _write(tmp_path, "w.txt", "1.0 2.0\n# note\n3.0\n")
    w = read_weights(path, 3)
    assert np.allclose(w, [1.0, 2.0, 3.0])
    with pytest.raises(InputError, match="expected 2 weights"):
        read_weights(path, 2)
    bad = _write(tmp_path, "wb.txt", "1.0 -2.0\n")
    with pytest.raises(InputError, match="strictly positive"):
        read_weights(bad, 2)


def test_load_matrix_dispatch(tmp_path):
    path = _write(tmp_path, "g.edges", "a b\n")
    A, meta = load_matrix(path)
    assert A.shape == (2, 2) and meta["labels"] == ["a", "b"]
    with pytest.raises(InputError):
        load_matrix(path, "no-such-format")
