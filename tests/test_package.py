"""The package as a whole: its public names and its imports."""
import ast
import inspect
import pathlib

import pvdkit
from pvdkit import cli, cur, linalg, regularity, tensor

SRC = pathlib.Path(pvdkit.__file__).resolve().parent

#: public names that are gone, each with the module it lived in
REMOVED = {
    "Tolerance": linalg,
    "max_cut_estimate": regularity,
    "tensor_frob_norm": tensor,
    "tensor_pvd": tensor,
    "column_row_domain": cur,
    "selected_indices": cur,
}


def test_public_surface():
    """Every exported name resolves, no removed name is left behind, and no
    exported callable or method of an exported class takes ``tol``: the
    engine's one setting is the float ``atol``."""
    for name in pvdkit.__all__:
        assert hasattr(pvdkit, name), name
    for name, module in REMOVED.items():
        assert not hasattr(pvdkit, name) and not hasattr(module, name), name
    assert not hasattr(linalg, "DEFAULT_TOL") and not hasattr(tensor, "ExplicitTuples")
    assert not hasattr(cli, "_tol")
    callables = []
    for name in pvdkit.__all__:
        obj = getattr(pvdkit, name)
        if inspect.isclass(obj):
            callables += [(f"{name}.{attr}", fn)
                          for attr, fn in inspect.getmembers(obj, inspect.isfunction)]
        elif callable(obj):
            callables.append((name, obj))
    assert any(label == "CutDomain.max_step" for label, _ in callables)
    for label, fn in callables:
        assert "tol" not in inspect.signature(fn).parameters, label


def _unused_imports(path: pathlib.Path) -> list:
    """Names a module imports (``__future__`` aside) and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items()
            if name not in read]


def test_no_unused_imports():
    """Every module but ``__init__`` (whose imports are the exports) reads
    each name it imports."""
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert len(modules) > 5
    assert [hit for p in modules for hit in _unused_imports(p)] == []
