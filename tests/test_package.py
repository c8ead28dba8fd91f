"""The package as a whole: its public names and its imports."""
import ast
import inspect
import pathlib
import sys

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


#: the top-level packages ``src/`` may import besides the standard library:
#: the package itself and pyproject's runtime dependencies
RUNTIME_IMPORTS = {"pvdkit", "numpy"}


def test_imports_only_runtime_dependencies():
    """Every module imports only the standard library, ``numpy`` and
    ``pvdkit``.  ``scipy`` and ``hypothesis`` are installed for the tests,
    so an import of either in ``src/`` would pass here and fail on a user's
    install."""
    allowed = set(sys.stdlib_module_names) | RUNTIME_IMPORTS
    hits = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            hits += [f"{path.name}:{node.lineno} {name}" for name in names
                     if name.split(".")[0] not in allowed]
    assert hits == []


#: the LP relaxation family, reached only by ``cutnorm``'s own routes;
#: ``cut_norm_lp_upper`` has no caller in the library
LP_NAMES = {"cut_lp_exact", "cut_lp_approx", "lp_candidates", "build_cut_lp", "solve_cut_lp",
            "lp_round", "cut_norm_lp_upper", "_lp_grid", "_CutLpFamily"}


def test_greedy_path_imports_no_lp():
    """The engine, its domains, the sweep and the subcommands built on the
    greedy step, the regularity bounds included, import nothing from
    ``simplex`` and no name of the LP family."""
    hits = []
    for name in ("domains", "pvd", "sweep", "regularity", "graphs", "tensor", "cur"):
        tree = ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                if (node.module or "").split(".")[-1] == "simplex":
                    hits.append(f"{name}:{node.lineno} from {node.module}")
                hits += [f"{name}:{node.lineno} {alias.name}" for alias in node.names
                         if alias.name in LP_NAMES | {"simplex"}]
            elif isinstance(node, ast.Import):
                hits += [f"{name}:{node.lineno} {alias.name}" for alias in node.names
                         if alias.name.split(".")[-1] == "simplex"]
    assert hits == []


def _calls(name: str) -> set:
    """(module, top-level definition) of every call of ``name`` in the
    package, by plain name or as an attribute."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    if getattr(func, "id", getattr(func, "attr", None)) == name:
                        found.add((path.stem, getattr(top, "name", None)))
    return found


def test_units_are_scaled_at_two_boundaries():
    """The CLI brings its input, weights, ``--tol-abs`` and report to and
    from unit scale, and the engine (``compute_pvd``, ``verify_pvd``) its
    whitened source; every other entry computes in its caller's units.
    Outside ``linalg``, only the LP tableau (``cutnorm._CutLpFamily``),
    whose tolerance is absolute, calls ``unit_scale`` besides them."""
    assert {module for module, _ in _calls("in_units")} == {"cli", "pvd"}
    scaling = {module if module != "cutnorm" else (module, top)
               for module, top in _calls("unit_scale") if module != "linalg"}
    assert scaling == {"cli", "pvd", ("cutnorm", "_CutLpFamily")}


def _definitions(tree) -> list:
    """Module-level functions, classes and assigned names, dunders aside."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names if not name.startswith("__")]


def _references(tree) -> set:
    """Every name a module reads, imports or looks up as an attribute, and
    every string literal (``monkeypatch.setattr`` and patch tables name
    their targets by string)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def test_no_dead_code():
    """Every module-level function, class and constant of the package is
    referenced somewhere in ``src/``, ``tests/`` or ``bench/`` beyond its
    definition."""
    root = SRC.parents[1]
    files = [p for d in ("src", "tests", "bench") for p in sorted((root / d).rglob("*.py"))]
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in files}
    used = set().union(*(_references(tree) for tree in trees.values()))
    defined = [f"{p.name}:{name}" for p, tree in trees.items() if p.parent == SRC
               for name in _definitions(tree)]
    assert len(defined) > 100
    assert [d for d in defined if d.split(":")[1] not in used] == []
