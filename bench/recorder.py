"""Span recorder for the traced benchmark run.

The recorder wraps pvdkit's functions and methods from the outside: each
wrapper is installed on the defining module or class and re-bound wherever
another pvdkit module imported the original by name, and ``uninstall``
puts every original back, so untraced rounds run unmodified code.  Nothing
inside ``src/`` is touched.

Each call of a wrapped function is a span (id, parent, layer, start, end)
kept in memory.  Per layer the recorder accumulates calls, busy time (time
inside the outermost span of that layer), self time (span time not covered
by child spans) and a few sizes computed from the call's arguments.  Leaf
calls made tens of thousands of times per job (``CutDomain.atom``) are
counted and timed but not stored as individual spans.
"""
from __future__ import annotations

import math
import sys
from collections import Counter, defaultdict
from time import perf_counter

MB = 1e6


def _size_of(domain) -> float:
    """Bytes of the flattened (atoms x entries) Gram matrix a domain stores."""
    return 8.0 * domain.size() * math.prod(domain.shape)


def _stirling_partitions(n: int, q: int) -> int:
    """Set partitions of n elements into at most q nonempty blocks."""
    row = [1] + [0] * q          # S(0, k)
    for i in range(1, n + 1):
        row = [0] + [k * row[k] + row[k - 1] for k in range(1, q + 1)]
    return sum(row[1:])


class Recorder:
    def __init__(self):
        self.spans: list = []
        self.calls = Counter()
        self.busy = defaultdict(float)
        self.self_s = defaultdict(float)
        self.errors = Counter()
        self.sums = defaultdict(float)
        self.maxes = defaultdict(float)
        self._stack: list = []
        self._depth = Counter()
        self._lp_groups: list = []
        self._patches: list = []

    # ---------------------------------------------------------- wrapping

    def wrap(self, layer: str, fn, before=None, after=None, on_error=None, store=True,
             skip_under=()):
        rec = self

        def wrapper(*args, **kwargs):
            if skip_under and rec._stack and rec._stack[-1][1] in skip_under:
                return fn(*args, **kwargs)
            if before is not None:
                before(rec, args, kwargs)
            sid = len(rec.spans) if store else -1
            parent = rec._stack[-1][0] if rec._stack else -1
            outermost = rec._depth[layer] == 0
            frame = [sid, layer, 0.0]
            if store:
                rec.spans.append(None)       # reserve the id
            rec._depth[layer] += 1
            rec._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec.errors[layer] += 1
                if on_error is not None:
                    on_error(rec)
                raise
            finally:
                end = perf_counter()
                rec._stack.pop()
                rec._depth[layer] -= 1
                dur = end - start
                if rec._stack:
                    rec._stack[-1][2] += dur
                rec.calls[layer] += 1
                if outermost:
                    rec.busy[layer] += dur
                rec.self_s[layer] += dur - frame[2]
                if store:
                    rec.spans[sid] = (sid, parent, layer, start, end)
            if after is not None:
                after(rec, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def patch_function(self, module, name: str, layer: str, **hooks) -> None:
        original = getattr(module, name)
        wrapper = self.wrap(layer, original, **hooks)
        for mod in [m for key, m in sys.modules.items()
                    if key == "pvdkit" or key.startswith("pvdkit.")]:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def patch_method(self, cls, name: str, layer: str, **hooks) -> None:
        original = cls.__dict__[name]
        self._patches.append((cls, name, original))
        setattr(cls, name, self.wrap(layer, original, **hooks))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ---------------------------------------------------------- hooks

    def _add(self, key: str, value: float) -> None:
        self.sums[key] += value
        self.maxes[key] = max(self.maxes[key], value)

    def install(self) -> "Recorder":
        from pvdkit import (cli, cur, cutnorm, domains, graphs, io, pvd, regularity,
                            simplex, tensor)

        def tableau(rec, args, kwargs):
            m, n = args[0].shape
            rec._add("simplex.tableau_mb", 8.0 * (m + 1) * (n + m + 1) / MB)

        def rectangles(rec, args, kwargs):
            m, n = args[0].shape
            rec._add("cutnorm.enum.rectangles", (2 ** m - 1) * (2 ** n - 1))

        def completion_table(rec, args, kwargs):
            A, d, e = args[0], args[1], args[2]
            m, n = A.shape
            side, other = (m, e) if m < n else (n, d)
            cap = kwargs.get("cap", args[4] if len(args) > 4 else cutnorm.COMPLETION_CAP)
            if side <= cap and all(float(x) == round(float(x)) for x in other):
                W = int(sum(other))
                rec._add("cutnorm.completion.table_mb", 2.0 * (2 ** side - 1) * (W + 1) * 8 / MB)

        def lp_group_open(rec, args, kwargs):
            rec._lp_groups.append([])

        def lp_group_drop(rec):
            rec._lp_groups.pop()

        def lp_group_close(rec, args, kwargs, result):
            rounded = rec._lp_groups.pop()
            best = abs(result[0].value if isinstance(result, tuple) else result.value)
            rec.sums["cutnorm.lp.rounded"] += len(rounded)
            rec.sums["cutnorm.lp.useful"] += sum(v >= best - 1e-9 * max(1.0, best)
                                                 for v in rounded)

        def lp_rounded(rec, args, kwargs, result):
            if rec._lp_groups:
                rec._lp_groups[-1].append(abs(result.value))

        def domain_built(key_atoms):
            def hook(rec, args, kwargs, result):
                domain = args[0]
                rec._add(key_atoms, domain.size())
                rec._add("domains.gram_mb", _size_of(domain) / MB)
            return hook

        def terms(rec, args, kwargs, result):
            rec._add("pvd.terms", result.num_terms)

        def partitions(rec, args, kwargs):
            A = args[0]
            eta = kwargs.get("eta", args[2] if len(args) > 2 else 0.5)
            mode = kwargs.get("mode", args[3] if len(args) > 3 else "exhaustive")
            samples = kwargs.get("samples", args[4] if len(args) > 4 else 10_000)
            q = int(math.floor(1.0 / eta))
            count = _stirling_partitions(A.shape[0], q) if mode == "exhaustive" else samples
            rec._add("graphs.lp_regularity.partitions", count)

        fn = self.patch_function
        for name in ("load_matrix", "read_json_tensor", "read_weights"):
            fn(io, name, "io.load")
        fn(cli, "main", "cli.main")
        fn(simplex, "simplex_solve", "simplex", before=tableau)
        fn(cutnorm, "normalized_cut_bruteforce", "cutnorm.enum", before=rectangles)
        fn(cutnorm, "cut_norm_bruteforce", "cutnorm.enum", before=rectangles)
        fn(cutnorm, "build_cut_lp", "cutnorm.lp_build")
        fn(cutnorm, "solve_cut_lp", "cutnorm.lp_solve")
        fn(cutnorm, "lp_round", "cutnorm.lp_round", after=lp_rounded)
        lp_group = dict(before=lp_group_open, after=lp_group_close, on_error=lp_group_drop)
        fn(cutnorm, "cut_lp_exact", "cutnorm.lp_exact", **lp_group)
        fn(cutnorm, "cut_lp_approx", "cutnorm.lp_approx", **lp_group)
        fn(cutnorm, "exact_completion", "cutnorm.completion", before=completion_table)
        fn(cutnorm, "cut_norm_lp_upper", "cutnorm.lp_upper")
        fn(pvd, "compute_pvd", "pvd.compute", after=terms)
        fn(pvd, "verify_pvd", "pvd.verify")
        fn(regularity, "weak_regularity_partition", "regularity.weak")
        fn(regularity, "szemeredi_partition", "regularity.szem")
        for name in ("_cut_norm_ub", "weak_irregularity_ub", "szemeredi_irregularity_ub",
                     "_block_max_abs"):
            fn(regularity, name, "regularity.irregularity")
        fn(regularity, "max_cut_details", "regularity.maxcut")
        fn(graphs, "cut_pseudorandomness_profile", "graphs.profile")
        for name in ("spectral_projection_values", "threshold_rank"):
            fn(graphs, name, "graphs.spectral")
        fn(graphs, "lp_upper_regularity_check", "graphs.lp_regularity", before=partitions)
        fn(cur, "cur_pvd", "cur")
        fn(tensor, "tensor_bound_check", "tensor.bound_check")

        meth = self.patch_method
        meth(domains.CutDomain, "max_step", "domains.cut.max_step")
        meth(domains.CutDomain, "atom", "domains.atom", store=False)
        meth(domains.ColumnRowDomain, "__init__", "domains.column_row.build",
             after=domain_built("domains.column_row.atoms"))
        meth(domains.ColumnRowDomain, "max_step", "domains.column_row.max_step")
        meth(domains.ColumnRowDomain, "atom", "domains.column_row.atom", store=False)
        meth(tensor.CutTuples, "__init__", "tensor.domain.build",
             after=domain_built("tensor.domain.atoms"))
        meth(tensor.CutTuples, "max_step", "tensor.max_step")
        # the constructor stacks every atom; only the engine's calls are timed
        meth(tensor.CutTuples, "atom", "tensor.atom", store=False,
             skip_under=("tensor.domain.build",))
        return self

    # ---------------------------------------------------------- results

    def metrics(self) -> dict:
        """Per-layer figures for everything recorded so far."""
        b, c, s = self.busy, self.calls, self.sums
        rounded = s["cutnorm.lp.rounded"]
        return {
            "io.load_s": b["io.load"],
            "cli.self_s": self.self_s["cli.main"],
            "simplex.calls": c["simplex"],
            "simplex.busy_s": b["simplex"],
            "simplex.tableau_mb": self.maxes["simplex.tableau_mb"],
            "cutnorm.enum.calls": c["cutnorm.enum"],
            "cutnorm.enum.busy_s": b["cutnorm.enum"],
            "cutnorm.enum.rectangles": s["cutnorm.enum.rectangles"],
            "cutnorm.lp.count": c["cutnorm.lp_solve"],
            "cutnorm.lp_build.busy_s": b["cutnorm.lp_build"],
            "cutnorm.lp_round.busy_s": b["cutnorm.lp_round"],
            "cutnorm.lp_exact.busy_s": b["cutnorm.lp_exact"],
            "cutnorm.lp_approx.busy_s": b["cutnorm.lp_approx"],
            "cutnorm.lp.useful_ratio": s["cutnorm.lp.useful"] / rounded if rounded else 0.0,
            "cutnorm.completion.calls": c["cutnorm.completion"],
            "cutnorm.completion.busy_s": b["cutnorm.completion"],
            "cutnorm.completion.table_mb": self.maxes["cutnorm.completion.table_mb"],
            "cutnorm.lp_upper.calls": c["cutnorm.lp_upper"],
            "cutnorm.lp_upper.busy_s": b["cutnorm.lp_upper"],
            "domains.cut.max_step.calls": c["domains.cut.max_step"],
            "domains.cut.max_step_s": b["domains.cut.max_step"],
            "domains.atom.calls": c["domains.atom"],
            "domains.column_row.build_s": b["domains.column_row.build"],
            "domains.column_row.atoms": s["domains.column_row.atoms"],
            "domains.column_row.max_step_s": b["domains.column_row.max_step"],
            "domains.gram_mb": self.maxes["domains.gram_mb"],
            "pvd.compute.calls": c["pvd.compute"],
            "pvd.compute.busy_s": b["pvd.compute"],
            "pvd.compute.self_s": self.self_s["pvd.compute"],
            "pvd.terms": s["pvd.terms"],
            "pvd.verify.calls": c["pvd.verify"],
            "pvd.verify.busy_s": b["pvd.verify"],
            "pvd.verify.skipped": self.errors["pvd.verify"],
            "regularity.weak.busy_s": b["regularity.weak"],
            "regularity.szem.busy_s": b["regularity.szem"],
            "regularity.irregularity.busy_s": b["regularity.irregularity"],
            "regularity.maxcut.self_s": self.self_s["regularity.maxcut"],
            "graphs.profile.busy_s": b["graphs.profile"],
            "graphs.spectral.busy_s": b["graphs.spectral"],
            "graphs.lp_regularity.busy_s": b["graphs.lp_regularity"],
            "graphs.lp_regularity.partitions": s["graphs.lp_regularity.partitions"],
            "cur.busy_s": b["cur"],
            "tensor.domain.build_s": b["tensor.domain.build"],
            "tensor.domain.atoms": s["tensor.domain.atoms"],
            "tensor.max_step_s": b["tensor.max_step"],
            "tensor.bound_check.busy_s": b["tensor.bound_check"],
        }
