"""Command line front end.

Every subcommand reads one input file, runs the requested computation, and
emits a single JSON report: sorted keys, two-space indent, full-precision
floats, no timestamps.  Certificates are (name, lhs, rhs, pass) records; the
process exits 0 only when every certificate in the report passed, 1 when any
failed, and 2 on usage or input errors.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np
import numpy.linalg as la

from .cutnorm import (cut_lp_approx, cut_lp_exact, normalized_cut_bruteforce,
                      rectangle_value, subset_indicators)
from .domains import CutDomain, UnsupportedDomain
from .graphs import (core_density, cut_pseudorandomness_profile, degree_weights,
                     lp_upper_regularity_check, row_sums,
                     spectral_projection_values, threshold_rank)
from .io import InputError, guess_format, load_matrix, read_json_tensor, read_weights
from .linalg import Tolerance, frob_norm
from .pvd import compute_pvd, p_norm, verify_pvd
from .regularity import max_cut_details, szemeredi_partition, weak_regularity_partition
from .simplex import SimplexError
from .tensor import CutTuples, tensor_bound_check
from .cur import cur_pvd

VERSION = "0.1.0"


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        if math.isnan(v):
            raise ValueError("NaN in report")
        if math.isinf(v):
            return "overflow" if v > 0 else "-overflow"
        return v
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def _cert(name: str, lhs: float, rhs: float) -> dict:
    return {"name": name, "lhs": float(lhs), "rhs": float(rhs),
            "pass": bool(float(lhs) <= float(rhs))}


def resolve_weights(ip: str, A: np.ndarray):
    """(left, right) weight vectors for the chosen inner product."""
    m, n = A.shape
    if ip == "euclidean":
        return np.ones(m), np.ones(n)
    if ip == "degree":
        if m != n:
            raise ValueError("--ip degree needs a square matrix")
        d = degree_weights(A)
        return d, d
    if ip == "degree-plus-avg":
        if m != n:
            raise ValueError("--ip degree-plus-avg needs a square matrix")
        deg = row_sums(A)
        d = deg + deg.mean()
        if np.any(d <= 0):
            raise ValueError("--ip degree-plus-avg needs positive shifted degrees")
        return d, d
    if ip.startswith("file:"):
        path = ip[5:]
        if m == n:
            w = read_weights(path, m)
            return w, w.copy()
        w = read_weights(path, m + n)
        return w[:m], w[m:]
    raise ValueError(f"unknown inner product {ip!r}; "
                     "choose euclidean, degree, degree-plus-avg, or file:<path>")


def _load(args):
    fmt = args.format or guess_format(args.input)
    A, meta = load_matrix(args.input, fmt)
    info = {"path": args.input, "format": fmt, "shape": list(A.shape)}
    if "labels" in meta:
        info["labels"] = meta["labels"]
    return A, info


def _tol(args) -> Tolerance:
    return Tolerance(atol=args.tol_abs, rtol=args.tol_rel)


def _integerish(w: np.ndarray) -> bool:
    return bool(np.all(w == np.round(w)) and np.all(w >= 1))


# ---------------------------------------------------------------- commands

def cmd_pvd(args):
    A, info = _load(args)
    d, e = resolve_weights(args.ip, A)
    domain = CutDomain(d, e, bf_cap=args.bf_cap)
    result = compute_pvd(A, domain, max_terms=args.r, tol=_tol(args))
    results = {
        "num_terms": result.num_terms,
        "sigmas": result.sigmas,
        "coefficients": result.coeffs,
        "step_values": result.values,
        "selected": result.selected_pairs(),
        "residual_pnorm": result.residual_pnorm,
        "exhausted": result.exhausted,
        "source_frob_norm": result.source_frob_norm,
    }
    # the cut domain is always verifiable; any refusal is an error (exit 2),
    # never an empty, passing certificate list
    certs = verify_pvd(result)["certificates"]
    results["verified"] = True
    return info, {"r": args.r, "ip": args.ip}, results, certs


def cmd_cutnorm(args):
    A, info = _load(args)
    m, n = A.shape
    d, e = resolve_weights(args.ip, A)
    certs = []
    if args.eps is not None:
        method = "lp-approx"
        pair = cut_lp_approx(A, args.eps, d, e, tol=_tol(args))
        if max(m, n) <= args.bf_cap:
            exact = normalized_cut_bruteforce(A, d, e, cap=args.bf_cap, tol=_tol(args))
            certs.append(_cert("approx-guarantee",
                               abs(exact.value) / (1.0 + args.eps) - abs(pair.value), 1e-9))
    elif max(m, n) <= args.bf_cap:
        method = "bruteforce"
        pair = normalized_cut_bruteforce(A, d, e, cap=args.bf_cap, tol=_tol(args))
        if _integerish(d) and _integerish(e):
            other = cut_lp_exact(A, d, e, tol=_tol(args))
            certs.append(_cert("dual-route-agreement",
                               abs(abs(pair.value) - abs(other.value)), 1e-6))
    else:
        if not (_integerish(d) and _integerish(e)):
            raise ValueError(f"matrix side exceeds --bf-cap {args.bf_cap} and the "
                             "LP route needs positive integer weights")
        method = "lp-exact"
        pair = cut_lp_exact(A, d, e, tol=_tol(args))
    witness = rectangle_value(A, d, e, pair.S, pair.T) if pair.S else 0.0
    certs.insert(0, _cert("witness-consistency", abs(pair.value - witness), 1e-9))
    results = {
        "value": abs(pair.value),
        "signed_value": pair.value,
        "S": list(pair.S),
        "T": list(pair.T),
        "method": method,
    }
    return info, {"eps": args.eps, "ip": args.ip}, results, certs


def cmd_weakreg(args):
    A, info = _load(args)
    if args.eps is None:
        raise ValueError("--eps is required for weakreg")
    d, _ = resolve_weights(args.ip, A)
    rep = weak_regularity_partition(A, args.eps, weights=d, tol=_tol(args),
                                    bf_cap=args.bf_cap)
    results = {
        "parts": [list(p) for p in rep.partition],
        "num_parts": len(rep.partition),
        "terms_used": rep.terms_used,
        "weak_irregularity_ub": rep.weak_irregularity_ub,
        "szemeredi_irregularity_ub": rep.szemeredi_irregularity_ub,
        "bound_certificate": rep.bound_certificate,
        "irregularity_exact": rep.exact,
        "block_deviation": rep.block_deviation,
        "selected": rep.details["selected"],
        "truncation_rank": rep.details["r"],
    }
    return info, {"eps": args.eps, "ip": args.ip}, results, list(rep.certificates)


def cmd_szemreg(args):
    A, info = _load(args)
    if args.eps is None:
        raise ValueError("--eps is required for szemreg")
    d, _ = resolve_weights(args.ip, A)
    rep = szemeredi_partition(A, args.eps, base=args.base, weights=d,
                              tol=_tol(args), bf_cap=args.bf_cap)
    det = rep.details
    results = {
        "parts": [list(p) for p in rep.partition],
        "num_parts": len(rep.partition),
        "terms_used": rep.terms_used,
        "weak_irregularity_ub": rep.weak_irregularity_ub,
        "szemeredi_irregularity_ub": rep.szemeredi_irregularity_ub,
        "bound_certificate": rep.bound_certificate,
        "levels": det["levels"],
        "level_index": det["level_index"],
        "q": det["q"],
        "f_q": det["f_q"],
        "refined_rank": det["r_used"],
        "windows": det["windows"],
        "mass_horizon": det["mass_horizon"],
        "window": det["window"],
        "literal_window_ok": det["literal_window_ok"],
        "parts_factor": det["parts_factor"],
    }
    return info, {"eps": args.eps, "base": args.base, "ip": args.ip}, results, list(rep.certificates)


def cmd_classes(args):
    A, info = _load(args)
    n = A.shape[0] if A.shape[0] == A.shape[1] else None
    if n is None:
        raise ValueError("classes needs a square matrix")
    d, _ = resolve_weights(args.ip, A)
    eps = 0.25 if args.eps is None else args.eps
    r = 3 if args.r is None else args.r
    r = min(r, A.size)
    profile = cut_pseudorandomness_profile(A, weights=d, r=r, tol=_tol(args),
                                           bf_cap=args.bf_cap)
    spectral = spectral_projection_values(A, weights=d, r=r)
    mode = "exhaustive" if n <= 12 else "sampled"
    lp_ratio, lp_parts = lp_upper_regularity_check(A, args.p, args.eta, mode=mode,
                                                   samples=args.samples, seed=args.seed)
    deg = row_sums(A)
    dd = deg + deg.mean()
    core = core_density(A)
    core_other = frob_norm(A, dd, dd) ** 2
    results = {
        "threshold_rank": threshold_rank(A, eps),
        "core_density": core,
        "spectral_projection_values": spectral,
        "profile": {
            "r": profile.r,
            "sigma_prefix_norm": profile.sigma_prefix_norm,
            "cut_mass_ratio": profile.cut_mass_ratio,
            "certificate_ratio": profile.certificate_ratio,
            "sigmas": profile.sigmas,
            "exhausted": profile.exhausted,
        },
        "lp_regularity": {"ratio": lp_ratio, "mode": mode,
                          "parts": [list(p) for p in lp_parts]},
    }
    certs = [
        _cert("majorization",
              profile.sigma_prefix_norm, float(la.norm(spectral[:r])) + 1e-8),
        _cert("core-density-identity",
              abs(core - core_other), 1e-10 * max(1.0, core_other)),
    ]
    if args.ip == "degree":
        certs.append(_cert("degree-mass-identity", abs(profile.cut_mass_ratio - 1.0), 0.0))
    params = {"eps": eps, "r": r, "p": args.p, "eta": args.eta,
              "ip": args.ip, "seed": args.seed}
    return info, params, results, certs


def cmd_cur(args):
    A, info = _load(args)
    if args.eps is None:
        raise ValueError("--eps is required for cur")
    approx, result = cur_pvd(A, args.eps, tol=_tol(args))
    resid = p_norm(A - approx, result.domain, result.tol)
    src = float(la.norm(A))
    results = {
        "num_terms": result.num_terms,
        "selected": result.selected_pairs(),
        "sigmas": result.sigmas,
        "residual_pnorm_of_truncation": resid,
        "source_frob_norm": src,
        "exhausted": result.exhausted,
    }
    certs = [_cert("cur-chain", resid, args.eps * src + 1e-9)]
    return info, {"eps": args.eps}, results, certs


def cmd_tensor(args):
    T = read_json_tensor(args.input)
    info = {"path": args.input, "format": "json", "shape": list(T.shape)}
    if args.ip.startswith("file:"):
        flat = read_weights(args.ip[5:], sum(T.shape))
        weights = []
        at = 0
        for dim in T.shape:
            weights.append(flat[at:at + dim])
            at += dim
    elif args.ip == "euclidean":
        weights = [np.ones(dim) for dim in T.shape]
    else:
        raise ValueError("tensors support --ip euclidean or file:<path>")
    domain = CutTuples(weights)
    r = 2 if args.r is None else args.r
    check = tensor_bound_check(T, domain, r, tol=_tol(args))
    results = {"r": r, "sigmas": check["sigmas"], "domain_size": domain.size()}
    return info, {"r": r, "ip": args.ip}, results, list(check["certificates"])


def cmd_maxcut(args):
    A, info = _load(args)
    if args.eps is None:
        raise ValueError("--eps is required for maxcut")
    d, _ = resolve_weights(args.ip, A)
    det = max_cut_details(A, args.eps, delta=args.delta, weights=d,
                          bf_cap=args.bf_cap)
    certs = list(det["report"].certificates)
    n = A.shape[0]
    if n <= args.bf_cap:
        U = subset_indicators(n)
        best = float(((U @ A) * (1.0 - U)).sum(axis=1).max())
        slack = det["weak_irregularity_ub"] + det["grid_term"]
        certs.append(_cert("estimate-vs-bruteforce",
                           abs(det["estimate"] - best), slack + 1e-6))
    results = {
        "estimate": det["estimate"],
        "bipartition": list(det["bipartition"]),
        "counts": list(det["counts"]),
        "grid_term": det["grid_term"],
        "exact_split": det["exact_split"],
        "delta": det["delta"],
        "weak_irregularity_ub": det["weak_irregularity_ub"],
        "irregularity_exact": det["irregularity_exact"],
        "num_parts": len(det["report"].partition),
    }
    return info, {"eps": args.eps, "delta": det["delta"], "ip": args.ip}, results, certs


HANDLERS = {
    "pvd": cmd_pvd,
    "cutnorm": cmd_cutnorm,
    "weakreg": cmd_weakreg,
    "szemreg": cmd_szemreg,
    "classes": cmd_classes,
    "cur": cmd_cur,
    "tensor": cmd_tensor,
    "maxcut": cmd_maxcut,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pvdkit",
                                     description="Greedy projection decompositions "
                                                 "over cut-type domains, with certificates.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("pvd", "greedy decomposition of a matrix over the cut domain"),
        ("cutnorm", "normalized cut maximum of a matrix"),
        ("weakreg", "weak regularity partition with certified irregularity"),
        ("szemreg", "exponential-ladder regularity partition"),
        ("classes", "pseudorandomness statistics of a graph"),
        ("cur", "column/row skeleton decomposition"),
        ("tensor", "tensor decomposition bound check (JSON input)"),
        ("maxcut", "max-cut estimate from the regularity pipeline"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", required=True, help="input file")
        p.add_argument("--format", choices=["matrix-market", "edge-list", "json"],
                       help="input format (default: guessed from the extension)")
        p.add_argument("--ip", default="euclidean",
                       help="inner product weights: euclidean, degree, "
                            "degree-plus-avg, or file:<path>")
        p.add_argument("--eps", type=float, default=None)
        p.add_argument("--r", type=int, default=None)
        p.add_argument("--p", type=float, default=2.0)
        p.add_argument("--eta", type=float, default=0.5)
        p.add_argument("--base", type=float, default=16.0)
        p.add_argument("--delta", type=float, default=None)
        p.add_argument("--tol-abs", type=float, default=1e-9)
        p.add_argument("--tol-rel", type=float, default=1e-9)
        p.add_argument("--bf-cap", type=int, default=12)
        p.add_argument("--samples", type=int, default=10_000)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--output", default=None, help="write the report here instead of stdout")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        info, params, results, certs = HANDLERS[args.command](args)
    except (InputError, UnsupportedDomain, SimplexError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = _jsonable({
        "version": VERSION,
        "command": args.command,
        "input": info,
        "parameters": params,
        "results": results,
        "certificates": certs,
        "all_certificates_pass": all(c["pass"] for c in certs),
    })
    text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if all(c["pass"] for c in certs) else 1


if __name__ == "__main__":
    sys.exit(main())
