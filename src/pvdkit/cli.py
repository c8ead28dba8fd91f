"""Command line front end.

Every subcommand reads one input file, runs the requested computation, and
emits a single JSON report: sorted keys, two-space indent, full-precision
floats, no timestamps.  Certificates are (name, lhs, rhs, pass) records; the
process exits 0 only when every certificate in the report passed, 1 when any
failed, and 2 on usage or input errors.  Each subcommand takes only the
options its handler reads (``COMMANDS``); any other option is a usage error.

``run`` brings the input, its weights and ``--tol-abs`` to unit scale once
(``linalg.unit_scale``), the handler computes there, and ``run`` puts its
results and certificates back in the input's units (``linalg.in_units``).
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np
import numpy.linalg as la

from .cutnorm import (BRUTE_FORCE_CAP, _ratio_grid_fits, _sweep_exact, cut_lp_approx,
                      cut_lp_exact, integer_weights, normalized_cut_bruteforce,
                      rectangle_value)
from .domains import CutDomain, UnsupportedDomain
from .graphs import (EXHAUSTIVE_PARTITION_CAP, core_density, cut_pseudorandomness_profile,
                     degree_weights, lp_upper_regularity_check, row_sums,
                     spectral_projection_values, threshold_rank)
from .io import InputError, guess_format, load_matrix, read_json_tensor, read_weights
from .linalg import frob_norm, in_units, unit_atol, unit_scale, unit_weights, whitened
from .pvd import certificate, compute_pvd, roundoff_slack, verify_pvd
from .regularity import max_cut_details, szemeredi_partition, weak_regularity_partition
from .simplex import SimplexError
from .sweep import _max_cut
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


def resolve_weights(ip: str, A: np.ndarray) -> tuple:
    """One weight vector per mode of ``A`` for the chosen inner product at
    unit scale, and the exponent that brought them there
    (``linalg.unit_weights``).  Refused when the smallest weights of the
    modes multiply below the normal float range, as weights that span most
    of it can: the weight masses of the rectangles would underflow."""
    weights, a = unit_weights(_weights(ip, A))
    smallest = math.prod(float(w.min()) for w in weights)
    if smallest < sys.float_info.min:
        raise ValueError(f"--ip {ip}: the smallest weights of the modes multiply to "
                         f"{smallest:.3g}, below the normal float range, so the weight "
                         "masses of the rectangles underflow")
    return weights, a


def _weights(ip: str, A: np.ndarray) -> list:
    """A square matrix shares one vector between its modes; ``file:`` on any
    other shape holds one number per index of each mode, mode by mode."""
    if ip == "euclidean":
        return [np.ones(dim) for dim in A.shape]
    square = A.ndim == 2 and A.shape[0] == A.shape[1]
    if ip in ("degree", "degree-plus-avg"):
        if not square:
            raise ValueError(f"--ip {ip} needs a square matrix")
        if ip == "degree":
            d = degree_weights(A)
        else:
            deg = row_sums(A)
            d = deg + deg.mean()
            if np.any(d <= 0):
                raise ValueError("--ip degree-plus-avg needs positive shifted degrees")
        return [d, d]
    if ip.startswith("file:"):
        if square:
            w = read_weights(ip[5:], A.shape[0])
            return [w, w.copy()]
        return np.split(read_weights(ip[5:], sum(A.shape)), np.cumsum(A.shape[:-1]))
    raise ValueError(f"unknown inner product {ip!r}; "
                     "choose euclidean, degree, degree-plus-avg, or file:<path>")


def _load(args, options) -> tuple:
    """The input array and its description; a subcommand without
    ``--format`` reads a JSON tensor."""
    if "format" not in options:
        T = read_json_tensor(args.input)
        return T, {"path": args.input, "format": "json", "shape": list(T.shape)}
    fmt = args.format or guess_format(args.input)
    A, meta = load_matrix(args.input, fmt)
    info = {"path": args.input, "format": fmt, "shape": list(A.shape)}
    if "labels" in meta:
        info["labels"] = meta["labels"]
    return A, info


def _scaled(A, ip: str, tol_abs) -> tuple:
    """``A`` and its weights at unit scale (``resolve_weights``), the
    ``--tol-abs`` given in the input's units there, and the exponents
    (plain, whitened) that ``in_units`` takes the report back with.  Degree
    weights are taken of ``A`` at unit scale, so they carry its exponent."""
    A, k = unit_scale(A)
    weights, a = resolve_weights(ip, A)
    w = k - A.ndim * (a + (k if ip.startswith("degree") else 0)) // 2
    return A, weights, unit_atol(tol_abs, w), (k, w)


#: the subcommands that need ``--eps``
_NEEDS_EPS = ("weakreg", "szemreg", "cur", "maxcut")


def run(name: str, args) -> tuple:
    """The input description, parameters, results and certificates of the
    subcommand ``name``, reading only the options it declares.  Its handler
    takes the parsed options, the input, one weight vector per mode of the
    input and ``atol``, all at unit scale (``_scaled``), and returns its
    parameters, results and certificates, which ``run`` puts back in the
    input's units (``in_units``)."""
    options = COMMANDS[name][2]
    A, info = _load(args, options)
    if name in _NEEDS_EPS and args.eps is None:
        raise ValueError(f"--eps is required for {name}")
    ip = args.ip if "ip" in options else "euclidean"
    A, weights, atol, units = _scaled(A, ip, args.tol_abs if "tol-abs" in options else None)
    params, results, certs = HANDLERS[name](args, A, weights, atol)
    return info, params, *in_units((results, certs), *units)


# ---------------------------------------------------------------- commands

def _run_results(result) -> dict:
    """The result fields that ``pvd`` and ``cur`` share."""
    return {
        "num_terms": result.num_terms,
        "sigmas": result.sigmas,
        "selected": result.selected_pairs(),
        "exhausted": result.exhausted,
        "source_frob_norm": result.source_frob_norm,
    }


def cmd_pvd(args, A, weights, atol):
    domain = CutDomain(*weights, bf_cap=args.bf_cap)
    result = compute_pvd(A, domain, max_terms=args.r, atol=atol)
    # the cut domain is always verifiable; any refusal is an error (exit 2),
    # never an empty, passing certificate list
    certs = verify_pvd(result)["certificates"]
    results = _run_results(result) | {
        "coefficients": result.coeffs,
        "step_values": result.values,
        "residual_pnorm": result.residual_pnorm,
        "verified": True,
    }
    return {"r": args.r, "ip": args.ip}, results, certs


def cmd_cutnorm(args, A, weights, atol):
    d, e = weights
    exact = _sweep_exact(A.shape, args.bf_cap)
    slack = roundoff_slack(float(la.norm(whitened(A, d, e))))
    certs = []
    if args.eps is not None:
        method = "lp-approx"
        pair = cut_lp_approx(A, args.eps, d, e, atol=atol)
        if exact:
            best = normalized_cut_bruteforce(A, d, e, cap=args.bf_cap, atol=atol)
            certs.append(certificate("approx-guarantee",
                                     abs(best.value) / (1.0 + args.eps) - abs(pair.value), slack))
    elif exact:
        method = "bruteforce"
        pair = normalized_cut_bruteforce(A, d, e, cap=args.bf_cap, atol=atol)
        # the LP route runs where its ratio grid exists and fits its cap
        if (integer_weights(d) and integer_weights(e)
                and _ratio_grid_fits(int(d.sum()), int(e.sum()))):
            other = cut_lp_exact(A, d, e, atol=atol)
            certs.append(certificate("dual-route-agreement",
                                     abs(abs(pair.value) - abs(other.value)), max(1e-6, slack)))
    else:
        method = "lp-exact"
        pair = cut_lp_exact(A, d, e, atol=atol)
    witness = rectangle_value(A, d, e, pair.S, pair.T) if pair.S else 0.0
    certs.insert(0, certificate("witness-consistency", abs(pair.value - witness), slack))
    results = {
        "value": abs(pair.value),
        "signed_value": pair.value,
        "S": list(pair.S),
        "T": list(pair.T),
        "method": method,
    }
    return {"eps": args.eps, "ip": args.ip}, results, certs


def _partition_results(rep) -> dict:
    """The result fields that ``weakreg`` and ``szemreg`` share."""
    return {
        "parts": [list(p) for p in rep.partition],
        "num_parts": len(rep.partition),
        "terms_used": rep.terms_used,
        "weak_irregularity_ub": rep.weak_irregularity_ub,
        "szemeredi_irregularity_ub": rep.szemeredi_irregularity_ub,
        "bound_certificate": rep.bound_certificate,
    }


def cmd_weakreg(args, A, weights, atol):
    rep = weak_regularity_partition(A, args.eps, weights=weights[0], atol=atol,
                                    bf_cap=args.bf_cap)
    results = _partition_results(rep) | rep.details | {
        "irregularity_exact": True,
        "block_deviation": rep.block_deviation,
    }
    return {"eps": args.eps, "ip": args.ip}, results, rep.certificates


def cmd_szemreg(args, A, weights, atol):
    rep = szemeredi_partition(A, args.eps, base=args.base, weights=weights[0],
                              atol=atol, bf_cap=args.bf_cap)
    results = _partition_results(rep) | rep.details
    return {"eps": args.eps, "base": args.base, "ip": args.ip}, results, rep.certificates


def cmd_classes(args, A, weights, atol):
    d = weights[0]
    eps = 0.25 if args.eps is None else args.eps
    r = 3 if args.r is None else args.r
    r = min(r, A.size)
    profile = cut_pseudorandomness_profile(A, weights=d, r=r, atol=atol, bf_cap=args.bf_cap)
    spectral = spectral_projection_values(A, weights=d, r=r)
    mode = "exhaustive" if A.shape[0] <= EXHAUSTIVE_PARTITION_CAP else "sampled"
    lp_ratio, lp_parts = lp_upper_regularity_check(A, args.p, args.eta, mode=mode,
                                                   samples=args.samples, seed=args.seed)
    dd, _ = _weights("degree-plus-avg", A)
    core = core_density(A)
    core_other = frob_norm(A, dd, dd) ** 2
    results = {
        "threshold_rank": threshold_rank(A, eps),
        "core_density": core,
        "spectral_projection_values": spectral,
        "profile": vars(profile),
        "lp_regularity": {"ratio": lp_ratio, "mode": mode,
                          "parts": [list(p) for p in lp_parts]},
    }
    certs = [
        certificate("majorization",
                    profile.sigma_prefix_norm, float(la.norm(spectral[:r])) + 1e-8),
        certificate("core-density-identity",
                    abs(core - core_other), 1e-10 * max(1.0, core_other)),
    ]
    if args.ip == "degree":
        certs.append(certificate("degree-mass-identity",
                                 abs(profile.cut_mass_ratio - 1.0), 0.0))
    params = {"eps": eps, "r": r, "p": args.p, "eta": args.eta,
              "ip": args.ip, "seed": args.seed}
    return params, results, certs


def cmd_cur(args, A, weights, atol):
    _approx, result, cert = cur_pvd(A, args.eps, atol=atol)
    results = _run_results(result) | {"residual_pnorm_of_truncation": cert["lhs"]}
    return {"eps": args.eps}, results, [cert]


def cmd_tensor(args, T, weights, atol):
    domain = CutTuples(weights)
    r = 2 if args.r is None else args.r
    check = tensor_bound_check(T, domain, r, atol=atol)
    results = {"r": r, "sigmas": check["sigmas"], "domain_size": domain.size()}
    return {"r": r, "ip": args.ip}, results, check["certificates"]


def cmd_maxcut(args, A, weights, atol):
    results = max_cut_details(A, args.eps, delta=args.delta, weights=weights[0],
                              bf_cap=args.bf_cap)
    certs = list(results.pop("report").certificates)
    if A.shape[0] <= args.bf_cap:
        best = _max_cut(A)
        slack = results["weak_irregularity_ub"] + results["grid_term"]
        certs.append(certificate("estimate-vs-bruteforce",
                                 abs(results["estimate"] - best), slack + 1e-6))
    return {"eps": args.eps, "delta": results["delta"], "ip": args.ip}, results, certs


def _finite(text: str) -> float:
    """A float option's value; a non-finite one is a usage error."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _nonnegative(text: str) -> float:
    """A finite float option's value that is at least 0."""
    value = _finite(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is negative")
    return value


#: every option a subcommand may take, by flag, with its argparse settings
OPTIONS = {
    "format": dict(choices=["matrix-market", "edge-list", "json"],
                   help="input format (default: guessed from the extension)"),
    "ip": dict(default="euclidean",
               help="inner product weights: euclidean, degree, degree-plus-avg, "
                    "or file:<path>"),
    "eps": dict(type=_finite, default=None),
    "r": dict(type=int, default=None),
    "p": dict(type=_finite, default=2.0),
    "eta": dict(type=_finite, default=0.5),
    "base": dict(type=_finite, default=16.0),
    "delta": dict(type=_finite, default=None),
    "tol-abs": dict(type=_nonnegative, default=None),
    "bf-cap": dict(type=int, default=BRUTE_FORCE_CAP),
    "samples": dict(type=int, default=10_000),
    "seed": dict(type=int, default=0),
}

_CUT = ("format", "ip", "eps", "tol-abs", "bf-cap")

#: each subcommand's handler, help line, and the options its handler reads;
#: besides these, every subcommand takes ``--input`` and ``--output``
COMMANDS = {
    "pvd": (cmd_pvd, "greedy decomposition of a matrix over the cut domain",
            ("format", "ip", "r", "tol-abs", "bf-cap")),
    "cutnorm": (cmd_cutnorm, "normalized cut maximum of a matrix", _CUT),
    "weakreg": (cmd_weakreg, "weak regularity partition with certified irregularity", _CUT),
    "szemreg": (cmd_szemreg, "exponential-ladder regularity partition", _CUT + ("base",)),
    "classes": (cmd_classes, "pseudorandomness statistics of a graph",
                ("format", "ip", "eps", "r", "p", "eta", "tol-abs", "bf-cap", "samples",
                 "seed")),
    "cur": (cmd_cur, "column/row skeleton decomposition", ("format", "eps", "tol-abs")),
    "tensor": (cmd_tensor, "tensor decomposition bound check (JSON input)",
               ("ip", "r", "tol-abs")),
    "maxcut": (cmd_maxcut, "max-cut estimate from the regularity pipeline",
               ("format", "ip", "eps", "delta", "bf-cap")),
}

#: the handler ``main`` runs for each subcommand
HANDLERS = {name: handler for name, (handler, _, _) in COMMANDS.items()}


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once (``parse_args`` leaves it as is).
    Options are not matched by prefix, so whether ``--e`` parses does not
    depend on which options a subcommand has."""
    parser = argparse.ArgumentParser(prog="pvdkit", allow_abbrev=False,
                                     description="Greedy projection decompositions "
                                                 "over cut-type domains, with certificates.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.add_argument("--input", required=True, help="input file")
        for flag in options:
            p.add_argument(f"--{flag}", **OPTIONS[flag])
        p.add_argument("--output", default=None, help="write the report here instead of stdout")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        info, params, results, certs = run(args.command, args)
        passed = all(c["pass"] for c in certs)
        report = _jsonable({
            "version": VERSION,
            "command": args.command,
            "input": info,
            "parameters": params,
            "results": results,
            "certificates": certs,
            "all_certificates_pass": passed,
        })
        text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except (InputError, UnsupportedDomain, SimplexError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
