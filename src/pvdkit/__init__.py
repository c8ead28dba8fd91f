"""Greedy projection decompositions over cut-type domains, with the
regularity, pseudorandomness, tensor, and skeleton applications built on top.
"""
from .linalg import frob_inner, frob_norm, ip_dot, ip_norm, spectral_norm
from .cutnorm import (CutPair, cut_lp_approx, cut_lp_exact, cut_norm_bruteforce,
                      cut_norm_lp_upper, normalized_cut_bruteforce, rectangle_sum,
                      rectangle_value)
from .domains import (ColumnRowDomain, CutDomain, ExplicitDomain, ExplicitTuples,
                      FullSphereDomain, UnsupportedDomain)
from .pvd import (PvdResult, best_truncation, combination_coefficients, compute_pvd,
                  orthogonal_increment, p_norm, truncate, verify_pvd)
from .regularity import (Partition, RegularityReport, block_average, max_cut_details,
                         refine, szemeredi_irregularity_ub, szemeredi_partition,
                         weak_irregularity_ub, weak_regularity_partition)
from .graphs import (PseudorandomnessProfile, core_density,
                     cut_pseudorandomness_profile, degree_weights,
                     lp_upper_regularity_check, row_sums,
                     spectral_projection_values, threshold_rank)
from .tensor import CutTuples, s_form, tensor_bound_check
from .cur import cur_pvd

__version__ = "0.1.0"

__all__ = [
    "frob_inner", "frob_norm", "ip_dot", "ip_norm", "spectral_norm",
    "CutPair", "cut_lp_approx", "cut_lp_exact", "cut_norm_bruteforce",
    "cut_norm_lp_upper", "normalized_cut_bruteforce", "rectangle_sum",
    "rectangle_value",
    "ColumnRowDomain", "CutDomain", "ExplicitDomain", "ExplicitTuples",
    "FullSphereDomain", "UnsupportedDomain",
    "PvdResult", "best_truncation", "combination_coefficients", "compute_pvd",
    "orthogonal_increment", "p_norm", "truncate", "verify_pvd",
    "Partition", "RegularityReport", "block_average", "max_cut_details",
    "refine", "szemeredi_irregularity_ub", "szemeredi_partition",
    "weak_irregularity_ub", "weak_regularity_partition",
    "PseudorandomnessProfile", "core_density", "cut_pseudorandomness_profile",
    "degree_weights", "lp_upper_regularity_check", "row_sums",
    "spectral_projection_values", "threshold_rank",
    "CutTuples", "s_form", "tensor_bound_check",
    "cur_pvd",
    "__version__",
]
