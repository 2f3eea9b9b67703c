"""Latin hypercubes from linear bipermutive cellular automata over GF(q).

A local rule of diameter d = b(k-1)+1 maps bk cells to b cells without
boundary; reading blocks of b cells as coordinates turns the global map
into a k-dimensional hypercube of order q^b.  The cube is Latin exactly
when every Toeplitz window of the rule's coefficient vector is
nonsingular, which reduces counting and synthesis to walks on a de
Bruijn graph over the nonsingular windows.
"""

from .debruijn import (
    DetGraph,
    build_graph,
    count_paths,
    cross_check_count,
    enumerate_paths,
    latin_hypercube_count,
    rule_from_path,
    unrank_path,
)
from .errors import BudgetExceededError, CrossCheckError
from .field import GF, default_irreducible_poly
from .hypercube import (
    DEFAULT_ENTRY_BUDGET,
    LatinCheck,
    block_structure,
    check_random_lines,
    count_latin_rules,
    dump,
    dump_json,
    dump_text,
    entry,
    is_latin,
    psi,
    psi_inverse,
)
from .rules import (
    DEFAULT_INT_BITS,
    GeneralBipermutiveRule,
    LinearRule,
    Rule,
    apply_ca,
    apply_ca_batch,
    apply_rule,
    count_bipermutive_rules,
    enumerate_bipermutive_rules,
    enumerate_linear_rules,
    rank_cells,
    restriction_is_permutation,
    rule_from_json,
    unrank_cells,
)
from .toeplitz import (
    DEFAULT_SUPPORT_BUDGET,
    count_nonsingular_toeplitz,
    determinant,
    det_of_window,
    is_latin_by_windows,
    solve_linear_system,
    solve_middle_block,
    support_of_det,
    toeplitz_matrix,
    window_dets,
    windows,
)

__all__ = [
    "GF",
    "default_irreducible_poly",
    "BudgetExceededError",
    "CrossCheckError",
    "LinearRule",
    "GeneralBipermutiveRule",
    "Rule",
    "rule_from_json",
    "apply_rule",
    "apply_ca",
    "apply_ca_batch",
    "rank_cells",
    "unrank_cells",
    "restriction_is_permutation",
    "count_bipermutive_rules",
    "enumerate_linear_rules",
    "enumerate_bipermutive_rules",
    "psi",
    "psi_inverse",
    "block_structure",
    "entry",
    "LatinCheck",
    "is_latin",
    "check_random_lines",
    "count_latin_rules",
    "dump",
    "dump_json",
    "dump_text",
    "DEFAULT_ENTRY_BUDGET",
    "windows",
    "toeplitz_matrix",
    "determinant",
    "det_of_window",
    "window_dets",
    "is_latin_by_windows",
    "support_of_det",
    "count_nonsingular_toeplitz",
    "solve_linear_system",
    "solve_middle_block",
    "DEFAULT_SUPPORT_BUDGET",
    "DetGraph",
    "build_graph",
    "count_paths",
    "enumerate_paths",
    "unrank_path",
    "rule_from_path",
    "latin_hypercube_count",
    "cross_check_count",
    "DEFAULT_INT_BITS",
]
