"""Combinatorial calculus of virtual strings via nanowords.

The package models virtual strings (flat virtual knots) as nanowords: Gauss
words whose letters carry a two-valued type.  It provides the homotopy move
system, the classical invariants (linking weights, u-polynomial, head/tail
matrices, based matrices and their primitive reducts), the covering,
composition and cabling operations, bounded homotopy search with replayable
witness traces, and desk-scale verification suites for the structural
theorems relating all of these.
"""

from .core import (
    EMPTY,
    MoveKind,
    MoveSite,
    MoveTrace,
    Nanoword,
    NanowordError,
    MoveError,
    apply_move,
    canonical_relabel,
    find_sites,
    invert_steps,
    isomorphic,
    parse,
    shift,
    shift_canonical,
    shift_inv,
    shift_orbit,
)
from .invariants import (
    BasedMatrix,
    DistinguishReport,
    HeadTailMatrices,
    ReductionStep,
    UPolynomial,
    based_matrix,
    bm_isomorphic,
    cable_reduced_based_matrix,
    composite_based_matrix,
    distinguish,
    head_tail_matrices,
    invariant_bundle,
    linking_number,
    n_values,
    primitive_based_matrix,
    reduce_to_primitive,
    rho,
    th_realizable,
    u_polynomial,
    u_realizable,
)
from .ops import (
    cable,
    compose,
    covering,
    gen_alpha_n,
    gen_gamma_pq,
    r_dot,
    uncover_preimage,
)
from .search import (
    CoverStats,
    CoveringGraph,
    EquivalenceResult,
    SearchBudget,
    cover_stats,
    covering_graph,
    equivalent_bounded,
    reduce_bounded,
)
from .enumeration import (
    all_nanowords,
    canonical_population,
    sample_nanowords,
    standard_gauss_words,
)

__version__ = "0.1.0"
