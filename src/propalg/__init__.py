"""Proposition algebra: sequential propositional logic over reactive valuations.

Statements are built from atoms, T, F, and the ternary conditional
``x <| y |> z`` ("if y then x else z", middle argument evaluated first).
The package provides parsing and printing, canonical forms and equality for
the six valuation congruences, semantic oracles quantifying over valuation
tables, satisfiability, definability searches, projective sequences with
linear recursive specifications, and the caching/re-eval transformations.
"""

from .congruence import (
    LAW_SUITE,
    NormalizationReport,
    basic_form,
    check_law,
    congruent_oracle,
    equal,
    equiv_oracle,
    normalization_report,
    normalize,
    oracle_verdict,
    run_law_suite,
)
from .errors import (
    AlphabetError,
    BudgetExceededError,
    DepthExhaustedError,
    NestingDepthError,
    PropalgError,
    ReservedWordError,
    SyntaxValidationError,
    UnsupportedConnectiveError,
)
from .expressive import (
    CompositionTerm,
    OperatorCatalog,
    enumerate_tc12,
    f_simplify,
    iter_tc12,
    mem_definability_check,
    phi_abc,
    search_equivalent,
    t_simplify,
)
from .projective import (
    IndexedSpec,
    LinearSpec,
    ProjectiveApprox,
    approximants,
    eval_spec,
    is_projective,
    load_spec,
    dump_spec,
    primes_spec,
    project,
    seq_cond,
    unfold_projection,
)
from .sat import (
    SatVerdict,
    acc,
    crpmem_translation_holds,
    pmem_reduction_holds,
    sat,
    sat_fr_inductive,
)
from .syntax import desugar, parse, print_sugared, print_term, sugared_atoms
from .terms import (
    FALSE,
    TRUE,
    Atom,
    AtomTerm,
    Cond,
    FalseConst,
    Term,
    TrueConst,
    Variety,
    atom,
    atoms,
    cond,
    depth,
    is_basic,
    is_k_basic,
    subst_atom,
)
from .transform import caching, is_monotest, re_eval, subst_sets
from .valuation import (
    EvalResult,
    ValuationTable,
    constant_table,
    dump_valuation,
    enumerate_tables,
    evaluate,
    in_variety,
    laws_hold,
    load_valuation,
    static_table,
    table_from_fn,
)

__version__ = "0.1.0"
