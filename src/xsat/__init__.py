"""Exact one-in-three satisfiability: solving, counting, kernelization."""

from .formula import (
    BOTTOM,
    Assignment,
    CapacityError,
    CnfFormula,
    DimensionError,
    EmptyFormulaError,
    Triple,
    ValidationError,
    XsatError,
    XsatFormula,
    eval_xsat,
    kappa,
    validate,
)
from .generator import (
    GenSpec,
    SpecError,
    SplitMix64,
    gen_fib_chain,
    gen_fixed_rank,
    gen_partition,
    gen_random,
    generate,
)
from .io import (
    ParseError,
    emit_report,
    parse_dimacs_cnf,
    parse_xsat,
    serialize_cnf,
    serialize_xsat,
)
from .kernel import (
    SolveReport,
    count_blocks,
    count_kernel,
    repr_size,
    solve,
)
from .linsys import LinearSystem, RrefResult, encode_sys, gauss_jordan
from .oracle import naive_count, naive_count_cnf, naive_models
from .reductions import reduce_cnf_to_xsat, reduce_xsat_to_positive
from .substitution import expansion_profile, substitute

__version__ = "0.1.0"
