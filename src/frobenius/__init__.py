"""Exact Frobenius numbers for coprime integer bases.

Four independent ways to the same answer: shortest paths over residues
mod the smallest generator (three generators take Rødseth's formula over
the same residues, with no size cap), the paper's descending scan driven
by a membership search, a bit-packed sieve table grown until it proves
its answer, and a floor-function indicator form whose telescoping sum
picks out the largest gap.  By default frobenius() takes the cheaper of
the sieve and the residue table on four or more generators.  Closed
forms cover two-generator, three-generator, arithmetic-progression, and
Fibonacci-triple bases, and four classical upper bounds are provided
with their vacuity conditions.  All arithmetic is exact (int and
fractions.Fraction); the only approximate quantity anywhere is the
square root inside one bound, replaced by a one-sided rational
approximation.
"""

from .basis import Basis, RepresentationWitness, gcd_all, normalize_basis, scan_upper_bound
from .bounds import (
    BOUND_NAMES,
    BoundReport,
    bound_beck,
    bound_erdos_graham,
    bound_report,
    bound_selmer,
    bound_vitek,
    chain_bounds,
)
from .closed_forms import (
    FibonacciTripleParams,
    fibonacci,
    fibonacci_triple_elements,
    frobenius_arithmetic,
    frobenius_fibonacci_triple,
    frobenius_three,
    frobenius_two,
)
from .errors import (
    ArityError,
    FrobeniusError,
    InvalidElementError,
    InvalidInputError,
    NonCoprimeError,
    OutOfEnvelopeError,
    ResourceLimitError,
)
from .oracle import (
    DEFAULT_LIMIT_CAP,
    RepresentabilityTable,
    frobenius_oracle,
    gaps,
    is_independent,
    sieve,
)
from .randgen import LCG_INCREMENT, LCG_MULTIPLIER, Lcg, random_bases, random_basis
from .reference import REFERENCE_CASES
from .representability import find_witness, has_rep, has_rep_two
from .residue import RESIDUE_CAP, ResidueTable, residue_table
from .sequential import (
    TRACE_CAP,
    SequentialTrace,
    delta_scan,
    f_indicator,
    h_general,
    h_is_zero,
    h_two,
    n_indicator,
    sequential_trace,
)
from .solver import (
    ALGORITHM_TAGS,
    FrobeniusResult,
    frobenius,
    frobenius_descent,
    frobenius_sequential,
)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHM_TAGS",
    "ArityError",
    "BOUND_NAMES",
    "Basis",
    "BoundReport",
    "DEFAULT_LIMIT_CAP",
    "FibonacciTripleParams",
    "FrobeniusError",
    "FrobeniusResult",
    "InvalidElementError",
    "InvalidInputError",
    "LCG_INCREMENT",
    "LCG_MULTIPLIER",
    "Lcg",
    "NonCoprimeError",
    "OutOfEnvelopeError",
    "REFERENCE_CASES",
    "RESIDUE_CAP",
    "RepresentabilityTable",
    "RepresentationWitness",
    "ResidueTable",
    "ResourceLimitError",
    "SequentialTrace",
    "TRACE_CAP",
    "bound_beck",
    "bound_erdos_graham",
    "bound_report",
    "bound_selmer",
    "bound_vitek",
    "chain_bounds",
    "delta_scan",
    "f_indicator",
    "fibonacci",
    "fibonacci_triple_elements",
    "find_witness",
    "frobenius",
    "frobenius_arithmetic",
    "frobenius_descent",
    "frobenius_fibonacci_triple",
    "frobenius_oracle",
    "frobenius_sequential",
    "frobenius_three",
    "frobenius_two",
    "gaps",
    "gcd_all",
    "h_general",
    "h_is_zero",
    "h_two",
    "has_rep",
    "has_rep_two",
    "is_independent",
    "n_indicator",
    "normalize_basis",
    "random_bases",
    "random_basis",
    "residue_table",
    "scan_upper_bound",
    "sequential_trace",
    "sieve",
    "__version__",
]
