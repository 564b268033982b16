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

Importing the package loads none of its modules.  Each public name is
looked up in _EXPORTS on first use (PEP 562), which imports only the
module that defines it and what that module imports, so a caller that
needs one solver does not load the others.  The command-line interface
imports what each subcommand runs when it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# The module that defines each public name.
_EXPORTS = {
    name: module
    for module, names in {
        "basis": ("Basis", "RepresentationWitness", "gcd_all", "normalize_basis",
                  "scan_upper_bound"),
        "bounds": ("BOUND_NAMES", "BoundReport", "bound_beck", "bound_erdos_graham",
                   "bound_report", "bound_selmer", "bound_vitek", "chain_bounds"),
        "closed_forms": ("FibonacciTripleParams", "fibonacci", "fibonacci_triple_elements",
                         "frobenius_arithmetic", "frobenius_fibonacci_triple",
                         "frobenius_three", "frobenius_two"),
        "errors": ("ArityError", "FrobeniusError", "InvalidElementError", "InvalidInputError",
                   "NonCoprimeError", "OutOfEnvelopeError", "ResourceLimitError"),
        "oracle": ("DEFAULT_LIMIT_CAP", "RepresentabilityTable", "frobenius_oracle", "gaps",
                   "is_independent", "sieve"),
        "randgen": ("LCG_INCREMENT", "LCG_MULTIPLIER", "Lcg", "random_bases", "random_basis"),
        "reference": ("REFERENCE_CASES",),
        "representability": ("find_witness", "has_rep", "has_rep_two"),
        "residue": ("RESIDUE_CAP", "ResidueTable", "residue_table"),
        "sequential": ("TRACE_CAP", "SequentialTrace", "delta_scan", "f_indicator", "h_general",
                       "h_is_zero", "h_two", "n_indicator", "sequential_trace"),
        "solver": ("ALGORITHM_TAGS", "FrobeniusResult", "frobenius", "frobenius_descent",
                   "frobenius_sequential"),
    }.items()
    for name in names
}

__all__ = [*sorted(_EXPORTS), "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
