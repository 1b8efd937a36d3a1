"""Exact grammar-derivative calculus.

Sparse multivariate polynomials over big integers drive a rewrite-rule
derivation operator; on top of that sit the gamma vectors of the type A/B
Coxeter complexes and associahedra, Eulerian numbers of both types,
derivative polynomials of tangent and secant, Legendre/Chebyshev relatives,
and brute-force enumeration oracles that certify every closed form.

``import polygram`` loads no submodule: each name below is imported from
its submodule on first use (PEP 562), so a CLI subcommand pays only for
the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# Submodule -> the public names it defines.
_EXPORTS = {
    "gamma": ("FAMILIES", "gamma_to_h", "h_to_gamma"),
    "grammar": ("DerivOp", "Grammar", "PatternMismatch", "PowerPattern",
                "expansion_coefficients", "iterate_operator", "operator_iterates",
                "verify_identity"),
    "parser": ("ParseError", "parse_grammar", "parse_poly"),
    "poly": ("AlphabetMismatch", "MultiPoly"),
    "report": ("Check", "Report"),
    "unipoly": ("UniPoly",),
    "verify": ("TARGETS", "run_all", "run_target"),
}
_SOURCES = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [
    "AlphabetMismatch",
    "Check",
    "DerivOp",
    "FAMILIES",
    "Grammar",
    "MultiPoly",
    "ParseError",
    "PatternMismatch",
    "PowerPattern",
    "Report",
    "TARGETS",
    "UniPoly",
    "expansion_coefficients",
    "gamma_to_h",
    "h_to_gamma",
    "iterate_operator",
    "operator_iterates",
    "parse_grammar",
    "parse_poly",
    "run_all",
    "run_target",
    "verify_identity",
    "__version__",
]


def __getattr__(name):
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCES[name]}", __name__), name)
    globals()[name] = value
    return value
