"""Exact computer algebra for crossed product algebras and their calculi.

Everything is computed over cyclotomic fields with rational coefficients,
so every verification in the package is a bit-exact pass/fail decision:
Hopf and comodule algebra axioms, twisted module and cocycle laws, first
order and graded differential calculi, the bundle structure of crossed
products, and de Rham cohomology by exact rank.
"""

from hopfcalc.linalg import FreeVector, Subspace
from hopfcalc.scalars import CycScalar, parse_scalar, root_of_unity

__all__ = [
    "CycScalar",
    "FreeVector",
    "Subspace",
    "parse_scalar",
    "root_of_unity",
]
__version__ = "0.1.0"
