"""Dissipativity decisions for one-dimensional operator extensions.

The package evaluates closed-form dissipativity criteria for a catalog of
extension problems of dual operator pairs and independently verifies every
verdict with a discretized numerical-range oracle.
"""

from .catalog import (
    ExtensionProblem,
    MultiplicationPerturbation,
    RankOnePerturbation,
    RHO_INF,
    build_halfline_schrodinger,
    build_konzert,
    build_potsdam,
    build_shirley,
)
from .criteria import Verdict, decide
from .grid import Grid, make_grid
from .oracle import OracleReport, cross_validate

__version__ = "0.1.0"

__all__ = [
    "ExtensionProblem",
    "MultiplicationPerturbation",
    "RankOnePerturbation",
    "RHO_INF",
    "build_halfline_schrodinger",
    "build_konzert",
    "build_potsdam",
    "build_shirley",
    "Verdict",
    "decide",
    "Grid",
    "make_grid",
    "OracleReport",
    "cross_validate",
    "__version__",
]
