"""One extension problem of each kind the oracle's equivalence tests share.

The oracle's band assembly and pencil solver are checked against the dense
references on these, and the benchmark's tracer test reads their pencils.
"""

import math

from dissipext import catalog
from dissipext.analytic import AnalyticFunction, Term, constant, exponential, indicator


def equivalence_problem(kind, rank_one_direction):
    if kind == "konzert":
        return catalog.build_konzert(0.25, constant(1.2))
    if kind == "shirley":
        return catalog.build_shirley(math.sqrt(3.0), 0.5 + 0.375j,
                                     AnalyticFunction((Term(1.0, 2.0), Term(-1.0, 1.0))))
    if kind == "potsdam":
        return catalog.build_potsdam(exponential(0.5, -1.0), 1.0 + 0j,
                                     AnalyticFunction((Term(1j, 1.0, -1.0),)))
    if kind.startswith("rank_one"):
        pert = catalog.RankOnePerturbation(1.0, rank_one_direction, 3.0)
        return catalog.build_halfline_schrodinger(1 + 0.5j, pert)
    pert = catalog.MultiplicationPerturbation(indicator(0.0, 1.0), 3.0 * indicator(0.0, 1.0))
    return catalog.build_halfline_schrodinger(1 + 0.2j, pert)
