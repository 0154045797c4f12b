"""Stroboscopic map of the Otto protocol and its limit cycle.

Between strokes the state is projectively measured, so a cycle is fully
described by the probability P of finding the system in the lower level
before each reservoir contact.  One contact acts as the affine map

    P -> P * r0 + (1 - P) * r1,

where r_m is the final ground population of a stroke started from the
pure state |m><m|.  Composing the hot and cold maps gives a contraction
with factor p0; its fixed point is the limit cycle.  The algebra is the
same whether the stroke populations came from the time-convolutionless
solver or from the Markovian baseline.
"""

from __future__ import annotations

import numpy as np

__all__ = ["DEGENERACY_TOL", "fixed_point"]

DEGENERACY_TOL = 1e-12


def fixed_point(hot_r0, hot_r1, cold_r0, cold_r1):
    """Closed-form fixed point of the composed cycle map, elementwise.

    Takes the stroke-map endpoints as floats or as arrays that
    broadcast against each other, and returns (p0, degenerate, P_h,
    P_c): p0 the product of the two stroke contractions, P_h =
    p_h / (1 - p0) and P_c likewise.  ``degenerate`` marks |p0| within
    ``DEGENERACY_TOL`` of 1 (no relaxation, no unique fixed point);
    P_h and P_c carry no meaning there.
    """
    p0 = (cold_r0 - cold_r1) * (hot_r0 - hot_r1)
    degenerate = abs(p0) >= 1.0 - DEGENERACY_TOL
    p_h = cold_r0 * hot_r1 + cold_r1 * (1.0 - hot_r1)
    p_c = hot_r0 * cold_r1 + hot_r1 * (1.0 - cold_r1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return p0, degenerate, np.divide(p_h, 1.0 - p0), np.divide(p_c, 1.0 - p0)
