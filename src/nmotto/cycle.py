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

from dataclasses import dataclass

import numpy as np

from . import tcl2
from .errors import DegenerateCycle

__all__ = [
    "DEGENERACY_TOL",
    "StrokeMap",
    "LimitCycle",
    "fixed_point",
    "limit_cycle",
    "iterate_cycle",
]

DEGENERACY_TOL = 1e-12

_MAP_TOL = tcl2.POSITIVITY_TOL  # stroke populations may carry solver jitter


@dataclass(frozen=True)
class StrokeMap:
    """Endpoint ground populations of one stroke from both pure starts.

    r0 = rho00(t_end) for rho00(0) = 1,  r1 for rho00(0) = 0.
    """

    r0: float
    r1: float

    def __post_init__(self):
        for v in (self.r0, self.r1):
            if not -_MAP_TOL <= v <= 1.0 + _MAP_TOL:
                raise ValueError(f"stroke-map population {v} outside [0, 1]")

    def apply(self, p: float) -> float:
        return p * self.r0 + (1.0 - p) * self.r1

    @property
    def contraction(self) -> float:
        return self.r0 - self.r1


@dataclass(frozen=True)
class LimitCycle:
    """Fixed point of the repeated protocol.

    P_h / P_c are the ground-state probabilities just before the hot /
    cold contact, p0 the per-cycle contraction factor.
    """

    P_h: float
    P_c: float
    p0: float


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


def limit_cycle(hot: StrokeMap, cold: StrokeMap) -> LimitCycle:
    """Closed-form fixed point of the composed cycle map (``fixed_point``).

    Raises ``DegenerateCycle`` when |p0| is within ``DEGENERACY_TOL``
    of 1 (no relaxation, no unique fixed point).
    """
    p0, degenerate, ph, pc = fixed_point(hot.r0, hot.r1, cold.r0, cold.r1)
    if degenerate:
        raise DegenerateCycle(
            f"cycle map is (nearly) the identity, |p0| = {abs(p0):.17g}", p0=p0
        )
    return LimitCycle(P_h=float(ph), P_c=float(pc), p0=p0)


def iterate_cycle(hot: StrokeMap, cold: StrokeMap, p_start: float, n: int):
    """Explicit n-cycle orbit of the stroboscopic map.

    Returns [(P_h_1, P_c_1), ..., (P_h_n, P_c_n)] with P_h_1 = p_start
    and P_c_k the probability after the k-th hot contact.  Convergence
    toward the fixed point is geometric with ratio |p0|.
    """
    if not 0.0 <= p_start <= 1.0:
        raise ValueError("p_start must lie in [0, 1]")
    if n < 1:
        raise ValueError("need at least one cycle")
    orbit = []
    ph = p_start
    for _ in range(n):
        pc = hot.apply(ph)
        orbit.append((ph, pc))
        ph = cold.apply(pc)
    return orbit
