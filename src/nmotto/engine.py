"""Engine configuration."""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .kernels import ReservoirSpec, check_range

__all__ = ["EngineParams"]


@dataclass(frozen=True)
class EngineParams:
    """All physical and protocol constants of one engine configuration.

    omega_h / omega_c are the splittings in contact with the hot / cold
    reservoir, each a float, or an array with one element per pair, of
    which the engine keeps its own read-only copy (engines compare by value);
    T_h / T_c the temperatures, lam and cutoff the shared Ohmic coupling,
    t1 / t2 the contact durations.  Degenerate settings are representable
    (omega_h == omega_c, T_h == T_c, lam == 0); a working engine has
    omega_h > omega_c > 0 and T_h > T_c > 0.  Each value lies in
    [1 / SCALE, SCALE] (``kernels.SCALE``), lam in [0, SCALE].  The
    check builds ``hot_reservoir`` and ``cold_reservoir`` once and keeps
    them; ``ReservoirSpec`` judges T, lam and cutoff.
    """

    omega_h: float | np.ndarray
    omega_c: float | np.ndarray
    T_h: float
    T_c: float
    lam: float
    cutoff: float
    t1: float
    t2: float

    def __post_init__(self):
        for name in ("omega_h", "omega_c", "t1", "t2"):
            if np.ndim(value := np.array(getattr(self, name))):  # kept as a read-only copy
                value.flags.writeable = False
                object.__setattr__(self, name, value)
            check_range(name, value)
        for name, T in (("hot_reservoir", self.T_h), ("cold_reservoir", self.T_c)):
            object.__setattr__(self, name, ReservoirSpec(T, self.lam, self.cutoff))
        if np.shape(self.omega_h) != np.shape(self.omega_c):
            raise ValueError("omega_h and omega_c need one shape")
        his, los = np.atleast_1d(self.omega_h, self.omega_c)
        bad = np.flatnonzero(his < los)  # the pairs out of order; each is in range
        if bad.size:
            raise ValueError("need omega_h >= omega_c > 0, got "
                             f"omega_h = {his[bad[0]]}, omega_c = {los[bad[0]]}")
        if not (self.T_h >= self.T_c > 0):
            raise ValueError("need T_h >= T_c > 0")

    def _key(self):  # the eight fields by value, array splittings too
        values = (getattr(self, f.name) for f in fields(self))  # not the kept reservoirs
        return tuple((np.shape(v), *np.ravel(v).tolist()) for v in values)

    def __eq__(self, other):
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def eta_otto(self) -> float | np.ndarray:
        """Otto efficiency 1 - omega_c / omega_h (backend independent), per pair."""
        return 1.0 - self.omega_c / self.omega_h

    @property
    def eta_carnot(self) -> float:
        """Carnot efficiency 1 - T_c / T_h."""
        return 1.0 - self.T_c / self.T_h
