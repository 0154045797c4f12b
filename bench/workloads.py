"""Seeded workload generator.

Each workload is one ``nmotto`` command plus a flat ``key = value``
config.  The seed draws only the parameters named in each workload's
docstring line; everything else is fixed, so two runs with the same
seed hand the program byte-identical configs.  The program receives
the config only through ``--config``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 0

# The paper's operating point: eta_O = 0.82 exceeds eta_C = 0.8.
_OPERATING_POINT = {
    "omega_h": 1.0, "omega_c": 0.18, "T_h": 5.0, "T_c": 1.0, "cutoff": 0.4,
}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    why: str
    settings: dict

    def config_text(self, out: str) -> str:
        lines = [f"{key} = {value}" for key, value in self.settings.items()]
        lines += ["workers = 1", f"out = {out}"]
        return "\n".join(lines) + "\n"


def _draw(rng: random.Random, lo: float, hi: float) -> float:
    # six significant decimals keep the config readable and round-trip exact
    return round(rng.uniform(lo, hi), 6)


def _grid(count: int) -> dict:
    return {"t1_min": 1, "t1_max": 60, "t1_count": count,
            "t2_min": 1, "t2_max": 60, "t2_count": count}


def _sweep_map(rng):
    return {**_OPERATING_POINT, "lambda": _draw(rng, 0.005, 0.02),
            "backend": "tcl2", **_grid(120)}


def _sweep_edge(rng):
    pairs = []
    for _ in range(48):
        omega_h = _draw(rng, 0.6, 1.4)
        omega_c = round(omega_h * rng.uniform(0.1, 0.4), 6)
        pairs.append(f"{omega_h:g}:{omega_c:g}")
    return {**_OPERATING_POINT, "T_h": 30.0, "lambda": 0.2, "backend": "tcl2",
            "omega_pairs": ",".join(pairs), **_grid(5)}


def _sweep_markov(rng):
    return {**_OPERATING_POINT, "lambda": _draw(rng, 0.005, 0.02),
            "backend": "markov", **_grid(110)}


def _oracle_bath(rng):
    return {**_OPERATING_POINT, "lambda": 0.01, "t1": 5.0, "t2": 60.0,
            "backend": "tcl2", "oracle_modes": 3, "oracle_fock": 8,
            "oracle_omega_max": _draw(rng, 1.5, 2.5)}


_BUILDERS = {
    "sweep-map": ("sweep", _sweep_map,
                  "A 120x120 TCL2 sweep at the paper's operating point is "
                  "bound by the per-point ledger, 240 distinct strokes."),
    "sweep-edge": ("sweep", _sweep_edge,
                   "48 omega pairs on a 5x5 grid at T_h=30, lambda=0.2 make "
                   "the sweep stroke-solver bound and hit PositivityViolation."),
    "sweep-markov": ("sweep", _sweep_markov,
                     "A 110x110 Markov sweep calls markov and never tcl2 "
                     "or kernels, so stroke-solver changes leave it alone."),
    "oracle-bath": ("oracle", _oracle_bath,
                    "A dimension-1458 exact bath: one dense eigh plus full "
                    "stroke profiles, code that no sweep reaches."),
}

NAMES = tuple(_BUILDERS)


def make(name: str, seed: int) -> Workload:
    """The workload ``name`` with its seeded parameters drawn from ``seed``."""
    command, build, why = _BUILDERS[name]
    rng = random.Random(f"{name}/{seed}")
    return Workload(name=name, command=command, why=why, settings=build(rng))
