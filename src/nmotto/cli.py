"""Command-line front end: dynamics, sweeps, and reference runs as CSV.

Configuration is a flat key=value text file plus ``--set key=value``
overrides; the twelve engine scalars and three ranges need no nesting,
and the format diffs cleanly.  All output is CSV with an LF line
ending, a header row, and 12-significant-digit values, byte-identical
across runs and worker counts for identical configuration.

Exit codes: 0 success, 2 configuration error, 3 numerical failure
(positivity violation or degenerate cycle).
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import energetics
from .cycle import fixed_point
from .engine import DiagonalState, EngineParams
from .errors import ConfigError, DegenerateCycle, PositivityViolation
from .oracle import discretize_bath, exact_evolve

__all__ = ["RunConfig", "parse_config", "serialize_config", "main"]

_BACKENDS = ("tcl2", "markov")


@dataclass(frozen=True)
class RunConfig:
    """One fully resolved run: engine, backend, grids, ranges, output."""

    engine: EngineParams
    backend: str = "tcl2"
    step: float | None = None
    workers: int = 1
    out: str | None = None
    t1_min: float = 1.0
    t1_max: float = 60.0
    t1_count: int = 60
    t2_min: float = 1.0
    t2_max: float = 60.0
    t2_count: int = 60
    omega_pairs: tuple[tuple[float, float], ...] | None = None
    oracle_modes: int = 4
    oracle_fock: int = 4
    oracle_omega_max: float = 2.0
    oracle_samples: int = 51


_DEFAULT_ENGINE = EngineParams(
    omega_h=1.0, omega_c=0.18, T_h=5.0, T_c=1.0,
    lam=0.01, cutoff=0.4, t1=5.0, t2=60.0,
)

# config-file key -> value parser
_ENGINE_KEYS = {
    "omega_h": float, "omega_c": float, "T_h": float, "T_c": float,
    "lambda": float, "cutoff": float, "t1": float, "t2": float,
}
_RUN_KEYS = {
    "backend": str, "step": float, "workers": int, "out": str,
    "t1_min": float, "t1_max": float, "t1_count": int,
    "t2_min": float, "t2_max": float, "t2_count": int,
    "omega_pairs": str,
    "oracle_modes": int, "oracle_fock": int,
    "oracle_omega_max": float, "oracle_samples": int,
}


def _parse_omega_pairs(text: str):
    if text.lower() in ("", "none"):
        return None
    pairs = []
    for chunk in text.split(","):
        try:
            hi, lo = chunk.split(":")
            pairs.append((float(hi), float(lo)))
        except ValueError as exc:
            raise ConfigError(f"bad omega pair {chunk!r}, expected w_h:w_c") from exc
    return tuple(pairs)


def parse_config(text: str) -> dict:
    """Parse flat key=value lines ('#' comments) into a raw dict."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _ENGINE_KEYS and key not in _RUN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        raw[key] = value
    return raw


def build_config(raw: dict) -> RunConfig:
    """Resolve a raw key -> string dict into a validated RunConfig."""
    engine_kwargs = {
        "omega_h": _DEFAULT_ENGINE.omega_h, "omega_c": _DEFAULT_ENGINE.omega_c,
        "T_h": _DEFAULT_ENGINE.T_h, "T_c": _DEFAULT_ENGINE.T_c,
        "lam": _DEFAULT_ENGINE.lam, "cutoff": _DEFAULT_ENGINE.cutoff,
        "t1": _DEFAULT_ENGINE.t1, "t2": _DEFAULT_ENGINE.t2,
    }
    run_kwargs = {}
    for key, value in raw.items():
        try:
            if key in _ENGINE_KEYS:
                attr = "lam" if key == "lambda" else key
                engine_kwargs[attr] = float(value)
            elif key == "step":
                run_kwargs["step"] = None if value.lower() == "auto" else float(value)
            elif key == "out":
                run_kwargs["out"] = None if value == "-" else value
            elif key == "omega_pairs":
                run_kwargs["omega_pairs"] = _parse_omega_pairs(value)
            else:
                run_kwargs[key] = _RUN_KEYS[key](value)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {value!r}") from exc

    try:
        engine = EngineParams(**engine_kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    cfg = RunConfig(engine=engine, **run_kwargs)

    if cfg.backend not in _BACKENDS:
        raise ConfigError(f"backend must be one of {_BACKENDS}, got {cfg.backend!r}")
    if cfg.step is not None and not cfg.step > 0:
        raise ConfigError("step must be positive")
    if cfg.workers < 1:
        raise ConfigError("workers must be >= 1")
    for name in ("t1", "t2"):
        lo = getattr(cfg, f"{name}_min")
        hi = getattr(cfg, f"{name}_max")
        count = getattr(cfg, f"{name}_count")
        if not (0 < lo <= hi):
            raise ConfigError(f"need 0 < {name}_min <= {name}_max")
        if count < 1:
            raise ConfigError(f"{name}_count must be >= 1")
    if cfg.oracle_modes < 1 or cfg.oracle_fock < 1:
        raise ConfigError("oracle_modes and oracle_fock must be >= 1")
    if not cfg.oracle_omega_max > 0:
        raise ConfigError("oracle_omega_max must be positive")
    if cfg.oracle_samples < 2:
        raise ConfigError("oracle_samples must be >= 2")
    if cfg.omega_pairs is not None:
        for hi, lo in cfg.omega_pairs:
            if not (hi >= lo > 0):
                raise ConfigError(f"omega pair ({hi}, {lo}) needs w_h >= w_c > 0")
    return cfg


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form; parsing it back reproduces cfg exactly."""
    eng = cfg.engine
    pairs = "none" if cfg.omega_pairs is None else ",".join(
        f"{hi:.12g}:{lo:.12g}" for hi, lo in cfg.omega_pairs
    )
    lines = [
        f"omega_h = {eng.omega_h:.12g}",
        f"omega_c = {eng.omega_c:.12g}",
        f"T_h = {eng.T_h:.12g}",
        f"T_c = {eng.T_c:.12g}",
        f"lambda = {eng.lam:.12g}",
        f"cutoff = {eng.cutoff:.12g}",
        f"t1 = {eng.t1:.12g}",
        f"t2 = {eng.t2:.12g}",
        f"backend = {cfg.backend}",
        "step = auto" if cfg.step is None else f"step = {cfg.step:.12g}",
        f"workers = {cfg.workers}",
        f"out = {'-' if cfg.out is None else cfg.out}",
        f"t1_min = {cfg.t1_min:.12g}",
        f"t1_max = {cfg.t1_max:.12g}",
        f"t1_count = {cfg.t1_count}",
        f"t2_min = {cfg.t2_min:.12g}",
        f"t2_max = {cfg.t2_max:.12g}",
        f"t2_count = {cfg.t2_count}",
        f"omega_pairs = {pairs}",
        f"oracle_modes = {cfg.oracle_modes}",
        f"oracle_fock = {cfg.oracle_fock}",
        f"oracle_omega_max = {cfg.oracle_omega_max:.12g}",
        f"oracle_samples = {cfg.oracle_samples}",
    ]
    return "\n".join(lines) + "\n"


def _fmt(x: float) -> str:
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    s = format(float(x), ".12g")
    return "0" if s == "-0" else s


# Zero coupling freezes the populations and makes the cycle map the
# identity, so no unique limit cycle exists; the symmetric mixture is
# reported by convention, for which every energy column vanishes.
_FROZEN_P = 0.5


def _cycle_probabilities(engine: EngineParams, hot, cold):
    """(p0, degenerate, P_h, P_c) of the limit cycle from the hot and
    cold stroke ends, floats or broadcasting arrays (``fixed_point``).
    At zero coupling every point takes _FROZEN_P and none counts as
    degenerate."""
    p0, degenerate, p_h, p_c = fixed_point(hot.r0, hot.r1, cold.r0, cold.r1)
    if engine.lam == 0.0:
        return p0, np.zeros_like(degenerate), _FROZEN_P, _FROZEN_P
    return p0, degenerate, p_h, p_c


def _hot_stroke_state(cfg: RunConfig):
    """Hot-stroke dynamics and pre-contact ground probability at the
    limit cycle."""
    hot, cold = (energetics.stroke_dynamics(cfg.engine, which, cfg.backend, cfg.step)
                 for which in ("hot", "cold"))
    p0, degenerate, p_h, _ = _cycle_probabilities(cfg.engine, hot.ends, cold.ends)
    if degenerate:
        raise DegenerateCycle(
            f"cycle map is (nearly) the identity, |p0| = {abs(p0):.17g}", p0=p0)
    return hot, float(p_h)


def run_dynamics(cfg: RunConfig) -> str:
    """Hot-stroke observables at the limit cycle, one row per grid time."""
    hot, p_h = _hot_stroke_state(cfg)
    rho00 = hot.rho00_mixed(p_h)
    rho11 = 1.0 - rho00
    t_eff = energetics.effective_temperature_profile(rho00, hot.omega)
    d_es = energetics.system_energy_change(p_h, hot)
    e_i = energetics.interaction_energy(p_h, hot)
    d_eb = -d_es - e_i
    theta = energetics.energy_flow(p_h, hot)[1]

    lines = ["t,rho00,rho11,T_eff,dES,dEB,EI,theta"]
    for i, t in enumerate(hot.times):
        lines.append(",".join(_fmt(v) for v in (
            t, rho00[i], rho11[i], t_eff[i], d_es[i], d_eb[i], e_i[i], theta[i],
        )))
    return "\n".join(lines) + "\n"


def _stroke_ends(task):
    """End values of one stroke, or None where it violates positivity."""
    engine, which, backend, step = task
    try:
        return energetics.stroke_dynamics(engine, which, backend, step).ends
    except PositivityViolation:
        return None


def _stack_ends(ends, shape):
    """Per-stroke ends as one StrokeEnds of arrays of ``shape`` (nan for
    a failed stroke), and the mask of failed strokes."""
    failed = np.array([e is None for e in ends]).reshape(shape)
    nan_ends = (float("nan"),) * len(energetics.StrokeEnds._fields)
    columns = zip(*(nan_ends if e is None else e for e in ends))
    return energetics.StrokeEnds._make(
        np.array(col).reshape(shape) for col in columns), failed


def sweep_grid(cfg: RunConfig):
    """Cycle ledger over the (t1, t2) grid, one block per omega pair.

    Each distinct hot stroke (one per t1) and cold stroke (one per t2)
    is solved once, across ``cfg.workers`` processes; the limit cycle
    and ledger of every grid point then follow from the stroke ends by
    broadcasting.  Returns a list of (engine, works, errors): engine
    carries the pair's splittings, works the W_ad1, W_ad2, W_I, W_II
    arrays of shape (t1_count, t2_count), and errors the matching
    array of failure labels ("" where the point succeeded).
    """
    t1_values = np.linspace(cfg.t1_min, cfg.t1_max, cfg.t1_count)
    t2_values = np.linspace(cfg.t2_min, cfg.t2_max, cfg.t2_count)
    pairs = cfg.omega_pairs or ((cfg.engine.omega_h, cfg.engine.omega_c),)
    engines = [replace(cfg.engine, omega_h=hi, omega_c=lo) for hi, lo in pairs]
    shape = (cfg.t1_count, cfg.t2_count)

    tasks = []
    for engine in engines:
        tasks += [(replace(engine, t1=float(t1)), "hot", cfg.backend, cfg.step)
                  for t1 in t1_values]
        tasks += [(replace(engine, t2=float(t2)), "cold", cfg.backend, cfg.step)
                  for t2 in t2_values]
    if cfg.workers > 1:
        chunk = max(1, len(tasks) // (cfg.workers * 4))
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            ends = list(pool.map(_stroke_ends, tasks, chunksize=chunk))
    else:
        ends = [_stroke_ends(task) for task in tasks]

    blocks = []
    n1, n2 = shape
    for k, engine in enumerate(engines):
        first = k * (n1 + n2)
        # hot ends down a column, cold ends along a row: they broadcast
        hot, hot_failed = _stack_ends(ends[first:first + n1], (n1, 1))
        cold, cold_failed = _stack_ends(ends[first + n1:first + n1 + n2], (1, n2))
        # failed and degenerate points carry nan or inf here; masked below
        with np.errstate(invalid="ignore", over="ignore"):
            _, degenerate, p_h, p_c = _cycle_probabilities(engine, hot, cold)
            ledger = energetics.cycle_ledger(engine.omega_h - engine.omega_c,
                                             p_h, p_c, hot, cold)
        errors = np.full(shape, "", dtype=object)
        errors[degenerate] = DegenerateCycle.__name__
        errors[hot_failed | cold_failed] = PositivityViolation.__name__
        failed = errors != ""
        works = [np.where(failed, np.nan, w) for w in ledger[:4]]
        blocks.append((engine, works, errors))
    return blocks


def run_sweep(cfg: RunConfig) -> str:
    """(t1, t2) grid of the cycle ledger, t1-major row order.

    Solves each distinct stroke once and evaluates the limit cycle and
    ledger of all grid points at once (``sweep_grid``); with more than
    one worker the stroke solves are spread over processes.  Per-point
    numerical failures land in the trailing ``error`` column and the
    sweep continues.  Output bytes do not depend on the worker count.
    """
    t1_cells = [_fmt(t) for t in np.linspace(cfg.t1_min, cfg.t1_max, cfg.t1_count)]
    t2_cells = [_fmt(t) for t in np.linspace(cfg.t2_min, cfg.t2_max, cfg.t2_count)]
    with_pairs = cfg.omega_pairs is not None

    header = "t1,t2,W_ad1,W_ad2,W_I,W_II,eta_O,eta_C,error"
    if with_pairs:
        header = "omega_h,omega_c," + header
    lines = [header]
    for engine, works, errors in sweep_grid(cfg):
        lead = f"{_fmt(engine.omega_h)},{_fmt(engine.omega_c)}," if with_pairs else ""
        etas = f"{_fmt(engine.eta_otto)},{_fmt(engine.eta_carnot)}"
        values = [w.tolist() for w in works]
        labels = errors.tolist()
        for i, t1 in enumerate(t1_cells):
            for j, t2 in enumerate(t2_cells):
                cells = ",".join(_fmt(w[i][j]) for w in values)
                lines.append(f"{lead}{t1},{t2},{cells},{etas},{labels[i][j]}")
    return "\n".join(lines) + "\n"


def run_oracle(cfg: RunConfig) -> str:
    """Exact few-mode reference against the hot-stroke solver output."""
    hot, p_h = _hot_stroke_state(cfg)
    idx = np.round(
        np.linspace(0, len(hot.times) - 1, cfg.oracle_samples)
    ).astype(int)
    # non-decreasing already; np.unique would import numpy.ma on each call
    idx = idx[np.r_[True, idx[1:] != idx[:-1]]]
    times = hot.times[idx]

    d_es = energetics.system_energy_change(p_h, hot)[idx]
    e_i = energetics.interaction_energy(p_h, hot)[idx]
    d_eb = -d_es - e_i

    bath = discretize_bath(cfg.engine.hot_reservoir, cfg.oracle_modes,
                           cfg.oracle_omega_max, cfg.oracle_fock)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the flag column carries this
        ref = exact_evolve(DiagonalState(p_h, 1.0 - p_h), cfg.engine.omega_h,
                           bath, times)

    lines = ["t,dES_tcl2,dES_exact,dEB_tcl2,dEB_exact,EI_tcl2,EI_exact,truncation"]
    flags = ref.truncation_flagged
    for i, t in enumerate(times):
        lines.append(",".join([
            _fmt(t), _fmt(d_es[i]), _fmt(ref.d_system[i]),
            _fmt(d_eb[i]), _fmt(ref.d_bath[i]),
            _fmt(e_i[i]), _fmt(ref.interaction[i]),
            "1" if flags[i] else "0",
        ]))
    return "\n".join(lines) + "\n"


def _load_config(args) -> RunConfig:
    raw = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                raw.update(parse_config(fh.read()))
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = (part.strip() for part in item.split("=", 1))
        if key not in _ENGINE_KEYS and key not in _RUN_KEYS:
            raise ConfigError(f"unknown key {key!r}")
        raw[key] = value
    if args.backend is not None:
        raw["backend"] = args.backend
    if args.out is not None:
        raw["out"] = args.out
    if args.workers is not None:
        raw["workers"] = str(args.workers)
    return build_config(raw)


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nmotto",
        description="Finite-time quantum Otto engine: stroke dynamics, "
                    "duration sweeps, and exact few-mode reference runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("dynamics", "hot-stroke observables at the limit cycle"),
        ("sweep", "cycle ledger over a (t1, t2) grid"),
        ("oracle", "solver vs exact few-mode reference"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", help="flat key=value configuration file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one configuration key (repeatable)")
        p.add_argument("--backend", choices=_BACKENDS)
        p.add_argument("--out", help="output CSV path (default: stdout)")
        p.add_argument("--workers", type=int)
    return parser


_COMMANDS = {"dynamics": run_dynamics, "sweep": run_sweep, "oracle": run_oracle}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        _emit(_COMMANDS[args.command](cfg), cfg.out)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (PositivityViolation, DegenerateCycle) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
