"""Command-line front end: dynamics, sweeps, and reference runs as CSV.

Configuration is a flat key=value text file plus ``--set key=value``
overrides; the twelve engine scalars and three ranges need no nesting,
and the format diffs cleanly.  All output is CSV with an LF line
ending, a header row, and 12-significant-digit values, byte-identical
across runs for identical configuration.  Every command runs in one
process.

Exit codes: 0 success, 2 configuration error, 3 numerical failure
(positivity violation or degenerate cycle).
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from . import energetics
from .engine import EngineParams
from .errors import ConfigError, DegenerateCycle, PositivityViolation
from .oracle import discretize_bath, exact_evolve

__all__ = ["RunConfig", "parse_config", "serialize_config", "main"]

_BACKENDS = tuple(energetics.BACKENDS)


@dataclass(frozen=True)
class RunConfig:
    """One fully resolved run: engine, backend, grids, ranges, output."""

    engine: EngineParams
    backend: str = "tcl2"
    step: float | None = None
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


def _finite(text: str) -> float:
    """float(text), rejecting nan and +-inf with ``ValueError``."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


# every engine key is a finite float; run keys map to their value parser
_ENGINE_KEYS = ("omega_h", "omega_c", "T_h", "T_c", "lambda", "cutoff", "t1", "t2")
_RUN_KEYS = {
    "backend": str, "step": _finite, "workers": int, "out": str,
    "t1_min": _finite, "t1_max": _finite, "t1_count": int,
    "t2_min": _finite, "t2_max": _finite, "t2_count": int,
    "omega_pairs": str,
    "oracle_modes": int, "oracle_fock": int,
    "oracle_omega_max": _finite, "oracle_samples": int,
}


def _parse_omega_pairs(text: str):
    if text.lower() in ("", "none"):
        return None
    pairs = []
    for chunk in text.split(","):
        try:
            hi, lo = chunk.split(":")
            pairs.append((_finite(hi), _finite(lo)))
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
    engine_kwargs = asdict(_DEFAULT_ENGINE)
    run_kwargs = {}
    for key, value in raw.items():
        try:
            if key in _ENGINE_KEYS:
                attr = "lam" if key == "lambda" else key
                engine_kwargs[attr] = _finite(value)
            elif key == "step":
                run_kwargs["step"] = None if value.lower() == "auto" else _finite(value)
            elif key == "out":
                run_kwargs["out"] = None if value == "-" else value
            elif key == "omega_pairs":
                run_kwargs["omega_pairs"] = _parse_omega_pairs(value)
            elif key == "workers":
                # kept for configs written when sweeps ran on a process pool
                if int(value) != 1:
                    raise ConfigError("workers must be 1: sweeps run in one process")
            elif key in _RUN_KEYS:
                run_kwargs[key] = _RUN_KEYS[key](value)
            else:
                raise ConfigError(f"unknown key {key!r}")
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


def run_dynamics(cfg: RunConfig) -> str:
    """Hot-stroke observables at the limit cycle, one row per grid time."""
    ev = energetics.evaluate_cycle(cfg.engine, cfg.backend, cfg.step)
    hot, p_h = ev.hot, ev.P_h
    rho00 = hot.rho00_mixed(p_h)
    rho11 = 1.0 - rho00
    t_eff = energetics.effective_temperature_profile(rho00, hot.omega)
    d_es = energetics.system_energy_change(p_h, hot)
    e_i = energetics.interaction_energy(p_h, hot)
    d_eb = energetics.reservoir_energy_change(p_h, hot)
    theta = energetics.energy_flow(p_h, hot)[1]

    lines = ["t,rho00,rho11,T_eff,dES,dEB,EI,theta"]
    for i, t in enumerate(hot.times):
        lines.append(",".join(_fmt(v) for v in (
            t, rho00[i], rho11[i], t_eff[i], d_es[i], d_eb[i], e_i[i], theta[i],
        )))
    return "\n".join(lines) + "\n"


def run_sweep(cfg: RunConfig) -> str:
    """(t1, t2) grid of the cycle ledger, t1-major row order.

    The grid comes from ``energetics.evaluate_grid``, in this process.
    Per-point numerical failures land in the trailing ``error`` column
    and the sweep continues.
    """
    t1_values = np.linspace(cfg.t1_min, cfg.t1_max, cfg.t1_count)
    t2_values = np.linspace(cfg.t2_min, cfg.t2_max, cfg.t2_count)
    blocks = energetics.evaluate_grid(cfg.engine, t1_values, t2_values, cfg.backend,
                                      cfg.step, cfg.omega_pairs)
    t1_cells = [_fmt(t) for t in t1_values]
    t2_cells = [_fmt(t) for t in t2_values]
    with_pairs = cfg.omega_pairs is not None

    header = "t1,t2,W_ad1,W_ad2,W_I,W_II,eta_O,eta_C,error"
    if with_pairs:
        header = "omega_h,omega_c," + header
    lines = [header]
    for engine, ledger, errors in blocks:
        lead = f"{_fmt(engine.omega_h)},{_fmt(engine.omega_c)}," if with_pairs else ""
        etas = f"{_fmt(engine.eta_otto)},{_fmt(engine.eta_carnot)}"
        # %.12g prints nan and +-inf as _fmt does; + 0.0 turns -0.0 into 0
        row = f"{lead}%s,%s,%.12g,%.12g,%.12g,%.12g,{etas},%s"
        values = [(w + 0.0).tolist()
                  for w in (ledger.W_ad1, ledger.W_ad2, ledger.W_I, ledger.W_II)]
        labels = errors.tolist()
        for i, t1 in enumerate(t1_cells):
            lines.extend(row % (t1, *cells)
                         for cells in zip(t2_cells, *(w[i] for w in values), labels[i]))
    return "\n".join(lines) + "\n"


def run_oracle(cfg: RunConfig) -> str:
    """Exact few-mode reference against the hot-stroke solver output."""
    ev = energetics.evaluate_cycle(cfg.engine, cfg.backend, cfg.step)
    hot, p_h = ev.hot, ev.P_h
    del ev  # frees the cold stroke's profiles before the exact run
    idx = np.round(
        np.linspace(0, len(hot.times) - 1, cfg.oracle_samples)
    ).astype(int)
    # non-decreasing already; np.unique would import numpy.ma on each call
    idx = idx[np.r_[True, idx[1:] != idx[:-1]]]
    times = hot.times[idx]

    d_es = energetics.system_energy_change(p_h, hot)[idx]
    e_i = energetics.interaction_energy(p_h, hot)[idx]
    d_eb = energetics.reservoir_energy_change(p_h, hot)[idx]

    bath = discretize_bath(cfg.engine.hot_reservoir, cfg.oracle_modes,
                           cfg.oracle_omega_max, cfg.oracle_fock)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the flag column carries this
        ref = exact_evolve(p_h, cfg.engine.omega_h, bath, times)

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
        raw[key] = value
    if args.backend is not None:
        raw["backend"] = args.backend
    if args.out is not None:
        raw["out"] = args.out
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
