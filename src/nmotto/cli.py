"""Command-line front end: dynamics, sweeps, and reference runs as CSV.

Configuration is a flat key=value text file plus ``--set key=value``
overrides; the eight engine scalars and the run keys need no nesting,
and the format diffs cleanly.  All output is CSV with an LF line
ending, a header row, and 12-significant-digit values.  The bytes
repeat for one configuration on one machine and numpy build; across
numpy's CPU dispatch levels the cells agree to 1e-10 (at most 1.0e-13
absolute on sweeps).  Every command runs in one process.

Exit codes: 0 success, 2 configuration error (a failed write to stdout
or to the --out file included), 3 numerical failure (positivity
violation or degenerate cycle).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field, fields, replace
from itertools import tee

import numpy as np

from . import energetics
from .engine import EngineParams
from .errors import ConfigError, DegenerateCycle, PositivityViolation
from .oracle import discretize_bath, exact_evolve
from .tcl2 import POSITIVITY_TOL, lattice

__all__ = ["RunConfig", "parse_config", "serialize_config", "main"]

_BACKENDS = tuple(energetics.BACKENDS)
# A sweep at this many points (t1 x t2 x omega pairs) peaks at about
# 410 MB resident, near ``dynamics`` at ``tcl2.MAX_STEPS`` steps.
MAX_SWEEP_POINTS = 10**6


def _show_float(value: float) -> str:
    """12 significant digits where they give the value back, else repr."""
    text = f"{value:.12g}"
    return text if float(text) == value else repr(value)


def _at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise ConfigError(f"must be >= {low}")
        return value
    return parse


def _backend(text: str) -> str:
    if text not in _BACKENDS:
        raise ConfigError(f"must be one of {_BACKENDS}, got {text!r}")
    return text


def _out(text: str) -> str | None:
    # a path the config line format carries back unchanged, and open takes
    if text.splitlines() != [text] or text != text.strip() or "#" in text or "\0" in text:
        raise ConfigError("must be a nonempty path without '#', a NUL, a line break "
                          f"or surrounding whitespace, got {text!r}")
    return None if text == "-" else text


def _pairs(text: str):
    if text.lower() in ("", "none"):
        return None
    pairs = (chunk.split(":") for chunk in text.split(","))
    return tuple((float(hi), float(lo)) for hi, lo in pairs)


# the config key of each EngineParams field: the paper's lambda is lam
_ENGINE_FIELDS = {"lambda" if f.name == "lam" else f.name: f.name
                  for f in fields(EngineParams)}


def _key(default, parse, show=str):
    """A run key's one declaration: its default and (parser, printer) pair."""
    return field(default=default, metadata={"codec": (parse, show)})


@dataclass(frozen=True)
class RunConfig:
    """One fully resolved run; a rule across its keys raises ``ValueError``.
    Every field after ``engine`` is a run key.  Its checks build two values
    once and keep them: ``bath``, the few-mode stand-in for the hot reservoir
    of the exact run, and ``swept_engine``, the engine with the omega pairs'
    splittings as arrays (the engine's own pair where ``omega_pairs`` is none)."""

    engine: EngineParams = EngineParams(omega_h=1.0, omega_c=0.18, T_h=5.0, T_c=1.0,
                                        lam=0.01, cutoff=0.4, t1=5.0, t2=60.0)
    backend: str = _key("tcl2", _backend)
    step: float | None = _key(None, lambda t: None if t.lower() == "auto" else float(t),
                              lambda h: "auto" if h is None else _show_float(h))
    out: str | None = _key(None, _out, lambda out: "-" if out is None else out)
    t1_min: float = _key(1.0, float, _show_float)
    t1_max: float = _key(60.0, float, _show_float)
    t1_count: int = _key(60, _at_least(1))
    t2_min: float = _key(1.0, float, _show_float)
    t2_max: float = _key(60.0, float, _show_float)
    t2_count: int = _key(60, _at_least(1))
    omega_pairs: tuple[tuple[float, float], ...] | None = _key(
        None, _pairs, lambda pairs: "none" if pairs is None else ",".join(
            f"{_show_float(hi)}:{_show_float(lo)}" for hi, lo in pairs))
    oracle_modes: int = _key(4, int)
    oracle_fock: int = _key(4, int)
    oracle_omega_max: float = _key(2.0, float, _show_float)
    oracle_samples: int = _key(51, _at_least(2))

    def __post_init__(self):
        points = self.t1_count * self.t2_count * max(1, len(self.omega_pairs or ()))
        if points > MAX_SWEEP_POINTS:
            raise ValueError(f"a sweep of {points} points exceeds {MAX_SWEEP_POINTS}")
        # longest first: a step too fine for every duration is named at the longest
        lattice(sorted((self.engine.t1, self.engine.t2, self.t1_min, self.t1_max,
                        self.t2_min, self.t2_max), reverse=True), self.step)
        for name in ("t1", "t2"):
            if not getattr(self, f"{name}_min") <= getattr(self, f"{name}_max"):
                raise ValueError(f"need {name}_min <= {name}_max")
        # discretize_bath checks the oracle keys, and EngineParams the pairs
        object.__setattr__(self, "bath", discretize_bath(
            self.engine.hot_reservoir, self.oracle_modes, self.oracle_omega_max,
            self.oracle_fock))
        pairs = self.omega_pairs or ((self.engine.omega_h, self.engine.omega_c),)
        his, los = np.transpose(pairs)
        object.__setattr__(self, "swept_engine", replace(self.engine, omega_h=his, omega_c=los))


# Every config key, the engine's then RunConfig's: key -> (parser, printer).
# A parser raises ValueError on text it cannot read, and ConfigError on a
# failed check, with the rest of a sentence that starts with the key.
_KEYS = {**dict.fromkeys(_ENGINE_FIELDS, (float, _show_float)),
         **{f.name: f.metadata["codec"] for f in fields(RunConfig) if f.name != "engine"}}

# workers is still read, so that configs written when sweeps ran on a
# process pool keep working; its only valid value is 1
_KNOWN = {*_KEYS, "workers"}


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
        if key not in _KNOWN:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        raw[key] = value
    return raw


def build_config(raw: dict) -> RunConfig:
    """Resolve a raw key -> string dict into a validated RunConfig."""
    engine_kwargs, run_kwargs = {}, {}
    for key, text in raw.items():
        if key not in _KNOWN:
            raise ConfigError(f"unknown key {key!r}")
        try:
            if key == "workers":
                if int(text) != 1:
                    raise ConfigError("must be 1: sweeps run in one process")
            elif key in _ENGINE_FIELDS:
                engine_kwargs[_ENGINE_FIELDS[key]] = _KEYS[key][0](text)
            else:
                run_kwargs[key] = _KEYS[key][0](text)
        except ConfigError as exc:
            raise ConfigError(f"{key} {exc}") from None
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {text!r}") from exc
    try:
        return RunConfig(engine=replace(RunConfig.engine, **engine_kwargs), **run_kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form; parsing it back reproduces cfg exactly."""
    values = {**vars(cfg), **{key: getattr(cfg.engine, name)
                              for key, name in _ENGINE_FIELDS.items()}}
    return "".join(f"{key} = {show(values[key])}\n" for key, (_, show) in _KEYS.items())


# cells formatted per call; a bigger chunk holds more cells in memory
_CHUNK = 1024


def _cells(values):
    """CSV cells of an array, 12 significant digits: nan, inf and -inf
    print as such, and -0.0 as 0.  Formatted chunk by chunk, as consumed."""
    flat = np.ravel(values) + 0.0
    for k in range(0, flat.size, _CHUNK):
        part = flat[k:k + _CHUNK].tolist()
        # one formatting call per chunk costs less than one per cell
        yield from ("%.12g\n" * len(part) % tuple(part)).split("\n")[:-1]


def _csv(header: str, columns) -> str:
    """CSV text of cell columns of one length, LF line endings, read row
    by row; the trailing "" ends the last line without a copy of the
    text.  A column of another length raises ``ValueError``."""
    return "\n".join([header, *map(",".join, zip(*columns, strict=True)), ""])


def run_dynamics(cfg: RunConfig) -> str:
    """Hot-stroke observables at the limit cycle, one row per grid time."""
    ev = energetics.evaluate_cycle(cfg.engine, cfg.backend, cfg.step)
    hot, p_h = ev.hot, ev.P_h
    del ev  # frees the cold stroke's profiles before the hot one is formatted
    bal = energetics.stroke_balance(p_h, hot)
    t_eff = energetics.effective_temperature_profile(bal.rho00, hot.omega)
    theta = energetics.energy_flow(p_h, hot)[1]
    return _csv("t,rho00,rho11,T_eff,dES,dEB,EI,theta", map(_cells, (
        hot.times, bal.rho00, 1.0 - bal.rho00, t_eff, bal.dES, bal.dEB, bal.E_I, theta)))


def run_sweep(cfg: RunConfig) -> str:
    """(pair, t1, t2) grid of the swept engine's ledger from ``evaluate_grid``,
    omega-pair-major, each column in C order; per-point numerical failures
    land in the trailing ``error`` column and the sweep continues."""
    t1_values = np.linspace(cfg.t1_min, cfg.t1_max, cfg.t1_count)
    t2_values = np.linspace(cfg.t2_min, cfg.t2_max, cfg.t2_count)
    engine = cfg.swept_engine
    ledger, errors = energetics.evaluate_grid(engine, t1_values, t2_values, cfg.backend,
                                              cfg.step)

    def spread(values):  # each distinct cell formatted once, read over the grid in C order
        cells = np.array([*_cells(values)], dtype=object).reshape(np.shape(values))
        return np.broadcast_to(cells, errors.shape).flat
    # a W_II equal to W_I (every Markov sweep) takes W_I's cells, formatted
    # once: _csv reads the two columns in step, so tee holds one cell
    works = (tee(_cells(ledger.W_I))
             if np.array_equal(ledger.W_I, ledger.W_II, equal_nan=True)
             else map(_cells, (ledger.W_I, ledger.W_II)))
    his, los, etas = np.reshape([engine.omega_h, engine.omega_c, engine.eta_otto],
                                (3, -1, 1, 1))  # per pair, down axis 0
    lead = "omega_h,omega_c," if cfg.omega_pairs is not None else ""
    return _csv(lead + "t1,t2,W_ad1,W_ad2,W_I,W_II,eta_O,eta_C,error", [
        *map(spread, (his, los) if lead else ()), spread(t1_values[:, None]),
        spread(t2_values), *map(_cells, (ledger.W_ad1, ledger.W_ad2)), *works,
        spread(etas), spread(engine.eta_carnot), errors.flat])


def run_oracle(cfg: RunConfig) -> str:
    """Exact few-mode reference against the hot-stroke solver output."""
    ev = energetics.evaluate_cycle(cfg.engine, cfg.backend, cfg.step)
    hot, p_h = ev.hot, ev.P_h
    del ev  # frees the cold stroke's profiles before the exact run
    # n samples pick every grid time already; more would pick the same ones
    n = len(hot.times)
    idx = np.round(np.linspace(0, n - 1, min(cfg.oracle_samples, n))).astype(int)
    times = hot.times[idx]
    bal = energetics.stroke_balance(p_h, hot)

    # the exact start needs 0 <= P_h <= 1, which the cycle meets to the
    # strokes' tolerance: P_h = 1 + 2e-16 is a ground state, P_h = 1.1 is not
    if not -POSITIVITY_TOL <= p_h <= 1.0 + POSITIVITY_TOL:
        raise PositivityViolation(f"limit-cycle P_h = {p_h!r} left [0, 1]", worst=p_h)
    ref = exact_evolve(min(max(p_h, 0.0), 1.0), cfg.engine.omega_h, cfg.bath, times)

    b = cfg.backend  # the solver columns are named after the backend that made them
    return _csv(f"t,dES_{b},dES_exact,dEB_{b},dEB_exact,EI_{b},EI_exact,truncation",
                map(_cells, (times, bal.dES[idx], ref.d_system, bal.dEB[idx], ref.d_bath,
                             bal.E_I[idx], ref.interaction, ref.truncation_flagged)))


def _load_config(args) -> RunConfig:
    raw = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8-sig") as fh:
                raw.update(parse_config(fh.read()))
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = (part.strip() for part in item.split("=", 1))
        raw[key] = value
    for key in ("backend", "out"):  # the shorthand flags
        if getattr(args, key) is not None:
            raw[key] = getattr(args, key)
    cfg = build_config(raw)
    if cfg.out is not None:  # before any computation, and without opening the file
        if os.path.isdir(cfg.out):
            raise ConfigError(f"cannot write output: {cfg.out!r} is a directory")
        try:  # a file, FIFO or device is written in place, a new file in its folder
            os.stat(cfg.out)
            target = cfg.out
        except FileNotFoundError:
            target = os.path.dirname(cfg.out) or "."
        except OSError as exc:
            raise ConfigError(f"cannot write output: {exc}") from exc
        if not os.access(target, os.W_OK):
            raise ConfigError(f"cannot write output: {target!r} is not writable")
    return cfg


def _emit(text: str, out: str | None):
    try:
        if out is None:
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            with open(out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
    except OSError as exc:
        if out is None:  # what stdout still buffers goes to devnull at exit
            with open(os.devnull, "wb") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        raise ConfigError(f"cannot write output: {exc}") from exc


_COMMANDS = {"dynamics": run_dynamics, "sweep": run_sweep, "oracle": run_oracle}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nmotto",
        description="Finite-time quantum Otto engine: stroke dynamics, "
                    "duration sweeps, and exact few-mode reference runs.",
    )
    parser.add_argument("command", choices=_COMMANDS, help="dynamics: hot-stroke "
                        "observables at the limit cycle; sweep: cycle ledger over a "
                        "(t1, t2) grid; oracle: solver vs exact few-mode reference")
    parser.add_argument("--config", help="flat key=value configuration file")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override one configuration key (repeatable)")
    parser.add_argument("--backend", help=f"one of {_BACKENDS}")
    parser.add_argument("--out", help="output CSV path (default: stdout)")
    return parser


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
