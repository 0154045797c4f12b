"""Command-line surface: config handling, CSV contracts, determinism."""

import errno
import io
import math
import os
import runpy
import subprocess
import sys
import time
import weakref
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import astuple, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nmotto
from nmotto import EnergyLedger, cli, energetics, evaluate_cycle, evaluate_grid, tcl2
from nmotto.cli import (
    build_config,
    main,
    parse_config,
    run_dynamics,
    run_oracle,
    run_sweep,
    serialize_config,
)
from nmotto.errors import ConfigError, DegenerateCycle, PositivityViolation
from nmotto.kernels import SCALE
from nmotto.oracle import discretize_bath

REF_SETS = [
    "t1=5", "t2=60", "omega_h=1.0", "omega_c=0.18", "T_h=5.0", "T_c=1.0",
    "lambda=0.01", "cutoff=0.4",
]


# the benchmark's workload generator and correctness gate, executed from
# source and never written to
BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"
BENCH_WORKLOADS = runpy.run_path(str(BENCH_DIR / "workloads.py"))
BENCH_GATE = runpy.run_path(str(BENCH_DIR / "gate.py"))
BENCH_TRACER = runpy.run_path(str(BENCH_DIR / "tracer.py"))
# bench/run.py's bound on the traced layers' self times against run_s
TRACE_SUM_TOL_S = 1e-6


def read_rows(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def column(text, name):
    header, rows = read_rows(text)
    i = header.index(name)
    return np.array([float(r[i]) for r in rows])


N_FIELDS = len(fields(EnergyLedger))


def point_ledger(engine, backend, step):
    """One sweep point the per-point way: the ``EnergyLedger`` fields in
    order, label."""
    try:
        ledger = evaluate_cycle(engine, backend, step).ledger
    except (PositivityViolation, DegenerateCycle) as exc:
        return (float("nan"),) * N_FIELDS, type(exc).__name__
    return astuple(ledger), ""


def grid_labels(engine, t1_values, t2_values, backend, step, omega_pairs=None):
    """``evaluate_grid`` of the engine, its splittings swept over ``omega_pairs``
    where given, against ``point_ledger`` at every (pair, t1, t2) point, each
    field bit for bit by its hex; returns the set of labels."""
    pairs = omega_pairs or [(engine.omega_h, engine.omega_c)]
    his, los = np.transpose(pairs)
    swept = engine if omega_pairs is None else replace(engine, omega_h=his, omega_c=los)
    ledger, errors = evaluate_grid(swept, t1_values, t2_values, backend, step)
    engines = [replace(engine, omega_h=hi, omega_c=lo) for hi, lo in pairs]
    shape = (len(pairs), len(t1_values), len(t2_values))
    assert errors.shape == shape and all(np.shape(w) == shape for w in astuple(ledger))
    for (k, i, j), label in np.ndenumerate(errors):
        point = replace(engines[k], t1=float(t1_values[i]), t2=float(t2_values[j]))
        ref, want = point_ledger(point, backend, step)
        got = [float(w[k, i, j]).hex() for w in astuple(ledger)]
        assert got == [w.hex() for w in ref] and label == want, (k, i, j)
    return set(errors.flat)


# the input range as the checks print it, and the coupling's
RANGE, LAM = f"[{1 / SCALE!r}, {SCALE!r}]", f"[0.0, {SCALE!r}]"


def no_solve(*args, **kwargs):
    raise AssertionError("a stroke was solved")


def set_args(*items):
    return [arg for item in items for arg in ("--set", item)]


def command_line(line):
    """argv of ``command item ...``: each item a ``--set``, or a --flag=value."""
    name, *items = line.split()
    return [name, *(arg for item in items
                    for arg in ([item] if item.startswith("--") else ["--set", item]))]


def outside(line, name, *values):
    """``line=value`` for each value, refused by the range check of ``name``."""
    interval = LAM if name == "lam" else RANGE
    return {f"{line}={value}": f"{name} must lie in {interval}, got {float(value)!r}"
            for value in values}


TOO_FINE = "a stroke of duration {} at step {} needs more than 1000000 steps"
# just above the range, and half its least value
EDGES = repr(SCALE * (1 + 2**-52)), repr(1 / SCALE / 2)
# the config files that rows of REFUSED read, from the working directory
CONFIG_FILES = {"unknown.cfg": b"coupling_strength = 1\n", "bare.cfg": b"t1 = 2\nt2\n",
                "latin1.cfg": b"t1 = 5\xff\n"}
# Every config value, key or file the CLI refuses (the --out checks aside,
# see TestMain), and its message after "configuration error: "; each is
# refused with exit 2 as the config is read, before any stroke is solved
REFUSED = {
    # unreadable files or text, unknown keys, and the checks of one key
    "dynamics --config=/nonexistent.cfg":
        "cannot read config file: [Errno 2] No such file or directory: '/nonexistent.cfg'",
    "dynamics --config=latin1.cfg": "cannot read config file: 'utf-8' codec can't decode "
                                    "byte 0xff in position 6: invalid start byte",
    "dynamics --config=bare.cfg": "line 2: expected key=value, got 't2'",
    "dynamics --config=unknown.cfg": "line 1: unknown key 'coupling_strength'",
    "dynamics foo=1": "unknown key 'foo'",
    "dynamics foo": "--set expects key=value, got 'foo'",
    "sweep workers=2": "workers must be 1: sweeps run in one process",
    "dynamics t1=soon": "bad value for 't1': 'soon'",
    "dynamics lambda=abc": "bad value for 'lambda': 'abc'",
    "sweep omega_pairs=1:0.18:2": "bad value for 'omega_pairs': '1:0.18:2'",
    **dict.fromkeys(["sweep backend=exact", "dynamics backend=exact",
                     "dynamics --backend=exact"],
                    "backend must be one of ('tcl2', 'markov'), got 'exact'"),
    "sweep t2_count=0": "t2_count must be >= 1",
    "sweep oracle_samples=1": "oracle_samples must be >= 2",
    # orderings, once every duration has passed the step bound
    "dynamics t1_min=5 t1_max=1": "need t1_min <= t1_max",
    "sweep t1_min=5 t1_max=1 step=1e-9": TOO_FINE.format(60, "1e-09"),
    "dynamics omega_c=2.0":
        "need omega_h >= omega_c > 0, got omega_h = 1.0, omega_c = 2.0",
    "sweep omega_pairs=1:0.18,0.1:0.5":
        "need omega_h >= omega_c > 0, got omega_h = 0.1, omega_c = 0.5",
    "dynamics T_c=6": "need T_h >= T_c > 0",
    # sizes: a sweep's points, and an oracle bath, for every command
    **{f"sweep {line}": f"a sweep of {n} points exceeds 1000000" for line, n in (
        ("t1_count=1000000000000", 60 * 10**12),
        ("t1_count=100000 t2_count=100000", 10**10),
        ("t1_count=1000 t2_count=1000 omega_pairs=1:0.18,0.9:0.2", 2 * 10**6))},
    **{f"{name} oracle_modes={modes} oracle_fock={fock}":
       f"composite dimension {dimension} exceeds 8192" for name in ("oracle", "dynamics")
       for modes, fock, dimension in ((4, 50, 13530402), (13, 1, 16384))},
    # the step against the longest stroke, even at the least step in range
    "sweep step=1e-9": TOO_FINE.format(60, "1e-09"),
    "dynamics t2=1e6": TOO_FINE.format("1e+06", 0.01),
    "sweep t1_max=2e4 step=0.01": TOO_FINE.format(20000, 0.01),
    f"oracle step={1 / SCALE!r}": TOO_FINE.format(60, "7.88861e-31"),
    # outside the input range, every duration checked; nan and +-inf among them
    **outside("oracle step", "grid step", "1e-320"),
    **outside("sweep step", "grid step", "0"),
    **outside("dynamics step", "grid step", "inf", "nan"),
    **outside("dynamics t1", "t1", "5e-324", "1e-310", *EDGES),
    **outside("sweep t1_count=2 t2_count=2 t1_min", "stroke duration", "1e-310"),
    **outside("dynamics t1_min", "stroke duration", "nan"),
    **outside("dynamics t1_max", "stroke duration", "inf"),
    # named before a stroke too long for the step, whatever their order
    **outside("sweep step=1e-9 t1_min", "stroke duration", "0"),
    **outside("sweep t1_max", "stroke duration", "inf"),
    **outside("oracle t2=2.5e-200 t1_min=2.5e-200 t1_max=2.5e-200 t2_min=2.5e-200 "
              "t2_max=2.5e-200 step=1e-200 t1", "t1", "2.5e-200"),
    **outside("dynamics lambda", "lam", "3e307", "-0.01", "1e308", "4.4e307",
              "nan", "inf"),
    **outside("sweep t1_count=2 t2_count=2 lambda", "lam", "3e307"),
    **outside("dynamics cutoff", "cutoff", "0", "1e200", "1e103", "1e80", "1.9e75", "inf"),
    **outside("dynamics T_h", "temperature", "1e300", "inf"),
    **outside("dynamics T_c", "temperature", "1e-300", "1e-154"),
    **outside("dynamics omega_h", "omega_h", "1e308", "inf", *EDGES),
    **outside("dynamics omega_c", "omega_c", *EDGES),
    **outside("dynamics t2", "t2", *EDGES),
    **outside("sweep oracle_omega_max", "omega_max", "1e308", "1e307"),
    **outside("dynamics oracle_omega_max", "omega_max", "inf"),
    "dynamics omega_pairs=inf:0.5": f"omega_h must lie in {RANGE}, got inf",
    "dynamics omega_pairs=1:nan": f"omega_c must lie in {RANGE}, got nan",
}


class TestConfig:
    def test_defaults_round_trip(self):
        cfg = build_config({})
        again = build_config(parse_config(serialize_config(cfg)))
        assert again == cfg

    def test_round_trip_nondefault(self):
        raw = parse_config(
            "t1 = 3.5\nbackend = markov\nomega_pairs = 1.0:0.2,0.9:0.18\n"
            "step = 0.005\nout = run.csv\n"
        )
        cfg = build_config(raw)
        again = build_config(parse_config(serialize_config(cfg)))
        assert again == cfg

    def test_checks_keep_what_they_build(self):
        # the swept engine and the bath are built once, by the config's checks
        cfg = build_config({"omega_pairs": "1.0:0.18,0.9:0.2"})
        assert cfg.swept_engine is cfg.swept_engine and cfg.bath is cfg.bath
        assert cfg.swept_engine == replace(cfg.engine, omega_h=np.array([1.0, 0.9]),
                                           omega_c=np.array([0.18, 0.2]))
        bath = discretize_bath(cfg.engine.hot_reservoir, cfg.oracle_modes,
                               cfg.oracle_omega_max, cfg.oracle_fock)
        assert all(map(np.array_equal, astuple(cfg.bath), astuple(bath)))

    def test_defaults_serialize_literally(self):
        # the benchmark records this form of every run: order and format are a contract
        assert serialize_config(build_config({})) == (
            "omega_h = 1\nomega_c = 0.18\nT_h = 5\nT_c = 1\nlambda = 0.01\n"
            "cutoff = 0.4\nt1 = 5\nt2 = 60\nbackend = tcl2\nstep = auto\nout = -\n"
            "t1_min = 1\nt1_max = 60\nt1_count = 60\nt2_min = 1\nt2_max = 60\n"
            "t2_count = 60\nomega_pairs = none\noracle_modes = 4\noracle_fock = 4\n"
            "oracle_omega_max = 2\noracle_samples = 51\n")

    # a value other than the default for every key; each float needs more
    # than 12 significant digits
    NON_DEFAULT = {
        "omega_h": "1.00000000000001", "omega_c": "0.180000000000001",
        "T_h": "5.00000000000001", "T_c": "0.999999999999999",
        "lambda": "0.0123456789012345", "cutoff": "0.400000000000001",
        "t1": "1.23456789012345", "t2": "60.0000000000001",
        "backend": "markov", "step": "0.00999999999999999", "out": "run.csv",
        "t1_min": "1.00000000000001", "t1_max": "59.9999999999999", "t1_count": "7",
        "t2_min": "2.00000000000001", "t2_max": "59.9999999999999", "t2_count": "3",
        "omega_pairs": "1.00000000000001:0.18", "oracle_modes": "3", "oracle_fock": "5",
        "oracle_omega_max": "2.00000000000001", "oracle_samples": "7",
    }

    @pytest.mark.parametrize("key", list(cli._KEYS))
    def test_every_key_round_trips(self, key):
        cfg = build_config({key: self.NON_DEFAULT[key]})
        assert cfg != build_config({})
        assert build_config(parse_config(serialize_config(cfg))) == cfg

    def test_run_keys_are_read_off_run_config(self):
        # each run key is declared once, as a RunConfig field, after the
        # engine's keys: a field without its codec, or a key without its
        # field, fails here
        run_keys = [f.name for f in fields(cli.RunConfig) if f.name != "engine"]
        assert list(cli._KEYS) == [*cli._ENGINE_FIELDS, *run_keys]

    @settings(max_examples=100, deadline=None)
    @given(out=st.text())
    @example(out="run#1.csv")
    @example(out=" x.csv")
    @example(out="x.csv\n")
    @example(out="")
    @example(out="a = b.csv")
    def test_every_accepted_out_round_trips(self, out):
        # an out the config line format cannot carry back is refused
        try:
            cfg = build_config({"out": out})
        except ConfigError:
            return
        assert build_config(parse_config(serialize_config(cfg))) == cfg

    def test_comments_and_blank_lines(self):
        raw = parse_config("# a comment\n\nt1 = 2.0  # trailing\n")
        assert raw == {"t1": "2.0"}

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("name", BENCH_WORKLOADS["NAMES"])
    def test_bench_configs_accepted(self, name, seed):
        # every key the benchmark writes, workers included, must stay valid
        text = BENCH_WORKLOADS["make"](name, seed).config_text("-")
        build_config(parse_config(text))

    @pytest.mark.parametrize("line", REFUSED)
    def test_refused(self, tmp_path, monkeypatch, capsys, line):
        for name, text in CONFIG_FILES.items():
            (tmp_path / name).write_bytes(text)
        monkeypatch.chdir(tmp_path)
        for owner, name in ((energetics, "evaluate_cycle"), (energetics, "evaluate_grid"),
                            (cli, "exact_evolve")):
            monkeypatch.setattr(owner, name, no_solve)
        assert main(command_line(line)) == 2
        assert capsys.readouterr().err == f"configuration error: {REFUSED[line]}\n"

    # the sweep size at its bound, and each engine value at a corner of the range
    @pytest.mark.parametrize("line", [
        "t1_count=1000 t2_count=1000", *(f"{key}={SCALE!r}" for key in (
            "omega_h", "T_h", "lambda", "cutoff")), f"omega_h={SCALE!r} omega_c={SCALE!r}",
        *(f"{key}={1 / SCALE!r}" for key in ("omega_c", "t1", "t2", "T_c", "cutoff")),
        f"omega_h={1 / SCALE!r} omega_c={1 / SCALE!r}",
        *(f"{key}={SCALE!r} step={SCALE / 1000!r}" for key in ("t1", "t2"))])
    def test_accepted_at_the_edges(self, line):
        cfg = build_config(dict(item.split("=", 1) for item in line.split()))
        assert build_config(parse_config(serialize_config(cfg))) == cfg

    def test_workers_other_than_one_rejected(self):
        # `sweep workers=2` is a REFUSED row; the --workers flag exits through argparse
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--workers", "2"])
        assert exc.value.code == 2


class TestDynamics:
    def test_header_and_shape(self):
        cfg = build_config({"t1": "2", "step": "0.01"})
        header, rows = read_rows(run_dynamics(cfg))
        assert header == ["t", "rho00", "rho11", "T_eff", "dES", "dEB", "EI", "theta"]
        assert len(rows) == 201
        assert rows[0][0] == "0"

    def test_backflow_visible(self):
        cfg = build_config({})
        assert column(run_dynamics(cfg), "theta").min() < 0.0

    def test_markov_no_backflow_no_interaction(self):
        cfg = build_config({"backend": "markov"})
        text = run_dynamics(cfg)
        assert column(text, "theta").min() >= -1e-12
        assert np.max(np.abs(column(text, "EI"))) < 1e-10

    def test_zero_coupling_energy_columns_vanish(self):
        cfg = build_config({"lambda": "0", "t1": "2"})
        text = run_dynamics(cfg)
        for name in ("dES", "dEB", "EI", "theta"):
            assert np.all(column(text, name) == 0.0)

    def test_byte_identical_reruns(self):
        cfg = build_config({"t1": "2"})
        assert run_dynamics(cfg) == run_dynamics(cfg)

    def test_twelve_significant_digits(self):
        cfg = build_config({"t1": "2", "step": "0.1"})
        _, rows = read_rows(run_dynamics(cfg))
        cell = rows[3][1]  # rho00 away from t=0
        assert len(cell.replace(".", "").replace("-", "").lstrip("0")) <= 12
        assert float(cell) == pytest.approx(0.5446, abs=1e-3)

    def test_a_column_of_another_length_raises(self):
        # a mis-sized column must not drop or cut rows silently
        assert cli._csv("a,b", [["1", "2"], ["3", "4"]]) == "a,b\n1,3\n2,4\n"
        for other in (["3"], ["3", "4", "5"]):
            with pytest.raises(ValueError, match="zip"):
                cli._csv("a,b", [["1", "2"], other])


class TestSweep:
    SMALL = {"t1_min": "1", "t1_max": "5", "t1_count": "3",
             "t2_min": "2", "t2_max": "8", "t2_count": "2"}

    def test_header_row_order_and_error_column(self):
        cfg = build_config(self.SMALL)
        header, rows = read_rows(run_sweep(cfg))
        assert header == ["t1", "t2", "W_ad1", "W_ad2", "W_I", "W_II",
                          "eta_O", "eta_C", "error"]
        t1s = [float(r[0]) for r in rows]
        t2s = [float(r[1]) for r in rows]
        assert t1s == [1.0, 1.0, 3.0, 3.0, 5.0, 5.0]  # t1-major
        assert t2s == [2.0, 8.0, 2.0, 8.0, 2.0, 8.0]
        assert all(r[-1] == "" for r in rows)

    POSITIVITY = {"omega_pairs": "4:0.5,1:0.18", "T_h": "50", "lambda": "0.3"}
    # the sweep-edge workload's duration grid, 1, 15.75, 30.5, 45.25 and 60
    EDGE_GRID = {"t1_min": "1", "t1_max": "60", "t1_count": "5",
                 "t2_min": "1", "t2_max": "60", "t2_count": "5"}
    EDGE_FAILURE = {**EDGE_GRID, "omega_pairs": "0.625592:0.099213",
                    "T_h": "30", "lambda": "0.2"}

    @pytest.mark.parametrize("extra, outcomes", [
        ({}, {""}),
        ({"backend": "markov", "omega_pairs": "1.0:0.18,0.9:0.2"}, {""}),
        ({"lambda": "0"}, {""}),
        ({**POSITIVITY, "t1_max": "10", "t1_count": "2"}, {"", "PositivityViolation"}),
        # exp(-omega / cutoff) underflows: both decay rates are 0, p0 == 1
        ({"backend": "markov", "omega_pairs": "1000:800", "cutoff": "1", "t1_max": "3",
          "t2_max": "3"}, {"DegenerateCycle"}),
        # 20 and up share one solve; below 20 each stroke has its own grid
        ({"t1_min": "14", "t1_max": "26", "t1_count": "7",
          "t2_min": "18", "t2_max": "22", "t2_count": "3"}, {""}),
        # 30.5, 45.25 (4525 steps, odd) and 60 share one solve
        (EDGE_GRID, {""}),
        # off the 0.01 grid: each stroke closes a partial step in the 0.01 family
        ({"t1_min": "20.005", "t1_max": "40.3", "t1_count": "3",
          "t2_min": "21", "t2_max": "59.999", "t2_count": "2"}, {""}),
        ({"step": "0.05", "t1_min": "1", "t1_max": "60", "t1_count": "4",
          "t2_min": "10", "t2_max": "30", "t2_count": "3"}, {""}),
        # the hot strokes at 45.25 and 60 fail; 30.5, in the same solve, passes
        (EDGE_FAILURE, {"", "PositivityViolation"}),
    ], ids=["tcl2", "markov-pairs", "zero-coupling", "positivity", "degenerate",
            "crossing-20", "edge-grid", "off-grid", "user-step", "edge-failure"])
    def test_grid_matches_per_point_bit_for_bit(self, extra, outcomes):
        cfg = build_config({**self.SMALL, **extra})
        t1_values = np.linspace(cfg.t1_min, cfg.t1_max, cfg.t1_count)
        t2_values = np.linspace(cfg.t2_min, cfg.t2_max, cfg.t2_count)
        assert grid_labels(cfg.engine, t1_values, t2_values, cfg.backend, cfg.step,
                           cfg.omega_pairs) == outcomes

    # family members (integers >= 20 and odd-step hundredths such as
    # 45.25 on the 0.01 grid), own grids below 20, and off-grid floats
    DURATIONS = st.one_of(
        st.integers(20, 40).map(float),
        st.integers(1000, 1999).map(lambda n: (2 * n + 1) / 100),
        st.floats(0.5, 20.0, exclude_max=True),
        st.floats(20.0, 40.0),
    )

    # hot baths up to T_h = 40 at couplings up to 0.3 reach strong
    # coupling, where a hot stroke at omega_h in [1.5, 3] leaves [0, 1]
    # within a few time units (at omega_h = 1 none shorter than 40 does);
    # in the example the hot stroke of the pair (2, 0.18) fails at t1 = 30
    # and not at t1 = 2, and the pair (1, 0.18) passes at both.  Under a
    # user step every duration joins one solve, where odd-step closings,
    # partial ends and positivity failures meet.  Markov's 41 pairs have
    # omega_c / omega_h from 0.1 to 0.29, across T_c / T_h = 0.2, and
    # one pair with omega_h == omega_c
    @settings(max_examples=30, deadline=None)
    @example(backend="tcl2", t1_values=[2.0, 30.0], t2_values=[20.0], T_h=40.0, lam=0.3,
             omega_pairs=[(2.0, 0.18), (1.0, 0.18)], step=None)
    @example(backend="markov", t1_values=[2.0, 30.0], t2_values=[20.0], T_h=5.0, lam=0.01,
             omega_pairs=[(w, w * (0.1 + k / 100)) for w in (1.0, 2.5) for k in range(20)]
             + [(1.0, 1.0)], step=None)
    @given(backend=st.sampled_from(["tcl2", "markov"]),
           t1_values=st.lists(DURATIONS, min_size=1, max_size=3),
           t2_values=st.lists(DURATIONS, min_size=1, max_size=2),
           T_h=st.floats(5.0, 40.0), lam=st.floats(0.005, 0.3),
           omega_pairs=st.lists(st.tuples(st.floats(0.5, 3.0), st.floats(0.05, 0.5)),
                                min_size=1, max_size=3),
           step=st.sampled_from([None, 1 / 8, 0.05, 0.03]))
    def test_grid_matches_per_point_on_any_durations(self, backend, t1_values, t2_values,
                                                     T_h, lam, omega_pairs, step):
        engine = replace(build_config({}).engine, T_h=T_h, lam=lam)
        grid_labels(engine, t1_values, t2_values, backend, step, omega_pairs)

    # 1.15 / 0.05 and 20.15 / 0.01 round to whole step counts m, but m h
    # is not the float t: such a stroke ends on m h in its step's one
    # solve, one per side, and Markov's closed form ends there too
    @pytest.mark.parametrize("step, t1_values, t2_values", [
        (0.05, [0.3, 1.2, 1.3, 1.65, 2.0], [1.15, 2.3]),
        (None, [20.15, 20.2, 20.49, 21.0], [20.08, 20.5]),
    ], ids=["user-step", "default-step"])
    def test_grid_matches_per_point_where_an_end_rounds_onto_the_lattice(
            self, monkeypatch, step, t1_values, t2_values):
        # at omega_h = 3 the ends at 0.3, 1.2 and 1.65 read off the shared
        # 0.05 lattice differ from their own solves in the last bits
        engine = replace(build_config({}).engine, omega_h=3.0)
        counts = self.counting(monkeypatch)
        evaluate_grid(engine, t1_values, t2_values, "tcl2", step)
        assert counts["solves"] == 2
        for backend in ("tcl2", "markov"):
            assert grid_labels(engine, t1_values, t2_values, backend, step) == {""}

    @pytest.mark.parametrize("backend", ["tcl2", "markov"])
    @pytest.mark.parametrize("h", [0.0, -1.0, float("nan"), 1e-6])
    def test_grid_rejects_bad_step(self, backend, h):
        # 1e-6 is a positive step, too fine for the engine's strokes
        engine = build_config({}).engine
        if h > 0:
            match, t1_values, t2_values = "needs more than", [5.0], [60.0]
        else:
            match, t1_values, t2_values = "grid step must lie in", [1.0, 2.0], [3.0]
        with pytest.raises(ValueError, match=match):
            evaluate_cycle(engine, backend, h)
        with pytest.raises(ValueError, match=match):
            evaluate_grid(engine, t1_values, t2_values, backend, h)

    @pytest.mark.parametrize("backend", ["tcl2", "markov"])
    @pytest.mark.parametrize("side", ["t1", "t2"])
    @pytest.mark.parametrize("t", [float("nan"), 0.0, -1.0, float("inf")])
    def test_grid_rejects_the_durations_a_point_rejects(self, backend, side, t):
        engine = build_config({}).engine
        with pytest.raises(ValueError):
            evaluate_cycle(replace(engine, **{side: t}), backend)
        durations = {"t1": [1.0, 2.0], "t2": [3.0], side: [2.0, t]}
        with pytest.raises(ValueError):
            evaluate_grid(engine, durations["t1"], durations["t2"], backend)

    @pytest.mark.parametrize("backend", ["tcl2", "markov"])
    def test_empty_side_gives_an_empty_grid(self, backend):
        engine = build_config({}).engine
        assert grid_labels(engine, [], [5.0], backend, None) == set()

    def test_edge_failure_spares_shorter_strokes_of_its_solve(self):
        cfg = build_config({**self.SMALL, **self.EDGE_FAILURE})
        _, rows = read_rows(run_sweep(cfg))
        failed_t1 = {float(r[2]) for r in rows if r[-1] == "PositivityViolation"}
        assert failed_t1 == {45.25, 60.0}

    @staticmethod
    def counting(monkeypatch):
        """The counts of ``tcl2._solve`` calls and ``d1`` samplings from now on."""
        counts = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(tcl2, "_solve", counting("solves", tcl2._solve))
        monkeypatch.setattr(tcl2, "d1", counting("d1", tcl2.d1))
        return counts

    def solve_counts(self, monkeypatch, workload):
        """``tcl2._solve`` calls and ``d1`` samplings of one bench sweep."""
        counts = self.counting(monkeypatch)
        settings = BENCH_WORKLOADS["make"](workload, 0).settings
        run_sweep(build_config({k: str(v) for k, v in settings.items()}))
        return counts

    def test_sweep_edge_solves_once_per_group(self, monkeypatch):
        # 48 pairs x 2 sides x 3 solves: t = 1 and t = 15.75 on their own
        # grids, and 30.5, 45.25 and 60 together; d1 once per side and grid
        assert self.solve_counts(monkeypatch, "sweep-edge") == {"solves": 288, "d1": 6}

    def test_sweep_map_solves_once_per_family(self, monkeypatch):
        # 2 sides x 40 solves: the 39 strokes below 20 on their own grids,
        # and every t >= 20 of linspace(1, 60, 120) in one 0.01 family
        assert self.solve_counts(monkeypatch, "sweep-map") == {"solves": 80, "d1": 80}

    def test_edge_values_formatted_literally(self, monkeypatch):
        # nan, +-inf, -0.0 and tiny cells through the one cell format, in
        # (pair, t1, t2) order: two pairs of their own splittings and eta_O
        cells = [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, -1e-300,
                 0.1 + 0.2, -123456.7890123456]
        ledger = EnergyLedger(*(np.roll(cells, k).reshape(2, 1, 4)
                                for k in range(N_FIELDS)))
        errors = np.array([[["", "PositivityViolation", "", ""]],
                           [["DegenerateCycle", "", "", ""]]], dtype=object)
        cfg = build_config({"t1_count": "1", "t2_count": "4",
                            "omega_pairs": "1:0.18,0.9:0.2"})
        monkeypatch.setattr(energetics, "evaluate_grid", lambda *args: (ledger, errors))
        assert run_sweep(cfg) == (
            "omega_h,omega_c,t1,t2,W_ad1,W_ad2,W_I,W_II,eta_O,eta_C,error\n"
            "1,0.18,1,1,nan,-123456.789012,0.3,-1e-300,0.82,0.8,\n"
            "1,0.18,1,20.6666666667,inf,nan,-123456.789012,0.3,0.82,0.8,"
            "PositivityViolation\n"
            "1,0.18,1,40.3333333333,-inf,inf,nan,-123456.789012,0.82,0.8,\n"
            "1,0.18,1,60,0,-inf,inf,nan,0.82,0.8,\n"
            "0.9,0.2,1,1,0,0,-inf,inf,0.777777777778,0.8,DegenerateCycle\n"
            "0.9,0.2,1,20.6666666667,-1e-300,0,0,-inf,0.777777777778,0.8,\n"
            "0.9,0.2,1,40.3333333333,0.3,-1e-300,0,0,0.777777777778,0.8,\n"
            "0.9,0.2,1,60,-123456.789012,0.3,-1e-300,0,0.777777777778,0.8,\n")
        # the other commands share the format: at zero coupling the
        # populations are degenerate (T_eff = inf) and E_I = -C is -0.0
        _, rows = read_rows(run_dynamics(build_config({"lambda": "0", "t1": "2"})))
        assert rows[-1] == ["2", "0.5", "0.5", "inf", "0", "0", "0", "0"]

    @staticmethod
    def count_grid_cells(monkeypatch, size):
        """Counts the ``cli._cells`` calls on arrays of ``size`` elements."""
        calls = Counter()
        cells = cli._cells

        def counting(values):
            calls["grid"] += np.size(values) == size
            return cells(values)
        monkeypatch.setattr(cli, "_cells", counting)
        return calls

    @pytest.mark.parametrize("backend, formatted", [("markov", 3), ("tcl2", 4)])
    def test_w_ii_equal_to_w_i_is_formatted_once(self, monkeypatch, backend, formatted):
        # W_ad1, W_ad2 and W_I, plus W_II where it differs from W_I (TCL2)
        calls = self.count_grid_cells(monkeypatch, 3 * 2)
        text = run_sweep(build_config({**self.SMALL, "backend": backend}))
        assert calls["grid"] == formatted
        assert np.array_equal(column(text, "W_I"), column(text, "W_II")) is (
            backend == "markov")

    def stub_work_columns(self, monkeypatch, w_i, w_ii):
        """``run_sweep`` on a 2x2 grid whose ``W_I`` and ``W_II`` are given:
        the two columns' cells and the ``_cells`` calls on grid arrays."""
        ledger = EnergyLedger(*(np.array(w, dtype=float).reshape(1, 2, 2) for w in (
            [1.0] * 4, [2.0] * 4, w_i, w_ii, *[[0.0] * 4] * (N_FIELDS - 4))))
        errors = np.full((1, 2, 2), "", dtype=object)
        monkeypatch.setattr(energetics, "evaluate_grid", lambda *args: (ledger, errors))
        calls = self.count_grid_cells(monkeypatch, 4)
        _, rows = read_rows(run_sweep(build_config({"t1_count": "2", "t2_count": "2"})))
        return [r[4] for r in rows], [r[5] for r in rows], calls["grid"]

    def test_w_ii_equal_up_to_signed_zero_and_nan_reuses_w_i_cells(self, monkeypatch):
        nan = float("nan")
        w_i, w_ii, formatted = self.stub_work_columns(
            monkeypatch, [-0.0, nan, 0.1 + 0.2, -1e-300], [0.0, nan, 0.1 + 0.2, -1e-300])
        assert w_i == w_ii == ["0", "nan", "0.3", "-1e-300"]
        assert formatted == 3

    def test_w_ii_differing_in_one_element_prints_its_own_cell(self, monkeypatch):
        w_i, w_ii, formatted = self.stub_work_columns(
            monkeypatch, [-0.0, 0.25, 0.1 + 0.2, -1e-300], [-0.0, 0.25, 0.7, -1e-300])
        assert w_i == ["0", "0.25", "0.3", "-1e-300"]
        assert w_ii == ["0", "0.25", "0.7", "-1e-300"]
        assert formatted == 4

    def test_each_distinct_cell_is_formatted_once(self, monkeypatch):
        # omega_h, omega_c and eta_O once per pair, each t1 and t2 once,
        # eta_C once, and the four work columns once per point
        pairs, n1, n2 = 3, 2, 2
        ledger = EnergyLedger(*np.arange(N_FIELDS * pairs * n1 * n2, dtype=float).reshape(
            N_FIELDS, pairs, n1, n2))
        errors = np.full((pairs, n1, n2), "", dtype=object)
        monkeypatch.setattr(energetics, "evaluate_grid", lambda *args: (ledger, errors))
        formatted = Counter()
        cells = cli._cells

        def counting(values):
            for cell in cells(values):
                formatted["cells"] += 1
                yield cell
        monkeypatch.setattr(cli, "_cells", counting)
        _, rows = read_rows(run_sweep(build_config({
            "t1_count": "2", "t2_count": "2", "omega_pairs": "1:0.18,0.9:0.2,0.8:0.1"})))
        assert len(rows) == pairs * n1 * n2
        assert formatted["cells"] == 3 * pairs + n1 + n2 + 1 + 4 * pairs * n1 * n2 == 62

    def test_per_point_failures_recorded(self):
        cfg = build_config({
            "omega_h": "4", "omega_c": "0.5", "T_h": "50", "T_c": "1",
            "lambda": "0.3", "cutoff": "0.4",
            "t1_min": "2", "t1_max": "10", "t1_count": "2",
            "t2_min": "2", "t2_max": "2", "t2_count": "1",
        })
        header, rows = read_rows(run_sweep(cfg))
        errors = [r[-1] for r in rows]
        assert "PositivityViolation" in errors
        assert len(rows) == 2  # the sweep continued

    def test_omega_pairs_prepend_columns(self):
        cfg = build_config({**self.SMALL, "omega_pairs": "1.0:0.18,0.9:0.2",
                            "t1_count": "2", "backend": "markov"})
        header, rows = read_rows(run_sweep(cfg))
        assert header[:2] == ["omega_h", "omega_c"]
        assert len(rows) == 2 * 2 * 2
        assert {r[0] for r in rows} == {"1", "0.9"}

    def test_pairs_are_one_engine(self, monkeypatch, tmp_path):
        # a sweep builds two EngineParams however many pairs it has: the
        # configured engine and the swept one, which the config keeps
        builds = Counter()
        post_init = nmotto.EngineParams.__post_init__

        def counting(engine):
            builds["engines"] += 1
            post_init(engine)
        monkeypatch.setattr(nmotto.EngineParams, "__post_init__", counting)

        def sweep_builds(pairs):
            builds.clear()
            spec = ",".join(f"{1 + k / 1000!r}:0.18" for k in range(pairs))
            assert main(["sweep", "--backend=markov", f"--out={tmp_path / 'sweep.csv'}",
                         *set_args("t1_count=1", "t2_count=1", f"omega_pairs={spec}")]) == 0
            assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 1 + pairs
            return builds["engines"]
        assert sweep_builds(200) == sweep_builds(2) == sweep_builds(1) == 2

    def test_zero_coupling_rows(self):
        cfg = build_config({**self.SMALL, "lambda": "0"})
        text = run_sweep(cfg)
        assert np.all(column(text, "W_I") == 0.0)
        assert np.all(column(text, "W_II") == 0.0)


class TestBenchReference:
    @pytest.mark.parametrize("name, seed", [
        (name, seed) for seed in (BENCH_WORKLOADS["DEFAULT_SEED"], 7)
        for name in BENCH_WORKLOADS["NAMES"]
    ], ids=[*BENCH_WORKLOADS["NAMES"], *(f"{n}-seed7" for n in BENCH_WORKLOADS["NAMES"])])
    def test_bench_workload_matches_reference(self, name, seed, tmp_path):
        # each benchmark workload's CSV, made in this process, passes the
        # benchmark's own gate: its invariants at any seed, and at the
        # default seed the stored reference too
        workload = BENCH_WORKLOADS["make"](name, seed)
        out, config = tmp_path / "out.csv", tmp_path / "run.cfg"
        config.write_text(workload.config_text(str(out)))
        assert main([workload.command, "--config", str(config)]) == 0
        text = out.read_text(encoding="utf-8")
        reference = (BENCH_GATE["read_reference"](name)
                     if seed == BENCH_WORKLOADS["DEFAULT_SEED"] else None)
        assert BENCH_GATE["check"](workload.command, workload.settings, text,
                                   reference) == []


# the spans each traced run records: the tracer counts a layer only
# through the names it wraps, so a lost name zeroes that layer's metrics
STROKE_SPANS = {"energetics.evaluate_cycle", "tcl2.evolve_branch_pair", "kernels.d1",
                "kernels.d2", "oracle.discretize_bath"}


class TestBenchTracer:
    # ``bench/run.py --trace 1`` wraps the program at its module
    # boundaries by name; a refactor that renames what it wraps shows here
    @pytest.mark.parametrize("argv, spans", [
        (["sweep", *set_args("t1_count=3", "t2_count=3")], {
            "cli.run_sweep", "kernels.d1", "kernels.d2", "oracle.discretize_bath"}),
        (["dynamics"], STROKE_SPANS | {
            "cli.run_dynamics", "energetics.energy_flow",
            "energetics.effective_temperature_profile"}),
        (["oracle", *set_args("oracle_modes=2")], STROKE_SPANS | {
            "cli.run_oracle", "oracle.exact_evolve", "oracle.eigh"}),
        (["sweep", "--backend", "markov", *set_args("t1_count=3", "t2_count=3")], {
            "cli.run_sweep", "oracle.discretize_bath", "markov.family_ends",
            "markov.branch_pair", "markov.relaxation_rate",
            "markov.stationary_rho00", "markov.bose_n"}),
    ], ids=["sweep", "dynamics", "oracle", "markov-sweep"])
    def test_traced_layers_rebuild_the_run(self, tmp_path, argv, spans):
        eigh, bench_files = np.linalg.eigh, sorted(BENCH_DIR.rglob("*"))
        tracer = BENCH_TRACER["Tracer"]()
        tracer.install()
        try:
            start = time.perf_counter()
            assert main([*argv, "--out", str(tmp_path / "out.csv")]) == 0
            run_s = time.perf_counter() - start
        finally:
            tracer.uninstall()
        assert np.linalg.eigh is eigh
        layers = tracer.layer_metrics(run_s)
        assert abs(layers["trace.sum_residual_s"]) <= TRACE_SUM_TOL_S
        assert {tracer.names[k] for k in tracer.name} == spans
        for metric, span in (("kernels.d1.calls", "kernels.d1"),
                             ("tcl2.solves", "tcl2.evolve_branch_pair"),
                             ("markov.calls", "markov.family_ends")):
            assert span not in spans or layers[metric] > 0, metric
        assert sorted(BENCH_DIR.rglob("*")) == bench_files


class TestOracleCommand:
    CFG = {"t1": "2", "oracle_modes": "2", "oracle_fock": "2",
           "oracle_samples": "5", "oracle_omega_max": "1.0"}

    @pytest.mark.parametrize("backend", ["tcl2", "markov"])
    def test_columns_and_zero_row(self, tmp_path, backend):
        # the solver columns are named after the backend that made them
        out = tmp_path / "oracle.csv"
        rc = main(["oracle", "--out", str(out), "--backend", backend] +
                  sum((["--set", f"{k}={v}"] for k, v in self.CFG.items()), []))
        assert rc == 0
        text = out.read_text()
        header, rows = read_rows(text)
        assert header == ["t", f"dES_{backend}", "dES_exact", f"dEB_{backend}",
                          "dEB_exact", f"EI_{backend}", "EI_exact", "truncation"]
        first = [abs(float(v)) for v in rows[0][:7]]
        assert max(first) < 1e-12  # t = 0 row carries only roundoff

    def test_bath_built_once(self, monkeypatch, tmp_path):
        # the bath that the config's check built is the one the exact run reads
        builds = Counter()

        def counting(*args):
            builds["baths"] += 1
            return discretize_bath(*args)
        monkeypatch.setattr(cli, "discretize_bath", counting)
        assert main(["oracle", f"--out={tmp_path / 'oracle.csv'}",
                     *set_args(*(f"{k}={v}" for k, v in self.CFG.items()))]) == 0
        assert builds["baths"] == 1

    @pytest.mark.parametrize("p_h", [-1e-8, 1.1])
    def test_cycle_outside_the_unit_interval_is_a_numerical_failure(
            self, monkeypatch, capsys, p_h):
        # past the strokes' tolerance P_h is no ground probability to start from
        solved = energetics.evaluate_cycle
        monkeypatch.setattr(energetics, "evaluate_cycle",
                            lambda *args: replace(solved(*args), P_h=p_h))
        assert main(["oracle", *set_args(*(f"{k}={v}" for k, v in self.CFG.items()))]) == 3
        assert capsys.readouterr().err == ("numerical failure: PositivityViolation: "
                                           f"limit-cycle P_h = {p_h!r} left [0, 1]\n")

    def test_samples_beyond_the_grid_take_every_time(self):
        # a stroke of two steps has three grid times; 10**12 samples must
        # pick them without allocating 10**12 positions
        cfg = {**self.CFG, "t1": "0.5", "step": "0.25"}
        texts = [run_oracle(build_config({**cfg, "oracle_samples": n}))
                 for n in ("3", "4", "1000000000000")]
        assert texts[0] == texts[1] == texts[2]
        assert column(texts[0], "t").tolist() == [0.0, 0.25, 0.5]

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(2, 10**4), samples=st.integers(2, 10**12))
    @example(n=2, samples=2)
    @example(n=10**4, samples=10**4 - 1)
    def test_sampled_times_strictly_increase(self, n, samples):
        # a hot stroke of n - 1 steps (two at least), on n grid times
        cfg = build_config({**self.CFG, "t1": "1", "t2": "1", "step": repr(1 / (n - 1)),
                            "oracle_samples": str(samples)})
        t = column(run_oracle(cfg), "t")
        assert len(t) == min(samples, max(n, 3))
        assert np.all(np.diff(t) > 0)

    def test_zero_coupling_all_zero(self):
        cfg = build_config({**self.CFG, "lambda": "0"})
        text = run_oracle(cfg)
        for name in ("dES_tcl2", "dES_exact", "dEB_tcl2", "dEB_exact",
                     "EI_tcl2", "EI_exact"):
            assert np.max(np.abs(column(text, name))) < 1e-12


class TestMain:
    @pytest.mark.parametrize("command", ["sweep", "dynamics", "oracle"])
    def test_each_command_builds_four_reservoirs(self, monkeypatch, tmp_path, command):
        # two per engine, the configured and the swept one; every reader
        # takes the reservoirs that the engine's check built
        builds = Counter()
        post_init = nmotto.ReservoirSpec.__post_init__

        def counting(spec):
            builds["reservoirs"] += 1
            post_init(spec)
        monkeypatch.setattr(nmotto.ReservoirSpec, "__post_init__", counting)
        assert main([command, f"--out={tmp_path / 'run.csv'}",
                     *set_args(*(f"{k}={v}" for k, v in TestOracleCommand.CFG.items()),
                               "t1_count=2", "t2_count=2")]) == 0
        assert builds["reservoirs"] == 4

    @pytest.mark.parametrize("command", [run_dynamics, run_oracle])
    def test_cold_stroke_freed_before_formatting(self, monkeypatch, command):
        # the cold stroke's full profiles are dropped once the hot stroke
        # and P_h are read, before any column is formatted
        cold = []
        evaluate = energetics.evaluate_cycle

        def keeping(*args):
            ev = evaluate(*args)
            cold.append(weakref.ref(ev.cold))
            return ev
        monkeypatch.setattr(energetics, "evaluate_cycle", keeping)
        csv = cli._csv

        def checking(header, columns):
            assert [ref() for ref in cold] == [None]
            return csv(header, columns)
        monkeypatch.setattr(cli, "_csv", checking)
        command(build_config(TestOracleCommand.CFG))

    def test_dynamics_to_file(self, tmp_path):
        out = tmp_path / "dyn.csv"
        rc = main(["dynamics", "--set", "t1=1", "--out", str(out)])
        assert rc == 0
        data = out.read_bytes()
        assert data.startswith(b"t,rho00")
        assert b"\r" not in data  # LF endings only

    def test_config_file_loading(self, tmp_path):
        # a UTF-8 byte-order mark before the first key is not part of it
        for bom in (b"", b"\xef\xbb\xbf"):
            cfg_file = tmp_path / "run.cfg"
            cfg_file.write_bytes(bom + b"t1 = 1\nbackend = markov\n")
            out = tmp_path / "dyn.csv"
            rc = main(["dynamics", "--config", str(cfg_file), "--out", str(out)])
            assert rc == 0
            assert column(out.read_text(), "theta").min() >= -1e-12

    def test_flag_overrides_config(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("backend = markov\nt1 = 1\n")
        out = tmp_path / "dyn.csv"
        rc = main(["dynamics", "--config", str(cfg_file),
                   "--backend", "tcl2", "--set", "t1=5", "--out", str(out)])
        assert rc == 0
        assert column(out.read_text(), "theta").min() < 0.0  # tcl2 backflow

    def test_unknown_command_names_the_three(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        assert exc.value.code == 2
        assert ("invalid choice: 'bogus' (choose from 'dynamics', 'sweep', 'oracle')"
                in capsys.readouterr().err)

    def test_options_before_the_command(self, capsys):
        outputs = []
        for argv in (["dynamics", "--set", "t1=1"], ["--set", "t1=1", "dynamics"]):
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0].startswith("t,rho00")
        assert outputs[1] == outputs[0]

    def test_help_describes_each_command_once(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        squeezed = "".join(capsys.readouterr().out.split())  # whatever the wrapping
        for description in ("dynamics: hot-stroke observables at the limit cycle",
                            "sweep: cycle ledger over a (t1, t2) grid",
                            "oracle: solver vs exact few-mode reference"):
            assert squeezed.count("".join(description.split())) == 1

    # a value of the input range: a corner, or log-uniform between them
    IN_RANGE = st.one_of(st.sampled_from([1 / SCALE, 1.0, SCALE]),
                         st.floats(-100.0, 100.0).map(lambda e: 2.0**e))
    # durations at the default step, or at a step of a thousandth of the longest
    DURATIONS = st.one_of(
        st.tuples(st.lists(st.one_of(st.sampled_from([1 / SCALE, 1.0, 60.0]),
                                     st.floats(-100.0, math.log2(60.0)).map(
                                         lambda e: 2.0**e)), min_size=4, max_size=4),
                  st.just(False)),
        st.tuples(st.lists(IN_RANGE, min_size=4, max_size=4), st.just(True)))

    @settings(max_examples=100, deadline=None)
    # the cycle rounds P_h to 1 + 2**-52: T_eff and the exact start take it
    @example(omegas=[4.0, 2.0**94], temperatures=[1 / SCALE] * 2, lam=1 / SCALE,
             cutoff=SCALE, durations=([1 / SCALE, 1.0, 1 / SCALE, 2.0**58], True),
             backend="markov", modes=1, fock=1, omega_max=1 / SCALE)
    @given(omegas=st.lists(IN_RANGE, min_size=2, max_size=2),
           temperatures=st.lists(IN_RANGE, min_size=2, max_size=2),
           lam=st.one_of(st.just(0.0), IN_RANGE), cutoff=IN_RANGE, durations=DURATIONS,
           backend=st.sampled_from(["tcl2", "markov"]), modes=st.integers(1, 2),
           fock=st.integers(1, 3), omega_max=IN_RANGE)
    def test_in_range_configs_run_clean(self, omegas, temperatures, lam, cutoff,
                                        durations, backend, modes, fock, omega_max):
        # inside the input range no closed form overflows: every command ends
        # in CSV or a numerical failure, and any warning fails the test
        (t1a, t1b, t2a, t2b), explicit = durations
        t1s, t2s = sorted([t1a, t1b]), sorted([t2a, t2b])
        step = max(t1s[1], t2s[1]) / 1000 if explicit else None
        values = {"omega_h": max(omegas), "omega_c": min(omegas),
                  "T_h": max(temperatures), "T_c": min(temperatures), "lambda": lam,
                  "cutoff": cutoff, "t1": t1s[1], "t2": t2s[1], "t1_min": t1s[0],
                  "t1_max": t1s[1], "t2_min": t2s[0], "t2_max": t2s[1], "t1_count": 2,
                  "t2_count": 2, "backend": backend, "oracle_modes": modes,
                  "oracle_fock": fock, "oracle_omega_max": omega_max, "oracle_samples": 5,
                  "step": "auto" if step is None else max(step, 1 / SCALE)}
        sets = set_args(*(f"{key}={value}" for key, value in values.items()))
        for command in ("dynamics", "sweep", "oracle"):
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as stderr:
                code = main([command, *sets])
            err = stderr.getvalue()
            assert code in (0, 3), err
            assert err.startswith("numerical failure: ") if code else err == ""

    def test_exit_code_unwritable_output(self, tmp_path, capsys, monkeypatch):
        # rejected while the config is read, before any stroke is solved
        def unreachable(*args, **kwargs):
            raise AssertionError("evaluator reached")

        for name in ("evaluate_cycle", "evaluate_grid"):
            monkeypatch.setattr(energetics, name, unreachable)
        (tmp_path / "file").write_text("kept")
        # in no directory, in a regular file, a directory itself, a name
        # longer than the file system holds (NAME_MAX is 255 on Linux)
        for out in (tmp_path / "missing" / "x.csv", tmp_path / "file" / "x.csv", tmp_path,
                    tmp_path / ("x" * 300)):
            for command in ("dynamics", "sweep", "oracle"):
                assert main([command, "--set", "t1=1", "--out", str(out)]) == 2
                assert capsys.readouterr().err.startswith(
                    "configuration error: cannot write output: ")
        # a name the config line format cannot carry back: empty, with a
        # comment mark, a line break or surrounding whitespace; or one no
        # file can have, with a NUL
        for out in ("", str(tmp_path / "run#1.csv"), str(tmp_path / "a\nb.csv"),
                    " x.csv", str(tmp_path / "x.csv "), str(tmp_path / "a\0b.csv")):
            for command in ("dynamics", "sweep", "oracle"):
                assert main([command, "--set", "t1=1", "--out", out]) == 2
                assert capsys.readouterr().err == (
                    "configuration error: out must be a nonempty path without '#', "
                    f"a NUL, a line break or surrounding whitespace, got {out!r}\n")
        assert main(["sweep", "--set", "out="]) == 2
        assert "got ''" in capsys.readouterr().err
        cfg_file = tmp_path / "nul.cfg"  # a NUL can come from a config file
        cfg_file.write_text("out = a\0b.csv\n")
        assert main(["dynamics", "--config", str(cfg_file)]) == 2
        assert capsys.readouterr().err.endswith("got 'a\\x00b.csv'\n")
        cfg_file.unlink()
        assert [p.name for p in tmp_path.iterdir()] == ["file"]
        assert (tmp_path / "file").read_text() == "kept"

    def test_existing_output_judged_by_itself(self, tmp_path, capsys, monkeypatch):
        # like /dev/null for a user who cannot write /dev: the file is
        # writable, its directory is not
        target = tmp_path / "x.csv"
        target.write_text("old")
        writable = {str(target)}
        monkeypatch.setattr(os, "access", lambda path, mode: str(path) in writable)
        assert main(["dynamics", "--set", "t1=1", "--out", str(target)]) == 0
        assert target.read_text().startswith("t,")
        for out in (target, tmp_path / "new.csv"):  # a read-only file, a new name
            writable.clear()
            assert main(["dynamics", "--set", "t1=1", "--out", str(out)]) == 2
            assert capsys.readouterr().err.startswith(
                "configuration error: cannot write output: ")
        assert not (tmp_path / "new.csv").exists()

    def test_stdout_is_the_out_file(self, tmp_path):
        # the module run as a script writes to stdout what --out writes
        args = ["sweep", "--set", "t1_count=2", "--set", "t2_count=2"]
        out = tmp_path / "sweep.csv"
        assert main([*args, "--out", str(out)]) == 0
        assert fresh_process("-m", "nmotto.cli", *args) == out.read_bytes()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_write_failure_after_the_run(self, capsys, monkeypatch, tmp_path):
        # a full device passes the checks made as the config is read, and
        # fails only when the CSV is written, to the --out file or to stdout
        assert main(["dynamics", "--set", "t1=1", "--out", "/dev/full"]) == 2
        assert capsys.readouterr().err == FULL_DEVICE
        with open(tmp_path / "stdout", "wb") as fh:
            monkeypatch.setattr(sys, "stdout", FullStdout(fh.fileno()))
            assert main(["dynamics", "--set", "t1=1"]) == 2
            # what stdout still holds is flushed at exit into the null device
            assert os.path.samestat(os.fstat(fh.fileno()), os.stat(os.devnull))
        assert capsys.readouterr().err == FULL_DEVICE

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("flags", [[], ["-u"]], ids=["buffered", "unbuffered"])
    def test_stdout_on_a_full_device(self, flags):
        # one line and exit 2, as for --out: no traceback, and no second
        # error from the interpreter's flush at exit, which would exit 120
        env = dict(os.environ, PYTHONPATH=str(Path(nmotto.__file__).resolve().parents[1]))
        env.pop("PYTHONUNBUFFERED", None)
        with open("/dev/full", "wb") as full:
            done = subprocess.run([sys.executable, *flags, "-m", "nmotto.cli", "sweep",
                                   "--set", "t1_count=2", "--set", "t2_count=2"],
                                  env=env, stdout=full, stderr=subprocess.PIPE)
        assert (done.returncode, done.stderr.decode()) == (2, FULL_DEVICE)

    def test_exit_code_numerical_failure(self, capsys):
        rc = main(["dynamics", "--set", "omega_h=4", "--set", "omega_c=0.5",
                   "--set", "T_h=50", "--set", "lambda=0.3", "--set", "t1=10"])
        assert rc == 3
        assert "PositivityViolation" in capsys.readouterr().err


FULL_DEVICE = "configuration error: cannot write output: [Errno 28] No space left on device\n"


class FullStdout:
    """A stdout on a full device, at file descriptor ``fd``: every write
    and flush fails."""

    def __init__(self, fd):
        self.fd = fd

    def fileno(self):
        return self.fd

    def write(self, text=""):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    flush = write


def fresh_process(*args):
    """stdout bytes of ``python *args`` in a fresh interpreter, where no
    test module has imported anything yet."""
    src = str(Path(nmotto.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, *args], env=env, check=True,
                          capture_output=True).stdout


def fresh_modules(code):
    """stdout of ``code`` run in a fresh interpreter, stripped."""
    return fresh_process("-c", code).decode().strip()


class TestRuntime:
    def test_numpy_only_import(self):
        code = ("import sys, nmotto, nmotto.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        assert fresh_modules(code) == "[]"

    def test_import_leaves_process_pool_unloaded(self):
        # every run is one process, so nothing loads a process pool
        code = ("import sys, nmotto.cli; "
                "print(sorted(m for m in sys.modules "
                "if m in ('concurrent.futures.process', 'multiprocessing')))")
        assert fresh_modules(code) == "[]"

    def test_oracle_leaves_numpy_ma_unloaded(self, tmp_path):
        # numpy.ma costs about 15 ms to import and the oracle needs none of it
        sets = sum((["--set", f"{k}={v}"] for k, v in TestOracleCommand.CFG.items()), [])
        args = ["oracle", "--out", str(tmp_path / "oracle.csv")] + sets
        code = ("import sys; from nmotto.cli import main; "
                f"assert main({args!r}) == 0; "
                "print(sorted(m for m in sys.modules "
                "if m == 'numpy.ma' or m.startswith('numpy.ma.')))")
        assert fresh_modules(code) == "[]"
