"""Command-line surface: config handling, CSV contracts, determinism."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import nmotto
from nmotto import evaluate_cycle
from nmotto.cli import (
    build_config,
    main,
    parse_config,
    run_dynamics,
    run_sweep,
    serialize_config,
    sweep_grid,
)
from nmotto.errors import ConfigError, DegenerateCycle, PositivityViolation

REF_SETS = [
    "t1=5", "t2=60", "omega_h=1.0", "omega_c=0.18", "T_h=5.0", "T_c=1.0",
    "lambda=0.01", "cutoff=0.4",
]


def read_rows(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def column(text, name):
    header, rows = read_rows(text)
    i = header.index(name)
    return np.array([float(r[i]) for r in rows])


def point_ledger(engine, backend, step):
    """One sweep point the per-point way: (W_ad1, W_ad2, W_I, W_II), label."""
    if engine.lam == 0.0:
        w_frozen = (engine.omega_h - engine.omega_c) * (1.0 - 0.5)
        return (w_frozen, w_frozen, 0.0, 0.0), ""
    try:
        ledger = evaluate_cycle(engine, backend, step).ledger
    except (PositivityViolation, DegenerateCycle) as exc:
        return (float("nan"),) * 4, type(exc).__name__
    return (ledger.W_ad1, ledger.W_ad2, ledger.W_I, ledger.W_II), ""


class TestConfig:
    def test_defaults_round_trip(self):
        cfg = build_config({})
        again = build_config(parse_config(serialize_config(cfg)))
        assert again == cfg

    def test_round_trip_nondefault(self):
        raw = parse_config(
            "t1 = 3.5\nbackend = markov\nomega_pairs = 1.0:0.2,0.9:0.18\n"
            "step = 0.005\nworkers = 4\nout = run.csv\n"
        )
        cfg = build_config(raw)
        again = build_config(parse_config(serialize_config(cfg)))
        assert again == cfg

    def test_comments_and_blank_lines(self):
        raw = parse_config("# a comment\n\nt1 = 2.0  # trailing\n")
        assert raw == {"t1": "2.0"}

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("coupling_strength = 1\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            build_config({"t1": "soon"})

    def test_bad_range_rejected(self):
        with pytest.raises(ConfigError):
            build_config({"t1_min": "5", "t1_max": "1"})

    def test_bad_engine_rejected(self):
        with pytest.raises(ConfigError):
            build_config({"omega_c": "2.0"})  # above omega_h

    def test_backend_validated(self):
        with pytest.raises(ConfigError):
            build_config({"backend": "exact"})


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

    @pytest.mark.parametrize("extra", [{}, POSITIVITY], ids=["small", "positivity"])
    def test_worker_count_does_not_change_bytes(self, extra):
        one = run_sweep(build_config({**self.SMALL, **extra, "workers": "1"}))
        two = run_sweep(build_config({**self.SMALL, **extra, "workers": "2"}))
        assert one == two
        assert ("PositivityViolation" in one) == bool(extra)

    @pytest.mark.parametrize("extra, outcomes", [
        ({}, {""}),
        ({"backend": "markov", "omega_pairs": "1.0:0.18,0.9:0.2"}, {""}),
        ({"lambda": "0"}, {""}),
        ({**POSITIVITY, "t1_max": "10", "t1_count": "2"}, {"", "PositivityViolation"}),
        ({"backend": "markov", "lambda": "1e-16", "t1_max": "3", "t2_max": "3"},
         {"DegenerateCycle"}),
    ], ids=["tcl2", "markov-pairs", "zero-coupling", "positivity", "degenerate"])
    def test_grid_matches_per_point_bit_for_bit(self, extra, outcomes):
        cfg = build_config({**self.SMALL, **extra})
        t1_values = np.linspace(cfg.t1_min, cfg.t1_max, cfg.t1_count)
        t2_values = np.linspace(cfg.t2_min, cfg.t2_max, cfg.t2_count)
        labels = set()
        for engine, works, errors in sweep_grid(cfg):
            for i, t1 in enumerate(t1_values):
                for j, t2 in enumerate(t2_values):
                    point = replace(engine, t1=float(t1), t2=float(t2))
                    ref, label = point_ledger(point, cfg.backend, cfg.step)
                    got = [float(w[i, j]).hex() for w in works]
                    assert got == [w.hex() for w in ref], (t1, t2)
                    assert errors[i, j] == label, (t1, t2)
                    labels.add(label)
        assert labels == outcomes

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

    def test_zero_coupling_rows(self):
        cfg = build_config({**self.SMALL, "lambda": "0"})
        text = run_sweep(cfg)
        assert np.all(column(text, "W_I") == 0.0)
        assert np.all(column(text, "W_II") == 0.0)


class TestOracleCommand:
    CFG = {"t1": "2", "oracle_modes": "2", "oracle_fock": "2",
           "oracle_samples": "5", "oracle_omega_max": "1.0"}

    def test_columns_and_zero_row(self, tmp_path):
        out = tmp_path / "oracle.csv"
        rc = main(["oracle", "--out", str(out)] +
                  sum((["--set", f"{k}={v}"] for k, v in self.CFG.items()), []))
        assert rc == 0
        text = out.read_text()
        header, rows = read_rows(text)
        assert header == ["t", "dES_tcl2", "dES_exact", "dEB_tcl2", "dEB_exact",
                          "EI_tcl2", "EI_exact", "truncation"]
        first = [abs(float(v)) for v in rows[0][:7]]
        assert max(first) < 1e-12  # t = 0 row carries only roundoff

    def test_zero_coupling_all_zero(self):
        from nmotto.cli import run_oracle
        cfg = build_config({**self.CFG, "lambda": "0"})
        text = run_oracle(cfg)
        for name in ("dES_tcl2", "dES_exact", "dEB_tcl2", "dEB_exact",
                     "EI_tcl2", "EI_exact"):
            assert np.max(np.abs(column(text, name))) < 1e-12


class TestMain:
    def test_dynamics_to_file(self, tmp_path):
        out = tmp_path / "dyn.csv"
        rc = main(["dynamics", "--set", "t1=1", "--out", str(out)])
        assert rc == 0
        data = out.read_bytes()
        assert data.startswith(b"t,rho00")
        assert b"\r" not in data  # LF endings only

    def test_config_file_loading(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("t1 = 1\nbackend = markov\n")
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

    def test_exit_code_config_error(self, capsys):
        assert main(["dynamics", "--set", "lambda=abc"]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_exit_code_missing_config_file(self):
        assert main(["dynamics", "--config", "/nonexistent.cfg"]) == 2

    def test_exit_code_numerical_failure(self, capsys):
        rc = main(["dynamics", "--set", "omega_h=4", "--set", "omega_c=0.5",
                   "--set", "T_h=50", "--set", "lambda=0.3", "--set", "t1=10"])
        assert rc == 3
        assert "PositivityViolation" in capsys.readouterr().err


class TestRuntime:
    def test_numpy_only_import(self):
        # a fresh interpreter, so no test module has pulled in scipy yet
        src = str(Path(nmotto.__file__).resolve().parents[1])
        code = ("import sys, nmotto, nmotto.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"
