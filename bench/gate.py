"""Correctness gate for the CSVs the workloads produce.

Two kinds of checks:

* invariants that hold for any seed: the header, the grid, the error
  labels, W_I = W_ad1 - W_ad2, eta_O and eta_C from the config,
  W_II = W_I under Markov, and energy conservation in the oracle
  output, both for the TCL2 columns and (to ``EXACT_CONSERVATION_TOL``)
  for the exact few-mode columns;
* for the default seed, agreement with the stored reference CSV:
  numeric cells to ``REFERENCE_TOL`` absolute, ``error`` and
  ``truncation`` cells exactly.

``check`` returns a list of problems; an empty list means the CSV passed.
"""

from __future__ import annotations

import lzma
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_TOL = 1e-10
# Cells carry 12 significant digits, so an identity between printed
# values holds to a few units in the 12th digit of the largest term.
IDENTITY_RTOL = 1e-11
# Exact unitary evolution conserves energy to linear-algebra precision
# (5e-14 at dimension 2662); the bound leaves over three decades of margin.
EXACT_CONSERVATION_TOL = 1e-10

ERROR_LABELS = ("", "PositivityViolation", "DegenerateCycle")
_LABEL_COLUMNS = ("error", "truncation")
_SWEEP_HEADER = ["t1", "t2", "W_ad1", "W_ad2", "W_I", "W_II", "eta_O", "eta_C", "error"]
_ORACLE_HEADER = ["t", "dES_tcl2", "dES_exact", "dEB_tcl2", "dEB_exact",
                  "EI_tcl2", "EI_exact", "truncation"]


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.csv.xz"


def read_reference(workload: str) -> str:
    with lzma.open(reference_path(workload), "rt", encoding="utf-8", newline="") as fh:
        return fh.read()


def parse(text: str):
    """Header and columns (label columns as strings, the rest as floats)."""
    lines = text.split("\n")
    if lines[-1] != "":
        raise ValueError("CSV does not end with a newline")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:-1]]
    if any(len(row) != len(header) for row in rows):
        raise ValueError("ragged CSV row")
    columns = {}
    for name, cells in zip(header, zip(*rows) if rows else [()] * len(header)):
        columns[name] = list(cells) if name in _LABEL_COLUMNS else [float(c) for c in cells]
    return header, columns, len(rows)


def _close(a: float, b: float, *scale: float) -> bool:
    return abs(a - b) <= IDENTITY_RTOL * max([1.0, *map(abs, scale)])


def _linspace(lo: float, hi: float, n: int):
    if n == 1:
        return [float(lo)]
    return [lo + (hi - lo) * k / (n - 1) for k in range(n)]


def _check_sweep(settings: dict, header, col, n_rows, problems):
    with_pairs = bool(settings.get("omega_pairs"))
    if with_pairs:
        pairs = [tuple(float(v) for v in p.split(":"))
                 for p in settings["omega_pairs"].split(",")]
        expected_header = ["omega_h", "omega_c"] + _SWEEP_HEADER
    else:
        pairs = [(float(settings["omega_h"]), float(settings["omega_c"]))]
        expected_header = _SWEEP_HEADER
    if header != expected_header:
        problems.append(f"header {header} != {expected_header}")
        return
    t1s = _linspace(float(settings["t1_min"]), float(settings["t1_max"]), int(settings["t1_count"]))
    t2s = _linspace(float(settings["t2_min"]), float(settings["t2_max"]), int(settings["t2_count"]))
    grid = [(wh, wc, t1, t2) for wh, wc in pairs for t1 in t1s for t2 in t2s]
    if n_rows != len(grid):
        problems.append(f"{n_rows} rows, expected {len(grid)}")
        return
    eta_c = 1.0 - float(settings["T_c"]) / float(settings["T_h"])
    markov = settings.get("backend") == "markov"
    for i, (wh, wc, t1, t2) in enumerate(grid):
        where = f"row {i + 1}"
        got = [col["t1"][i], col["t2"][i]]
        if with_pairs:
            got = [col["omega_h"][i], col["omega_c"][i]] + got
            want = [wh, wc, t1, t2]
        else:
            want = [t1, t2]
        if not all(_close(g, w, w) for g, w in zip(got, want)):
            problems.append(f"{where}: grid point {got} != {want}")
        if not _close(col["eta_O"][i], 1.0 - wc / wh) or not _close(col["eta_C"][i], eta_c):
            problems.append(f"{where}: eta_O/eta_C do not follow from the config")
        error = col["error"][i]
        works = [col[k][i] for k in ("W_ad1", "W_ad2", "W_I", "W_II")]
        if error not in ERROR_LABELS:
            problems.append(f"{where}: unknown error label {error!r}")
        elif error:
            if not all(math.isnan(w) for w in works):
                problems.append(f"{where}: {error} row carries numbers")
            continue
        if not all(math.isfinite(w) for w in works):
            problems.append(f"{where}: non-finite work without an error label")
            continue
        w_ad1, w_ad2, w_i, w_ii = works
        if not _close(w_i, w_ad1 - w_ad2, w_ad1, w_ad2):
            problems.append(f"{where}: W_I != W_ad1 - W_ad2")
        if not (0.0 <= w_ad1 and 0.0 <= w_ad2):
            problems.append(f"{where}: negative adiabatic work")
        if markov and not _close(w_ii, w_i, w_i):
            problems.append(f"{where}: W_II != W_I under Markov")


def _check_oracle(settings: dict, header, col, n_rows, problems):
    if header != _ORACLE_HEADER:
        problems.append(f"header {header} != {_ORACLE_HEADER}")
        return
    if not 2 <= n_rows <= int(settings.get("oracle_samples", 51)):
        problems.append(f"{n_rows} rows, expected 2..oracle_samples")
        return
    t = col["t"]
    if t[0] != 0.0 or not _close(t[-1], float(settings["t1"]), t[-1]) or any(
            b <= a for a, b in zip(t, t[1:])):
        problems.append("times are not increasing from 0 to t1")
    for i in range(n_rows):
        where = f"row {i + 1}"
        tcl2 = [col[k][i] for k in ("dES_tcl2", "dEB_tcl2", "EI_tcl2")]
        exact = [col[k][i] for k in ("dES_exact", "dEB_exact", "EI_exact")]
        if not all(math.isfinite(v) for v in tcl2 + exact):
            problems.append(f"{where}: non-finite energy")
            continue
        if not _close(sum(tcl2), 0.0, *tcl2):
            problems.append(f"{where}: dES_tcl2 + dEB_tcl2 + EI_tcl2 = {sum(tcl2):.3g}")
        if abs(sum(exact)) > EXACT_CONSERVATION_TOL:
            problems.append(f"{where}: exact conservation residual {sum(exact):.3g}")
        if col["truncation"][i] not in ("0", "1"):
            problems.append(f"{where}: truncation flag {col['truncation'][i]!r}")


def _compare(reference: str, header, col, n_rows, problems):
    ref_header, ref_col, ref_rows = parse(reference)
    if ref_header != header or ref_rows != n_rows:
        problems.append("shape differs from the reference")
        return
    for name in header:
        for i, (got, want) in enumerate(zip(col[name], ref_col[name])):
            if name in _LABEL_COLUMNS:
                same = got == want
            else:
                same = (math.isnan(got) and math.isnan(want)) or abs(got - want) <= REFERENCE_TOL
            if not same:
                problems.append(f"row {i + 1}: {name} = {got!r}, reference {want!r}")


def check(command: str, settings: dict, text: str, reference: str | None = None,
          max_problems: int = 20) -> list[str]:
    """Problems found in one workload's CSV ``text`` (empty: correct)."""
    problems: list[str] = []
    try:
        header, col, n_rows = parse(text)
    except ValueError as exc:
        return [f"unreadable CSV: {exc}"]
    if command == "sweep":
        _check_sweep(settings, header, col, n_rows, problems)
    elif command == "oracle":
        _check_oracle(settings, header, col, n_rows, problems)
    else:
        problems.append(f"no checks for command {command!r}")
    if reference is not None and not problems:
        _compare(reference, header, col, n_rows, problems)
    return problems[:max_problems]


def error_rows(text: str) -> int:
    """Rows with a non-empty ``error`` cell (0 for outputs without one)."""
    header, col, _ = parse(text)
    return sum(1 for e in col.get("error", ()) if e)


def self_test(workload, settings: dict) -> list[str]:
    """Failures of the gate to tell the reference from two corruptions.

    ``workload`` must be a TCL2 sweep whose reference holds at least one
    ``PositivityViolation`` row.  The gate must accept the reference and
    reject (a) one ``W_II`` cell moved by 1e-9 and (b) one
    ``PositivityViolation`` label dropped.
    """
    reference = read_reference(workload)
    lines = reference.split("\n")
    header = lines[0].split(",")
    w_ii, err = header.index("W_II"), header.index("error")
    clean = next(i for i, line in enumerate(lines[1:-1], 1) if not line.split(",")[err])
    labelled = next(i for i, line in enumerate(lines[1:-1], 1)
                    if line.split(",")[err] == "PositivityViolation")

    def corrupt(row, column, edit):
        cells = lines[row].split(",")
        cells[column] = edit(cells[column])
        return "\n".join(lines[:row] + [",".join(cells)] + lines[row + 1:])

    cases = {
        "W_II + 1e-9": corrupt(clean, w_ii, lambda c: repr(float(c) + 1e-9)),
        "dropped PositivityViolation": corrupt(labelled, err, lambda c: ""),
    }
    failures = []
    if check("sweep", settings, reference, reference):
        failures.append("gate rejects the unmodified reference")
    for label, text in cases.items():
        if not check("sweep", settings, text, reference):
            failures.append(f"gate accepts a corrupted CSV ({label})")
    return failures
