"""Benchmark of the ``nmotto`` command line: cold CLI calls on seeded workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed 0 --seconds S
    python3 bench/run.py --write-reference

Run from the root of a checkout.  Each repetition is a fresh
``python3 bench/child.py`` with ``PYTHONPATH=src``, one worker and one
BLAS thread, so caches start cold as for a real CLI call.  After one
untimed warm-up import, repetitions run one after another while one
more of median length still ends within ``--seconds`` (at least
``MIN_REPS``); every CSV is checked by ``gate`` (invariants for any
seed, the stored reference for the default seed) and must be
byte-identical across repetitions.

``--trace 0`` reports the end-to-end metrics (medians over the
repetitions): ``setup_s`` (``import nmotto.cli``), ``run_s``
(``nmotto.cli.main`` until the CSV is written) and ``peak_rss_mb``.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of ``tracer`` plus the ``-X importtime`` breakdown of
the import; ``trace.overhead_s`` is the traced minus the untraced
``run_s``.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a line before it names each
metric with its unit, sample count and the workload's error-row share.
Full results, with provenance, go to ``.bench_work/results/`` and the
spans of the last traced repetition to ``.bench_work/spans/``.

One operation is one sweep row or one oracle command.  Rows labelled
``PositivityViolation`` on ``sweep-edge`` are the program's correct,
reference-checked answer there, so they count in ``failed_share`` (the
share of rows carrying an error label) but not in ``failed``, which
counts operations whose output failed the gate or whose call exited
non-zero.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import lzma
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import gate
import workloads
from child import IMPORT_DONE

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
PROGRAM = ROOT / "src" / "nmotto" / "cli.py"

MIN_REPS = 3
# One BLAS thread keeps each child on one core: the cores of a shared
# host change speed independently, and a two-thread eigh waits for the
# slower one.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# import-only children top the setup samples up to this count
MIN_SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150.0
# traced self times plus unspanned time must rebuild the traced run_s
SUM_TOL_S = 1e-6

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "kernels.d1.calls": "count", "kernels.d1.points": "count", "kernels.self_s": "s",
    "tcl2.solves": "count", "tcl2.grid_points": "count", "tcl2.self_s": "s",
    "tcl2.positivity_violations": "count", "tcl2.useful_solve_ratio": "ratio",
    "markov.calls": "count", "markov.self_s": "s",
    "energetics.points": "count", "energetics.point_us": "us",
    "energetics.ledger_s": "s", "energetics.stroke_s": "s",
    "energetics.stroke_miss_ratio": "ratio", "energetics.self_s": "s",
    "cycle.calls": "count", "cycle.self_s": "s", "cycle.check_iters": "count",
    "cycle.degenerate": "count",
    "oracle.dim": "count", "oracle.eigh_s": "s", "oracle.self_s": "s",
    "cli.self_s": "s", "cli.rows": "count", "cli.bytes": "bytes",
    "setup.scipy_s": "s", "setup.numpy_s": "s", "setup.nmotto_s": "s",
    "trace.run_s": "s", "trace.overhead_s": "s", "trace.unspanned_s": "s",
    "trace.spans": "count",
}
_COUNT_UNITS = ("count", "bytes", "ratio")


class ChildFailed(RuntimeError):
    pass


def spawn(args, importtime=False):
    """Run child.py in a fresh interpreter; its JSON result and stderr."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
    cmd += [str(BENCH / "child.py")] + args
    env = dict(os.environ, PYTHONPATH="src")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"child timed out after {CHILD_TIMEOUT_S:g} s") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def import_breakdown(stderr: str) -> dict:
    """Self import time of the scipy, numpy and nmotto packages."""
    totals = {"scipy": 0, "numpy": 0, "nmotto": 0}
    for line in stderr.splitlines():
        if line.startswith(IMPORT_DONE):
            break
        if not line.startswith("import time:"):
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        top = name.strip().split(".", 1)[0]
        if top in totals and self_us.strip().isdigit():
            totals[top] += int(self_us)
    return {f"setup.{k}_s": v / 1e6 for k, v in totals.items()}


class Session:
    """Repetitions of one workload at one seed, and their verdicts."""

    def __init__(self, name: str, seed: int):
        self.workload = workloads.make(name, seed)
        self.dir = WORK / f"{name}-seed{seed}"
        self.dir.mkdir(parents=True, exist_ok=True)
        rel = self.dir.relative_to(ROOT)
        self.config = rel / "config.txt"
        self.out = ROOT / rel / "out.csv"
        (ROOT / self.config).write_text(self.workload.config_text(str(rel / "out.csv")),
                                        encoding="utf-8")
        self.reference = None
        if seed == workloads.DEFAULT_SEED and gate.reference_path(name).exists():
            self.reference = gate.read_reference(name)
        self.verdicts: dict[str, tuple[list[str], int]] = {}
        self.problems: list[str] = []
        self.attempted = self.failed = self.error_rows = 0
        self.canonical_config = None

    def rep(self, spans=None):
        """One cold CLI call; its child result and the CSV text."""
        args = [self.workload.command, str(self.config)]
        if spans is not None:
            args += ["--trace", str(spans.relative_to(ROOT))]
        self.out.unlink(missing_ok=True)
        result, stderr = spawn(args, importtime=spans is not None)
        text = None
        if self.out.exists():
            text = self.out.read_text(encoding="utf-8")
            self.out.unlink()
        self.canonical_config = result.get("config", self.canonical_config)
        self._verify(result, text)
        result["stderr"] = stderr
        return result, text

    def _verify(self, result, text):
        if text is None or result.get("exit_code") != 0:
            self.problems.append(f"CLI call failed: exit code {result.get('exit_code')}, "
                                 f"{'no CSV' if text is None else 'CSV written'}")
            self.attempted += 1
            self.failed += 1
            return
        ops = text.count("\n") - 1 if self.workload.command == "sweep" else 1
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if digest not in self.verdicts:
            problems = gate.check(self.workload.command, self.workload.settings,
                                  text, self.reference)
            self.verdicts[digest] = (problems, gate.error_rows(text))
            self.problems.extend(problems)
            if len(self.verdicts) > 1:
                self.problems.append("CSV bytes differ between repetitions")
        problems, error_rows = self.verdicts[digest]
        self.attempted += ops
        self.error_rows += error_rows
        if problems or len(self.verdicts) > 1:
            self.failed += ops

    @property
    def failed_share(self) -> float:
        return self.error_rows / self.attempted if self.attempted else 0.0


def warm_up():
    """One untimed import, so that bytecode and file caches are warm."""
    spawn(["import-only", "-", "--import-only"])


def another_fits(t_start: float, seconds: float, took: list, minimum: int) -> bool:
    """Whether one more repetition, as long as the median one so far,
    ends within ``seconds`` of ``t_start`` (always, below ``minimum``)."""
    if len(took) < minimum:
        return True
    return time.perf_counter() - t_start + statistics.median(took) <= seconds


def measure(session: Session, seconds: float) -> dict:
    """Untraced repetitions: the end-to-end metrics and their samples."""
    warm_up()
    t_start = time.perf_counter()
    setup, run, rss, took = [], [], [], []
    while another_fits(t_start, seconds, took, MIN_REPS):
        t_rep = time.perf_counter()
        result, _ = session.rep()
        took.append(time.perf_counter() - t_rep)
        setup.append(result["setup_s"])
        run.append(result["run_s"])
        rss.append(result["peak_rss_kb"] * 1024 / 1e6)
    while len(setup) < MIN_SETUP_SAMPLES:
        result, _ = spawn(["import-only", "-", "--import-only"])
        setup.append(result["setup_s"])
    samples = {"setup_s": setup, "run_s": run, "peak_rss_mb": rss}
    return {"metrics": {k: statistics.median(v) for k, v in samples.items()},
            "samples": samples}


def measure_traced(session: Session, seconds: float) -> dict:
    """Alternating untraced and traced repetitions: per-layer metrics."""
    # one span file per workload, overwritten by each traced repetition
    spans = WORK / "spans" / f"{session.workload.name}.csv"
    spans.parent.mkdir(parents=True, exist_ok=True)
    warm_up()
    t_start = time.perf_counter()
    plain, traced, layers, imports, took = [], [], [], [], []
    while another_fits(t_start, seconds, took, 1):
        t_pair = time.perf_counter()
        result, _ = session.rep()
        plain.append(result["run_s"])
        result, _ = session.rep(spans=spans)
        traced.append(result["run_s"])
        layers.append(result["layers"])
        imports.append(import_breakdown(result["stderr"]))
        took.append(time.perf_counter() - t_pair)
    for layer in layers:
        if abs(layer["trace.sum_residual_s"]) > SUM_TOL_S or layer["trace.min_self_s"] < -SUM_TOL_S:
            session.problems.append(
                f"layer self times do not add up to the traced run_s "
                f"(residual {layer['trace.sum_residual_s']:.3g} s)")
    metrics = {}
    for name, unit in PER_LAYER_UNITS.items():
        source = imports if name.startswith("setup.") else layers
        values = [sample[name] for sample in source if name in sample]
        if unit in _COUNT_UNITS and name in layers[0]:
            if len(set(values)) > 1:
                session.problems.append(f"count {name} differs between runs: {values}")
            metrics[name] = values[0]
        elif values:
            metrics[name] = statistics.median(values)
    metrics["trace.run_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return {"metrics": metrics,
            "samples": {"run_s": plain, "trace.run_s": traced, "layers": layers,
                        "imports": imports}}


def blas_info():
    """BLAS library numpy was built against and its thread count here."""
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    threads = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                threads = fn()
                break
        if threads is not None:
            break
    return {"blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads}


def provenance(seed: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        commit = proc.stdout.strip() or None
    return {
        "seed": seed, "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
        **blas_info(), "git_commit": commit,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    session = Session(name, seed)
    measured = (measure_traced if trace else measure)(session, seconds)
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    result = {
        "workload": name, "why": session.workload.why, "seed": seed, "trace": trace,
        "config": session.canonical_config, "provenance": provenance(seed),
        "correct": not session.problems, "problems": session.problems,
        "attempted": session.attempted, "failed": session.failed,
        "failed_share": session.failed_share,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in measured["metrics"].items()},
        "samples": measured["samples"],
    }
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    path = WORK / "results" / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return result


def describe(result: dict) -> str:
    samples = result["samples"]
    cells = [f"{k}={m['value']:.6g} {m['unit']}"
             + (f" (median of {len(samples[k])})" if k in samples else "")
             for k, m in result["metrics"].items()]
    cells.append(f"failed_share={result['failed_share']:.6g} (error rows / rows)")
    return f"{result['workload']} seed={result['seed']}: " + ", ".join(cells)


def write_references():
    """Run every workload once at the default seed and store its CSV."""
    gate.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in workloads.NAMES:
        session = Session(name, workloads.DEFAULT_SEED)
        session.reference = None
        _, text = session.rep()
        if session.problems:
            raise SystemExit(f"{name}: not writing a reference: {session.problems}")
        gate.reference_path(name).write_bytes(lzma.compress(text.encode("utf-8"), preset=9))
        print(f"{name}: wrote {gate.reference_path(name).relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store the default seed's CSVs as the gate's references")
    args = parser.parse_args(argv)
    # set before numpy loads here, so provenance reports the children's setting
    os.environ.update(BLAS_ENV)
    if not PROGRAM.is_file():
        print(f"bench: {PROGRAM.relative_to(ROOT)} not found; run from a checkout",
              file=sys.stderr)
        return 2
    if args.write_reference:
        write_references()
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    edge = workloads.make("sweep-edge", workloads.DEFAULT_SEED)
    gate_failures = gate.self_test(edge.name, edge.settings)
    if gate_failures:
        print(f"bench: gate self-test failed: {gate_failures}", file=sys.stderr)
        return 1

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(name, args.seed, args.seconds, bool(args.trace))
                   for name in names]
    except ChildFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print("provenance: " + json.dumps(results[0]["provenance"]))
    for result in results:
        print(describe(result))
        for problem in result["problems"]:
            print(f"  {result['workload']}: {problem}")
    prefix = len(results) > 1
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(f"{r['workload']}.{k}" if prefix else k): m
                    for r in results for k, m in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
