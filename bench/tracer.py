"""Spans at the module boundaries of ``nmotto`` for the traced run.

Each public function is wrapped where its caller looks it up, so the
program itself is unchanged:

* ``d1``/``d2`` are bound by name in ``tcl2`` and ``energetics``;
* ``limit_cycle`` is bound by name in ``energetics``;
* ``exact_evolve``/``discretize_bath`` are bound by name in ``cli``;
* ``energetics.*``, ``tcl2.evolve_branch_pair`` and ``markov.*`` are
  looked up as module attributes (calls inside ``energetics`` and
  ``markov`` go through their module globals, so they are seen too);
* ``numpy.linalg.eigh`` is reached from ``oracle`` as an attribute;
* the ``cli`` commands are looked up in ``cli._COMMANDS`` and each
  sweep point through the ``cli._sweep_point`` global.

A span records its name, start, end, parent span and operation id;
all spans of one sweep point or one command share the operation id.
Spans stay in flat arrays in memory and are written once, after the
run.  A span's self time is its duration minus its direct children's.
"""

from __future__ import annotations

import inspect
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

from nmotto import cli, energetics, markov, tcl2

# Layer self times partition the spanned time; "oracle.eigh" is
# reported apart from the rest of the oracle layer.
LAYERS = ("kernels", "tcl2", "markov", "energetics", "cycle", "oracle", "cli")
_EIGH = "oracle.eigh"
_LEDGER = ("energetics.interaction_energy", "energetics.system_energy_change",
           "energetics.work_adiabatic")
_ENERGETICS = ("evaluate_cycle", "stroke_dynamics", "system_energy_change",
               "interaction_energy", "work_adiabatic", "energy_flow",
               "effective_temperature_profile")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = Counter()
        self.solve_keys = set()
        self._stack = [-1]
        self._ops = [0, 1]  # current operation id, next operation id
        self._patched = []

    def wrap(self, name, fn, after=None, new_op=False):
        """``fn`` recording one span per call; ``after(args, kwargs, result)``
        updates counters once the span is closed (result None on raise)."""
        ix = self._index.setdefault(name, len(self.names))
        if ix == len(self.names):
            self.names.append(name)
        name_a, parent_a, op_a = self.name, self.parent, self.op
        start_a, end_a, stack, ops = self.start, self.end, self._stack, self._ops
        counts = self.counts

        def wrapper(*args, **kwargs):
            if new_op:
                prev_op = ops[0]
                ops[0] = ops[1]
                ops[1] += 1
            k = len(start_a)
            name_a.append(ix)
            parent_a.append(stack[-1])
            op_a.append(ops[0])
            end_a.append(0.0)
            stack.append(k)
            result = None
            start_a.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                end_a[k] = perf_counter()
                stack.pop()
                if new_op:
                    ops[0] = prev_op
                if after is not None:
                    after(args, kwargs, result)

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr, name, after=None, new_op=False):
        if isinstance(owner, dict):
            original = owner.get(attr)
            if original is not None:
                owner[attr] = self.wrap(name, original, after, new_op)
                self._patched.append((owner, attr, original))
        elif hasattr(owner, attr):
            original = getattr(owner, attr)
            setattr(owner, attr, self.wrap(name, original, after, new_op))
            self._patched.append((owner, attr, original))

    def install(self):
        counts = self.counts

        def d1_points(args, kwargs, result):
            tau = args[0] if args else kwargs["tau"]
            counts["kernels.d1.points"] += int(np.size(tau))

        solve_sig = (inspect.signature(tcl2.evolve_branch_pair)
                     if hasattr(tcl2, "evolve_branch_pair") else None)

        def solve(args, kwargs, result):
            call = solve_sig.bind(*args, **kwargs)
            call.apply_defaults()
            a = call.arguments
            self.solve_keys.add((a["reservoir"], a["omega"], a["t_end"], a["h"]))
            counts["tcl2.grid_points"] += len(tcl2.time_grid(a["t_end"], a["h"]))

        def cycle_iters(args, kwargs, result):
            counts["cycle.check_iters"] += getattr(result, "n_iter_check", 0)

        def bath_dim(args, kwargs, result):
            if result is not None:
                counts["oracle.dim"] = result.total_dimension

        def csv_size(args, kwargs, result):
            if result is not None:
                counts["cli.rows"] += result.count("\n") - 1
                counts["cli.bytes"] += len(result.encode("utf-8"))

        for module in (tcl2, energetics):
            self._patch(module, "d1", "kernels.d1", d1_points)
            self._patch(module, "d2", "kernels.d2")
        self._patch(tcl2, "evolve_branch_pair", "tcl2.evolve_branch_pair", solve)
        for attr in getattr(markov, "__all__", ()):
            if inspect.isfunction(getattr(markov, attr)):
                self._patch(markov, attr, f"markov.{attr}")
        for attr in _ENERGETICS:
            self._patch(energetics, attr, f"energetics.{attr}")
        self._patch(energetics, "limit_cycle", "cycle.limit_cycle", cycle_iters)
        self._patch(cli, "discretize_bath", "oracle.discretize_bath", bath_dim)
        self._patch(cli, "exact_evolve", "oracle.exact_evolve")
        self._patch(np.linalg, "eigh", _EIGH)
        self._patch(cli, "_sweep_point", "cli.sweep_point", new_op=True)
        for command, fn in list(getattr(cli, "_COMMANDS", {}).items()):
            self._patch(cli._COMMANDS, command, f"cli.{fn.__name__}", csv_size, new_op=True)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patched.clear()

    def write_spans(self, path):
        """One CSV row per span; ``parent`` is the parent's span index."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("span,op,parent,name,start_s,end_s\n")
            names = self.names
            fh.writelines(
                f"{k},{op},{p},{names[n]},{s:.9f},{e:.9f}\n"
                for k, (op, p, n, s, e) in enumerate(
                    zip(self.op, self.parent, self.name, self.start, self.end))
            )

    def layer_metrics(self, run_s: float) -> dict:
        """Per-layer counts and self times of the spans recorded so far."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        n_names = len(self.names)
        nested = parent >= 0
        self_t = dur - np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))

        def by_name(values):
            return np.bincount(name, weights=values, minlength=n_names)

        self_by, dur_by, calls_by = by_name(self_t), by_name(dur), by_name(None)
        layer_of = np.array([n.split(".", 1)[0] for n in self.names] or [""])
        index = self._index

        def total(arr, span_name):
            return float(arr[index[span_name]]) if span_name in index else 0.0

        def layer_self(layer):
            return float(sum(self_by[i] for i, n in enumerate(self.names)
                             if layer_of[i] == layer and n != _EIGH))

        def calls_into(layer):
            inside = (layer_of == layer)[name]
            return int(np.sum(inside & ~(nested & inside[parent.clip(0)])))

        # a stroke_dynamics span with a tcl2 or markov child missed the cache
        backend = np.isin(layer_of, ("tcl2", "markov"))[name]
        child_of_stroke = nested & (name[parent.clip(0)] ==
                                    index.get("energetics.stroke_dynamics", -1))
        misses = len(np.unique(parent[child_of_stroke & backend]))
        stroke_calls = total(calls_by, "energetics.stroke_dynamics")
        points = total(calls_by, "energetics.evaluate_cycle")
        solves = total(calls_by, "tcl2.evolve_branch_pair")

        c = self.counts
        spanned = float(dur[~nested].sum())
        out = {
            "kernels.d1.calls": total(calls_by, "kernels.d1"),
            "kernels.d1.points": c["kernels.d1.points"],
            "kernels.self_s": layer_self("kernels"),
            "tcl2.solves": solves,
            "tcl2.grid_points": c["tcl2.grid_points"],
            "tcl2.self_s": layer_self("tcl2"),
            "tcl2.positivity_violations":
                c["tcl2.evolve_branch_pair.raised.PositivityViolation"],
            "tcl2.useful_solve_ratio": len(self.solve_keys) / solves if solves else 0.0,
            "markov.calls": calls_into("markov"),
            "markov.self_s": layer_self("markov"),
            "energetics.points": points,
            "energetics.point_us":
                1e6 * total(dur_by, "energetics.evaluate_cycle") / points if points else 0.0,
            "energetics.ledger_s": sum(total(dur_by, n) for n in _LEDGER),
            "energetics.stroke_s": total(self_by, "energetics.stroke_dynamics"),
            "energetics.stroke_miss_ratio": misses / stroke_calls if stroke_calls else 0.0,
            "energetics.self_s": layer_self("energetics"),
            "cycle.calls": total(calls_by, "cycle.limit_cycle"),
            "cycle.self_s": layer_self("cycle"),
            "cycle.check_iters": c["cycle.check_iters"],
            "cycle.degenerate": c["cycle.limit_cycle.raised.DegenerateCycle"],
            "oracle.dim": c["oracle.dim"],
            "oracle.eigh_s": total(self_by, _EIGH),
            "oracle.self_s": layer_self("oracle"),
            "cli.self_s": layer_self("cli"),
            "cli.rows": c["cli.rows"],
            "cli.bytes": c["cli.bytes"],
            "trace.spans": len(dur),
            "trace.unspanned_s": run_s - spanned,
        }
        parts = [out[f"{layer}.self_s"] for layer in LAYERS] + [out["oracle.eigh_s"]]
        # the partition must cover every span; a stray layer breaks the sum
        out["trace.sum_residual_s"] = sum(parts) + out["trace.unspanned_s"] - run_s
        out["trace.min_self_s"] = float(self_t.min()) if len(dur) else 0.0
        return {k: float(v) for k, v in out.items()}
