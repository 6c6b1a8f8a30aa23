"""Traced round: one workload round in one process, with per-layer spans.

Run as a script (``run.py --trace 1`` starts it once per traced round):

    python3 perfbench/tracer.py --workload NAME --seed N --workdir DIR --result FILE

It imports ``casq`` from ``src/``, wraps the public functions of each layer
from outside the program, then runs the round's ``casq`` command lines
in-process through ``casq.cli.main``. Modules import engine functions by
name (``from .quadrature import integrate_adaptive``), so a wrapper is
installed under every module attribute that holds the original function:
``casq.mirror_phases.integrate_adaptive``, ``casq.dce.integrate_iterated``,
``casq.quadrature.integrate_adaptive`` for the nested levels, and so on.
Each original function gets exactly one wrapper, so each call is counted
once.

A span is recorded at every wrapped layer call: name, start, end and the
enclosing span. Integrand evaluations are timed as spans too, but only
aggregated (there are hundreds of thousands of them); trajectory
``position``/``velocity`` calls are only counted. A layer's self time is
its spans' duration minus the time their child spans cover. Spans stay in
memory and are written to ``DIR/trace.json`` when the round ends.

Spawned sweep workers do not inherit the wrappers. For ``sagnac_sweep`` the
round therefore runs twice: the ``--jobs 2`` sweep as users run it gives the
orchestration numbers (``scenarios.sweep_s``, ``row_compute_s``, ``emit_*``),
and a traced serial pass over the same rows gives every per-row layer.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback
from array import array

import workloads

clock = time.perf_counter

ENGINE_PANELS = ("integrate_adaptive", "integrate_improper")
ENGINE_DELEGATES = ("integrate_iterated", "line_integral")
#: Initial panel count of each panel-running entry point: integrate_adaptive
#: starts from one panel, integrate_improper from eight.
INITIAL_PANELS = {"integrate_adaptive": 1, "integrate_improper": 8}
GK_POINTS = 15

INTEGRAND = "quadrature.integrand"
TRAJECTORY_CLASSES = (
    "Constant1D", "Linear1D", "Harmonic1D", "SampledPolyline1D", "StraightLine3D", "SampledPolyline3D",
)

#: Metrics the sagnac_sweep round takes from its --jobs 2 pass.
ORCHESTRATION_METRICS = (
    "scenarios.sweep_s", "scenarios.row_compute_s", "scenarios.emit_s", "scenarios.emit_bytes",
)


class Tracer:
    """Span recorder with per-name call counts, inclusive and self times."""

    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.stack: list[list] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: list[int] = []
        self.active: list[int] = []
        self.incl: list[float] = []
        self.self_time: list[float] = []
        self.counters: dict[str, float] = {}

    def nid(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
            for agg, zero in ((self.calls, 0), (self.active, 0), (self.incl, 0.0), (self.self_time, 0.0)):
                agg.append(zero)
        return self.ids[name]

    def reset(self) -> None:
        """Forget everything recorded so far; wrappers stay installed."""
        del self.stack[:]
        for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
            del arr[:]
        for agg, zero in ((self.calls, 0), (self.active, 0), (self.incl, 0.0), (self.self_time, 0.0)):
            agg[:] = [zero] * len(agg)
        self.counters.clear()

    def count(self, key: str, n: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def enter(self, nid: int) -> list:
        t = clock()
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1][1] if self.stack else -1)
        self.span_start.append(t)
        self.span_end.append(t)
        frame = [nid, idx, t, 0.0]
        self.stack.append(frame)
        self.active[nid] += 1
        return frame

    def leave(self, frame: list) -> None:
        t = clock()
        self.stack.pop()
        nid, idx, t0, child = frame
        d = t - t0
        self.span_end[idx] = t
        self.calls[nid] += 1
        self.self_time[nid] += d - child
        self.active[nid] -= 1
        if self.active[nid] == 0:
            self.incl[nid] += d
        if self.stack:
            self.stack[-1][3] += d

    def timed_integrand(self, f):
        """Wrap an integrand: its time is a child of the engine call, and
        engine calls it makes (nested levels) are children of it."""
        nid = self.nid(INTEGRAND)
        stack, calls, self_time = self.stack, self.calls, self.self_time

        def integrand(*args):
            t0 = clock()
            frame = [nid, stack[-1][1], t0, 0.0]
            stack.append(frame)
            try:
                return f(*args)
            finally:
                d = clock() - t0
                stack.pop()
                calls[nid] += 1
                self_time[nid] += d - frame[3]
                stack[-1][3] += d

        return integrand

    def wrap(self, name: str, fn, after=None, before=None):
        nid = self.nid(name)

        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(args)
            frame = self.enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.leave(frame)
            if after is not None:
                after(result)
            return result

        return wrapper

    def dump(self, path: str, extra: dict) -> None:
        spans = [
            [self.span_name[i], self.span_parent[i], self.span_start[i], self.span_end[i]]
            for i in range(len(self.span_name))
        ]
        payload = {
            "names": self.names,
            "calls": dict(zip(self.names, self.calls)),
            "self_s": dict(zip(self.names, self.self_time)),
            "inclusive_s": dict(zip(self.names, self.incl)),
            "counters": self.counters,
            "spans_columns": ["name", "parent", "start_s", "end_s"],
            "spans": spans,
            **extra,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def _replace_everywhere(modules, original, wrapper) -> None:
    """Point every module attribute that holds ``original`` at ``wrapper``."""
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, wrapper)


def install(tracer: Tracer):
    """Wrap casq's layer functions; returns the wrapped ``casq.cli.main``."""
    import casq  # noqa: F401  (imports every casq module)
    import casq.cli
    import casq.dce
    import casq.mirror_phases
    import casq.quadrature
    import casq.sagnac
    import casq.scenarios
    import casq.species
    import casq.trajectories

    modules = [m for k, m in sys.modules.items() if k == "casq" or k.startswith("casq.")]
    tracer.nid(INTEGRAND)

    def engine_result(name):
        panels = INITIAL_PANELS[name]

        def after(res):
            evals = res.evaluations
            tracer.count("quadrature.evals", evals)
            subdiv = (evals // GK_POINTS - panels) // 2 if evals else 0
            tracer.count("quadrature.subdivisions", subdiv)
            if subdiv > tracer.counters.get("quadrature.max_subdivisions_one", 0):
                tracer.counters["quadrature.max_subdivisions_one"] = subdiv
            if not res.converged:
                tracer.count("quadrature.unconverged")

        return after

    motional_id = tracer.nid("mirror_phases.motional_phase_mirror")
    panel_ids = [tracer.nid(f"quadrature.{n}") for n in ENGINE_PANELS]

    def engine_args(args):
        # an engine call nested in the motional phase's outer integral is
        # one of its coarse-graining integrals
        if tracer.active[motional_id] and any(tracer.active[i] for i in panel_ids):
            tracer.count("mirror_phases.inner_calls")
        return (tracer.timed_integrand(args[0]),) + tuple(args[1:])

    for name in ENGINE_PANELS:
        orig = getattr(casq.quadrature, name)
        w = tracer.wrap(f"quadrature.{name}", orig, after=engine_result(name), before=engine_args)
        _replace_everywhere(modules, orig, w)
    for name in ENGINE_DELEGATES:
        orig = getattr(casq.quadrature, name)
        _replace_everywhere(modules, orig, tracer.wrap(f"quadrature.{name}", orig))

    def dce_after(res):
        tracer.count("dce.evals", res.evaluations)

    def sweep_after(rows):
        tracer.count(
            "scenarios.row_compute_s",
            sum(r.report.wall_time_s for r in rows if r.report is not None),
        )

    def emit_after(text):
        tracer.count("scenarios.emit_bytes", len(text.encode("utf-8")))

    layer_functions = (
        (casq.species, "resolve_species_db", None),
        (casq.scenarios, "parse_scenario_dict", None),
        (casq.scenarios, "run_scenario", None),
        (casq.scenarios, "sweep", sweep_after),
        (casq.scenarios, "emit", emit_after),
        (casq.dce, "dce_rate_numeric", dce_after),
        (casq.mirror_phases, "quasi_static_phase", None),
        (casq.mirror_phases, "motional_phase_mirror", None),
        (casq.mirror_phases, "nonlocal_phase", None),
        (casq.mirror_phases, "total_phase_difference", None),
        (casq.sagnac, "sagnac_phase", None),
    )
    for mod, name, after in layer_functions:
        orig = getattr(mod, name)
        layer = mod.__name__.split(".", 1)[1]
        _replace_everywhere(modules, orig, tracer.wrap(f"{layer}.{name}", orig, after=after))

    for cls_name in TRAJECTORY_CLASSES:
        cls = getattr(casq.trajectories, cls_name)
        for meth in ("position", "velocity"):
            setattr(cls, meth, _counted(tracer, f"trajectories.{meth}_calls", getattr(cls, meth)))

    main = casq.cli.main
    return tracer.wrap("cli.main", main)


def _counted(tracer: Tracer, key: str, fn):
    counters = tracer.counters

    def method(self, t):
        counters[key] = counters.get(key, 0) + 1
        return fn(self, t)

    return method


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of everything recorded since the last reset."""

    def incl(name):
        return tracer.incl[tracer.ids[name]]

    def calls(name):
        return tracer.calls[tracer.ids[name]]

    def self_s(name):
        return tracer.self_time[tracer.ids[name]]

    c = tracer.counters
    engine = [f"quadrature.{n}" for n in ENGINE_PANELS + ENGINE_DELEGATES]
    return {
        "species.resolve_calls": calls("species.resolve_species_db"),
        "species.resolve_s": incl("species.resolve_species_db"),
        "scenarios.parse_calls": calls("scenarios.parse_scenario_dict"),
        "scenarios.parse_s": incl("scenarios.parse_scenario_dict"),
        "scenarios.run_calls": calls("scenarios.run_scenario"),
        "scenarios.run_s": incl("scenarios.run_scenario"),
        "scenarios.sweep_s": incl("scenarios.sweep"),
        "scenarios.row_compute_s": c.get("scenarios.row_compute_s", 0.0),
        "scenarios.emit_s": incl("scenarios.emit"),
        "scenarios.emit_bytes": c.get("scenarios.emit_bytes", 0),
        "quadrature.calls": sum(calls(n) for n in engine),
        "quadrature.evals": c.get("quadrature.evals", 0),
        "quadrature.subdivisions": c.get("quadrature.subdivisions", 0),
        "quadrature.max_subdivisions_one": c.get("quadrature.max_subdivisions_one", 0),
        "quadrature.self_s": sum(self_s(n) for n in engine),
        "quadrature.integrand_s": self_s(INTEGRAND),
        "quadrature.unconverged": c.get("quadrature.unconverged", 0),
        "dce.numeric_calls": calls("dce.dce_rate_numeric"),
        "dce.numeric_s": incl("dce.dce_rate_numeric"),
        "dce.evals": c.get("dce.evals", 0),
        "mirror_phases.quasi_static_s": incl("mirror_phases.quasi_static_phase"),
        "mirror_phases.motional_s": incl("mirror_phases.motional_phase_mirror"),
        "mirror_phases.nonlocal_s": incl("mirror_phases.nonlocal_phase"),
        "mirror_phases.inner_calls": c.get("mirror_phases.inner_calls", 0),
        "sagnac.phase_calls": calls("sagnac.sagnac_phase"),
        "sagnac.phase_s": incl("sagnac.sagnac_phase"),
        "trajectories.position_calls": c.get("trajectories.position_calls", 0),
        "trajectories.velocity_calls": c.get("trajectories.velocity_calls", 0),
    }


def _run_cli(main, argv: list[str]) -> int:
    """Exit code of one in-process command line. An exception that escapes
    ``casq.cli.main`` ends a ``casq`` process with exit code 1, so it counts
    as exit code 1 here too, and the call's operations count as failed."""
    try:
        return main(argv)
    except Exception:
        traceback.print_exc()
        return 1


def traced_round(wl: workloads.Workload, dump_path: str) -> dict:
    """Run one round of ``wl`` in this process under the tracer."""
    tracer = Tracer()
    main = install(tracer)
    t0 = clock()
    codes = [_run_cli(main, ["--species-db", wl.species_db] + call.args) for call in wl.calls]
    t_round = clock()
    wall = t_round - t0
    metrics = layer_metrics(tracer)
    extra_out = None
    if wl.name == "sagnac_sweep":
        orchestration = {k: metrics[k] for k in ORCHESTRATION_METRICS}
        tracer.dump(dump_path.replace(".json", "_jobs2.json"), {"wall_s": wall})
        tracer.reset()
        call = wl.calls[0]
        extra_out = call.out.replace(".out.json", ".serial.out.json")
        args = list(call.args)
        args[args.index("--jobs") + 1] = "1"
        args[args.index("--out") + 1] = extra_out
        t1 = clock()
        codes.append(_run_cli(main, ["--species-db", wl.species_db] + args))
        wall_serial = clock() - t1
        metrics = layer_metrics(tracer)
        metrics.update(orchestration)
        tracer.dump(dump_path, {"wall_s": wall_serial})
    else:
        tracer.dump(dump_path, {"wall_s": wall})
    return {
        "metrics": metrics,
        "exit_codes": codes,
        "wall_s": wall,
        "after_round_s": clock() - t_round,
        "serial_out": extra_out,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)
    wl = workloads.build(args.workload, args.seed, args.workdir)
    dump = os.path.join(args.workdir, "trace.json")
    result = traced_round(wl, dump)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
