"""casq benchmark: run one workload through the casq CLI and report metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the program is imported from
the checkout's ``src/`` and nothing needs to be installed. The seed draws
the workload's scenario files (see ``workloads.py``), which are written to
``.perfbench-work/`` at the checkout root together with the raw timings and
trace dumps.

With ``--trace 0`` the benchmark starts the round's ``casq`` processes one
after another, as a user would, and times them from outside. It repeats
whole rounds until ``--seconds`` have passed and reports the median round.
With ``--trace 1`` each round runs in one traced process instead (see
``tracer.py``) and the per-layer metrics are reported. Every round's output
is checked (see ``checks.py``). The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 0 only when every check passed and no
operation failed.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import statistics
import subprocess
import sys
import time

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")

#: Timed ``casq species list`` calls after each round for the set-up metric;
#: the metric is the median over all of a run's calls, so that it samples the
#: machine over the whole run, as the round metrics do.
SETUP_PER_ROUND = 2
#: Fresh interpreters per traced run for the import metrics (median).
IMPORT_REPEATS = 3

_IMPORT_PROBE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import numpy\n"
    "t1 = time.perf_counter()\n"
    "import casq.cli\n"
    "t2 = time.perf_counter()\n"
    "print(t2 - t0, t1 - t0)\n"
)


def declared_metrics(kind: str) -> dict[str, str]:
    """Names and units of the ``end_to_end`` or ``per_layer`` metrics, as
    ``BENCHMARK.json`` declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def casq_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("CASQ_SPECIES_DB", None)
    return env


def become_subreaper() -> None:
    """Adopt orphaned descendants, so their CPU time is counted and they are
    waited for. multiprocessing's resource tracker outlives the ``casq``
    process that started it."""
    libc = ctypes.CDLL(None, use_errno=True)
    pr_set_child_subreaper = 36
    if libc.prctl(pr_set_child_subreaper, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def run_process(argv: list[str], stdout, stderr, env: dict) -> tuple[int, float, int]:
    """Run ``argv`` to completion, then wait for every orphan it left.

    Returns the exit code, the CPU seconds (user + system) of the process and
    all its descendants, and the largest resident set among them in KiB.
    """
    proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, env=env, cwd=ROOT)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    rss = usage.ru_maxrss
    while True:
        try:
            _, _, usage = os.wait4(-1, 0)
        except ChildProcessError:
            break
        cpu += usage.ru_utime + usage.ru_stime
        rss = max(rss, usage.ru_maxrss)
    return proc.returncode, cpu, rss


def casq_argv(wl: workloads.Workload, args: list[str]) -> list[str]:
    return [sys.executable, "-m", "casq", "--species-db", wl.species_db] + args


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def _remove(path: str) -> None:
    try:
        os.remove(path)
    except FileNotFoundError:
        pass


def measure_setup(wl: workloads.Workload, env: dict, repeats: int) -> list[float]:
    """Wall times of ``repeats`` calls of ``casq species list``: interpreter
    start, import, species DB resolve, no computation."""
    argv = casq_argv(wl, ["species", "list"])
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        code, _, _ = run_process(argv, subprocess.DEVNULL, subprocess.DEVNULL, env)
        times.append(time.perf_counter() - t0)
        if code != 0:
            raise RuntimeError(f"casq species list exited {code}")
    return times


def plain_round(wl: workloads.Workload, env: dict) -> tuple[dict, checks.Verdict]:
    """One round of the workload's casq processes, timed from outside."""
    err_paths = [os.path.join(wl.workdir, f"call{i}.stderr") for i in range(len(wl.calls))]
    for call in wl.calls:
        _remove(call.out)
    err_files = [open(p, "wb") for p in err_paths]
    codes, cpu, rss = [], 0.0, 0
    try:
        t0 = time.perf_counter()
        for call, err in zip(wl.calls, err_files):
            code, c, r = run_process(casq_argv(wl, call.args), subprocess.DEVNULL, err, env)
            codes.append(code)
            cpu += c
            rss = max(rss, r)
        wall = time.perf_counter() - t0
    finally:
        for fh in err_files:
            fh.close()
    verdict = checks.check(
        wl, [_read(c.out) for c in wl.calls], [_read(p) for p in err_paths], codes
    )
    return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss / 1024.0}, verdict


def traced_round(wl: workloads.Workload, env: dict, index: int) -> tuple[dict, float, checks.Verdict]:
    """One round in one traced process; returns its per-layer metrics."""
    result_path = os.path.join(wl.workdir, f"trace_result{index}.json")
    err_path = os.path.join(wl.workdir, "traced.stderr")
    for call in wl.calls:
        _remove(call.out)
    _remove(result_path)
    argv = [
        sys.executable, os.path.join(HERE, "tracer.py"),
        "--workload", wl.name, "--seed", str(wl.seed),
        "--workdir", wl.workdir, "--result", result_path,
    ]
    t0 = time.perf_counter()
    with open(err_path, "wb") as err:
        code, _, _ = run_process(argv, subprocess.DEVNULL, err, env)
    wall = time.perf_counter() - t0
    stderr = _read(err_path)
    if code != 0:
        raise RuntimeError(f"traced round exited {code}:\n{stderr}")
    with open(result_path, "r", encoding="utf-8") as fh:
        result = json.load(fh)
    outputs = [_read(c.out) for c in wl.calls]
    verdict = checks.check(wl, outputs, [stderr], result["exit_codes"])
    if result["serial_out"] is not None and _read(result["serial_out"]) != outputs[0]:
        verdict.problems.append("sweep output differs between --jobs 1 and --jobs 2")
    # the traced process from launch to the end of the round, without the
    # serial pass and the dump writing that follow it
    return result["metrics"], wall - result["after_round_s"], verdict


def measure_imports(env: dict) -> dict[str, float]:
    """Fresh-interpreter import time of casq.cli and numpy's part of it."""
    casq_s, numpy_s = [], []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE], env=env, cwd=ROOT,
            capture_output=True, text=True, check=True,
        ).stdout.split()
        casq_s.append(float(out[0]))
        numpy_s.append(float(out[1]))
    return {"import.casq_s": statistics.median(casq_s), "import.numpy_s": statistics.median(numpy_s)}


def rounds_within(seconds: float):
    """Yield once per round: at least one round, then another only while the
    median round so far still fits in ``seconds``."""
    start = time.perf_counter()
    lengths = []
    while True:
        t0 = time.perf_counter()
        yield len(lengths)
        lengths.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(lengths) > seconds:
            return


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark casq end to end (--trace 0) or per layer (--trace 1).")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "casq", "__init__.py")):
        print(f"error: no casq sources under {SRC}", file=sys.stderr)
        return 2
    become_subreaper()
    env = casq_env()
    workdir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    wl = workloads.build(args.workload, args.seed, workdir)

    verdict = checks.Verdict()
    rounds = []
    raw: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    if args.trace:
        units = declared_metrics("per_layer")
        raw["imports"] = imports = measure_imports(env)
        for _ in rounds_within(args.seconds):
            metrics, wall, v = traced_round(wl, env, len(rounds))
            rounds.append({**metrics, "traced_wall_s": wall})
            verdict.merge(v)
        values = {n: imports[n] if n in imports else statistics.median(r[n] for r in rounds)
                  for n in units}
    else:
        units = declared_metrics("end_to_end")
        # one untimed call first: it writes the bytecode caches, which every
        # later call of a user finds in place
        measure_setup(wl, env, 1)
        raw["setup_s"] = setup = []
        for _ in rounds_within(args.seconds):
            metrics, v = plain_round(wl, env)
            rounds.append(metrics)
            verdict.merge(v)
            setup += measure_setup(wl, env, SETUP_PER_ROUND)
        values = {n: statistics.median(r[n] for r in rounds) for n in units if n != "setup_s"}
        values["setup_s"] = statistics.median(setup)
    raw["rounds"] = rounds
    raw["problems"] = verdict.problems
    with open(os.path.join(workdir, "raw.json"), "w", encoding="utf-8") as fh:
        json.dump(raw, fh, indent=1)

    for problem in verdict.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": verdict.correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
    }))
    return 0 if verdict.correct and verdict.failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
