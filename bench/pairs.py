"""Paired perfbench runs of a parent revision against the working tree.

    python3 bench/pairs.py --parent REV --name NAME --what TEXT \\
        [--claim WORKLOAD:METRIC] [--seed0 40]

Extracts the committed files of REV with ``git archive`` into
``.bench-parent/<commit>/`` (gitignored) and runs
``perfbench/run.py --workload W --seed S --seconds T --trace 0`` there and in
the working tree, for every workload of ``BENCHMARK.json`` and its
``run_seconds`` T. Ten pairs, the fewest that can support a claimed gain:
pair i runs every workload on both sides with seed seed0 + i; the parent
runs first in odd pairs and the working tree first in even pairs. Writes
``BENCH_<NAME>.json`` at the root of the working tree after every pair, so
an interrupted run keeps the pairs it finished, and prints one line per
workload and metric at the end. Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tarfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True).stdout


def extract_parent(rev: str) -> str:
    """A fresh copy of the committed files of ``rev``; returns its directory."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    dest = os.path.join(ROOT, ".bench-parent", commit[:12])
    shutil.rmtree(dest, ignore_errors=True)
    os.makedirs(dest)
    with tarfile.open(fileobj=io.BytesIO(git("archive", commit)), mode="r:") as tar:
        tar.extractall(dest)
    return dest


def run_once(root: str, workload: str, seed: int, seconds: int) -> dict:
    """One ``perfbench/run.py`` run in ``root``: its printed summary."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(argv)} in {root} printed nothing:\n{proc.stderr}")
    return json.loads(lines[-1])


def machine() -> str:
    dont_write = os.environ.get("PYTHONDONTWRITEBYTECODE")
    caches = (f"PYTHONDONTWRITEBYTECODE={dont_write} (no bytecode caches are written, so every "
              "casq process compiles casq)" if dont_write
              else "PYTHONDONTWRITEBYTECODE unset (bytecode caches are written and reused)")
    return (f"{os.cpu_count()}-CPU {platform.system()} {platform.machine()}, "
            f"Python {platform.python_version()}, {caches}")


def summarize(parent: list[float], change: list[float]) -> dict:
    def quartiles(xs):
        if len(xs) < 2:
            return [xs[0], xs[0]]
        q = statistics.quantiles(xs, n=4)
        return [round(q[0], 4), round(q[2], 4)]

    p_med, c_med = statistics.median(parent), statistics.median(change)
    return {
        "pairs": len(parent),
        "parent": parent,
        "change": change,
        "parent_median": round(p_med, 4),
        "parent_quartiles": quartiles(parent),
        "change_median": round(c_med, 4),
        "change_quartiles": quartiles(change),
        "change_lower_in_pairs": sum(c < p for p, c in zip(parent, change)),
        "median_change_rel": round(c_med / p_med - 1.0, 4),
    }


def report(runs: dict, args, metrics: list[str], seconds: int) -> dict:
    """The ``BENCH_*.json`` document for the runs so far."""
    workloads = {}
    for wl, sides in runs.items():
        if not sides["parent"]:
            continue
        doc = {"operations_failed/attempted": {
            side: [sum(r["failed"] for r in sides[side]), sum(r["attempted"] for r in sides[side])]
            for side in ("parent", "change")
        }, "correct": {side: all(r["correct"] for r in sides[side]) for side in ("parent", "change")}}
        for m in metrics:
            doc[m] = summarize(*([round(r["metrics"][m]["value"], 4) for r in sides[side]]
                                 for side in ("parent", "change")))
        workloads[wl] = doc
    claimed = None
    if args.claim:
        wl, metric = args.claim.split(":")
        claimed = {"workload": wl, "metric": metric}
    return {
        "what": args.what,
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds} --trace 0",
        "machine": machine(),
        "method": (
            f"{PAIRS} pairs per workload; pair i uses seed {args.seed0}+i for both sides; "
            "the parent runs first in odd pairs and the change first in even pairs; workloads "
            "interleaved within each pair. The parent is the committed tree of "
            f"{args.parent} ({args.parent_commit}), the change the working tree. Values are each "
            "run's end-to-end metrics (medians over the run's rounds). change_lower_in_pairs "
            "counts pairs where the change read lower; quartiles are the first and third."
        ),
        "claimed": claimed,
        "workloads": workloads,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Paired perfbench runs: a parent revision against the working tree.")
    ap.add_argument("--parent", required=True, help="Git revision of the parent side.")
    ap.add_argument("--name", required=True, help="Writes BENCH_<name>.json.")
    ap.add_argument("--what", required=True, help="What the change does, for the report.")
    ap.add_argument("--claim", default=None, help="WORKLOAD:METRIC the change claims to improve.")
    ap.add_argument("--seed0", type=int, default=40)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    metrics = [m["name"] for m in bench["end_to_end"]]
    seconds = bench["run_seconds"]
    parent_root = extract_parent(args.parent)
    args.parent_commit = os.path.basename(parent_root)
    out = os.path.join(ROOT, f"BENCH_{args.name}.json")

    runs = {wl: {"parent": [], "change": []} for wl in names}
    for i in range(1, PAIRS + 1):
        order = ("parent", "change") if i % 2 else ("change", "parent")
        for wl in names:
            for side in order:
                root = parent_root if side == "parent" else ROOT
                runs[wl][side].append(run_once(root, wl, args.seed0 + i, seconds))
        text = json.dumps(report(runs, args, metrics, seconds), indent=1)
        # one line per list of numbers
        text = re.sub(r"\[\s+([-\d., \n]*?)\s+\]", lambda m: "[" + " ".join(m[1].split()) + "]", text)
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"pair {i}/{PAIRS} done", file=sys.stderr, flush=True)

    for wl, doc in report(runs, args, metrics, seconds)["workloads"].items():
        for m in metrics:
            s = doc[m]
            print(f"{wl:13s} {m:12s} parent {s['parent_median']:.4f} {s['parent_quartiles']} "
                  f"change {s['change_median']:.4f} {s['change_quartiles']} "
                  f"rel {s['median_change_rel']:+.4f} lower {s['change_lower_in_pairs']}/{s['pairs']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
