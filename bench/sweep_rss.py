"""Peak memory, wall time and CPU time of one ``casq sweep`` process.

    python3 bench/sweep_rss.py [--rows 1500] [--jobs 1] [--root DIR]

Sweeps the bundled ``sagnac_numeric.json`` over its impact parameter,
``--rows`` log-spaced values inside the near-field range (so no row warns),
and writes the table as JSON to a temporary file. Prints one JSON line: the
exit code, the ``casq`` process's ``ru_maxrss`` in MB, and its wall and CPU
(user + system) seconds.

On Linux a child's ``ru_maxrss`` starts from the resident set of the
process that forked it. So ``casq`` is started by a small ``python3 -S``
launcher, not by this script, and the figure is casq's own peak rather
than a floor set by whatever started it. With ``--jobs`` above 1 the
figures include the workers, which ``casq`` reaps. ``--root`` names the
source tree to run (default: the one holding this script), so two trees can
be compared. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Impact parameters in m: the bundled species' omega_eg * y / c stays
#: below 0.07, under the program's near-field warning at 0.1.
Y_FROM, Y_TO = "3e-10", "1e-8"

# Starts argv[1:] with posix_spawn (no subprocess import) and reports its
# rusage; runs under -S, so the spawned process starts from a small parent.
LAUNCHER = """\
import json, os, sys, time
t0 = time.perf_counter()
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - t0
print(json.dumps({"exit": os.waitstatus_to_exitcode(status),
                  "peak_rss_mb": round(usage.ru_maxrss / 1024.0, 1),
                  "wall_s": round(wall, 4),
                  "cpu_s": round(usage.ru_utime + usage.ru_stime, 4)}))
"""


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rows", type=int, default=1500, help="Sweep rows (2 to 100,000).")
    ap.add_argument("--jobs", type=int, default=1, help="casq sweep --jobs.")
    ap.add_argument("--root", default=ROOT, help="Source tree whose src/ is run.")
    args = ap.parse_args(argv)
    root = os.path.abspath(args.root)
    scenario = os.path.join(root, "src", "casq", "data", "scenarios", "sagnac_numeric.json")
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    env.pop("CASQ_SPECIES_DB", None)
    with tempfile.TemporaryDirectory(prefix="sweep_rss-") as tmp:
        casq = [sys.executable, "-m", "casq", "sweep", scenario,
                "--param", "trajectory.r0_m.1", "--from", Y_FROM, "--to", Y_TO,
                "--points", str(args.rows), "--log", "--jobs", str(args.jobs),
                "--format", "json", "--out", os.path.join(tmp, "sweep.json")]
        proc = subprocess.run([sys.executable, "-S", "-c", LAUNCHER, *casq],
                              env=env, cwd=tmp, capture_output=True, text=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        return 1
    result = json.loads(proc.stdout)
    print(json.dumps({"root": root, "rows": args.rows, "jobs": args.jobs, **result}))
    return 0 if result["exit"] == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
