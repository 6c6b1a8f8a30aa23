"""Tests of the benchmark itself: its output checks and the determinism it
relies on. Run from the checkout root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

import checks
import run
import tracer
import workloads

SEED = 1


@pytest.fixture(scope="module")
def round_of(tmp_path_factory):
    """One real round per workload: (workload, outputs, stderrs, verdict)."""
    cache = {}

    def get(name):
        if name not in cache:
            wl = workloads.build(name, SEED, str(tmp_path_factory.mktemp(name)))
            _, verdict = run.plain_round(wl, run.casq_env())
            outputs = [run._read(c.out) for c in wl.calls]
            stderrs = [run._read(f"{wl.workdir}/call{i}.stderr") for i in range(len(wl.calls))]
            cache[name] = (wl, outputs, stderrs, verdict)
        return cache[name]

    return get


def recheck(wl, outputs, stderrs=None):
    return checks.check(wl, outputs, stderrs or [""] * len(outputs), [0] * len(outputs))


def rejected(v: checks.Verdict) -> bool:
    return not v.correct or v.failed > 0


def edit(text: str, fn) -> str:
    obj = json.loads(text)
    fn(obj)
    return json.dumps(obj)


def first_report(obj) -> dict:
    return obj["rows"][0]["report"] if "rows" in obj else obj


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_checks_accept_todays_output(round_of, name):
    wl, outputs, stderrs, verdict = round_of(name)
    assert verdict.problems == []
    assert verdict.failed == 0
    assert verdict.attempted == wl.ops_per_round
    assert recheck(wl, outputs, stderrs).problems == []


def _scale_value(obj):
    first_report(obj)["value"] *= 1.01


def _not_converged(obj):
    first_report(obj)["converged"] = False


def _null_value(obj):
    first_report(obj)["value"] = None


def _drop_row(obj):
    del obj["rows"][len(obj["rows"]) // 2]


CORRUPTIONS = {
    "value_1pct": _scale_value,
    "converged_false": _not_converged,
    "null_value": _null_value,
}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_checks_reject_corrupted_output(round_of, name, corruption):
    wl, outputs, stderrs, _ = round_of(name)
    for i in range(len(outputs)):
        bad = list(outputs)
        bad[i] = edit(outputs[i], CORRUPTIONS[corruption])
        assert rejected(recheck(wl, bad, stderrs)), f"call {i} accepted with {corruption}"


@pytest.mark.parametrize("name", ["dce_sweep", "sagnac_sweep"])
def test_checks_reject_missing_row(round_of, name):
    wl, outputs, stderrs, _ = round_of(name)
    for i in range(len(outputs)):
        bad = list(outputs)
        bad[i] = edit(outputs[i], _drop_row)
        v = recheck(wl, bad, stderrs)
        assert v.failed > 0 and not v.correct


def test_checks_reject_flipped_sagnac_sign(round_of):
    wl, outputs, stderrs, _ = round_of("sagnac_sweep")

    def flip(obj):
        row = obj["rows"][7]["report"]
        row["value"] = -row["value"]

    assert not recheck(wl, [edit(outputs[0], flip)], stderrs).correct


def test_checks_reject_near_field_warning(round_of):
    wl, outputs, _, _ = round_of("sagnac_sweep")
    warning = "scenarios.py:542: NearFieldValidityWarning: closest approach ...\n"
    assert not recheck(wl, outputs, [warning]).correct


def test_checks_reject_nonzero_exit(round_of):
    wl, outputs, stderrs, _ = round_of("mirror_long")
    v = checks.check(wl, outputs, stderrs, [0, 3, 0])
    assert not v.correct


@pytest.mark.parametrize(
    "path",
    [
        ("breakdown", "coefficient"),
        ("series", "dgamma_domega", 0),
    ],
)
def test_dce_checks_reject_corrupted_parts(round_of, path):
    wl, outputs, stderrs, _ = round_of("dce_sweep")

    def scale(obj):
        node = first_report(obj)
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] *= 1.01

    assert not recheck(wl, [edit(outputs[0], scale), outputs[1]], stderrs).correct


def test_dce_spectrum_sum_check_rejects_scaled_spectrum(round_of):
    """Scaling the whole spectrum keeps it symmetric; only the sum check sees it."""
    wl, outputs, stderrs, _ = round_of("dce_sweep")

    def scale(obj):
        series = first_report(obj)["series"]
        series["dgamma_domega"] = [1.01 * d for d in series["dgamma_domega"]]

    v = recheck(wl, [edit(outputs[0], scale), outputs[1]], stderrs)
    assert any("spectrum sums" in p for p in v.problems)


def test_spectrum_sum_bound_is_below_one_percent():
    assert checks.spectrum_sum_bound(workloads.DCE_N_SPECTRUM) < 0.01


@pytest.mark.parametrize("part", ["phi1_qs", "phi2_qs", "phi12", "phi2_mot", "phi1_mot"])
def test_mirror_total_checks_reject_corrupted_parts(round_of, part):
    wl, outputs, stderrs, _ = round_of("mirror_long")

    def corrupt(obj):
        bd = obj["breakdown"]
        # the other parts get a value far above their bound; the total is
        # kept consistent, so only the check on this part can see it
        bd[part] = bd[part] * 1.01 if part.endswith("qs") else 1e-3 * bd["phi1_qs"]
        obj["value"] = (bd["phi1_qs"] + bd["phi1_mot"]) - (bd["phi2_qs"] + bd["phi2_mot"]) + bd["phi12"]

    v = recheck(wl, outputs[:2] + [edit(outputs[2], corrupt)], stderrs)
    assert not v.correct


def test_sagnac_sweep_is_deterministic(round_of, tmp_path):
    """Byte-identical output across runs and between --jobs 1 and --jobs 2."""
    wl, outputs, _, _ = round_of("sagnac_sweep")
    call = wl.calls[0]
    env = run.casq_env()
    for jobs in ("2", "1"):
        out = str(tmp_path / f"sweep_jobs{jobs}.json")
        args = list(call.args)
        args[args.index("--jobs") + 1] = jobs
        args[args.index("--out") + 1] = out
        code, _, _ = run.run_process(
            run.casq_argv(wl, args), subprocess.DEVNULL, subprocess.DEVNULL, env
        )
        assert code == 0
        assert run._read(out) == outputs[0], f"--jobs {jobs} output differs"


def test_workload_inputs_depend_only_on_seed(tmp_path):
    for name in workloads.WORKLOADS:
        a = workloads.build(name, 7, str(tmp_path / "a"))
        b = workloads.build(name, 7, str(tmp_path / "b"))
        c = workloads.build(name, 8, str(tmp_path / "c"))
        assert a.params == b.params
        assert a.params != c.params
        assert [len(x.args) for x in a.calls] == [len(x.args) for x in c.calls]


def test_traced_call_that_raises_counts_as_exit_code_1(capsys):
    def main(argv):
        raise ValueError("escaped casq.cli.main")

    assert tracer._run_cli(main, []) == 1
    assert "ValueError" in capsys.readouterr().err


def test_traced_run_computes_every_declared_layer_metric():
    """The per-layer metrics of BENCHMARK.json are the tracer's layer
    metrics plus the two import times, no more and no fewer. The wrappers
    are installed in a process of their own."""
    probe = "import json, tracer; t = tracer.Tracer(); tracer.install(t); print(json.dumps(list(tracer.layer_metrics(t))))"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=run.casq_env(), cwd=run.HERE,
        capture_output=True, text=True, check=True,
    ).stdout
    computed = set(json.loads(out)) | {"import.casq_s", "import.numpy_s"}
    assert computed == set(run.declared_metrics("per_layer"))
