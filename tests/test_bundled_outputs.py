"""Bundled scenarios against frozen reference outputs.

``tests/data`` holds the bytes that ``casq run --format json|csv|svg-plotdata``
printed for each bundled scenario, and that one sweep printed, when the
files were made. A change that moves any output byte fails here; when the
change is meant to, regenerate the file and say why in the changelog.
"""

from importlib.resources import files
from pathlib import Path

import pytest

from casq.cli import main

DATA = Path(__file__).parent / "data"
SCENARIOS = files("casq.data").joinpath("scenarios")
NAMES = sorted(p.name[: -len(".json")] for p in SCENARIOS.iterdir() if p.name.endswith(".json"))
#: Output format -> reference file extension.
FORMATS = {"json": "json", "csv": "csv", "svg-plotdata": "svg"}


def _cli_stdout(capsys, argv) -> str:
    capsys.readouterr()
    assert main(argv) == 0
    return capsys.readouterr().out


def test_every_bundled_scenario_has_references():
    assert len(NAMES) == 9
    for name in NAMES:
        assert all((DATA / f"{name}.{ext}").is_file() for ext in FORMATS.values())


@pytest.mark.parametrize("fmt", list(FORMATS))
@pytest.mark.parametrize("name", NAMES)
def test_run_matches_reference(capsys, name, fmt):
    out = _cli_stdout(capsys, ["run", str(SCENARIOS.joinpath(f"{name}.json")), "--format", fmt])
    assert out == (DATA / f"{name}.{FORMATS[fmt]}").read_text(encoding="utf-8")


@pytest.mark.parametrize("fmt", list(FORMATS))
def test_sweep_with_failed_row_matches_reference(capsys, fmt):
    argv = [
        "sweep", str(SCENARIOS.joinpath("sagnac_symmetric.json")),
        "--param", "y1_m", "--values=1e-7,-1e-7,2e-7", "--format", fmt,
    ]
    out = _cli_stdout(capsys, argv)
    assert out == (DATA / f"sweep_sagnac_symmetric.{FORMATS[fmt]}").read_text(encoding="utf-8")
