"""The table writer: one piece per row, the bytes of the whole-table
writer, a memory peak that does not grow with the table, and SVG
coordinates that stay on the plot."""

import tracemalloc
from importlib.resources import files

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import casq.scenarios
from casq.cli import main
from casq.scenarios import (
    _CSV_HEADER,
    Report,
    SweepRow,
    _chunks,
    _csv_row,
    emit,
    to_canonical_json,
)
from casq.value import IntegralResult


def _whole(obj, fmt: str) -> str:
    """The reference: the table rendered as one document."""
    if isinstance(obj, Report):
        if fmt == "json":
            return to_canonical_json(obj.to_dict())
        obj = [SweepRow("", None, obj)]
    if fmt == "json":
        return to_canonical_json({"rows": [r.to_dict() for r in obj]})
    return _CSV_HEADER + "".join(_csv_row(r) for r in obj)


#: Error text and names: quotes, backslashes, control characters, non-ASCII.
texts = st.one_of(
    st.sampled_from(['say "hi", then', "back\\slash", "\x00\t\n\r\x1f\x7f", "Ωmega ü 😀", ""]),
    st.text(max_size=12),
)
numbers = st.floats()  # NaN and +-inf included: JSON writes them as null
reports = st.builds(
    Report,
    texts,
    texts,
    texts,
    st.builds(
        IntegralResult,
        numbers,
        numbers,
        st.integers(0, 10**6),
        st.booleans(),
        st.dictionaries(texts, numbers, max_size=3),  # the empty breakdown included
        st.one_of(st.none(),  # DCE reports carry a spectrum
                  st.dictionaries(texts, st.lists(numbers, max_size=4).map(tuple), max_size=2)),
    ),
)
param_values = st.one_of(st.none(), numbers)
rows = st.one_of(
    st.builds(SweepRow, texts, param_values, reports),
    st.builds(SweepRow, texts, param_values, st.none(), texts),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(table=st.one_of(reports, st.lists(rows, max_size=4)))
@example(table=[])
@example(table=[SweepRow("y_m", float("nan"), None, 'ParseError: "y_m" \\ \x01 ü')])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_row_pieces_join_to_the_whole_table(fmt, table):
    pieces = list(_chunks(table, fmt))
    assert "".join(pieces) == _whole(table, fmt)
    if isinstance(table, list):
        # a head, one piece per row, and in JSON a tail
        assert len(pieces) == len(table) + (2 if fmt == "json" else 1)


def _sagnac_rows(n: int) -> list[SweepRow]:
    return [
        SweepRow("trajectory.r0_m.1", 1.0e-7 * (1.0 + i / n), Report(
            "Sagnac", "bench-atom", "sagnac.sagnac_phase",
            IntegralResult(-1.2345678901234567e-23 * (1.0 + i), 3.1e-37 * (1.0 + i), 120, True,
                           {"line_integral": 0.5 + i, "prefactor": 1.0 / (1.0 + i)}),
        ))
        for i in range(n)
    ]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_cli_writer_peak_does_not_grow_with_the_table(tmp_path, monkeypatch, fmt):
    scenario = str(files("casq.data").joinpath("scenarios/sagnac_straightline.json"))
    argv = ["sweep", scenario, "--param", "y_m", "--values", "1e-7", "--format", fmt,
            "--out", str(tmp_path / "table")]

    def traced_peak(n: int) -> int:
        table = _sagnac_rows(n)
        monkeypatch.setattr(casq.scenarios, "sweep", lambda *args, **kwargs: table)
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    traced_peak(300)  # first calls fill caches
    small, large = traced_peak(300), traced_peak(3000)
    # 3,000 rows of JSON are about 1.6 MB of text; a few rows are a few KB
    assert abs(large - small) < 256 * 1024


@pytest.mark.parametrize("pts, points", [
    ([(-1e308, -1e308), (1e308, 1e308)], "60,420 580,60"),  # hi - lo overflows
    ([(-1e306, -1e306), (1e306, 1e306)], "60,420 580,60"),  # 520 * (hi - lo) overflows
    ([(-1.0, -1.0), (0.0, 0.0), (1.0, 1.0)], "60,420 320,240 580,60"),
])
def test_svg_coordinates_stay_on_the_plot(pts, points):
    table = [SweepRow("x", x, Report("k", "s", "op", IntegralResult(y, 0.0))) for x, y in pts]
    assert f'points="{points}"' in emit(table, "svg-plotdata")
