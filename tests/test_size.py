"""The north-star cap on the library's size."""

from pathlib import Path

SOURCES = Path(__file__).parents[1] / "src" / "higgs_lab"
LINE_CAP = 2602  # ROADMAP's north-star cap on src/higgs_lab/*.py


def test_library_lines_stay_within_the_cap():
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SOURCES.glob("*.py"))
    assert lines <= LINE_CAP, f"src/higgs_lab/*.py has {lines} lines, over the cap of {LINE_CAP}"
