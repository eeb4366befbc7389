"""README.md states the code's contract: its tolerance table lists exactly the constants of
chanent.tolerances, each with its value, and every BENCH file and test file it names exists."""

import re
from pathlib import Path

from chanent import tolerances

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def _table_rows() -> list:
    """(name, value) of each constant in the rows under README's Tolerances heading; a row may
    name several constants, with as many comma-separated values."""
    rows = []
    for line in README.split("\n## Tolerances\n", 1)[1].splitlines():
        if line.startswith("| `"):
            names, values = line.split("|")[1:3]
            names, values = re.findall(r"`(\w+)`", names), [float(v) for v in values.split(",")]
            assert len(names) == len(values), line
            rows += zip(names, values)
    return rows


def test_tolerance_table_is_the_tolerances_module():
    rows = _table_rows()
    assert len(rows) == len(dict(rows)), "a constant is listed twice"
    assert dict(rows) == {name: value for name, value in vars(tolerances).items() if name.isupper()}


def test_named_files_exist():
    named = set(re.findall(r"BENCH_[0-9a-f]+\.json|tests/\w+\.py", README))
    assert any(name.startswith("BENCH_") for name in named)
    assert sorted(name for name in named if not (ROOT / name).is_file()) == []
