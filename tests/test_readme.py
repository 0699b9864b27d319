"""The README's library quickstart runs as written and shows what its comments say."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def _quickstart() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quickstart", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_the_library_quickstart_runs():
    names: dict = {}
    exec(_quickstart(), names)
    assert names["out"].angle == pytest.approx(0.93632, abs=1e-5)
    for pivot in (names["iso"].pivot, names["pivot"]):
        assert abs(pivot.x) <= 1e-12 and abs(pivot.y) <= 1e-12
