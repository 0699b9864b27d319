"""Replay the golden corpus: every case must reproduce its recorded stdout,
stderr, exit code and SVG files byte for byte.

The corpus is written by tests/golden/make_corpus.py; this test only reads
it.
"""

from pathlib import Path

import pytest

from golden.make_corpus import replay

CASES = Path(__file__).resolve().parent / "golden" / "cases"


def _recorded(case: Path) -> dict[str, bytes]:
    return {f.name: f.read_bytes() for f in sorted((case / "out").iterdir())}


def test_corpus_is_present():
    assert len(list(CASES.iterdir())) >= 100


@pytest.mark.parametrize("name", sorted(p.name for p in CASES.iterdir()))
def test_case_reproduces_its_recorded_output(name, tmp_path):
    case = CASES / name
    got = replay(case, tmp_path)
    want = _recorded(case)
    assert sorted(got) == sorted(want)
    for fname in want:
        assert got[fname] == want[fname], f"{name}: {fname} differs"
