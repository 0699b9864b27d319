"""Replay the golden corpus: every case must reproduce its recorded stdout,
stderr, exit code and SVG files byte for byte.

The corpus is written by tests/golden/make_corpus.py; this test only reads
it.
"""

from pathlib import Path

import pytest

import isometry_lab.cli as cli
from golden.make_corpus import replay
from helpers import refuse_algebraic_routes

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


@pytest.fixture
def geometric_only(monkeypatch):
    """Make every algebraic route raise. The CLI reaches the geometric sphere
    recovery through spherical._recover_sphere, which serves both routes, so
    that entry point still runs, for the geometric route alone."""
    real = cli._recover_sphere
    refuse_algebraic_routes(monkeypatch)

    def recover(*args):
        methods = args[4]
        if methods != ("geometric",):
            raise AssertionError(f"the {' and '.join(methods)} route ran")
        return real(*args)

    monkeypatch.setattr(cli, "_recover_sphere", recover)


@pytest.mark.parametrize("name", sorted(p.name for p in CASES.glob("*_geometric")))
def test_a_geometric_case_runs_no_algebraic_route(name, tmp_path, geometric_only):
    assert replay(CASES / name, tmp_path) == _recorded(CASES / name)


@pytest.mark.parametrize("name", ["plane_recover_algebraic", "sphere_recover_algebraic"])
def test_the_refusal_stops_an_algebraic_case(name, tmp_path, geometric_only):
    # the check above is not vacuous: the same refusal stops an algebraic case
    with pytest.raises(AssertionError, match="route ran"):
        replay(CASES / name, tmp_path)
