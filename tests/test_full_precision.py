"""Full-precision output gate.

The golden corpus and the benchmark compare output rounded to 10
significant digits. This test hashes `repr(run(inst, method=m).to_dict())`,
which shows every bit of every float, for all three methods over two input
sets: the corpus inputs, and 1000 seeded random instances per kind from the
corpus generator's plain-`math` builders. A solve error contributes its
type and message instead. A change that means to alter unrounded output
must say so and record the new digests.
"""

import hashlib
import json
import random
from pathlib import Path

from golden.make_corpus import METHODS, RANDOM

from isometry_lab.cli import instance_from_obj, run
from isometry_lab.errors import GeometryError, InternalCheckError, SchemaError, ValidationError

CASES = Path(__file__).resolve().parent / "golden" / "cases"
SEED = 2718
PER_KIND = 1000

# Inputs whose output a later fix changed on purpose. The corpus keeps
# gating them; leaving them out here keeps the digests comparable across
# the fix. sphere_compose near the identity (alpha=2e-10, beta=1e-10)
# failed its geometric route with CoincidentPoints before it was fixed.
_CHANGED_ON_PURPOSE = {"edge_sphere_compose_near_identity"}

CORPUS_DIGEST = "e58e3be137d9ddbdf90908ed1cd0b0009279bf70413a972723bcf1e2118bee72"
RANDOM_DIGEST = "4eb1d05a09c989c9b788aa55343e10791101cf55df7e57c3fd28a40029e62e17"


def _outcome(obj, method: str, tol: float) -> str:
    try:
        return repr(run(instance_from_obj(obj), method=method, tolerance=tol).to_dict())
    except (ValidationError, GeometryError, InternalCheckError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _digest(items) -> str:
    h = hashlib.sha256()
    for obj, tol in items:
        for method in METHODS:
            h.update(_outcome(obj, method, tol).encode("utf-8"))
            h.update(b"\n")
    return h.hexdigest()


def _corpus_items():
    seen = set()
    for case in sorted(CASES.iterdir()):
        if case.name.rsplit("_", 1)[0] in _CHANGED_ON_PURPOSE:
            continue
        argv = json.loads((case / "cmd.json").read_text(encoding="utf-8"))["argv"]
        tol = float(argv[argv.index("--tolerance") + 1]) if "--tolerance" in argv else 1e-9
        try:
            doc = json.loads((case / "input.json").read_bytes())
        except ValueError:
            continue
        for obj in doc if isinstance(doc, list) else [doc]:
            key = (json.dumps(obj, sort_keys=True), tol)
            if key in seen or not isinstance(obj, dict) or obj.get("kind") not in RANDOM:
                continue
            seen.add(key)
            try:
                instance_from_obj(obj)
            except (SchemaError, ValidationError):
                continue
            yield obj, tol


def _random_items():
    rng = random.Random(SEED)
    for make in RANDOM.values():
        for _ in range(PER_KIND):
            yield make(rng), 1e-9


def test_corpus_inputs_keep_every_bit():
    assert _digest(_corpus_items()) == CORPUS_DIGEST


def test_random_instances_keep_every_bit():
    assert _digest(_random_items()) == RANDOM_DIGEST
