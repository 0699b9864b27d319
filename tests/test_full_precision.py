"""Full-precision output gate.

The golden corpus and the benchmark compare output rounded to 10
significant digits. This test hashes `repr(run(inst, method=m).to_dict())`,
which shows every bit of every float, for all three methods over two input
sets: the corpus inputs, and 1000 seeded random instances per kind from the
corpus generator's plain-`math` builders. The random set also hashes
`repr` of each built figure, before the SVG rounds it to 2 decimals. A
solve error contributes its type and message instead. Each set keeps one
digest per (kind, method), so a failure names the outputs that moved. A
change that means to alter unrounded output must say so and record the
new digests of those pairs only.
"""

import hashlib
import json
import random
from pathlib import Path

from golden.make_corpus import METHODS, RANDOM

from isometry_lab.cli import _KINDS, instance_from_obj, run
from isometry_lab.errors import GeometryError, InternalCheckError, SchemaError, ValidationError

CASES = Path(__file__).resolve().parent / "golden" / "cases"
SEED = 2718
PER_KIND = 1000

# Inputs whose output a later fix changed on purpose. The corpus keeps
# gating them; leaving them out here keeps the digests comparable across
# the fix. sphere_compose near the identity (alpha=2e-10, beta=1e-10)
# failed its geometric route with CoincidentPoints before it was fixed; a
# half turn onto the antipode failed the geometric route with AntipodalPoints;
# a point moved by 3e-10 failed the algebraic route with NotIsometric.
_CHANGED_ON_PURPOSE = {"edge_sphere_compose_near_identity", "baseball_half_turn_onto_antipode",
                       "edge_sphere_nearly_fixed_point"}

CORPUS_DIGESTS = {
    "baseball/algebraic": "7902941a3a15ef572a5a2a52efc4910bb24ee7bbf21fb302a1f814038d2d35f3",
    "baseball/both": "ec5fdfe622376f4b4b751bbc1142d6749ebd1d7435630ae78a0537edd2fddf5d",
    "baseball/geometric": "e48d2653c017cf1c3ad8750f7cf1b47f97fd4c87adb761ce0adbde8a56c7ca96",
    "plane_compose/algebraic": "f82833d138770b4d787d45b99cb84d9520612679f882d2c5f97e809769a980e5",
    "plane_compose/both": "e866eb99296824333c58d518017b314976c3725aaf75de95d0c06c1a119726af",
    "plane_compose/geometric": "c52164bcfc232c396baf395b6c4e34e2f870a4a8b8fcc3b702cb404e1416e3c6",
    "plane_recover/algebraic": "45ea498f7609c0f14b4f0acf1c4b2499d8a650079ddf1a8076fb77f0f28a4e24",
    "plane_recover/both": "ead882587838583d07952f5dd46061a473877ff87a9f4f27174967452d7aba1f",
    "plane_recover/geometric": "f8a4426c4ccea64dadc559f771d9ccf113c9d72597e25d063ec43023e89d9579",
    "plane_reflections/algebraic": "21b694a59371a112d2cae7a8c8250928bad9719e065511cb98992be7ec206c8c",
    "plane_reflections/both": "21b694a59371a112d2cae7a8c8250928bad9719e065511cb98992be7ec206c8c",
    "plane_reflections/geometric": "21b694a59371a112d2cae7a8c8250928bad9719e065511cb98992be7ec206c8c",
    "sphere_compose/algebraic": "ab4f5d84857ae726437e98f5df1713693d0a98afd44cebc6d96951b3216a22ff",
    "sphere_compose/both": "399e7582cc8c95adaf307a0a1d4673e4f0357d8130b2ff2940e72b427ab5c7e4",
    "sphere_compose/geometric": "1d8c71f18ed11a1ffd72e93c8c5288d9489497a5b845d5f5e75695a558a0b2af",
    "sphere_recover/algebraic": "38c05c981ada70b4e6a4f4d68ac3ff3c18ed52cce98204c2453ed44368518616",
    "sphere_recover/both": "783a01fe1fdfa46a048f09e7ed553b57ff13ac051c0fd8fabc25562e0159b0fd",
    "sphere_recover/geometric": "26e0f9cb6ef817f7103431e894f297d904146d1c728d9759cfa54c41bef0c1c4",
}

RANDOM_DIGESTS = {
    "baseball/algebraic": "a6362ac4720b6d219ed1a4a206c5026057fbccd80b073610c0ff022397b80a06",
    "baseball/both": "58d188ba7e7d7f4adb3f825ccb4c75f65fe301525df85240ae7005943c668099",
    "baseball/geometric": "39eda36abc6380c49d569b5666c20f419fa46dc03dec96257693bc1c4b8ea72a",
    "plane_compose/algebraic": "59567f78b584cb7d0ef505a8f4f12293b447d3b0ebd70e8a2d63a01e013a3148",
    "plane_compose/both": "8b0cf23c44d1002788d04bff8164ecd69a8562bf6c21b5d08899e59e411e8ca1",
    "plane_compose/geometric": "cdbcca00d93a1f9474b95a47c10f3ea593517c30f6cd207bafcdb4af89374c85",
    "plane_recover/algebraic": "928f417e9a8289696d23f09da4a88fbf57ababc721bfdae9b3e21301bdde7b07",
    "plane_recover/both": "9d3b61d8adaca6221928c1c01d25a3ad594f7908a8e0eab05b6ffff56b24a7b4",
    "plane_recover/geometric": "81bfeffb466c78558af9698debc5a3a56041c19a9998a3ae3805811c07b4fdc3",
    "plane_reflections/algebraic": "b40b4b41a2aff53cbb0affd401a88f8872fb7d7c5dfb2b5d59fd999b2e0fc25b",
    "plane_reflections/both": "b40b4b41a2aff53cbb0affd401a88f8872fb7d7c5dfb2b5d59fd999b2e0fc25b",
    "plane_reflections/geometric": "b40b4b41a2aff53cbb0affd401a88f8872fb7d7c5dfb2b5d59fd999b2e0fc25b",
    "sphere_compose/algebraic": "aec0b3629dc11c0aee1e1bcc3ad72e838155b5cb080d892cbb7fa4c588db7a3c",
    "sphere_compose/both": "d714b4b570c48b7c7711c7efd20cc6c17d7bcc24e50fe1e4cb44a04ca6e1f5e7",
    "sphere_compose/geometric": "c4a96c42f19202b54fa18cb890de3fb62182b5a9be6d2e160da252fdb5a55900",
    "sphere_recover/algebraic": "71a57f90188885012ca5761aa407971b028a022de319778019dfffddabe7f479",
    "sphere_recover/both": "f3a10974ef2723c05a37082b51f51a9d427a8cde3a781df463475ff1d3961997",
    "sphere_recover/geometric": "3bf16cb9392a49518b1b71e279eb02a085fb926e707ae144c303d13196238d3d",
}


# repr(figure()) per random instance: every bit of the built scene
FIGURE_DIGESTS = {
    "baseball/algebraic": "91440f4177009ababe04785908329f397e9e6088ff0a5e44802c75f16567fe72",
    "baseball/both": "91440f4177009ababe04785908329f397e9e6088ff0a5e44802c75f16567fe72",
    "baseball/geometric": "26bf73343f2136b64994415625e94a2aafd09817280c2a57c2d8b0f13e52f137",
    "plane_compose/algebraic": "e04e5b00f1e86be10dddb1655c7fdc1d037715a934877aa97e1eb233d1897719",
    "plane_compose/both": "e04e5b00f1e86be10dddb1655c7fdc1d037715a934877aa97e1eb233d1897719",
    "plane_compose/geometric": "aee67fd26d4640f8005770b1aa3bd0dbae145f6d7ce11c16bf8b8ed266f146b1",
    "plane_recover/algebraic": "2b2838aaf3b2f6f233e19b8b407eea0721fb5ea7c651bc6af0d27754b8de1212",
    "plane_recover/both": "2b2838aaf3b2f6f233e19b8b407eea0721fb5ea7c651bc6af0d27754b8de1212",
    "plane_recover/geometric": "ea7ad6fc5967b912baac7050eaddc068142789253ffe80153803a55101535d56",
    "plane_reflections/algebraic": "e3582f1160e477536aa5b15287a003e8335442d7dfe322ec0f32f9e2aa747d50",
    "plane_reflections/both": "e3582f1160e477536aa5b15287a003e8335442d7dfe322ec0f32f9e2aa747d50",
    "plane_reflections/geometric": "e3582f1160e477536aa5b15287a003e8335442d7dfe322ec0f32f9e2aa747d50",
    "sphere_compose/algebraic": "3570e824b8afd943aed81be8149248c9f6a7991b19ca80f931735000f8ead6f9",
    "sphere_compose/both": "3570e824b8afd943aed81be8149248c9f6a7991b19ca80f931735000f8ead6f9",
    "sphere_compose/geometric": "d8f1367d776b5898d6463a739322f869889958179a60b244beffd9e01df7cbe4",
    "sphere_recover/algebraic": "8d8651dbcd9d8e6b91de5fb6defa4f4785d597fabbcb98e0d0d45b096f28c599",
    "sphere_recover/both": "8d8651dbcd9d8e6b91de5fb6defa4f4785d597fabbcb98e0d0d45b096f28c599",
    "sphere_recover/geometric": "ffad8b659f15936b2e759e9a6d65dc4917acb43febcde74df9f76a28bef4ab70",
}


def _outcome(obj, method: str, tol: float) -> str:
    try:
        return repr(run(instance_from_obj(obj), method=method, tolerance=tol).to_dict())
    except (ValidationError, GeometryError, InternalCheckError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _figure(obj, method: str, tol: float) -> str:
    inst = instance_from_obj(obj)
    try:
        _, figure = _KINDS[inst.kind].solve(inst.payload, method, tol)
        return repr(figure())
    except (ValidationError, GeometryError, InternalCheckError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _digests(items, outcome=_outcome) -> dict[str, str]:
    """One SHA-256 per "kind/method", over that pair's outcomes in input order."""
    hashes = {}
    for obj, tol in items:
        for method in METHODS:
            h = hashes.setdefault(f"{obj['kind']}/{method}", hashlib.sha256())
            h.update(outcome(obj, method, tol).encode("utf-8"))
            h.update(b"\n")
    return {key: h.hexdigest() for key, h in sorted(hashes.items())}


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
    assert _digests(_corpus_items()) == CORPUS_DIGESTS


def test_random_instances_keep_every_bit():
    assert _digests(_random_items()) == RANDOM_DIGESTS


def test_random_figures_keep_every_bit():
    assert _digests(_random_items(), _figure) == FIGURE_DIGESTS
