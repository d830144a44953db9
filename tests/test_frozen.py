"""Frozen payloads and goldens: every case of tests/frozen.py, byte for byte, at its thread pins."""

import copy
import math

import pytest

import frozen

CHECKS = [(case, threads) for case in frozen.CASES for threads in case.threads]


@pytest.fixture(scope="module")
def pinned_children():
    # the children compute while the in-process cases run; teardown reaps them
    for threads in frozen.PINS:
        frozen.start(threads)
    yield
    for threads in frozen.PINS:
        frozen.pinned(threads)


@pytest.mark.parametrize(
    "case, threads",
    CHECKS,
    ids=[f"{case.path.stem}:{case.id}@{threads or 'here'}" for case, threads in CHECKS],
)
def test_case_matches_frozen(pinned_children, case, threads):
    if text := frozen.explain(case, frozen.stored(case), frozen.record(case, threads)):
        pytest.fail(text, pytrace=False)


@pytest.mark.parametrize("path", frozen.FILES, ids=lambda p: p.name)
def test_generator_reproduces_every_file(pinned_children, path):
    # `python tests/frozen.py` rewrites this file with these bytes, up to the fingerprint
    assert path.read_bytes() == frozen.render(path, frozen.load(path)["fingerprint"]).encode()


def test_one_ulp_move_is_named_with_its_path_and_size():
    (case,) = (c for c in frozen.CASES if c.id == "copy-demo --seed 1 --dims 2,2")
    want = frozen.stored(case)
    got = copy.deepcopy(want)
    x = got["results"]["copy_report"]["residuals"]["max"]
    got["results"]["copy_report"]["residuals"]["max"] = math.nextafter(x, math.inf)
    text = frozen.explain(case, want, got)
    assert "1 field(s) differ; the first is results.copy_report.residuals.max" in text
    assert f"largest numeric move {math.ulp(x)!r} at results.copy_report.residuals.max" in text
    assert "written on {'log2': " in text and frozen.explain(case, want, want) is None
    # a float.hex entry, as the margins and selection vectors store them, moves the same way
    y = math.nextafter(0.75, 1)
    text = frozen.mismatch({"margins": [(0.75).hex()]}, {"margins": [y.hex()]})
    assert text.endswith(f"largest numeric move {math.ulp(0.75)!r} at margins[0]: 0.75 -> {y!r}")
