"""Rerun the golden commands of tests/golden and compare their outputs with the stored files.

Numbers are compared token by token: two integers exactly, anything else as a
float within 1e-12 (relative above 1), so the test holds on another BLAS
build.  Every other character, flags and verdicts included, must match.
Fingerprints hash float bits, so they are compared only by
``tests/golden/regenerate.py --check``, which compares bytes.
"""

import importlib.util
import math
import re
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location("golden_regenerate", Path(__file__).parent / "golden" / "regenerate.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

FLOAT_TOL = 1e-12
_NUMBER = re.compile(r"([-+]?(?:Infinity|NaN|inf|nan|(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?))")
_FINGERPRINT = re.compile(r"\b[0-9a-f]{16}\b")


def _close(got: str, want: str) -> bool:
    if got == want:
        return True
    if re.fullmatch(r"[-+]?\d+", got) and re.fullmatch(r"[-+]?\d+", want):
        return False  # two integers compare exactly
    a, b = float(got.replace("Infinity", "inf")), float(want.replace("Infinity", "inf"))
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= FLOAT_TOL * max(1.0, abs(b))


def mismatch(got: str, want: str) -> str | None:
    """The first difference of two outputs under the tolerance rule, or None."""
    got_parts = _NUMBER.split(_FINGERPRINT.sub("<fingerprint>", got))
    want_parts = _NUMBER.split(_FINGERPRINT.sub("<fingerprint>", want))
    if len(got_parts) != len(want_parts):
        return f"{len(got_parts) // 2} numbers, expected {len(want_parts) // 2}"
    for i, (g, w) in enumerate(zip(got_parts, want_parts)):
        if g != w if i % 2 == 0 else not _close(g, w):
            return f"{g!r} where the golden file has {w!r} (token {i})"
    return None


@pytest.mark.parametrize("case", sorted(golden.CASES))
def test_golden_outputs(case, tmp_path):
    want = golden.stored(case)
    got = golden.run_case(case, tmp_path)
    assert sorted(got) == sorted(want)
    for name in want:
        diff = mismatch(got[name].decode(), want[name].decode())
        assert diff is None, f"{case}/{name}: {diff}"


def test_the_comparison_tolerates_round_off_only():
    assert mismatch("gap,0.25,3", "gap,0.25000000000000011,3") is None
    assert mismatch("1,0.99999999999999989", "1,1") is None
    assert mismatch("x 1.5e-17 3960cba6af990e83", "x -2e-16 0123456789abcdef") is None
    assert mismatch("Infinity", "Infinity") is None
    assert mismatch("0.25", "0.2500001") is not None
    assert mismatch("blocks 2", "blocks 3") is not None  # integers are exact
    assert mismatch("ok", "VIOLATED") is not None
    assert mismatch("Infinity", "1e308") is not None
    assert mismatch("1,2", "1;2") is not None
