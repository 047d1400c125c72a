"""Every numerical threshold lives in qfilter.tolerances."""

import ast
from pathlib import Path

import qfilter

PACKAGE = Path(qfilter.__file__).parent


def small_float_literals(path: Path) -> list[str]:
    """Float literals with 0 < |x| < 1e-6 in a source file, as 'file:line value'."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        f"{path.name}:{node.lineno} {node.value!r}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and 0 < abs(node.value) < 1e-6
    ]


def test_no_threshold_outside_the_policy_module():
    sources = sorted(p for p in PACKAGE.glob("*.py") if p.name != "tolerances.py")
    assert len(sources) >= 9
    found = [hit for p in sources for hit in small_float_literals(p)]
    assert found == [], "define thresholds in qfilter/tolerances.py: " + ", ".join(found)


def test_the_walk_sees_a_threshold(tmp_path):
    src = tmp_path / "sample.py"
    src.write_text("x = -1e-10\ny = 0.5\nz = 0.0\n")
    assert small_float_literals(src) == ["sample.py:1 1e-10"]

