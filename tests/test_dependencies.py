"""The package imports numpy, its own modules and the standard library, nothing else."""

import ast
import sys
from pathlib import Path

import qfilter

PACKAGE = Path(qfilter.__file__).parent


def foreign_imports(path: Path) -> list[str]:
    """Imports of anything but numpy, qfilter and the standard library, as 'file:line module'."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue  # relative imports stay inside the package
        for name in names:
            top = name.split(".")[0]
            if top not in ("numpy", "qfilter") and top not in sys.stdlib_module_names:
                found.append(f"{path.name}:{node.lineno} {name}")
    return found


def test_the_package_is_numpy_only():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 10
    found = [hit for p in sources for hit in foreign_imports(p)]
    assert found == [], "src/qfilter may import only numpy and the standard library: " + ", ".join(found)


def test_the_walk_sees_a_foreign_import(tmp_path):
    src = tmp_path / "sample.py"
    src.write_text(
        "import json\nimport numpy.linalg as la\nfrom . import measures\nfrom qfilter.states import x\n"
        "def f():\n    import scipy.linalg\n    from hypothesis import given\n"
    )
    assert foreign_imports(src) == ["sample.py:6 scipy.linalg", "sample.py:7 hypothesis"]
