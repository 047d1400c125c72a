"""Golden outputs of seeded ``qfilter`` commands: write them, or compare them byte for byte.

Each case in CASES runs ``qfilter.cli.run`` in-process, in a fresh working
directory, with ``--output <case>``; its directory here holds every file the
command wrote plus ``run.txt``: the command line, the exit code and stdout.

    python tests/golden/regenerate.py          # rewrite every case's files
    python tests/golden/regenerate.py --check  # exit 1 unless every byte matches

A change that alters outputs on purpose regenerates these files and says
why.  ``tests/test_golden.py`` reruns the cases under tier-1 with a
tolerance (integers exact, floats within 1e-12, fingerprints skipped), so it
also holds on another BLAS build; ``--check`` is the exact comparison.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from qfilter import cli  # noqa: E402

_VERIFY = ["verify", "--n", "3", "--m", "3", "--trials", "8", "--seed", "11"]

#: case name -> qfilter arguments (``--output <case>`` is appended); n <= 4 throughout
CASES = {
    **{
        f"verify_{measure}_{mode}": _VERIFY + ["--measure", measure, "--partition-mode", mode]
        for measure in ("fidelity", "trace_distance", "frobenius", "relative_entropy")
        for mode in ("singleton", "trivial", "random")
    },
    "verify_fidelity_counterexample": _VERIFY + ["--m", "2", "--include-counterexample"],
    "sweep": [
        "sweep", "--n-values", "2,3,4", "--m-values", "2,3", "--partition-sizes", "1,2,3",
        "--trials", "4", "--seed", "13",
    ],
    "sweep_trace_distance": [
        "sweep", "--measure", "trace_distance", "--n-values", "1,3", "--m-values", "1,3", "--trials", "3", "--seed", "17",
    ],
    "dilate": ["dilate", "--random-channel", "3,3", "--random-state", "3,2", "--seed", "3"],
    "dilate_4_2": ["dilate", "--random-channel", "4,2", "--random-state", "4,1", "--seed", "19"],
    "counterexample": ["counterexample"],
    "simulate": [
        "simulate", "--random-channel", "3,2", "--random-state", "3,2", "--steps", "6", "--trajectories", "3",
        "--seed", "7",
    ],
}


def run_case(name: str, workdir: Path) -> dict[str, bytes]:
    """Run case `name` with `workdir` as the working directory: {file name: bytes}, run.txt included."""
    argv = CASES[name] + ["--output", name]
    console = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(console):
            code = cli.run(argv)
    finally:
        os.chdir(cwd)
    out = workdir / name
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}
    files["run.txt"] = f"$ qfilter {' '.join(argv)}\nexit {code}\n{console.getvalue()}".encode()
    return files


def stored(name: str) -> dict[str, bytes]:
    """The golden files of case `name`."""
    return {p.name: p.read_bytes() for p in sorted((HERE / name).iterdir())}


def main(argv: list[str]) -> int:
    check = argv == ["--check"]
    if argv and not check:
        print(__doc__, file=sys.stderr)
        return 2
    differ = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in CASES:
            files = run_case(name, Path(tmp))
            if check:
                if not (HERE / name).is_dir() or stored(name) != files:
                    differ.append(name)
                continue
            shutil.rmtree(HERE / name, ignore_errors=True)
            (HERE / name).mkdir()
            for file, data in files.items():
                (HERE / name / file).write_bytes(data)
    if check:
        for name in differ:
            print(f"golden case {name}: output differs from tests/golden/{name}", file=sys.stderr)
        print(f"{len(CASES) - len(differ)} of {len(CASES)} golden cases match byte for byte")
        return 1 if differ else 0
    print(f"wrote {len(CASES)} golden cases to {HERE}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
