"""qfilter benchmark: seeded workloads against the public API, end to end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload exact_suite --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10
    python3 perfbench/run.py --workload exact_suite --seed 1 --item 19   # replay one item
    python3 -m pytest perfbench/tests                                    # the benchmark's own tests

``--trace 0`` measures the end-to-end metrics with nothing wrapped:

* ``setup_s``: a fresh interpreter's start, ``import qfilter`` and input
  generation, up to the first item (median of SETUP_PROBES processes,
  after one unmeasured warm-up process);
* ``throughput``: items per second, the median over windows of whole input
  cycles.  An item is a trajectory-step (lockstep_batch), an instance
  (exact_suite), a replay (proof_replay) or a command (cli_session);
* ``item_p50_ms`` and ``item_tail_ms``: per-item latency of the items that
  passed; the tail is the highest percentile with TAIL_BEYOND items beyond
  it, and the output names that percentile and the sample count;
* ``peak_rss_mb``: peak resident memory of the measuring process;
* ``pass_frac``: 1 - failed/attempted items, where a crash or a broken
  correctness gate fails an item (the failed fraction itself would be 0 on
  three workloads, and a benchmark metric must never be 0).

Times are scaled to a fixed host speed (see REFERENCE_S); wall-clock medians
are printed beside them.

``--trace 1`` first runs the workload untraced for half the time, then wraps
the public functions of every ``qfilter`` module and the numpy kernels they
call, rebuilds the inputs and reruns exactly the same items, checks that both
passes give the same digest, and reports per-layer metrics (calls, self time
and errors per span, counts read from public results) plus the tracing
overhead as traced/untraced throughput.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A workload may
expose a known defect on purpose (the near-null slice of ``exact_suite``
hits the "not positive semidefinite" crash).  Those items run on every pass
and are never skipped: they count in ``attempted`` and lower ``pass_frac``,
and a separate line prints how many of them failed.  ``failed`` counts only
the other failures, each of which also makes ``correct`` false and the exit
code 1, so a run whose result is correct reports ``failed`` = 0.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 7
# Times are reported at a fixed host speed: each item's time is scaled by
# REFERENCE_S / t_ref, where t_ref is the mean time of a short fixed reference
# (a pure-Python loop plus small Hermitian eigendecompositions, the two kinds
# of work the workloads mix) taken right before and right after the item.  On
# a shared host whose speed swings by tens of percent over seconds, sampling
# the host's speed around every item cancels most of the swing; wall-clock
# figures are printed beside the scaled ones.
REFERENCE_LOOP = 1_000
REFERENCE_MATRICES = (lambda a: a + a.conj().transpose(0, 2, 1))(
    np.random.default_rng(0).standard_normal((4, 3, 3, 2)) @ np.array([1.0, 1.0j])
)
_eigh = np.linalg.eigh  # bound here, so a traced run never counts the reference's calls
REFERENCE_S = 2e-4  # about the reference's median time on the 2-vCPU Xeon host the bounds were set on
REFERENCE_PROBES = 25  # reference samples taken around a set-up probe
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
SUBPROCESS_TIMEOUT_S = 170

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "throughput": "items/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "pass_frac": "fraction",
}

# Span names reported per layer; every other wrapped function still appears
# in the printed table.  Each span contributes .calls, .self_s and .errors.
REPORTED_SPANS = (
    "numpy.eigh",
    "numpy.eigvalsh",
    "numpy.svd",
    "numpy.qr",
    "numpy.einsum",
    "rng.default_rng",
    "linalg.hermitian_eig",
    "linalg.psd_sqrt",
    "linalg.trace_abs",
    "linalg.complete_isometry",
    "states.make_density",
    "states.random_density",
    "channels.random_channel",
    "channels.apply_channel",
    "channels.outcome_probs",
    "channels.conditional_update",
    "measures.fidelity",
    "measures.trace_distance",
    "measures.frobenius_inner",
    "filtering.batch_statistics",
    "filtering.simulate",
    "filtering.step_joint",
    "filtering.write_trajectory_csv",
    "verify.check_fidelity_submartingale",
    "verify.check_kraus_monotonicity",
    "verify.check_mean_evolution",
    "verify.measure_gap_report",
    "verify.counterexample_report",
    "dilation.replay_proof",
    "dilation.stinespring",
    "dilation.uhlmann_pair",
    "cli.run",
)
SPAN_FIELDS = {"calls": "count", "self_s": "s", "errors": "count"}
COUNTS = {  # read from public results, summed over items
    "filtering.fallbacks": "count",
    "verify.fallback_blocks": "count",
    "dilation.lift_bytes": "bytes",  # computed as 16 (n^2 m)^2 per replay
    "cli.bytes_written": "bytes",
}
PER_LAYER = {
    **{f"{s}.{f}": unit for s in REPORTED_SPANS for f, unit in SPAN_FIELDS.items()},
    **COUNTS,
    "trace.throughput_ratio": "ratio",  # traced / untraced throughput on the same items
}

QFILTER_MODULES = ("linalg", "states", "channels", "measures", "filtering", "verify", "dilation", "cli")


@dataclass
class Failure:
    item: int
    message: str
    tolerated: bool


@dataclass
class RunResult:
    """What one pass over a workload's items measured."""

    items: int = 0
    attempted_units: int = 0
    failed_units: int = 0  # every failed item, the known defect's too
    tolerated_units: int = 0  # the failed items that are the known defect a workload exposes
    unit_latencies_s: list[float] = field(default_factory=list)  # successful items, reference-scaled
    window_rates: list[float] = field(default_factory=list)  # units per reference-scaled busy second
    raw_window_rates: list[float] = field(default_factory=list)  # units per wall-clock busy second
    failures: list[Failure] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    prefix_items: int = 0
    prefix_digest: str = ""
    digest: str = ""

    @property
    def throughput(self) -> float:
        return statistics.median(self.window_rates)

    @property
    def unexpected(self) -> list[Failure]:
        return [f for f in self.failures if not f.tolerated]


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with TAIL_BEYOND samples beyond it.

    With N sorted samples that is the (N - TAIL_BEYOND)-th smallest, at
    percentile 100 (N - TAIL_BEYOND) / N.  With N <= TAIL_BEYOND no
    percentile qualifies and the maximum is returned as percentile 100.
    """
    xs = sorted(samples)
    if not xs:
        raise ValueError("no samples")
    if len(xs) <= TAIL_BEYOND:
        return 100.0, xs[-1]
    k = len(xs) - TAIL_BEYOND
    return 100.0 * k / len(xs), xs[k - 1]


def reference_time(clock=time.perf_counter) -> float:
    """Duration of the fixed reference work: the host's speed right now."""
    start, x = clock(), 0
    for j in range(REFERENCE_LOOP):
        x += j * j
    for a in REFERENCE_MATRICES:
        w, v = _eigh(a)
        (v * w) @ v.conj().T
    return clock() - start


def reference_median() -> float:
    return statistics.median(reference_time() for _ in range(REFERENCE_PROBES))


def measure(
    workload,
    seconds: float | None,
    items: int | None = None,
    clock=time.perf_counter,
    reference=reference_time,
) -> RunResult:
    """Run items 0, 1, ... until `seconds` have passed (or exactly `items` items).

    A timed run stops only at a window boundary and never before the digest
    prefix is complete, so every run covers whole cycles of the input mix.
    The reference is timed before the first item and after every item; an
    item's time is scaled by REFERENCE_S over the mean of the two reference
    times around it, and a window's rate is its units over its scaled time.
    """
    res = RunResult()
    prefix, whole = hashlib.sha256(), hashlib.sha256()
    units = workload.units_per_item
    window_busy = window_scaled = 0.0
    ref_before = reference(clock)
    start = clock()
    i = 0
    while True:
        if items is not None:
            if i >= items:
                break
        elif i >= workload.digest_items and i % workload.window == 0 and clock() - start >= seconds:
            break
        t0 = clock()
        try:
            out = workload.run_item(i)
            error = out.violation
        except Exception as exc:  # a crash is a failed item; the run goes on
            out, error = None, f"{type(exc).__name__}: {exc}"
        busy = clock() - t0
        ref_after = reference(clock)
        scaled = busy * 2 * REFERENCE_S / (ref_before + ref_after)
        ref_before = ref_after
        payload = out.digest if error is None else f"FAILED {error}".encode()
        whole.update(payload)
        if i < workload.digest_items:
            prefix.update(payload)
        res.attempted_units += units
        if error is None:
            res.unit_latencies_s.append(scaled / units)
            for key, value in out.counts.items():
                res.counts[key] = res.counts.get(key, 0) + value
        else:
            res.failed_units += units
            res.failures.append(Failure(i, error, workload.tolerated(i)))
            if workload.tolerated(i):
                res.tolerated_units += units
        window_busy += busy
        window_scaled += scaled
        i += 1
        if i % workload.window == 0 or i == items:
            done = (i - 1) % workload.window + 1  # items in this window
            res.raw_window_rates.append(done * units / window_busy)
            res.window_rates.append(done * units / window_scaled)
            window_busy = window_scaled = 0.0
    res.items, res.prefix_items = i, min(i, workload.digest_items)
    res.prefix_digest, res.digest = prefix.hexdigest()[:16], whole.hexdigest()[:16]
    return res


def check_once(workload, res: RunResult) -> None:
    """Fold the workload's once-per-run check into `res` as one more attempted item."""
    try:
        out = workload.once()
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
    else:
        if out is None:
            return
        error = out.violation
    res.attempted_units += 1
    if error is not None:
        res.failed_units += 1
        res.failures.append(Failure(-1, error, False))


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """(wall, reference-scaled) seconds from spawning a fresh interpreter to its inputs being ready.

    The reference is sampled REFERENCE_PROBES times right before and right after the probe.
    """
    ref_before = reference_median()
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=SUBPROCESS_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up probe for {workload} failed with exit code {code}")
    return elapsed, elapsed * 2 * REFERENCE_S / (ref_before + reference_median())


def machine_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "os_threads": _os_threads(),
        "commit": _git_commit(ROOT),
    }


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads() -> int | str:
    """Thread count OpenBLAS reports at run time, read from the loaded library."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return "unknown"
    libs = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()})
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return "unknown"


def _os_threads() -> int | str:
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                return int(line.split()[1])
    except OSError:
        pass
    return "unknown"


def _git_commit(root: Path) -> str:
    """HEAD commit read from the .git directory, without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def trace_targets() -> tuple[dict, list]:
    """Span name -> function for every wrapped function, and the namespaces to rebind."""
    import numpy

    targets = {
        "numpy.eigh": numpy.linalg.eigh,
        "numpy.eigvalsh": numpy.linalg.eigvalsh,
        "numpy.svd": numpy.linalg.svd,
        "numpy.qr": numpy.linalg.qr,
        "numpy.einsum": numpy.einsum,
        "rng.default_rng": numpy.random.default_rng,
    }
    for short in QFILTER_MODULES:
        for name, fn in spans.public_functions(importlib.import_module(f"qfilter.{short}")).items():
            targets[f"{short}.{name}"] = fn
    namespaces = [numpy, numpy.linalg, numpy.random]
    namespaces += [m for name, m in sorted(sys.modules.items()) if name == "qfilter" or name.startswith("qfilter.")]
    return targets, namespaces


def run_end_to_end(name: str, seed: int, seconds: float) -> tuple[dict, RunResult]:
    import workloads

    probe_setup(name, seed)  # warm-up: brings the interpreter and library files into the page cache
    setups = [probe_setup(name, seed) for _ in range(SETUP_PROBES)]
    wl = workloads.WORKLOADS[name](seed)
    try:
        res = measure(wl, seconds)
        check_once(wl, res)
    finally:
        wl.close()
    tail_pct, tail_s = tail(res.unit_latencies_s)
    print(f"# setup probes, wall (s): {', '.join(f'{wall:.4f}' for wall, _ in setups)}")
    print(f"# wall-clock medians: setup {statistics.median(w for w, _ in setups):.4f} s, "
          f"throughput {statistics.median(res.raw_window_rates):.6g} {END_TO_END['throughput']}")
    print(
        f"# latency samples: {len(res.unit_latencies_s)} successful items; "
        f"item_tail_ms is p{tail_pct:.2f} ({TAIL_BEYOND} samples beyond it)"
    )
    print(f"# throughput windows: {len(res.window_rates)} of {wl.window} items")
    metrics = {
        "setup_s": statistics.median(scaled for _, scaled in setups),
        "throughput": res.throughput,
        "item_p50_ms": 1e3 * statistics.median(res.unit_latencies_s),
        "item_tail_ms": 1e3 * tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_frac": 1.0 - res.failed_units / res.attempted_units,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}, res


def run_traced(name: str, seed: int, seconds: float) -> tuple[dict, RunResult, list[str]]:
    import workloads

    wl = workloads.WORKLOADS[name](seed)
    try:
        plain = measure(wl, seconds / 2)
    finally:
        wl.close()

    targets, namespaces = trace_targets()
    tracer = spans.Tracer()
    installed = spans.install(tracer, targets, namespaces)
    try:
        wl = workloads.WORKLOADS[name](seed)
        try:
            traced = measure(wl, None, items=plain.items)
            check_once(wl, traced)
        finally:
            wl.close()
    finally:
        installed.restore()

    problems = [f"wrapper still bound after restore: {slot}" for slot in installed.leftovers()]
    if traced.digest != plain.digest:
        problems.append(f"traced digest {traced.digest} differs from untraced {plain.digest}")
    ratio = traced.throughput / plain.throughput
    print(f"# untraced digest {plain.digest}, traced digest {traced.digest} over {plain.items} items")
    print(f"# tracing overhead: traced/untraced throughput = {ratio:.4f}")
    print(f"# {'span':<40} {'calls':>10} {'self_s':>10} {'total_s':>10} {'errors':>7}")
    for span, st in sorted(tracer.stats.items(), key=lambda kv: -kv[1].self_s):
        if st.calls:
            print(f"# {span:<40} {st.calls:>10} {st.self_s:>10.4f} {st.total_s:>10.4f} {st.errors:>7}")

    values = {}
    for metric in PER_LAYER:
        span, _, fld = metric.rpartition(".")
        if fld in SPAN_FIELDS and span in REPORTED_SPANS:
            values[metric] = getattr(tracer.stats.get(span, spans.SpanStats()), fld)
        elif metric in COUNTS:
            values[metric] = traced.counts.get(metric, 0)
    values["trace.throughput_ratio"] = ratio
    return {k: {"value": v, "unit": PER_LAYER[k]} for k, v in values.items()}, traced, problems


def run_workload(args) -> int:
    print(f"# workload {args.workload}, seed {args.seed}, {args.seconds} s, trace {args.trace}")
    print(f"# machine: {json.dumps(machine_info(), sort_keys=True)}")
    problems: list[str] = []
    if args.trace:
        metrics, res, problems = run_traced(args.workload, args.seed, args.seconds)
    else:
        metrics, res = run_end_to_end(args.workload, args.seed, args.seconds)
    print(f"# digest: first {res.prefix_items} items {res.prefix_digest}, "
          f"all {res.items} items {res.digest}")
    print(f"# failed_frac = {res.failed_units / res.attempted_units:.6f} "
          f"({len(res.failures)} failed items, {len(res.unexpected)} unexpected)")
    if res.tolerated_units:
        print(f"# known defect: {len(res.failures) - len(res.unexpected)} items of the tolerated slice failed "
              f"({res.tolerated_units} of {res.attempted_units} units); counted in pass_frac, not in failed")
    if res.failures:
        shown = ", ".join(str(f.item) for f in res.failures[:50])
        print(f"# failed items (seed {args.seed}; replay with --item N): {shown}"
              + (" ..." if len(res.failures) > 50 else ""))
        for f in (res.unexpected or res.failures)[:5]:
            print(f"#   item {f.item}{'' if f.tolerated else ' [unexpected]'}: {f.message}")
    for key, m in metrics.items():
        print(f"{args.workload} {key} = {m['value']:.6g} {m['unit']}")
    problems += [f"item {f.item}: {f.message}" for f in res.unexpected]
    for p in problems:
        print(f"# CORRECTNESS: {p}")
    correct = not problems
    failed = res.failed_units - res.tolerated_units
    print(json.dumps({"correct": correct, "attempted": res.attempted_units, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, one after another, with one combined result line."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=SUBPROCESS_TIMEOUT_S)
        lines = proc.stdout.splitlines() or [""]
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        combined["correct"] &= proc.returncode == 0 and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = m
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def replay_item(args) -> int:
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    try:
        out = wl.run_item(args.item)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        wl.close()
    print(f"item {args.item}: {'ok' if out.violation is None else out.violation}")
    return 0 if out.violation is None else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="workload name or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--item", type=int, help="replay one item and print its outcome")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (SRC / "qfilter" / "__init__.py").is_file():
        print(f"error: {SRC / 'qfilter'} not found; run from a qfilter checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    import qfilter

    if Path(qfilter.__file__).resolve().parent != SRC / "qfilter":
        print(f"error: imported qfilter from {qfilter.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)} or all")
    if args.setup_probe:
        workloads.WORKLOADS[args.workload](args.seed)
        print("ready", flush=True)
        return 0
    if args.item is not None:
        return replay_item(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
