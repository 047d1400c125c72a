"""Command-line front end: experiment orchestration, CSV and JSON reports.

Subcommands:

* ``counterexample``  print the embedded 3-level instance report,
* ``simulate``        trajectory CSVs for the coupled chain,
* ``verify``          gap-report CSV over random instances for one measure,
* ``dilate``          dilation + proof-replay report for one instance,
* ``sweep``           worst gaps over a grid of (n, m, partition size).

Each command reads an optional ``--config`` JSON document; flags override
file fields, and the resolved configuration is echoed next to the outputs
for provenance.  Exit codes: 0 success, 1 any inequality-suite failure,
2 configuration error (the diagnostic names the offending field).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import dilation as dilation_mod
from . import filtering, measures, verify
from .channels import (
    channel_from_dict,
    partition_from_dict,
    random_channel,
    random_partition,
    singleton_partition,
    trivial_partition,
)
from .states import make_density, matrix_from_dict, matrix_to_dict, maximally_mixed, random_density
from .tolerances import GAP_TOL, MEAN_EVOLUTION_TOL


class ConfigError(Exception):
    """Bad configuration; the message names the offending field."""


def main() -> None:
    sys.exit(run(sys.argv[1:]))


def run(argv) -> int:
    """Entry point; returns the process exit code instead of raising."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help and unknown flags
        return int(exc.code or 0)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        cfg = _effective_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfilter",
        description="quantum Markov chains, filters, and sub-martingale checks",
    )
    sub = parser.add_subparsers(dest="command")

    def common(p, needs_instance=False):
        p.add_argument("--config", help="JSON config file; flags override its fields")
        p.add_argument("--seed", type=int, help="base seed (required for randomized commands)")
        p.add_argument("--output", help="output directory for CSV/JSON reports")
        if needs_instance:
            p.add_argument("--channel", help="channel JSON file")
            p.add_argument("--random-channel", metavar="N,M", help="generate a random channel")
            p.add_argument("--state", help="true-state JSON file")
            p.add_argument("--random-state", metavar="N[,RANK]", help="generate a random true state")
            p.add_argument("--estimate", help="estimate JSON file (default: maximally mixed)")
            p.add_argument("--partition", help="partition JSON file")

    def tolerance(p, what):
        p.add_argument("--tolerance", type=float, help=f"{what} (default {GAP_TOL})")

    common(sub.add_parser("counterexample", help="print the embedded counter-example report"))

    p = sub.add_parser("simulate", help="simulate coupled trajectories, emit CSV per trajectory")
    common(p, needs_instance=True)
    p.add_argument("--steps", type=int, help="number of transitions")
    p.add_argument("--trajectories", type=int, help="number of trajectories (default 1)")

    p = sub.add_parser("verify", help="gap reports over random instances for one measure")
    common(p)
    tolerance(p, "slack of the wrong-sign verdict on each gap")
    p.add_argument("--measure", choices=sorted(verify.MEASURES), help="measure to check")
    p.add_argument("--trials", type=int, help="number of random instances")
    p.add_argument("--n", type=int, help="state dimension (default 3)")
    p.add_argument("--m", type=int, help="number of Kraus operators (default 3)")
    p.add_argument(
        "--partition-mode",
        choices=("singleton", "trivial", "random"),
        help="partition used per instance (default singleton)",
    )
    p.add_argument(
        "--include-counterexample",
        action="store_true",
        default=None,
        help="prepend the embedded counter-example instance",
    )

    p = sub.add_parser("dilate", help="dilation and proof-replay report for one instance")
    common(p, needs_instance=True)
    tolerance(p, "link tolerance of the proof replay, links (a)-(d)")

    p = sub.add_parser("sweep", help="worst gaps over a grid of n, m, partition sizes")
    common(p)
    tolerance(p, "slack of the wrong-sign verdict on each gap")
    p.add_argument("--n-values", help="comma list of dimensions, e.g. 2,3,4")
    p.add_argument("--m-values", help="comma list of operator counts")
    p.add_argument("--partition-sizes", help="comma list of block counts")
    p.add_argument("--trials", type=int, help="instances per grid cell")
    p.add_argument("--measure", choices=sorted(verify.MEASURES), help="measure (default fidelity)")
    return parser


_DEFAULTS = {
    "counterexample": {"output": None, "seed": None},
    "simulate": {
        "output": ".",
        "seed": None,
        "steps": 10,
        "trajectories": 1,
        "channel": None,
        "random_channel": None,
        "state": None,
        "random_state": None,
        "estimate": None,
        "partition": None,
    },
    "verify": {
        "output": ".",
        "seed": None,
        "tolerance": GAP_TOL,
        "measure": "fidelity",
        "trials": 100,
        "n": 3,
        "m": 3,
        "partition_mode": "singleton",
        "include_counterexample": False,
    },
    "dilate": {
        "output": ".",
        "seed": None,
        "tolerance": GAP_TOL,
        "channel": None,
        "random_channel": None,
        "state": None,
        "random_state": None,
        "estimate": None,
        "partition": None,
    },
    "sweep": {
        "output": ".",
        "seed": None,
        "tolerance": GAP_TOL,
        "n_values": "2,3",
        "m_values": "2,3",
        "partition_sizes": "1,2",
        "trials": 20,
        "measure": "fidelity",
    },
}


def _effective_config(args: argparse.Namespace) -> dict:
    """Merge defaults, the --config document, and command-line flags."""
    cfg = dict(_DEFAULTS[args.command])
    cfg["command"] = args.command
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config: file {path} does not exist")
        try:
            loaded = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config: {path} is not valid JSON ({exc})") from exc
        for key, value in loaded.items():
            if key == "command":
                continue
            if key not in cfg:
                raise ConfigError(f"{key}: unknown field for command {args.command!r}")
            cfg[key] = value
    for key in cfg:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
    return cfg


def _require_seed(cfg: dict) -> int:
    if cfg.get("seed") is None:
        raise ConfigError("seed: required for randomized commands")
    return _int_field(cfg, "seed")


def _int_field(cfg: dict, name: str) -> int:
    try:
        return int(cfg[name])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: expected an integer, got {cfg[name]!r}") from exc


def _positive(name: str, value: int) -> int:
    if value < 1:
        raise ConfigError(f"{name}: must be >= 1, got {value}")
    return value


def _float_field(cfg: dict, name: str) -> float:
    try:
        value = float(cfg[name])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: expected a number, got {cfg[name]!r}") from exc
    if not math.isfinite(value):  # a NaN slack would make every comparison false
        raise ConfigError(f"{name}: must be finite, got {value}")
    return value


def _out_dir(cfg: dict) -> Path:
    out = Path(cfg["output"] or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _echo_config(cfg: dict, out: Path) -> None:
    (out / "config.json").write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")


def _load_json(path_str: str, field: str) -> dict:
    path = Path(path_str)
    if not path.exists():
        raise ConfigError(f"{field}: file {path} does not exist")
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{field}: {path} is not valid JSON ({exc})") from exc


def _child_rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0xC0FFEE, tag)))


def _resolve_instance(cfg: dict):
    """Build (channel, rho, estimate, partition) from files or generator specs."""
    if cfg.get("channel"):
        try:
            ch = channel_from_dict(_load_json(cfg["channel"], "channel"))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"channel: {exc}") from exc
    elif cfg.get("random_channel"):
        parts = str(cfg["random_channel"]).split(",")
        try:
            if len(parts) not in (2, 3):
                raise ValueError
            n, m = int(parts[0]), int(parts[1])
            gen_seed = int(parts[2]) if len(parts) == 3 else _require_seed(cfg)
        except ValueError as exc:
            raise ConfigError(
                f"random_channel: expected N,M or N,M,SEED, got {cfg['random_channel']!r}"
            ) from exc
        try:
            ch = random_channel(n, m, _child_rng(gen_seed, 1))
        except ValueError as exc:
            raise ConfigError(f"random_channel: {exc}") from exc
    else:
        raise ConfigError("channel: provide channel or random_channel")

    if cfg.get("state"):
        try:
            rho = make_density(matrix_from_dict(_load_json(cfg["state"], "state")))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"state: {exc}") from exc
    elif cfg.get("random_state"):
        parts = str(cfg["random_state"]).split(",")
        try:
            n = int(parts[0])
            rank = int(parts[1]) if len(parts) > 1 else n
        except ValueError as exc:
            raise ConfigError(
                f"random_state: expected N or N,RANK, got {cfg['random_state']!r}"
            ) from exc
        try:
            rho = random_density(n, rank, _child_rng(_require_seed(cfg), 2))
        except ValueError as exc:
            raise ConfigError(f"random_state: {exc}") from exc
    else:
        rho = maximally_mixed(ch.dim)

    if cfg.get("estimate"):
        try:
            est = make_density(matrix_from_dict(_load_json(cfg["estimate"], "estimate")))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"estimate: {exc}") from exc
    else:
        est = maximally_mixed(ch.dim)

    partition = None
    if cfg.get("partition"):
        try:
            partition = partition_from_dict(_load_json(cfg["partition"], "partition"))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"partition: {exc}") from exc

    if rho.shape[0] != ch.dim:
        raise ConfigError(f"state: dimension {rho.shape[0]} does not match channel dimension {ch.dim}")
    if est.shape[0] != ch.dim:
        raise ConfigError(f"estimate: dimension {est.shape[0]} does not match channel dimension {ch.dim}")
    if partition is not None and partition.m != ch.num_outcomes:
        raise ConfigError(
            f"partition: covers {partition.m} outcomes, channel has {ch.num_outcomes}"
        )
    return ch, rho, est, partition


def _cmd_counterexample(cfg: dict) -> int:
    try:
        rep = verify.counterexample_report()
    except RuntimeError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    print("embedded 3-level counter-example (2 Kraus operators)")
    print("  trace distance: expected next = 4/3 = {:.17g}".format(rep.d_lhs))
    print("                  current       = 1   = {:.17g}".format(rep.d_rhs))
    print("                  -> NOT a super-martingale (4/3 > 1)")
    print("  fidelity:       expected next = 1/3 = {:.17g}".format(rep.f_lhs))
    print("                  current       = 1/4 = {:.17g}".format(rep.f_rhs))
    print("                  -> sub-martingale gain 1/12 = {:.17g}".format(rep.fidelity_gap))
    print("  relative entropy: {} vs {} ({})".format(rep.s_lhs, rep.s_rhs, rep.rel_entropy_note))
    if cfg.get("output"):
        out = _out_dir(cfg)
        _echo_config(cfg, out)
        report = {"config": cfg, "counterexample": rep.to_dict()}
        (out / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    return 0


def _cmd_simulate(cfg: dict) -> int:
    seed = _require_seed(cfg)
    ch, rho, est, partition = _resolve_instance(cfg)
    steps = _int_field(cfg, "steps")
    n_traj = _positive("trajectories", _int_field(cfg, "trajectories"))
    if steps < 0:
        raise ConfigError(f"steps: must be >= 0, got {steps}")
    sim_cfg = filtering.SimulationConfig(
        channel=ch, rho0=rho, rho_hat0=est, steps=steps, partition=partition, seed=seed
    )
    out = _out_dir(cfg)
    _echo_config(cfg, out)
    final = []
    for i in range(n_traj):
        traj = filtering.simulate(sim_cfg, traj_index=i)
        filtering.write_trajectory_csv(traj, out / f"trajectory_{i:04d}.csv")
        last = traj.steps[-1]
        final.append(measures.fidelity(last.estimate, last.true_state))
    report = {
        "config": cfg,
        "config_fingerprint": sim_cfg.fingerprint(),
        "trajectories": n_traj,
        "steps": steps,
        "final_fidelity_mean": float(np.mean(final)),
        "final_fidelity_min": float(np.min(final)),
    }
    (out / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {n_traj} trajectory CSV(s) to {out}")
    return 0


def _cmd_verify(cfg: dict) -> int:
    seed = _require_seed(cfg)
    measure = cfg["measure"]
    if measure not in verify.MEASURES:
        raise ConfigError(f"measure: unknown measure {measure!r}")
    trials = _positive("trials", _int_field(cfg, "trials"))
    n, m = _positive("n", _int_field(cfg, "n")), _positive("m", _int_field(cfg, "m"))
    mode = cfg["partition_mode"]
    if mode not in ("singleton", "trivial", "random"):
        raise ConfigError(f"partition_mode: unknown mode {mode!r}")
    tol = _float_field(cfg, "tolerance")
    submartingale = measure in verify.SUBMARTINGALE_MEASURES

    rng = np.random.default_rng(seed)
    reports = []
    worst_mean_evo = 0.0
    if cfg.get("include_counterexample"):
        ch, sigma, rho = verify.counterexample_instance()
        reports.append(verify.measure_gap_report(ch, sigma, rho, measure, tol=tol))
    full_rank = measure == "relative_entropy"
    for ch, sigma, rho, partition in verify.random_instances(n, m, trials, rng, mode, full_rank):
        reports.append(verify.measure_gap_report(ch, sigma, rho, measure, partition, tol=tol))
        worst_mean_evo = max(worst_mean_evo, verify.check_mean_evolution(ch, rho, partition))

    out = _out_dir(cfg)
    _echo_config(cfg, out)
    verify.write_gap_reports_csv(reports, out / "gap_reports.csv")
    gaps = [r.gap for r in reports if not math.isinf(r.gap) and not math.isnan(r.gap)]
    violations = [r for r in reports if not r.passed]
    failed = (submartingale and bool(violations)) or worst_mean_evo > MEAN_EVOLUTION_TOL
    report = {
        "config": cfg,
        "instances": len(reports),
        "min_gap": min(gaps) if gaps else None,
        "max_gap": max(gaps) if gaps else None,
        "violations": len(violations),
        "mean_evolution_max_deviation": worst_mean_evo,
        "passed": not failed,
    }
    (out / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    print(
        "{}: {} instances, {} wrong-sign gaps, mean-evolution deviation {:.3e}".format(
            measure, len(reports), len(violations), worst_mean_evo
        )
    )
    return 1 if failed else 0


def _cmd_dilate(cfg: dict) -> int:
    ch, rho, est, partition = _resolve_instance(cfg)
    rep = dilation_mod.replay_proof(ch, est, rho, partition, link_tol=_float_field(cfg, "tolerance"))
    print("proof replay: n={}, m={}, blocks={}".format(
        ch.dim, ch.num_outcomes, len(rep.blocks)))
    print(f"  fidelity(estimate, state)     = {rep.fidelity_current:.12g}")
    print(f"  expected next-step fidelity   = {rep.expected_next_fidelity:.12g}")
    for name in sorted(rep.links_hold):
        print("  link {:<24} residual {:+.3e}  {}".format(
            name, rep.link_residuals[name], "ok" if rep.links_hold[name] else "VIOLATED"))
    if cfg.get("output"):
        out = _out_dir(cfg)
        _echo_config(cfg, out)
        dil = rep.dilation
        report = {
            "config": cfg,
            "replay": rep.to_dict(),
            "dilation": {
                "dim": dil.dim,
                "env_dim": dil.env_dim,
                "unitary": matrix_to_dict(dil.unitary),
            },
        }
        (out / "replay.json").write_text(json.dumps(report, indent=2, allow_nan=False) + "\n")
    return 0 if rep.all_links_hold else 1


def _cmd_sweep(cfg: dict) -> int:
    seed = _require_seed(cfg)
    measure = cfg["measure"]
    if measure not in verify.MEASURES:
        raise ConfigError(f"measure: unknown measure {measure!r}")
    try:
        n_values = [int(v) for v in str(cfg["n_values"]).split(",")]
        m_values = [int(v) for v in str(cfg["m_values"]).split(",")]
        p_values = [int(v) for v in str(cfg["partition_sizes"]).split(",")]
    except ValueError as exc:
        raise ConfigError(f"n_values/m_values/partition_sizes: {exc}") from exc
    for name, values in (("n_values", n_values), ("m_values", m_values), ("partition_sizes", p_values)):
        _positive(name, min(values))
    trials = _positive("trials", _int_field(cfg, "trials"))
    tol = _float_field(cfg, "tolerance")
    submartingale = measure in verify.SUBMARTINGALE_MEASURES

    out = _out_dir(cfg)
    _echo_config(cfg, out)
    rows = []
    total_violations = 0
    cell = 0
    for n in n_values:
        for m in m_values:
            for p in p_values:
                if p > m:
                    continue
                rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(cell,)))
                cell += 1
                gaps = []
                violations = 0
                for child in rng.spawn(trials):
                    ch = random_channel(n, m, child)
                    sigma = random_density(n, int(child.integers(1, n + 1)), child)
                    rho = random_density(n, int(child.integers(1, n + 1)), child)
                    if p == 1:
                        partition = trivial_partition(m)
                    elif p == m:
                        partition = singleton_partition(m)
                    else:
                        partition = random_partition(m, child, p)
                    rep = verify.measure_gap_report(ch, sigma, rho, measure, partition, tol=tol)
                    if math.isinf(rep.lhs) or math.isinf(rep.rhs):
                        continue
                    gaps.append(rep.gap)
                    violations += not rep.passed
                total_violations += violations if submartingale else 0
                # a cell with no finite instance has no gap statistics
                min_gap = format(float(np.min(gaps)), ".17g") if gaps else "nan"
                mean_gap = format(float(np.mean(gaps)), ".17g") if gaps else "nan"
                rows.append(f"{n},{m},{p},{len(gaps)},{min_gap},{mean_gap},{violations}")
    (out / "sweep.csv").write_text(
        "n,m,partition_size,instances,min_gap,mean_gap,wrong_sign\n" + "\n".join(rows) + "\n"
    )
    report = {"config": cfg, "cells": len(rows), "wrong_sign_total": total_violations}
    (out / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    print(f"sweep over {len(rows)} cells written to {out / 'sweep.csv'}")
    return 1 if (submartingale and total_violations) else 0


_COMMANDS = {
    "counterexample": _cmd_counterexample,
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
    "dilate": _cmd_dilate,
    "sweep": _cmd_sweep,
}
