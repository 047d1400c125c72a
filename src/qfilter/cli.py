"""Command-line front end: experiment orchestration, CSV and JSON reports.

Subcommands:

* ``counterexample``  print the embedded 3-level instance report,
* ``simulate``        trajectory CSVs for the coupled chain,
* ``verify``          gap-report CSV over random instances for one measure,
* ``dilate``          proof-replay report for one instance,
* ``sweep``           worst gaps over a grid of (n, m, partition size).

Each flag's default is registered where the flag is added.  A command reads
an optional ``--config`` JSON document over those defaults; flags that are
given override file fields, and the resolved configuration is echoed next to
the outputs for provenance.  Exit codes: 0 success, 1 a broken theorem or
identity (of the measures' wrong-sign gaps only the fidelity's fail a run),
2 configuration error (the diagnostic names the offending field).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import dilation as dilation_mod
from . import filtering, verify
from .channels import channel_from_dict, partition_from_dict, random_channel
from .states import make_density, matrix_from_dict, maximally_mixed, random_density
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
        return _COMMANDS[args.command](_effective_config(args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The qfilter parser, built once per process: parsing never mutates it,
    and each run copies its command's config defaults."""
    parser = argparse.ArgumentParser(
        prog="qfilter",
        description="quantum Markov chains, filters, and sub-martingale checks",
    )
    sub = parser.add_subparsers(dest="command")

    # Flags are added in the order of their config fields: report.json echoes the config unsorted.
    def command(name, help, output="."):
        """A subcommand with --config, --output and --seed; `output` is the default directory."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(config_defaults={})
        p.add_argument("--config", help="JSON config file; flags override its fields")
        flag(p, "--output", output, "output directory for CSV/JSON reports")
        flag(p, "--seed", None, "base seed (required for randomized commands)", type=int)
        return p

    def flag(p, name, default, help, **kwargs):
        """Add a flag that parses to None when not given.

        `default` is the value of its config field when neither the flag nor
        the --config file sets it; --help shows it.
        """
        if default is not None:
            help = f"{help} (default {default})"
        action = p.add_argument(name, default=None, help=help, **kwargs)
        p.get_default("config_defaults")[action.dest] = default

    def instance(p):
        flag(p, "--channel", None, "channel JSON file")
        flag(p, "--random-channel", None, "generate a random channel", metavar="N,M")
        flag(p, "--state", None, "true-state JSON file")
        flag(p, "--random-state", None, "generate a random true state", metavar="N[,RANK]")
        flag(p, "--estimate", None, "estimate JSON file (default: maximally mixed)")
        flag(p, "--partition", None, "partition JSON file")

    def tolerance(p, what):
        flag(p, "--tolerance", GAP_TOL, what, type=float)

    # counterexample and dilate print their reports and write files only with --output
    command("counterexample", "print the embedded counter-example report", output=None)

    p = command("simulate", "simulate coupled trajectories, emit CSV per trajectory")
    flag(p, "--steps", 10, "number of transitions", type=int)
    flag(p, "--trajectories", 1, "number of trajectories", type=int)
    instance(p)

    p = command("verify", "gap reports over random instances for one measure")
    tolerance(p, "slack of the wrong-sign verdict on each gap")
    flag(p, "--measure", "fidelity", "measure to check", choices=sorted(verify.MEASURES))
    flag(p, "--trials", 100, "number of random instances", type=int)
    flag(p, "--n", 3, "state dimension", type=int)
    flag(p, "--m", 3, "number of Kraus operators", type=int)
    flag(
        p, "--partition-mode", "singleton", "partition used per instance",
        choices=("singleton", "trivial", "random"),
    )
    flag(
        p, "--include-counterexample", False, "prepend the embedded counter-example instance",
        action="store_true",
    )

    p = command("dilate", "dilation and proof-replay report for one instance", output=None)
    tolerance(p, "link tolerance of the proof replay, links (a)-(d)")
    instance(p)

    p = command("sweep", "worst gaps over a grid of n, m, partition sizes")
    tolerance(p, "slack of the wrong-sign verdict on each gap")
    flag(p, "--n-values", "2,3", "comma list of dimensions, e.g. 2,3,4")
    flag(p, "--m-values", "2,3", "comma list of operator counts")
    flag(p, "--partition-sizes", "1,2", "comma list of block counts")
    flag(p, "--trials", 20, "instances per grid cell", type=int)
    flag(p, "--measure", "fidelity", "measure", choices=sorted(verify.MEASURES))
    return parser


def _effective_config(args: argparse.Namespace) -> dict:
    """Merge the command's flag defaults, the --config document, and the flags given."""
    cfg = dict(args.config_defaults)
    cfg["command"] = args.command
    if args.config:
        for key, value in _load_json(args.config, "config").items():
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


def _measure_field(cfg: dict) -> str:
    measure = cfg["measure"]
    if not isinstance(measure, str) or measure not in verify.MEASURES:
        raise ConfigError(f"measure: unknown measure {measure!r}")
    return measure


def _out_dir(cfg: dict) -> Path:
    try:  # a path that is not a string, or one that names a file
        out = Path(cfg["output"] or ".")
        out.mkdir(parents=True, exist_ok=True)
    except (TypeError, OSError) as exc:
        raise ConfigError(f"output: {exc}") from exc
    return out


def _echo_config(cfg: dict, out: Path) -> None:
    (out / "config.json").write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")


def _load_json(path_str: str, field: str) -> dict:
    """The JSON object in the file named by config field `field`."""
    path = Path(path_str)
    if not path.exists():
        raise ConfigError(f"{field}: file {path} does not exist")
    try:
        doc = json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{field}: {path} is not valid JSON ({exc})") from exc
    except OSError as exc:  # a directory, or a file that cannot be read
        raise ConfigError(f"{field}: cannot read {path} ({exc.strerror})") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{field}: {path} must hold a JSON object, got {type(doc).__name__}")
    return doc


def _child_rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0xC0FFEE, tag)))


def _load_field(cfg: dict, field: str, decode):
    """decode(the JSON object in the file named by config field `field`); a bad file is a ConfigError."""
    try:
        return decode(_load_json(cfg[field], field))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{field}: {exc}") from exc


def _resolve_instance(cfg: dict):
    """Build (channel, rho, estimate, partition) from files or generator specs."""
    if cfg.get("channel"):
        ch = _load_field(cfg, "channel", channel_from_dict)
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
        rho = _load_field(cfg, "state", lambda d: make_density(matrix_from_dict(d)))
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
        est = _load_field(cfg, "estimate", lambda d: make_density(matrix_from_dict(d)))
    else:
        est = maximally_mixed(ch.dim)

    partition = None
    if cfg.get("partition"):
        partition = _load_field(cfg, "partition", partition_from_dict)

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
    # the trajectories step in lockstep, a group at a time, and each CSV is the one
    # write_trajectory_csv(simulate(sim_cfg, i)) writes; the final fidelities are its last rows'
    final = filtering._write_trajectory_csvs(sim_cfg, n_traj, lambda i: out / f"trajectory_{i:04d}.csv")
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
    measure = _measure_field(cfg)
    trials = _positive("trials", _int_field(cfg, "trials"))
    n, m = _positive("n", _int_field(cfg, "n")), _positive("m", _int_field(cfg, "m"))
    mode = cfg["partition_mode"]
    if mode not in ("singleton", "trivial", "random"):
        raise ConfigError(f"partition_mode: unknown mode {mode!r}")
    tol = _float_field(cfg, "tolerance")

    rng = np.random.default_rng(seed)
    reports, deviations = verify._search(measure, n, m, trials, rng, mode, cfg.get("include_counterexample"), tol)
    worst_mean_evo = max([0.0, *deviations()])

    out = _out_dir(cfg)
    _echo_config(cfg, out)
    verify.write_gap_reports_csv(reports, out / "gap_reports.csv")
    gaps = [r.gap for r in reports if not math.isinf(r.gap) and not math.isnan(r.gap)]
    violations = [r for r in reports if not r.passed]
    failed = any(map(verify._fails_run, reports)) or worst_mean_evo > MEAN_EVOLUTION_TOL
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
        # the channel's Kraus stack is its Stinespring isometry V, the one the replay lifts through
        report = {"config": cfg, "replay": rep.to_dict(), "channel": ch.to_dict()}
        (out / "replay.json").write_text(json.dumps(report, indent=2, allow_nan=False) + "\n")
    return 0 if rep.all_links_hold else 1


def _cmd_sweep(cfg: dict) -> int:
    seed = _require_seed(cfg)
    measure = _measure_field(cfg)
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
    cells = [(n, m, p) for n in n_values for m in m_values for p in p_values if p <= m]
    if not cells:
        raise ConfigError(f"partition_sizes: none is <= the largest m ({max(m_values)}), so the grid is empty")

    full_rank = measure in verify._FULL_RANK_MEASURES
    out = _out_dir(cfg)
    _echo_config(cfg, out)
    # cell i draws from SeedSequence(seed, spawn_key=(i,)); the cells of one (n, m) share one pass
    shapes: dict = {}
    for cell, (n, m, p) in enumerate(cells):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(cell,)))
        shapes.setdefault((n, m), []).extend(verify.random_instances(n, m, trials, rng, p, full_rank))
    reports = {shape: iter(verify._gap_reports(instances, measure, tol)[0]) for shape, instances in shapes.items()}
    rows = []
    total_violations = 0
    failed = False
    for n, m, p in cells:
        gaps = []
        violations = 0
        for rep in itertools.islice(reports[n, m], trials):
            if math.isinf(rep.lhs) or math.isinf(rep.rhs):
                continue
            gaps.append(rep.gap)
            violations += not rep.passed
            failed = failed or verify._fails_run(rep)
        total_violations += violations
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
    return 1 if failed else 0


_COMMANDS = {
    "counterexample": _cmd_counterexample,
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
    "dilate": _cmd_dilate,
    "sweep": _cmd_sweep,
}
