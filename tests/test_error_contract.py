"""The error contract of the public API: a malformed state, channel or partition raises a ValueError that names it.

Every name in ``qfilter.__all__`` is either an entry in ENTRIES, which lists
the arguments it takes and the malformed inputs each must reject, or in
NOT_ENTRIES with the reason it takes no state, channel or partition.  A
state argument is malformed as in STATE_FAULTS (n = 3); a channel by having
the wrong dimension, a partition by not covering the channel's outcomes.

Two groups of entries reject less, by design:

* the measures are matrix functionals and keep their own checks: a shape
  error, and a non-finite or non-Hermitian input on the eigendecomposition
  routes (the fidelity, trace distance and relative entropy);
* the linear-algebra functions take any Hermitian matrix, and their errors
  call it "matrix".

The exact checks other than monotonicity test no PSD: see DEFERRED.
"""

import re

import numpy as np
import pytest

import qfilter
from qfilter import channels, states

N, M = 3, 2  # the channel of every entry; the states are (N, N)


def _base():
    rng = np.random.default_rng(21)
    ch = channels.random_channel(N, M, rng)
    sigma, rho = states.random_density(N, N, rng), states.random_density(N, 2, rng)
    return {
        "ch": ch, "sigma": sigma, "rho": rho, "rho0": rho, "rho_hat0": sigma, "fallback": None, "partition": None,
        "M": rho, "A": rho, "H": rho, "blocks": [[0], [1, 2]], "ops": list(ch.operators),
    }


def _nan(state):
    state = state.astype(complex)
    state[0, 1] = state[1, 0] = np.nan
    return state


STATE_FAULTS = {
    "stacked": lambda s: np.stack([s, s]),
    "wrong_n": lambda s: np.eye(2) / 2,
    "non_square": lambda s: s[:, :2],
    "nan": _nan,
    "non_hermitian": lambda s: s + 0.1j * np.triu(np.ones((N, N)), 1),
    "trace_above": lambda s: s * (1 + 1e-8),
    "trace_below": lambda s: s * (1 - 1e-8),
    "negative_eigenvalue": lambda s: np.diag([0.5 + 1e-6, 0.5, -1e-6]),
}
STATE = tuple(STATE_FAULTS)
STACKS = STATE[1:]  # where a stack of states is a valid input
SHAPES = ("wrong_n", "non_square")
EIG = SHAPES + ("nan", "non_hermitian")
CHANNEL = {"ch": ("wrong_dimension",)}
PARTITION = {"partition": ("not_covering",)}


def _config(a):
    return qfilter.SimulationConfig(
        channel=a["ch"], rho0=a["rho0"], rho_hat0=a["rho_hat0"], steps=2, partition=a["partition"],
        fallback=a["fallback"], seed=1,
    )


def _gap(measure):
    return lambda a: qfilter.measure_gap_report(a["ch"], a["sigma"], a["rho"], measure, a["partition"], a["fallback"])


EXACT = {"sigma": STATE, "rho": STATE, "fallback": STATE, **CHANNEL, **PARTITION}
ENGINE = {"rho0": STATE, "rho_hat0": STATE, "fallback": STATE, **CHANNEL, **PARTITION}

#: name -> (call on the arguments, {argument: the malformed inputs it must reject})
ENTRIES = {
    "apply_channel": (lambda a: qfilter.apply_channel(a["ch"], a["rho"]), {"rho": STACKS, **CHANNEL}),
    "outcome_probs": (lambda a: qfilter.outcome_probs(a["ch"], a["rho"], a["partition"]), {"rho": STACKS, **CHANNEL, **PARTITION}),
    "conditional_update": (
        lambda a: qfilter.conditional_update(a["ch"], 0, a["rho"], a["partition"], a["fallback"]),
        {"rho": STACKS, "fallback": STATE, **CHANNEL, **PARTITION},
    ),
    **{f"measure_gap_report[{m}]": (_gap(m), EXACT) for m in ("fidelity", "trace_distance", "frobenius", "relative_entropy")},
    "check_fidelity_submartingale": (
        lambda a: qfilter.check_fidelity_submartingale(a["ch"], a["sigma"], a["rho"], a["partition"], a["fallback"]), EXACT,
    ),
    "check_kraus_monotonicity": (
        lambda a: qfilter.check_kraus_monotonicity(a["ch"], a["sigma"], a["rho"]), {"sigma": STATE, "rho": STATE, **CHANNEL},
    ),
    "check_mean_evolution": (
        lambda a: qfilter.check_mean_evolution(a["ch"], a["rho"], a["partition"]), {"rho": STATE, **CHANNEL, **PARTITION},
    ),
    "replay_proof": (
        lambda a: qfilter.replay_proof(a["ch"], a["sigma"], a["rho"], a["partition"]),
        {"sigma": STATE, "rho": STATE, **CHANNEL, **PARTITION},
    ),
    "uhlmann_pair": (lambda a: qfilter.uhlmann_pair(a["sigma"], a["rho"]), {"sigma": STATE, "rho": STATE}),
    "make_density": (lambda a: qfilter.make_density(a["M"]), {"M": tuple(f for f in STATE if f != "wrong_n")}),
    "SimulationConfig": (lambda a: _config(a).validate(), ENGINE),
    "simulate": (lambda a: qfilter.simulate(_config(a)), ENGINE),
    "batch_statistics": (lambda a: qfilter.batch_statistics(_config(a), 3), ENGINE),
    "fidelity": (lambda a: qfilter.fidelity(a["sigma"], a["rho"]), {"sigma": EIG, "rho": EIG}),
    "trace_distance": (lambda a: qfilter.trace_distance(a["sigma"], a["rho"]), {"sigma": EIG, "rho": EIG}),
    "relative_entropy": (lambda a: qfilter.relative_entropy(a["rho"], a["sigma"]), {"sigma": EIG, "rho": EIG}),
    "frobenius_inner": (lambda a: qfilter.frobenius_inner(a["sigma"], a["rho"]), {"sigma": SHAPES, "rho": SHAPES}),
    "purity": (lambda a: qfilter.purity(a["rho"]), {"rho": ("non_square",)}),
    "psd_sqrt": (lambda a: qfilter.psd_sqrt(a["A"]), {"A": ("non_square", "nan", "non_hermitian", "negative_eigenvalue")}),
    "hermitian_eig": (lambda a: qfilter.hermitian_eig(a["H"]), {"H": ("non_square", "nan", "non_hermitian")}),
    "trace_abs": (lambda a: qfilter.trace_abs(a["A"]), {"A": ("non_square", "nan", "non_hermitian")}),
    "make_partition": (lambda a: qfilter.make_partition(N, a["blocks"]), {"blocks": ("not_covering",)}),
    "validate_channel": (lambda a: qfilter.validate_channel(a["ops"]), {"ops": ("wrong_dimension", "non_square", "nan")}),
}

NOT_ENTRIES = {
    **dict.fromkeys(
        ["BatchStatistics", "CounterexampleReport", "GapReport", "JointStep", "JointTrajectory", "ProofReplayReport"],
        "a result, built by the package",
    ),
    "KrausChannel": "a record; validate_channel builds a checked one",
    "OutcomePartition": "a record; make_partition builds a checked one",
    **dict.fromkeys(["counterexample_instance", "counterexample_report"], "takes no input"),
    **dict.fromkeys(
        ["maximally_mixed", "random_channel", "random_density", "random_partition", "random_search_violation",
         "singleton_partition", "trivial_partition"],
        "takes sizes and a generator, not a state, channel or partition",
    ),
}

#: what an error calls an argument, where that is not its own name
CALLED = {"M": "density matrix", "A": "matrix", "H": "matrix", "ops": "operator"}

_PSD_DEFERRED = pytest.mark.xfail(
    strict=True,
    reason="deferred to the exact checks in factor form (ROADMAP item 2): a PSD test per formed pass costs one "
    "eigendecomposition, -4.1% exact_suite throughput in a prototype",
)
#: (entry, argument, fault) cases that do not hold yet, each a strict xfail
DEFERRED = {
    **{(f"measure_gap_report[{m}]", arg, "negative_eigenvalue"): _PSD_DEFERRED
       for m in ("trace_distance", "frobenius", "relative_entropy") for arg in ("sigma", "rho")},
    ("check_mean_evolution", "rho", "negative_eigenvalue"): _PSD_DEFERRED,
    # the fidelity's square roots reject the state, but name an update's eigenvalue, not the state
    **{(entry, arg, "negative_eigenvalue"): _PSD_DEFERRED
       for entry in ("measure_gap_report[fidelity]", "check_fidelity_submartingale") for arg in ("sigma", "rho")},
}


def _malformed(args, arg, fault):
    """The arguments with `arg` made malformed by `fault`, and the names the error may use for it."""
    args = dict(args)
    if fault == "wrong_dimension" and arg == "ch":
        args["ch"] = channels.random_channel(2, M, np.random.default_rng(22))
        return args, [a for a in ("sigma", "rho", "rho0", "rho_hat0") if a in args] + ["channel"]
    if arg == "ops":
        ops = args["ops"]
        args["ops"] = {"wrong_dimension": [ops[0], np.eye(2)], "non_square": [ops[0][:, :2], ops[1]],
                       "nan": [_nan(ops[0]), ops[1]]}[fault]
        return args, ["operator"]
    if fault == "not_covering":
        args[arg] = [[0], [1]] if arg == "blocks" else channels.singleton_partition(M + 1)
        return args, [arg]
    base = np.eye(N) / N if arg == "fallback" else args[arg]
    args[arg] = STATE_FAULTS[fault](base)
    return args, [CALLED.get(arg, arg)]


CASES = [
    pytest.param(entry, arg, fault, marks=DEFERRED.get((entry, arg, fault), ()), id=f"{entry}-{arg}-{fault}")
    for entry, (_, faults) in ENTRIES.items()
    for arg, kinds in faults.items()
    for fault in kinds
]


def test_every_export_is_classified():
    entries = {name.split("[")[0] for name in ENTRIES}  # measure_gap_report runs once per measure
    assert entries | set(NOT_ENTRIES) == set(qfilter.__all__)
    assert not entries & set(NOT_ENTRIES)


def test_the_valid_inputs_pass():
    for name, (call, _) in ENTRIES.items():
        call(_base())


@pytest.mark.parametrize("entry, arg, fault", CASES)
def test_a_malformed_input_raises_a_value_error_that_names_it(entry, arg, fault):
    args, names = _malformed(_base(), arg, fault)
    with np.errstate(invalid="ignore"), pytest.raises(ValueError) as err:
        ENTRIES[entry][0](args)
    message = str(err.value)
    assert any(re.search(rf"(?<!\w){re.escape(name)}(?!\w)", message) for name in names), message
