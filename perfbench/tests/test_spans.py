"""Span self-time arithmetic and wrapper install/restore."""

import types

import numpy as np
import pytest

import run
import spans


class FakeClock:
    """Returns the scripted times in order, one per call."""

    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_subtracts_direct_children_only():
    # outer [0, 10] calls mid [1, 8], which calls leaf [2, 3] and leaf [4, 7]
    tracer = spans.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 7, 8, 10]))
    leaf = tracer.wrap("leaf", lambda: None)

    def mid_body():
        leaf()
        leaf()

    mid = tracer.wrap("mid", mid_body)
    outer = tracer.wrap("outer", mid)
    outer()
    st = tracer.stats
    assert (st["leaf"].calls, st["leaf"].total_s, st["leaf"].self_s) == (2, 4, 4)
    assert (st["mid"].calls, st["mid"].total_s, st["mid"].self_s) == (1, 7, 3)
    assert (st["outer"].calls, st["outer"].total_s, st["outer"].self_s) == (1, 10, 3)
    assert tracer._child_time == []


def test_errors_count_at_every_layer_the_exception_crosses():
    tracer = spans.Tracer(clock=FakeClock([0, 1, 3, 6]))

    def boom():
        raise ValueError("x")

    inner = tracer.wrap("inner", boom)
    outer = tracer.wrap("outer", lambda: inner())
    with pytest.raises(ValueError):
        outer()
    assert tracer.stats["inner"].errors == tracer.stats["outer"].errors == 1
    assert (tracer.stats["inner"].self_s, tracer.stats["outer"].self_s) == (2, 4)
    assert tracer._child_time == []


def _fake_modules():
    lib = types.ModuleType("fakelib")

    def f(x):
        return x + 1

    f.__module__ = "fakelib"
    lib.f = f
    lib._private = f  # any reference to the target is rebound
    user = types.ModuleType("fakeuser")
    user.f = f  # as after `from fakelib import f`
    user.REGISTRY = {"plus_one": f, "other": len}
    return lib, user, f


def test_install_rebinds_every_reference_and_restore_puts_originals_back():
    lib, user, f = _fake_modules()
    assert spans.public_functions(lib) == {"f": f}
    tracer = spans.Tracer()
    inst = spans.install(tracer, {"lib.f": f}, [lib, user])
    assert lib.f is not f and user.f is not f and user.REGISTRY["plus_one"] is not f
    assert user.REGISTRY["other"] is len
    assert lib.f(1) + user.f(1) + user.REGISTRY["plus_one"](1) == 6
    assert tracer.stats["lib.f"].calls == 3
    assert sorted(inst.leftovers()) == ["dict.plus_one", "fakelib._private", "fakelib.f", "fakeuser.f"]
    inst.restore()
    assert lib.f is f and lib._private is f and user.f is f and user.REGISTRY["plus_one"] is f
    assert inst.leftovers() == []


def test_install_refuses_a_target_it_cannot_find_and_leaves_nothing_bound():
    lib, user, f = _fake_modules()
    with pytest.raises(LookupError, match="stray"):
        spans.install(spans.Tracer(), {"lib.f": f, "stray": lambda: None}, [lib, user])
    assert lib.f is f and user.f is f and user.REGISTRY["plus_one"] is f


def test_library_trace_catches_internal_calls_and_restores_numpy():
    import qfilter  # noqa: F401
    import qfilter.cli  # noqa: F401
    from qfilter import measures, verify

    before = (np.linalg.eigh, np.linalg.svd, np.einsum, np.random.default_rng, measures.fidelity)
    rho = np.diag([0.5, 0.5, 0.0]).astype(complex)
    sigma = np.diag([0.0, 0.5, 0.5]).astype(complex)
    plain = measures.fidelity(sigma, rho)
    targets, namespaces = run.trace_targets()
    tracer = spans.Tracer()
    inst = spans.install(tracer, targets, namespaces)
    try:
        assert measures.fidelity(sigma, rho) == plain
        verify.check_fidelity_submartingale(*verify.counterexample_instance())
    finally:
        inst.restore()
    st = tracer.stats
    assert st["measures.fidelity"].calls >= 2
    assert st["linalg.psd_sqrt"].calls == 2 * st["measures.fidelity"].calls
    assert st["numpy.eigh"].calls >= st["linalg.psd_sqrt"].calls
    assert st["numpy.svd"].calls == st["measures.fidelity"].calls
    assert (np.linalg.eigh, np.linalg.svd, np.einsum, np.random.default_rng, measures.fidelity) == before
    assert verify.MEASURES["fidelity"] is measures.fidelity
    assert inst.leftovers() == []
