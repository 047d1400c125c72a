import qfilter

# public names deleted because nothing outside the tests called them
DELETED = {
    "Dilation",
    "Spectrum",
    "complete_isometry",
    "expected_next_measure",
    "partial_trace",
    "pure_projector",
    "purify",
    "simulate_batch",
    "stinespring",
    "tensor",
    "trajectory_to_dict",
}

# attributes deleted for the same reason, by the class that had them
DELETED_ATTRIBUTES = {
    qfilter.GapReport: ("to_dict",),
    qfilter.CounterexampleReport: ("trace_distance_excess",),
}


def test_every_export_resolves():
    missing = [name for name in qfilter.__all__ if not hasattr(qfilter, name)]
    assert missing == []
    assert len(set(qfilter.__all__)) == len(qfilter.__all__)


def test_star_import():
    namespace = {}
    exec("from qfilter import *", namespace)
    assert set(qfilter.__all__) <= namespace.keys()


def test_no_deleted_name_is_exported():
    assert DELETED.isdisjoint(qfilter.__all__)
    assert not any(hasattr(qfilter, name) for name in DELETED)


def test_no_deleted_attribute_is_back():
    assert not any(hasattr(cls, name) for cls, names in DELETED_ATTRIBUTES.items() for name in names)
    assert not hasattr(qfilter.linalg, "Spectrum")
    assert not hasattr(qfilter.verify, "expected_next_measure")
    assert not any(hasattr(qfilter.dilation, name) for name in ("Dilation", "stinespring"))
    assert not hasattr(qfilter.linalg, "complete_isometry")
    assert not any(hasattr(qfilter.tolerances, name) for name in ("UNITARY_TOL", "ISOMETRY_TOL"))
