"""Outside-in tracing: wrap library functions in timed spans and restore them.

A :class:`Tracer` keeps one running aggregate per span name (calls, total
time, self time, errors) instead of a list of spans, so a traced run of
millions of small kernel calls stays small in memory.  Self time is a span's
duration minus the durations of the spans it directly caused; calls are
single-threaded and nested, so those children never overlap.

:func:`install` rebinds every reference to a wrapped function that the
traced modules hold (module attributes, names imported with ``from x import
f``, and module-level dict entries such as a registry of callables), and
returns an :class:`Installation` whose ``restore`` puts the originals back.
Nothing under the library's source tree is edited.
"""

from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass, field
from types import ModuleType
from typing import Callable


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    errors: int = 0


class Tracer:
    """Aggregates nested spans by name; `clock` is injectable for tests."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stats: dict[str, SpanStats] = {}
        self._child_time: list[float] = []  # one accumulator per open span

    def wrap(self, name: str, fn: Callable) -> Callable:
        """Return fn wrapped in a span called `name`."""
        stats = self.stats.setdefault(name, SpanStats())
        clock = self.clock
        open_spans = self._child_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stats.errors += 1
                raise
            finally:
                duration = clock() - start
                children = open_spans.pop()
                stats.calls += 1
                stats.total_s += duration
                stats.self_s += duration - children
                if open_spans:
                    open_spans[-1] += duration

        return traced


@dataclass
class Installation:
    """Rebindings made by :func:`install`; `restore` undoes all of them."""

    _slots: list[tuple[object, str, Callable]] = field(default_factory=list)

    def restore(self) -> None:
        for container, key, original in reversed(self._slots):
            _store(container, key, original)

    def leftovers(self) -> list[str]:
        """Rebound slots that do not hold their original function (none after restore)."""
        return [
            f"{getattr(c, '__name__', type(c).__name__)}.{k}"
            for c, k, original in self._slots
            if _load(c, k) is not original
        ]


def public_functions(module: ModuleType) -> dict[str, Callable]:
    """Functions defined in `module` whose names do not start with '_'."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_")
    }


def install(
    tracer: Tracer,
    targets: dict[str, Callable],
    namespaces: list[ModuleType],
) -> Installation:
    """Wrap each target function and rebind every reference to it.

    `targets` maps span names to the original functions.  Every attribute of
    each module in `namespaces`, and every value of a module-level dict, that
    is one of the originals is replaced by its wrapper.
    """
    # keyed by id(): `targets` keeps every original alive, so ids are unique
    wrappers = {id(fn): tracer.wrap(name, fn) for name, fn in targets.items()}
    inst = Installation()

    def rebind(container, key, value) -> None:
        if id(value) in wrappers:
            inst._slots.append((container, key, value))
            _store(container, key, wrappers[id(value)])

    for module in namespaces:
        for key, value in list(vars(module).items()):
            rebind(module, key, value)
            if isinstance(value, dict) and not key.startswith("__"):
                for dkey, dvalue in list(value.items()):
                    rebind(value, dkey, dvalue)
    found = {id(original) for _, _, original in inst._slots}
    missing = sorted(name for name, fn in targets.items() if id(fn) not in found)
    if missing:
        inst.restore()
        raise LookupError(f"no reference found for targets {missing}")
    return inst


def _store(container, key, value) -> None:
    if isinstance(container, dict):
        container[key] = value
    else:
        setattr(container, key, value)


def _load(container, key):
    return container[key] if isinstance(container, dict) else getattr(container, key)
