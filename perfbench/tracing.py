"""Spans recorded from outside the program.

A :class:`Tracer` wraps public functions of the ``jahsband`` modules and
rebinds every module attribute that refers to the original function, so a
caller that imported the name (``from .moo import non_dominated_sort``) is
traced as well as the defining module. Spans are kept in memory as
``(id, name, start, end, parent, size, error)`` and written out at the end.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
from time import perf_counter
from types import ModuleType
from typing import Any, Callable


def _strategy_kind(args: tuple, kwargs: dict) -> str:
    strategy = args[1] if len(args) > 1 else kwargs.get("strategy", "uniform")
    return strategy[0] if isinstance(strategy, tuple) else str(strategy)


def targets(jb: dict[str, ModuleType]) -> list[tuple[Any, str, Any, Any]]:
    """(owner, attribute, span name or name function, size function) for
    every traced public function; owners are modules or classes."""
    cs, grammar, harness = jb["configspace"], jb["grammar"], jb["harness"]
    moo, pb, analysis, cli = jb["moo"], jb["priorband"], jb["analysis"], jb["cli"]
    return [
        (cli, "main", "cli.main", None),
        (pb, "run", "priorband.run", None),
        (pb, "sampler_weights", "priorband.sampler_weights", None),
        (pb, "dynamic_weighting", "priorband.dynamic_weighting", None),
        (pb, "incumbent_for_sampling", "priorband.incumbent_for_sampling",
         lambda a, k: len(a[0])),
        (pb.RunHistory, "pareto_entries", "priorband.RunHistory.pareto_entries", None),
        (pb, "write_history_csv", "priorband.write_history_csv", None),
        (pb, "read_history_csv", "priorband.read_history_csv", None),
        (moo, "non_dominated_sort", "moo.non_dominated_sort", lambda a, k: len(a[0])),
        (moo, "select_top_k", "moo.select_top_k", None),
        (moo, "crowding_distance", "moo.crowding_distance", None),
        (moo, "area_incumbent", "moo.area_incumbent", None),
        (cs, "load_space", "configspace.load_space", None),
        (cs, "sample", lambda a, k: "configspace.sample." + _strategy_kind(a, k), None),
        (cs, "prior_pdf", "configspace.prior_pdf", None),
        (grammar, "sample_derivation", "grammar.sample_derivation", None),
        (grammar, "serialize", "grammar.serialize", None),
        (grammar, "parse", "grammar.parse", None),
        (harness.SyntheticProblem, "evaluate", "harness.SyntheticProblem.evaluate", None),
        (harness.ExternalEvaluator, "evaluate", "harness.ExternalEvaluator.evaluate", None),
        (analysis, "fanova_first_order", "analysis.fanova_first_order", None),
        (analysis, "export_reports", "analysis.export_reports", None),
        (analysis, "write_pareto_json", "analysis.write_pareto_json", None),
    ]


class Tracer:
    """Records spans; install() patches, uninstall() restores."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, size: int | None = None):
        """Record the enclosed block as one span, with the class of the
        exception it raised, if any."""
        stack = self._stack()
        # a span opened in a pool thread belongs to the caller blocked on
        # that pool in the main thread
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        sid = next(self._ids)
        stack.append(sid)
        error = None
        start = perf_counter()
        try:
            yield
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, size, error))

    def _wrap(self, fn: Callable, name: Any, size: Callable | None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            with self.span(span_name, size(args, kwargs) if size is not None else None):
                return fn(*args, **kwargs)

        return wrapper

    def install(self, jb: dict[str, ModuleType]) -> None:
        """Patch every target in the given ``jahsband`` modules."""
        self._main_stack = self._stack()
        for owner, attr, name, size in targets(jb):
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, size)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for module in jb.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, n, error in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "size": n, "error": error,
                }) + "\n")


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of [start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by child spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, _name, start, end, parent, _n, _error in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _name, start, end, _parent, _n, _error in spans:
        covered = [
            (max(s, start), min(e, end)) for s, e in children.get(sid, [])
            if min(e, end) > max(s, start)
        ]
        out[sid] = (end - start) - union_length(covered)
    return out
