"""Span recording around the layers of hypercp, from outside the package.

The tracer replaces every ``hypercp`` function that ``hypercp.cli``
imports (and the same object where the package re-exports it) by a
wrapper that records a span: name, start, end and the span that was
open when it began.  ``Hypergraph.__init__`` is wrapped too, so
constructions nested in other layers are seen.  Spans stay in memory;
the caller reads them when the run ends.

Span names are ``<module>.<function>``, with ``hypergraph.init`` for the
constructor.  A few spans carry counts read off the result (iterations,
incidence nonzeros), and after each HyperNSM solve the tracer times
``objective_gradient`` at the returned point.  That probe runs outside
every span and its time is kept apart, so it can be taken out of the
op's wall time.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import statistics
import time

GRADIENT_REPEATS = 3


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    info: dict = dataclasses.field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Wraps the layers once; records only while `recording` is true."""

    def __init__(self, hypercp) -> None:
        self.spans: list[Span] = []
        self.probe_s = 0.0
        self.recording = False
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._objective_gradient = hypercp.solver.objective_gradient
        posts = {"hypernsm": self._after_solve, "graph_nsm": _iterations, "borgatti_everett": _iterations}
        cli = hypercp.cli
        for attr, fn in list(vars(cli).items()):
            module = getattr(fn, "__module__", "") or ""
            if not (inspect.isfunction(fn) and module.startswith("hypercp.") and module != cli.__name__):
                continue
            wrapped = self._wrap(f"{module.rsplit('.', 1)[1]}.{attr}", fn, posts.get(attr))
            self._patch(cli, attr, wrapped)
            if getattr(hypercp, attr, None) is fn:
                self._patch(hypercp, attr, wrapped)
        cls = hypercp.Hypergraph
        self._patch(cls, "__init__", self._wrap("hypergraph.init", cls.__init__, _nnz))

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def _wrap(self, name: str, fn, post):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            span = Span(name, time.perf_counter(), parent=self._stack[-1] if self._stack else None)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span.end = time.perf_counter()
            if post is not None:
                post(span, args, result)
            return result

        return traced

    def _after_solve(self, span: Span, args, result) -> None:
        h, cfg = args[0], args[1]
        t0 = time.perf_counter()
        times = []
        for _ in range(GRADIENT_REPEATS):
            t = time.perf_counter()
            self._objective_gradient(h, cfg.xi, result.scores, cfg.q)
            times.append(time.perf_counter() - t)
        self.probe_s += time.perf_counter() - t0
        span.info.update(
            iterations=result.iterations, p=cfg.p, nnz=h.degree_sum(),
            gradient_s=statistics.median(times),
        )


def _iterations(span: Span, args, result) -> None:
    span.info["iterations"] = result.iterations


def _nnz(span: Span, args, result) -> None:
    span.info["nnz"] = args[0].degree_sum()


def layer_table(spans: list[Span]) -> dict[str, dict]:
    """Per span name: call count, total seconds, and self seconds (the
    duration minus the part of it covered by child spans)."""
    child_s = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_s[s.parent] += s.seconds
    table: dict[str, dict] = {}
    for s, inner in zip(spans, child_s):
        row = table.setdefault(s.name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += s.seconds
        row["self_s"] += s.seconds - inner
    return table
