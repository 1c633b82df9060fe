"""Spans around the calls ``hurwitz.run_job`` makes, for the traced run.

``spans_around_run_job`` replaces, for the length of a ``with`` block,
the names ``run_job`` resolves at call time (``build_group``,
``generate_group``, ``enumerate_tuples``, ``classify_space``,
``components``, ``universal_fiber_report`` in ``hurwitz.jobs``, the
``load``/``store`` methods of ``ResultCache`` and the ``census`` property
of ``SpaceClassification``) with wrappers that open a span and call the
original.  So the spans time the program's own ``run_job``, and the
originals are back when the block ends.

The ``build_group`` wrapper also computes the normalizer and the
conjugacy classes of the freshly built group in their own spans, so the
group's memo keeps that work out of the classify span.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager


class Tracer:
    """Spans kept in memory: id, request, name, start, end and parent id."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.request = ""

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "request": self.request,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self, request: str, excluded) -> dict[str, float]:
        """Per span name, summed self time in one request.

        A span's time is its duration less ``excluded(start, end)``; its
        self time is that less the time of its child spans.
        """
        spans = [s for s in self.spans if s["request"] == request]
        own = {s["id"]: s["end"] - s["start"] - excluded(s["start"], s["end"])
               for s in spans}
        out: dict[str, float] = {}
        for s in spans:
            out[s["name"]] = out.get(s["name"], 0.0) + own[s["id"]]
            if s["parent"] is not None:
                parent = self.spans[s["parent"]]["name"]
                out[parent] -= own[s["id"]]
        return out


@contextmanager
def spans_around_run_job(hz, tr: Tracer):
    """Install span wrappers; yields a dict that receives the built group."""
    jobs = hz.jobs
    seen: dict = {}
    originals: list[tuple[object, str, object]] = []

    def patch(owner, name: str, new) -> None:
        originals.append((owner, name, vars(owner)[name]))
        setattr(owner, name, new)

    def spanned(span_name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tr.span(span_name):
                return fn(*args, **kwargs)
        return wrapper

    build_group = jobs.build_group

    def traced_build_group(spec):
        with tr.span("jobs.build_group"):
            group, type_filter = build_group(spec)
        with tr.span("perms.normalizer_in_sym"):
            hz.normalizer_in_sym(group)
        with tr.span("perms.conjugacy_classes"):
            group.conjugacy_classes()
        seen["group"] = group
        return group, type_filter

    components = jobs.components

    def traced_components(*args, **kwargs):
        with tr.span(f"moves.components_{kwargs.get('level', 'tuples')}"):
            return components(*args, **kwargs)

    census = vars(hz.SpaceClassification)["census"]

    patch(jobs, "build_group", traced_build_group)
    patch(jobs, "generate_group", spanned("perms.generate_group", jobs.generate_group))
    patch(jobs, "enumerate_tuples", spanned("tuples.enumerate", jobs.enumerate_tuples))
    patch(jobs, "classify_space", spanned("classify.classify_space", jobs.classify_space))
    patch(jobs, "components", traced_components)
    patch(jobs, "universal_fiber_report",
          spanned("covers.fiber_reports", jobs.universal_fiber_report))
    patch(hz.ResultCache, "load", spanned("cache.load", hz.ResultCache.load))
    patch(hz.ResultCache, "store", spanned("cache.store", hz.ResultCache.store))
    patch(hz.SpaceClassification, "census",
          property(spanned("classify.type_census", census.fget)))
    try:
        yield seen
    finally:
        for owner, name, original in reversed(originals):
            setattr(owner, name, original)
