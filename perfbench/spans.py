"""Span recording for the traced benchmark runs.

The tracer rebinds the public names that tftkit's modules look up at
call time, for example ``tftkit.polymul.tft_in_place``, with thin
wrappers that record one span per call.  Nothing under ``src/`` is
edited.  A name bound by ``from .tft import tft_in_place`` is a
separate binding in each caller module, so every caller module is
listed in ``TARGETS``.

Spans stay in memory while the run lasts; self times and the
per-layer metrics are computed from them afterwards.  A span's self
time is its duration minus the time its children cover.  The
``pair_stream`` generator interleaves with the butterflies of its
parent kernel, so its span carries ``busy``, the summed time spent
inside ``next()``, and that is what it covers of its parent.
"""

from __future__ import annotations

import importlib
from time import perf_counter

# span name -> (defining module, attribute, modules whose binding is rebound)
_CALLERS = ("tftkit", "tftkit.polymul", "tftkit.cli", "tftkit.instrumentation")
TARGETS = {
    "tft.tft_in_place": ("tftkit.tft", "tft_in_place", _CALLERS),
    "itft.itft_in_place": ("tftkit.itft", "itft_in_place", _CALLERS),
    "tft.make_plan": ("tftkit.tft", "make_plan", _CALLERS),
    "twiddle.pair_stream": ("tftkit.twiddle", "pair_stream", ("tftkit.tft", "tftkit.itft")),
    "twiddle.twiddle_forward": ("tftkit.twiddle", "twiddle_forward", ("tftkit.tft", "tftkit.itft")),
    "twiddle.twiddle_inverse": ("tftkit.twiddle", "twiddle_inverse", ("tftkit.itft",)),
    "polymul.tft_polymul": ("tftkit.polymul", "tft_polymul", ("tftkit", "tftkit.cli")),
    "instrumentation.measure_transform": (
        "tftkit.instrumentation", "measure_transform", ("tftkit.cli",)),
    "instrumentation.bound_check": ("tftkit.instrumentation", "bound_check", ("tftkit.cli",)),
    "oracle.naive_tft": ("tftkit.oracle", "naive_tft", ("tftkit.cli",)),
    "cli.main": ("tftkit.cli", "main", ("tftkit.cli",)),
}
KERNELS = ("tft.tft_in_place", "itft.itft_in_place")
_GENERATORS = ("twiddle.pair_stream",)
EPSILON_S = 1e-7


class Span:
    __slots__ = ("sid", "parent", "rid", "name", "t0", "t1", "busy", "count", "attrs")

    def __init__(self, sid, parent, rid, name, t0, attrs=None):
        self.sid = sid
        self.parent = parent
        self.rid = rid
        self.name = name
        self.t0 = t0
        self.t1 = t0
        self.busy = None
        self.count = 0
        self.attrs = attrs

    @property
    def cost(self) -> float:
        """Time this span covers of its parent."""
        return self.t1 - self.t0 if self.busy is None else self.busy

    def row(self) -> list:
        return [self.sid, self.parent, self.rid, self.name, self.t0, self.t1,
                self.busy, self.count, self.attrs]

    @classmethod
    def from_row(cls, row) -> "Span":
        span = cls(row[0], row[1], row[2], row[3], row[4], row[8])
        span.t1, span.busy, span.count = row[5], row[6], row[7]
        return span


def kernel_attrs(plan, buffer, ring=None) -> dict:
    """Shape of one kernel call: length, ring type and buffer type."""
    ring_type = "PrimeField" if ring is None else type(ring).__name__
    return {"ell": plan.ell, "ring": ring_type, "buffer": type(buffer).__name__}


class _Proxy:
    """Stands in for a class whose classmethod is traced."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    """Records spans of the calls made while a request is open."""

    def __init__(self):
        self.spans: list[Span] = []
        self.installed: list[str] = []
        self._stack: list[Span] = []
        self._rid = None
        self.root: Span | None = None
        self._saved: list[tuple] = []

    # --- recording ---

    def open_request(self, rid, attrs=None) -> Span:
        root = self._open("request", attrs, rid=rid, parent=None)
        self.root = root
        self._rid = rid
        self._stack.append(root)
        return root

    def activate(self, rid=0) -> None:
        """Record calls without a request root, as a traced child process does."""
        self._rid = rid

    def record(self, name, t0, t1) -> None:
        """Add a span timed by the caller."""
        span = self._open(name, None)
        span.t0, span.t1 = t0, t1

    def close_request(self) -> None:
        root = self._stack.pop()
        root.t1 = perf_counter()
        self._rid = None
        self._stack.clear()

    def adopt(self, rows, parent: Span) -> None:
        """Attach spans recorded in another process under parent."""
        offset = len(self.spans)
        for row in rows:
            span = Span.from_row(row)
            span.sid += offset
            span.parent = parent.sid if span.parent is None else span.parent + offset
            span.rid = parent.rid
            self.spans.append(span)

    def _open(self, name, attrs, rid=None, parent=-1) -> Span:
        if parent == -1:
            parent = self._stack[-1].sid if self._stack else None
        span = Span(len(self.spans), parent, self._rid if rid is None else rid,
                    name, perf_counter(), attrs)
        self.spans.append(span)
        return span

    def wrap(self, name, fn, attrs=None):
        tracer = self
        stack = self._stack

        def traced(*args, **kwargs):
            if tracer._rid is None:
                return fn(*args, **kwargs)
            span = tracer._open(name, attrs(*args, **kwargs) if attrs else None)
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.t1 = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            if tracer._rid is None:
                return fn(*args, **kwargs)
            span = tracer._open(name, None)
            gen = fn(*args, **kwargs)
            span.busy = perf_counter() - span.t0
            return _timed(gen, span)

        traced.__wrapped__ = fn
        return traced

    # --- installing ---

    def install(self) -> None:
        """Rebind every traced name in the modules that call it."""
        for name, (home, attr, callers) in TARGETS.items():
            original = getattr(importlib.import_module(home), attr)
            if name in _GENERATORS:
                wrapper = self.wrap_generator(name, original)
            else:
                wrapper = self.wrap(name, original, kernel_attrs if name in KERNELS else None)
            for caller in callers:
                self._rebind(importlib.import_module(caller), attr, original, wrapper, name)
        cli = importlib.import_module("tftkit.cli")
        field = cli.PrimeField
        proxy = _Proxy(field, from_modulus=self.wrap("ring.from_modulus", field.from_modulus))
        self._rebind(cli, "PrimeField", field, proxy, "ring.from_modulus")

    def _rebind(self, module, attr, original, replacement, name) -> None:
        # a binding that no longer holds the original is left alone
        if getattr(module, attr, None) is original:
            self._saved.append((module, attr, original))
            setattr(module, attr, replacement)
            self.installed.append(f"{module.__name__}.{attr} -> {name}")

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def _timed(gen, span):
    busy = span.busy
    count = 0
    try:
        while True:
            t = perf_counter()
            try:
                item = next(gen)
            except StopIteration:
                busy += perf_counter() - t
                return
            busy += perf_counter() - t
            count += 1
            yield item
    finally:
        span.t1 = perf_counter()
        span.busy = busy
        span.count = count


# --- analysis ---


class TraceError(Exception):
    """The recorded spans contradict each other."""


def self_times(spans) -> dict[int, float]:
    """Self time of every span, checking that children fit their parent.

    Raises TraceError when the children of a span cover more time than
    the span itself lasted.
    """
    covered: dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            covered[span.parent] = covered.get(span.parent, 0.0) + span.cost
    result = {}
    for span in spans:
        own = span.cost - covered.get(span.sid, 0.0)
        if own < -EPSILON_S:
            raise TraceError(
                f"children of span {span.sid} ({span.name}) cover "
                f"{covered[span.sid]:.9f} s of its {span.cost:.9f} s"
            )
        result[span.sid] = max(own, 0.0)
    return result


def span_tree(spans, selfs, rid) -> dict:
    """Nested view of one request's spans, times in milliseconds."""
    mine = [s for s in spans if s.rid == rid]
    kids: dict = {}
    for span in mine:
        kids.setdefault(span.parent, []).append(span)

    def node(span):
        out = {"name": span.name, "ms": span.cost * 1e3, "self_ms": selfs[span.sid] * 1e3}
        if span.attrs:
            out["attrs"] = span.attrs
        if span.busy is not None:
            out["items"] = span.count
        children = kids.get(span.sid, [])
        if children:
            out["children"] = [node(c) for c in children]
        return out

    roots = [s for s in mine if s.name == "request"]
    return node(roots[0]) if roots else {}
