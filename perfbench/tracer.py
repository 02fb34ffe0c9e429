"""In-memory spans around the public functions of the latticewalks layers.

``Tracer.install`` replaces every public function of the six layer
modules on each attribute that holds it: the module's own attribute, the
package re-export, and the by-name imports other modules hold (for
example ``cli.verify_identity`` or ``verify.builtin``).  Calls made
through module globals, such as ``verify`` calling ``series.expand`` or
``quadrature.moment``, therefore pass through a wrapper too.

A span is ``[id, parent, name, layer, start, end]`` with times from
``time.perf_counter`` (CLOCK_MONOTONIC on Linux, so spans recorded in a
child process line up with the parent's).  A few wrappers also record
counters the per-layer metrics need: the grid size of each
``quadrature.moment`` call, the length of each ``oracle.enumerate_walks``
call and the records of each ``verify.verify_identity`` report.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("lattices", "series", "oracle", "quadrature", "verify", "cli")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters = {
            "moment_calls": 0,
            "moment_repeats": 0,  # moment calls whose (lattice, N) this process saw before
            "grid_points": 0,  # sum of N**D over moment calls
            "max_walk_length": 0,  # longest enumerate_walks call
            "records": 0,  # verify records
            "oracle_records": 0,  # verify records that carry an oracle count
            "worst_rel_error": 0.0,
        }
        self.grids_seen: set = set()
        self.enabled = True
        self._stack: list[int] = []

    # -- recording ---------------------------------------------------------

    def span(self, name: str, layer: str, start: float, end: float) -> int:
        """Record a finished top-level span measured outside a wrapper."""
        span_id = len(self.spans)
        self.spans.append([span_id, None, name, layer, start, end])
        return span_id

    def adopt(self, spans: list[list], parent: int) -> None:
        """Append a child process's spans below ``parent``, renumbering their ids."""
        offset = len(self.spans)
        for span_id, up, name, layer, start, end in spans:
            up = parent if up is None else up + offset
            self.spans.append([span_id + offset, up, name, layer, start, end])

    def merge(self, counters: dict) -> None:
        """Fold a child process's counters into these (sums, or maxima for extremes)."""
        for key, value in counters.items():
            if key.startswith(("max_", "worst_")):
                self.counters[key] = max(self.counters[key], value)
            else:
                self.counters[key] += value

    def _wrap(self, fn, layer: str):
        name = f"{layer}.{fn.__name__}"
        observe = _OBSERVERS.get(fn.__name__)
        signature = inspect.signature(fn) if observe else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span_id = len(self.spans)
            record = [span_id, self._stack[-1] if self._stack else None, name, layer, 0.0, 0.0]
            self.spans.append(record)
            self._stack.append(span_id)
            record[4] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[5] = time.perf_counter()
                self._stack.pop()
            if observe:
                observe(self, signature.bind(*args, **kwargs).arguments, result)
            return result

        traced.__wrapped_by_tracer__ = True
        return traced

    def install(self) -> None:
        """Wrap the public layer functions on every latticewalks module attribute."""
        import latticewalks.cli  # noqa: F401  (imports every layer module)

        layer_of = {f"latticewalks.{layer}": layer for layer in LAYERS}
        modules = [
            module
            for name, module in sorted(sys.modules.items())
            if name == "latticewalks" or name.startswith("latticewalks.")
        ]
        wrapped: dict[int, object] = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                layer = layer_of.get(getattr(obj, "__module__", None))
                if layer is None or getattr(obj, "__wrapped_by_tracer__", False):
                    continue
                if id(obj) not in wrapped:
                    wrapped[id(obj)] = self._wrap(obj, layer)
                setattr(module, attr, wrapped[id(obj)])


# -- counters recorded at layer boundaries ------------------------------------


def _observe_moment(tracer, arguments, result):
    spec, points = arguments["spec"], int(arguments["grid_points"])
    key = (spec.name, spec.pbc_size, points)
    counters = tracer.counters
    counters["moment_calls"] += 1
    counters["moment_repeats"] += key in tracer.grids_seen
    counters["grid_points"] += points**spec.dimension
    tracer.grids_seen.add(key)


def _observe_walks(tracer, arguments, result):
    counters = tracer.counters
    counters["max_walk_length"] = max(counters["max_walk_length"], int(arguments["n"]))


def _observe_verify(tracer, arguments, report):
    counters = tracer.counters
    for record in report.records:
        counters["records"] += 1
        counters["oracle_records"] += record.oracle_count is not None
        if record.rel_error is not None:
            counters["worst_rel_error"] = max(counters["worst_rel_error"], record.rel_error)


_OBSERVERS = {
    "moment": _observe_moment,
    "enumerate_walks": _observe_walks,
    "verify_identity": _observe_verify,
}


# -- aggregation ---------------------------------------------------------------


def self_times(spans: list[list]) -> dict[str, float]:
    """Seconds per layer inside its spans but outside their child spans."""
    child_time: dict = {}
    for _, parent, _, _, start, end in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    out: dict[str, float] = {}
    for span_id, _, _, layer, start, end in spans:
        out[layer] = out.get(layer, 0.0) + (end - start) - child_time.get(span_id, 0.0)
    return out


def entry_calls(spans: list[list]) -> dict[str, int]:
    """Calls into each layer from outside it (nested same-layer calls excluded)."""
    layer_of = {span[0]: span[3] for span in spans}
    out: dict[str, int] = {}
    for _, parent, _, layer, _, _ in spans:
        if parent is None or layer_of[parent] != layer:
            out[layer] = out.get(layer, 0) + 1
    return out


def covered_seconds(spans: list[list]) -> float:
    """Length of the union of the top-level spans."""
    intervals = sorted((s[4], s[5]) for s in spans if s[1] is None)
    total, reach = 0.0, float("-inf")
    for start, end in intervals:
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total

