"""Span tracing installed from outside the package.

Each timed function is wrapped on *every* module binding that refers to it
(``scenarios`` imports ``solve_placement`` and ``compute_channel_records`` by
name, ``cli`` imports ``run_sweep`` and ``load_config``), so calls through an
alias are timed too.  Spans stay in memory as
``(name, start, end, parent_index, op_id)`` tuples until the caller writes
them out; counters taken from the solvers' returned ``stats`` sit beside
them.
"""

from __future__ import annotations

import importlib
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: span name -> (defining module, attribute path) of the timed callable.
TARGETS: Dict[str, Tuple[str, str]] = {
    "config.load": ("owcfog.config", "load_config"),
    "channel.records": ("owcfog.channel", "compute_channel_records"),
    "channel.trace": ("owcfog.channel", "trace_impulse_response"),
    "channel.delay_spread": ("owcfog.channel", "delay_spread"),
    "channel.bandwidth_3db": ("owcfog.channel", "bandwidth_3db"),
    "signal_model.table": ("owcfog.signal_model", "ChannelTable.from_records"),
    "allocator.problem": ("owcfog.allocator", "AllocationProblem.from_table"),
    "allocator.solve": ("owcfog.allocator", "solve_branch_and_bound"),
    "topology.build": ("owcfog.topology", "build_reference_topology"),
    "placement.solve": ("owcfog.placement", "solve_branch_and_bound"),
    "placement.sweep": ("owcfog.placement", "sweep"),
    "scenarios.cdf": ("owcfog.scenarios", "cdf_table"),
    "scenarios.bundle_write": ("owcfog.scenarios", "ResultBundle.write"),
}

_CHANNEL = ["channel.records", "channel.trace", "channel.delay_spread",
            "channel.bandwidth_3db", "scenarios.cdf"]

#: Spans that must fire at least once on each workload.  A function that is
#: renamed or no longer called then fails the run instead of reading zero.
REQUIRED: Dict[str, List[str]] = {
    "chain-analogue": ["config.load", *_CHANNEL, "signal_model.table",
                       "allocator.problem", "allocator.solve",
                       "topology.build", "placement.solve",
                       "scenarios.bundle_write"],
    "channel-grid": ["config.load", *_CHANNEL, "scenarios.bundle_write"],
    "placement-sweep": ["config.load", "topology.build", "placement.sweep",
                        "placement.solve", "scenarios.bundle_write"],
}


class SpanCoverageError(RuntimeError):
    """A span the workload must produce never fired."""


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self, op_id: int = 0):
        self.op_id = op_id
        self.spans: List[Tuple[str, float, float, int, int]] = []
        self.solver_stats: Dict[str, List[Dict]] = {}
        self.fft_calls = 0
        self._fft_inputs: Dict[int, object] = {}
        self._stack: List[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            if name == "channel.bandwidth_3db":
                tracer._note_fft_input(args[0] if args else kwargs["ir"])
            index = len(tracer.spans)
            tracer.spans.append(None)            # reserved for this span
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.op_id)
            stats = getattr(result, "stats", None)
            if isinstance(stats, dict):
                tracer.solver_stats.setdefault(name, []).append(
                    {k: stats[k] for k in ("nodes", "leaves", "bound_prunes",
                                           "gap", "complete") if k in stats})
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    @property
    def fft_distinct(self) -> int:
        """Distinct response objects passed to ``bandwidth_3db`` so far."""
        return len(self._fft_inputs)

    def _note_fft_input(self, ir) -> None:
        # Every response seen is held, so its id cannot be reused by a later
        # one.  That costs memory, but a traced pass reports no memory figure.
        self.fft_calls += 1
        self._fft_inputs.setdefault(id(ir), ir)


def _resolve(module_name: str, path: str):
    """Return ``(owner, attribute, raw value, callable)`` for a target."""
    owner = sys.modules[module_name]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
    fn = raw.__func__ if isinstance(raw, classmethod) else raw
    return owner, attr, raw, fn


def install(tracer: Tracer, targets: Optional[Dict[str, Tuple[str, str]]] = None
            ) -> Callable[[], None]:
    """Wrap every binding of every target; return a function undoing it.

    Module-level functions are replaced wherever an ``owcfog`` module holds
    the same object; methods and classmethods are replaced on their class.
    """
    targets = TARGETS if targets is None else targets
    for module_name, _ in targets.values():
        importlib.import_module(module_name)
    modules = [m for n, m in list(sys.modules.items())
               if n == "owcfog" or n.startswith("owcfog.")]
    undo: List[Tuple[object, str, object]] = []
    for name, (module_name, path) in targets.items():
        owner, attr, raw, fn = _resolve(module_name, path)
        wrapped = tracer.wrap(name, fn)
        if isinstance(owner, type):
            replacement = (classmethod(wrapped) if isinstance(raw, classmethod)
                           else wrapped)
            undo.append((owner, attr, raw))
            setattr(owner, attr, replacement)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    undo.append((module, key, value))
                    setattr(module, key, wrapped)

    def uninstall() -> None:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return uninstall


def check_coverage(workload: str, span_names) -> None:
    """Raise :class:`SpanCoverageError` if a required span never fired."""
    seen = set(span_names)
    missing = [n for n in REQUIRED[workload] if n not in seen]
    if missing:
        raise SpanCoverageError(
            f"workload {workload!r}: spans never fired: {', '.join(missing)}")


def self_times(spans) -> Dict[str, float]:
    """Total self time per span name: duration minus direct children's."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: Dict[str, float] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - child_time[i]
    return out
