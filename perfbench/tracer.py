"""Span tracing for the benchmark's traced run, installed from outside.

The program has no tracing of its own, so :class:`Tracer` patches it
from here for the duration of one traced run:

* every callback the simulator dispatches is wrapped when it is
  scheduled (``schedule``, ``schedule_at``, ``schedule_periodic``,
  ``timer``, ``repush``, ``adopt_periodic``, ``on_slot_flush``), as a
  span named after the layer that owns the callback's code;
* the public entry points of each layer (listed in ``_entry_points``)
  are wrapped in place on their classes, as spans named after the layer.

A span records its name, start, end and parent (the span open when it
began). Spans are kept in flat arrays in memory and written out when
the run ends. A layer's *self time* is the duration of its spans minus
the time covered by their child spans, so self times add up to the time
covered by root spans; anything in the traced window outside every span
is reported as ``other``.

Patching must happen before the traced workload is built: some objects
pre-bind their callbacks at construction.
"""

from __future__ import annotations

import time
from array import array

#: Module prefix -> owning layer, first match wins. Names follow the
#: repository's modules (sim/, net/, core/link.py, core/linkstate.py, ...).
MODULE_LAYERS = (
    ("repro.sim.", "sim"),
    ("repro.net.", "net"),
    ("repro.alg.", "route"),
    ("repro.core.linkstate", "lsdb"),
    ("repro.core.link", "link"),
    ("repro.core.compute", "route"),
    ("repro.core.routing", "route"),
    ("repro.core.pipeline", "fwd"),
    ("repro.core.node", "fwd"),
    ("repro.core.message", "fwd"),
    ("repro.protocols.", "proto"),
    ("repro.core.session", "session"),
    ("repro.core.client", "session"),
    ("repro.analysis.workloads", "session"),
    ("repro.apps.", "session"),
    ("repro.core.fluid", "fluid"),
    ("repro.core.warmstart", "warm"),
)

#: Callbacks whose module default is the wrong layer: a node's periodic
#: refresh and metric ticks originate link-state updates.
QUALNAME_LAYERS = {
    "OverlayNode._refresh_tick": "lsdb",
    "OverlayNode._metric_tick": "lsdb",
}

LAYERS = ("sim", "net", "link", "lsdb", "route", "fwd", "proto", "session",
          "fluid", "warm", "other")

#: Simulator methods that take a callback, and the callback's position
#: among their arguments.
SCHEDULING = {"schedule": 1, "schedule_at": 1, "schedule_periodic": 1,
              "timer": 0, "repush": 2, "adopt_periodic": 2, "on_slot_flush": 0}


class TraceError(RuntimeError):
    """The recorded spans are inconsistent."""


def layer_of(fn) -> str:
    """The layer owning a callable's code (``other`` when unknown)."""
    func = getattr(fn, "__func__", fn)
    qualname = getattr(func, "__qualname__", "")
    if qualname in QUALNAME_LAYERS:
        return QUALNAME_LAYERS[qualname]
    module = getattr(func, "__module__", None) or ""
    for prefix, layer in MODULE_LAYERS:
        if module.startswith(prefix):
            return layer
    return "other"


def _entry_points():
    """(owner, attribute, span name) for every wrapped layer entry point.
    Span names are ``layer`` or ``layer.detail``; details get their own
    time and call count in the report."""
    from repro.core import fluid, link, linkstate, node, pipeline, routing, session, warmstart
    from repro.core.client import OverlayClient
    from repro.core.compute import RouteComputeEngine
    from repro.net import backbone, internet
    from repro.sim.events import Simulator
    import repro.protocols as protocols  # noqa: F401  (registers every protocol)
    from repro.protocols.base import LinkProtocol, PacedSender

    points = [
        (Simulator, "run", "sim"),
        (internet.Internet, "send", "net"),
        (internet.Internet, "send_via", "net"),
        (backbone, "next_hops", "net.next_hop"),
        (link.OverlayLink, "transmit", "link"),
        (link.OverlayLink, "on_hello", "link.hello"),
        (linkstate.TopologyDatabase, "update", "lsdb.update"),
        (linkstate.GroupDatabase, "update", "lsdb.update"),
        (node.OverlayNode, "originate_lsu", "lsdb.originate"),
        (node.OverlayNode, "originate_gsu", "lsdb.originate"),
        (RouteComputeEngine, "lookup", "route"),
        (routing.RoutingService, "next_hop", "route"),
        (routing.RoutingService, "distance", "route"),
        (routing.RoutingService, "multicast_children", "route"),
        (routing.RoutingService, "anycast_target", "route"),
        (node.OverlayNode, "receive_frame", "fwd"),
        (node.OverlayNode, "ingress", "fwd"),
        (pipeline.DataPlane, "receive_from_link", "fwd"),
        (pipeline.DataPlane, "receive", "fwd"),
        (pipeline.DataPlane, "deliver", "fwd"),
        (session.SessionManager, "deliver_local", "session"),
        (OverlayClient, "send", "session"),
        (PacedSender, "kick", "proto"),
        (fluid.FluidEngine, "_recompute", "fluid.recompute"),
        (fluid.FluidEngine, "_settle", "fluid"),
        (warmstart, "construct_converged", "warm.construct"),
        (warmstart, "capture", "warm.capture"),
        (warmstart, "restore", "warm.restore"),
    ]
    seen = set()
    stack = [LinkProtocol]
    while stack:
        cls = stack.pop()
        stack.extend(cls.__subclasses__())
        for attr in ("send", "on_frame"):
            if attr in vars(cls) and (cls, attr) not in seen:
                seen.add((cls, attr))
                points.append((cls, attr, "proto"))
    return points


class Tracer:
    """Records spans into flat arrays while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("H")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._layer_of: dict = {}
        self._patches: list = []
        #: Counts taken at the wrapped boundaries (no program counter
        #: exists for these): update calls/accepted, flows per re-plan.
        self.counts = {"lsdb.updates": 0, "lsdb.accepted": 0,
                       "lsdb.originated": 0, "link.hellos": 0,
                       "fluid.flow_plans": 0}

    # ----------------------------------------------------------- spans

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name: str, counter: str | None = None, accept: str | None = None):
        """``fn`` recording one span per call; optionally counting calls
        (``counter``) and truthy results (``accept``)."""
        nid = self.name_id(name)
        names, parents, starts, ends = self.name_of, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns
        counts = self.counts

        if counter is None:
            def traced(*args, **kwargs):
                idx = len(starts)
                names.append(nid)
                parents.append(stack[-1])
                ends.append(0)
                stack.append(idx)
                starts.append(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    ends[idx] = clock()
                    stack.pop()
        else:
            def traced(*args, **kwargs):
                idx = len(starts)
                names.append(nid)
                parents.append(stack[-1])
                ends.append(0)
                stack.append(idx)
                starts.append(clock())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    ends[idx] = clock()
                    stack.pop()
                counts[counter] += 1
                if accept is not None and result:
                    counts[accept] += 1
                return result
        traced.__wrapped__ = fn
        return traced

    def wrap_callback(self, fn):
        """A dispatched callback, as a span of the layer owning it."""
        func = getattr(fn, "__func__", fn)
        name = self._layer_of.get(func)
        if name is None:
            name = self._layer_of[func] = layer_of(fn)
        return self.wrap(fn, name)

    # ------------------------------------------------------- patching

    def patch(self, owner, attr: str, new) -> None:
        """Replace ``owner.attr`` (a class or module attribute) until
        :meth:`uninstall`."""
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap the simulator's scheduling calls and every layer entry
        point. Undone by :meth:`uninstall`."""
        from repro.sim.events import Simulator

        for attr, pos in SCHEDULING.items():
            self.patch(Simulator, attr, self._wrap_scheduler(vars(Simulator)[attr], pos))
        counted = {
            "lsdb.update": ("lsdb.updates", "lsdb.accepted"),
            "lsdb.originate": ("lsdb.originated", None),
            "link.hello": ("link.hellos", None),
        }
        for owner, attr, name in _entry_points():
            orig = vars(owner)[attr]
            if name == "fluid.recompute":
                self.patch(owner, attr, self._wrap_recompute(orig))
            else:
                self.patch(owner, attr, self.wrap(orig, name, *counted.get(name, ())))

    def _wrap_scheduler(self, orig, pos: int):
        """``orig`` with its callback argument (positional ``pos`` after
        the simulator, or keyword ``fn``) wrapped by :meth:`wrap_callback`."""
        wrap_cb = self.wrap_callback

        def scheduler(sim, *args, **kwargs):
            if len(args) > pos and args[pos] is not None:
                args = (*args[:pos], wrap_cb(args[pos]), *args[pos + 1:])
            elif kwargs.get("fn") is not None:
                kwargs["fn"] = wrap_cb(kwargs["fn"])
            return orig(sim, *args, **kwargs)
        return scheduler

    def _wrap_recompute(self, orig):
        traced = self.wrap(orig, "fluid.recompute")
        counts = self.counts

        def recompute(engine):
            counts["fluid.flow_plans"] += len(engine.flows)
            return traced(engine)
        return recompute

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -------------------------------------------------------- reports

    def mark(self) -> int:
        """Index of the next span (window boundaries)."""
        return len(self.start)

    def self_times(self, lo: int, hi: int) -> tuple[dict, float]:
        """Over spans ``[lo, hi)``, which must form whole trees: per span
        name (self seconds, calls, total seconds), and the seconds the
        root spans cover."""
        import numpy as np

        names = np.frombuffer(self.name_of, dtype=np.uint16)[lo:hi]
        parent = np.frombuffer(self.parent, dtype=np.int32)[lo:hi].astype(np.int64)
        start = np.frombuffer(self.start, dtype=np.int64)[lo:hi]
        end = np.frombuffer(self.end, dtype=np.int64)[lo:hi]
        dur = end - start
        if (dur < 0).any():
            raise TraceError("a span closed before it opened")
        child = np.zeros(len(dur), dtype=np.int64)
        inner = parent >= lo
        np.add.at(child, parent[inner] - lo, dur[inner])
        own = dur - child
        if (own < 0).any():
            raise TraceError("child spans overlap their parent")
        n_names = len(self.names)
        self_ns = np.bincount(names, weights=own, minlength=n_names)
        total_ns = np.bincount(names, weights=dur, minlength=n_names)
        calls = np.bincount(names, minlength=n_names)
        per_name = {name: (self_ns[nid] / 1e9, int(calls[nid]), total_ns[nid] / 1e9)
                    for nid, name in enumerate(self.names) if calls[nid]}
        return per_name, float(dur[~inner].sum()) / 1e9

    def write(self, path) -> None:
        """Write every recorded span (compressed numpy arrays)."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_of=np.frombuffer(self.name_of, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )
