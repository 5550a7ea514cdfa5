"""Fiber links and routing domains (ISP backbones, and the interdomain
"native Internet" domain built by :class:`repro.net.internet.Internet`).

The key behaviour reproduced here is *slow reconvergence*: when a fiber
fails, the domain keeps forwarding along stale routing tables — packets
die at the failed hop — until ``convergence_delay`` elapses and the
tables are recomputed. Inside an ISP this is seconds; for the
interdomain paths the paper cites 40 seconds to minutes of BGP
convergence. The overlay's sub-second rerouting (Sec II-A) is measured
against exactly this behaviour.
"""

from __future__ import annotations

import random
from typing import Callable, Hashable

from repro.alg.dijkstra import dijkstra, extract_path, next_hops, reverse_adjacency
from repro.net.loss import LossModel, NoLoss
from repro.sim.events import Simulator

NodeId = Hashable

#: Direction constants for per-direction link queues.
FWD = 1
REV = -1

#: Instant-profile modes (see :meth:`FiberLink.instant_profile`).
PROF_DROP = 0     #: every crossing this instant is lost
PROF_SHARED = 1   #: draw-free pass; all crossings share one arrival
PROF_DECIDED = 2  #: loss decided per packet from ``p``; rest per packet
PROF_SCALAR = 3   #: unbatchable — full per-packet :meth:`traverse` calls


class FiberLink:
    """A physical (bidirectional) fiber between two routers.

    One :class:`FiberLink` object may be referenced by several routing
    domains (its owning ISP's domain and the interdomain domain), so a
    physical cut affects every path that shares the fiber — this is what
    makes the disjointness audits of Fig 1 meaningful.

    Attributes:
        name: Stable identifier, e.g. ``"ispA:NYC-CHI"``.
        delay: One-way propagation delay in seconds.
        capacity_bps: Serialization rate; ``None`` means uncapped.
        loss: The link's loss process (replaceable at runtime).
        failed: Physical state; failed links drop every packet.
    """

    #: Packets queued beyond this many seconds of serialization delay
    #: are dropped (a bounded router queue).
    MAX_QUEUE_DELAY = 0.2

    def __init__(
        self,
        name: str,
        delay: float,
        capacity_bps: float | None = None,
        loss: LossModel | None = None,
        jitter: float = 0.0,
    ) -> None:
        if delay < 0:
            raise ValueError(f"negative link delay: {delay}")
        if jitter < 0:
            raise ValueError(f"negative jitter: {jitter}")
        self.name = name
        self.delay = delay
        self.capacity_bps = capacity_bps
        self.loss = loss if loss is not None else NoLoss()
        #: Maximum extra per-packet queueing noise (uniform in
        #: [0, jitter]); large enough values reorder packets, which the
        #: recovery protocols must absorb without spurious requests.
        self.jitter = jitter
        self.failed = False
        #: Per-link loss RNG stream, filled in by the Internet on first
        #: traversal (cached here to keep the per-hop path lookup-free).
        self._loss_rng = None
        #: Per-link numpy Generator for the vectorized tier's per-packet
        #: draws (loss verdicts, jitter) — seeded lazily by the Internet
        #: from the link's scalar loss stream, so creation is
        #: deterministic per run without a per-group construction cost.
        self._vec_gen = None
        self._busy_until = {FWD: 0.0, REV: 0.0}
        self.bytes_carried = 0
        self.packets_carried = 0
        self.packets_dropped = 0
        #: Fluid traffic carried across the fiber (settled analytically
        #: by the fluid engine per rate interval — kept separate from
        #: the per-packet counters above so the two accounting domains
        #: never mix).
        self.fluid_bytes = 0.0

    def traverse(
        self, now: float, wire_bytes: int, direction: int, rng: random.Random
    ) -> float | None:
        """Attempt to carry ``wire_bytes`` across the link.

        Returns the arrival time at the far end, or ``None`` if the
        packet is lost (failure, loss process, or queue overflow).
        """
        if self.failed:
            self.packets_dropped += 1
            return None
        if self.loss.should_drop(now, rng):
            self.packets_dropped += 1
            return None
        queue_delay = 0.0
        tx_delay = 0.0
        if self.capacity_bps is not None:
            tx_delay = wire_bytes * 8.0 / self.capacity_bps
            busy = self._busy_until[direction]
            queue_delay = max(0.0, busy - now)
            if queue_delay > self.MAX_QUEUE_DELAY:
                self.packets_dropped += 1
                return None
            self._busy_until[direction] = now + queue_delay + tx_delay
        self.bytes_carried += wire_bytes
        self.packets_carried += 1
        noise = rng.uniform(0.0, self.jitter) if self.jitter > 0 else 0.0
        return now + queue_delay + tx_delay + self.delay + noise

    def instant_profile(
        self, now: float, rng: random.Random
    ) -> tuple[bool, LossModel, int, float | None, float | None]:
        """The shared fate of every crossing of this link at instant
        ``now`` — the columnar data plane's per-(slot, link) memo.

        Computed lazily at the *first* crossing's firing position and
        cached by the Internet for the rest of the slot, so the work a
        scalar run repeats per packet (loss-state advance, outage-window
        scan, arrival arithmetic) is paid once per (link, instant).
        Returns ``(failed, loss, mode, p, shared_arrival)``:

        * ``failed``/``loss`` — snapshots; the caller re-profiles when
          either moved mid-slot (a fail/repair or loss-model swap event
          in the same bucket). Re-profiling is draw-safe: the only draws
          a profile consumes are the loss model's state advances, which
          are idempotent at one instant.
        * ``mode == PROF_DROP`` — every crossing is lost (failed link,
          or an outage window). ``p`` non-None means the scalar path
          would still consume one ``rng.random()`` per packet (a
          composite with a stochastic component) — the caller must draw
          and discard it before dropping.
        * ``mode == PROF_SHARED`` — the instant is draw-free and
          queue-free: every crossing passes and arrives at
          ``shared_arrival``, computed with the exact float-op sequence
          of :meth:`traverse`. The caller bumps the pass counters
          itself.
        * ``mode == PROF_DECIDED`` — loss is decided per packet as
          ``rng.random() < p`` (no draw when ``p`` is None); survivors
          finish through :meth:`finish_pass` (queueing, jitter,
          counters) at their own firing position.
        * ``mode == PROF_SCALAR`` — unbatchable loss model (more than
          one per-packet draw): full :meth:`traverse` per packet.
        """
        if self.failed:
            # The scalar path drops before consulting the loss model, so
            # a failed-link profile must not touch it (no advance draws).
            return (True, self.loss, PROF_DROP, None, None)
        profile = self.loss.batch_profile(now, rng)
        if profile is None:
            return (False, self.loss, PROF_SCALAR, None, None)
        always_drop, p = profile
        if always_drop:
            return (False, self.loss, PROF_DROP, p, None)
        if p is None and self.jitter == 0 and self.capacity_bps is None:
            # Mirror traverse's arithmetic exactly (queue_delay and
            # tx_delay are 0.0, noise is 0.0): byte-identical arrivals.
            return (
                False, self.loss, PROF_SHARED, None,
                now + 0.0 + 0.0 + self.delay + 0.0,
            )
        return (False, self.loss, PROF_DECIDED, p, None)

    def batch_traverse(self, now, wires, direction, gen, lost, np):
        """Vectorized tail of :meth:`traverse` for ``k`` same-instant
        crossings whose loss verdicts were already drawn — the
        approximate columnar tier's per-(slot, link, direction) settle.

        ``wires`` is a float array of wire sizes, ``lost`` the boolean
        verdict array from :meth:`LossModel.batch_draws`, ``gen`` the
        link's numpy generator (jitter draws), ``np`` the numpy module.
        The caller has already handled the failed-link case. Returns
        ``(arrivals, dropped)``: arrival times (undefined where
        dropped) and the final drop verdicts (loss plus queue
        overflow). Counters advance exactly as ``k`` scalar traverses
        would.

        Queueing is a cumulative-sum fold of the survivors'
        serialization times over the busy horizon: at one shared
        instant, survivor ``i``'s queue delay is
        ``max(busy, now) + sum(tx of earlier survivors) - now``, which
        reproduces the scalar per-packet recurrence exactly — except
        when a packet overflows the bounded queue (an overflowed packet
        must *not* advance the horizon), so any overflow falls back to
        the exact sequential recurrence for the group (rare: it means
        the slot alone carries > ``MAX_QUEUE_DELAY`` of serialization).
        """
        k = len(wires)
        if self.capacity_bps is None:
            dropped = lost
            if self.jitter > 0:
                arrivals = (now + self.delay) + gen.uniform(0.0, self.jitter, k)
            else:
                arrivals = np.full(k, now + self.delay)
        else:
            tx = wires * (8.0 / self.capacity_bps)
            surv = ~lost
            tx_eff = np.where(surv, tx, 0.0)
            finish = max(self._busy_until[direction], now) + np.cumsum(tx_eff)
            queue_delay = finish - tx_eff - now
            overflow = surv & (queue_delay > self.MAX_QUEUE_DELAY)
            if overflow.any():
                # Exact sequential recurrence: overflowed packets are
                # dropped without advancing the busy horizon, which the
                # prefix sum cannot express.
                busy = self._busy_until[direction]
                dropped = lost.copy()
                queue_delay = np.zeros(k)
                for i in range(k):
                    if dropped[i]:
                        continue
                    qd = busy - now
                    if qd < 0.0:
                        qd = 0.0
                    if qd > self.MAX_QUEUE_DELAY:
                        dropped[i] = True
                        continue
                    busy = now + qd + tx[i]
                    queue_delay[i] = qd
                self._busy_until[direction] = busy
            else:
                dropped = lost
                if surv.any():
                    self._busy_until[direction] = float(finish[-1])
            arrivals = now + queue_delay + tx + self.delay
            if self.jitter > 0:
                arrivals = arrivals + gen.uniform(0.0, self.jitter, k)
        n_dropped = int(dropped.sum())
        self.packets_dropped += n_dropped
        self.packets_carried += k - n_dropped
        if n_dropped:
            self.bytes_carried += int(wires.sum() - wires[dropped].sum())
        else:
            self.bytes_carried += int(wires.sum())
        return arrivals, dropped

    def finish_pass(
        self, now: float, wire_bytes: int, direction: int, rng: random.Random
    ) -> float | None:
        """Complete a crossing whose loss outcome was already decided
        (and survived): the queueing / jitter / counter tail of
        :meth:`traverse`, float-op for float-op. Returns the arrival
        time, or ``None`` on queue overflow."""
        queue_delay = 0.0
        tx_delay = 0.0
        if self.capacity_bps is not None:
            tx_delay = wire_bytes * 8.0 / self.capacity_bps
            busy = self._busy_until[direction]
            queue_delay = max(0.0, busy - now)
            if queue_delay > self.MAX_QUEUE_DELAY:
                self.packets_dropped += 1
                return None
            self._busy_until[direction] = now + queue_delay + tx_delay
        self.bytes_carried += wire_bytes
        self.packets_carried += 1
        noise = rng.uniform(0.0, self.jitter) if self.jitter > 0 else 0.0
        return now + queue_delay + tx_delay + self.delay + noise

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "FAILED" if self.failed else "up"
        return f"<FiberLink {self.name} {self.delay * 1000:.1f}ms {state}>"


class RoutingDomain:
    """A routed graph of routers and fibers with delayed reconvergence.

    Forwarding is hop-by-hop through next-hop tables. Tables reflect the
    topology *as of the last convergence*: ``fail_link`` / ``repair_link``
    take effect on forwarding state only ``convergence_delay`` seconds
    later (the physical drop behaviour is immediate, via
    :attr:`FiberLink.failed`).

    Building the domain converges instantly: every :meth:`add_link_object`
    leaves the routing adjacency equal to :meth:`_current_adjacency`,
    in content and in dict order. An add patches the two affected rows
    in place instead of rebuilding every row, which makes building an
    ``E``-fiber domain O(E) rather than O(E²). Physical state changes
    reach the domain through :meth:`fail_link`, :meth:`repair_link`
    and :meth:`notify_topology_changed`, which schedule a
    reconvergence; while one is pending the routing adjacency lags the
    fibers on purpose, and adds take the full rebuild.
    """

    def __init__(
        self, name: str, sim: Simulator, convergence_delay: float = 10.0
    ) -> None:
        self.name = name
        self.sim = sim
        self.convergence_delay = convergence_delay
        self._adj: dict[NodeId, dict[NodeId, tuple[FiberLink, int]]] = {}
        self._route_adj: dict[NodeId, dict[NodeId, float]] = {}
        #: ``reverse_adjacency(_route_adj)``, built on the first table
        #: miss of each ``tables_epoch`` and shared by every
        #: destination's table.
        self._reversed_adj: dict | None = None
        self._tables: dict[NodeId, dict[NodeId, NodeId]] = {}
        self._converge_listeners: list[Callable[[], None]] = []
        self._pending_reconverge = False
        #: Bumped whenever the forwarding tables are recomputed; path
        #: caches keyed on it (the vectorized tier's fast-forward cache)
        #: see stale-table forwarding exactly as hop-by-hop lookups do.
        self.tables_epoch = 0

    # ---------------------------------------------------------- topology

    def add_router(self, router: NodeId) -> None:
        if router in self._adj:
            return
        self._adj[router] = {}
        if not self._pending_reconverge:
            # An isolated router adds no edge: the reversed adjacency
            # and every table stay valid.
            self._route_adj[router] = {}

    @property
    def routers(self) -> list[NodeId]:
        return list(self._adj)

    def add_link(
        self,
        a: NodeId,
        b: NodeId,
        delay: float,
        capacity_bps: float | None = None,
        loss: LossModel | None = None,
        name: str | None = None,
        jitter: float = 0.0,
    ) -> FiberLink:
        """Create a new fiber between ``a`` and ``b`` and wire it in."""
        link = FiberLink(
            name or f"{self.name}:{a}-{b}", delay, capacity_bps, loss, jitter
        )
        self.add_link_object(a, b, link)
        return link

    def add_link_object(self, a: NodeId, b: NodeId, link: FiberLink) -> None:
        """Wire an existing fiber object between ``a`` and ``b`` (used by
        the interdomain domain to share fibers with ISP domains;
        orientation ``a -> b`` is the link's FWD direction)."""
        if a == b:
            raise ValueError(f"self-loop at {a!r}")
        self.add_router(a)
        self.add_router(b)
        patched = not self._pending_reconverge and (
            self._patch_row(a, b, link) and self._patch_row(b, a, link)
        )
        self._adj[a][b] = (link, FWD)
        self._adj[b][a] = (link, REV)
        self._refresh_routing_now(rebuild=not patched)

    def _patch_row(self, u: NodeId, v: NodeId, link: FiberLink) -> bool:
        """Update ``_route_adj[u]`` in place for ``link`` becoming the
        ``u -> v`` fiber (called before ``_adj`` is updated). Returns
        False when the patched row would not match the rebuilt one, and
        the caller rebuilds: a live fiber replacing a failed one belongs
        mid-row, not at its end."""
        row = self._route_adj[u]
        if link.failed:
            row.pop(v, None)
            return True
        old = self._adj[u].get(v)
        if old is not None and old[0].failed:
            return False
        row[v] = link.delay
        return True

    def link_between(self, a: NodeId, b: NodeId) -> FiberLink | None:
        entry = self._adj.get(a, {}).get(b)
        return entry[0] if entry else None

    def links(self) -> list[FiberLink]:
        """All distinct fiber objects in the domain."""
        seen: dict[int, FiberLink] = {}
        for nbrs in self._adj.values():
            for link, __ in nbrs.values():
                seen[id(link)] = link
        return list(seen.values())

    # ----------------------------------------------------------- routing

    def _current_adjacency(self) -> dict:
        """Delay-weighted adjacency excluding failed links."""
        return {
            u: {
                v: link.delay
                for v, (link, __) in nbrs.items()
                if not link.failed
            }
            for u, nbrs in self._adj.items()
        }

    def _refresh_routing_now(self, rebuild: bool = True) -> None:
        """Recompute forwarding state immediately (topology changes made
        while *building* the network converge instantly). ``rebuild``
        is False when the routing adjacency was already patched."""
        if rebuild:
            self._route_adj = self._current_adjacency()
        self._reversed_adj = None
        self._tables.clear()
        self.tables_epoch += 1

    def next_hop(self, router: NodeId, dst: NodeId) -> NodeId | None:
        """Next hop from ``router`` toward ``dst`` per current tables."""
        if dst not in self._tables:
            if self._reversed_adj is None:
                self._reversed_adj = reverse_adjacency(self._route_adj)
            self._tables[dst] = next_hops(
                self._route_adj, dst, self._reversed_adj
            )
        return self._tables[dst].get(router)

    def current_path(self, src: NodeId, dst: NodeId) -> list[NodeId] | None:
        """The router path forwarding would take right now (may include a
        failed link if the domain has not reconverged yet)."""
        if src == dst:
            return [src]
        path = [src]
        node = src
        seen = {src}
        while node != dst:
            node = self.next_hop(node, dst)
            if node is None or node in seen:
                return None
            path.append(node)
            seen.add(node)
        return path

    def shortest_converged_path(self, src: NodeId, dst: NodeId) -> list | None:
        """Shortest path over the *live* topology (what tables will hold
        after convergence) — used for audits, not forwarding."""
        adj = self._current_adjacency()
        __, prev = dijkstra(adj, src)
        return extract_path(prev, src, dst)

    def link_on_path(self, u: NodeId, v: NodeId) -> tuple[FiberLink, int]:
        entry = self._adj.get(u, {}).get(v)
        if entry is None:
            raise KeyError(f"no link between {u!r} and {v!r} in {self.name}")
        return entry

    # ---------------------------------------------------------- failures

    def fail_link(self, a: NodeId, b: NodeId) -> None:
        """Cut the fiber between ``a`` and ``b`` (drops start now; the
        forwarding tables only heal after ``convergence_delay``)."""
        link = self.link_between(a, b)
        if link is None:
            raise KeyError(f"no link between {a!r} and {b!r} in {self.name}")
        link.failed = True
        self._schedule_reconverge()

    def repair_link(self, a: NodeId, b: NodeId) -> None:
        """Repair the fiber (usable by forwarding only after convergence)."""
        link = self.link_between(a, b)
        if link is None:
            raise KeyError(f"no link between {a!r} and {b!r} in {self.name}")
        link.failed = False
        self._schedule_reconverge()

    def notify_topology_changed(self) -> None:
        """Called by the Internet when a shared fiber changed state."""
        self._schedule_reconverge()

    def _schedule_reconverge(self) -> None:
        if self._pending_reconverge:
            return
        self._pending_reconverge = True
        self.sim.schedule(self.convergence_delay, self._reconverge)

    def _reconverge(self) -> None:
        self._pending_reconverge = False
        self._refresh_routing_now()
        for listener in self._converge_listeners:
            listener()

    def on_converge(self, listener: Callable[[], None]) -> None:
        """Register a callback fired whenever the domain reconverges."""
        self._converge_listeners.append(listener)
