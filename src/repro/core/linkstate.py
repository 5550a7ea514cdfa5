"""Connectivity Graph Maintenance — shared global state #1 (Sec II-B).

Every overlay node maintains a record of its own links' state (up/down
and cost, where cost folds in measured latency and loss) and floods it
to all other nodes as sequence-numbered link-state updates. Because the
overlay has only a few tens of nodes, each node can hold the *global*
connectivity graph and react to changes within a hello-detection time —
the basis of sub-second rerouting.
"""

from __future__ import annotations

import hashlib
from types import MappingProxyType
from typing import Hashable, Mapping


def content_digest(payload: object) -> int:
    """128-bit content digest of a canonical (repr-stable) payload.

    Used to fingerprint replica *content*: two replicas that hold the
    same records hash equal regardless of the order updates arrived in
    or how many redundant updates each one processed. Stable across
    processes and runs (unlike builtin ``hash``, which is salted).
    """
    blob = repr(payload).encode()
    return int.from_bytes(hashlib.blake2b(blob, digest_size=16).digest(), "big")


def symmetric_view(adj: Mapping) -> Mapping:
    """Read-only adjacency keeping only the edges of ``adj`` that both
    ends report up, in ``adj``'s order (for path computations that must
    be traversable both ways, e.g. disjoint-path requests)."""
    sym: dict[str, dict[str, float]] = {u: {} for u in adj}
    for u, nbrs in adj.items():
        for v, w in nbrs.items():
            if u in adj.get(v, {}):
                sym[u][v] = w
    return MappingProxyType(
        {u: MappingProxyType(nbrs) for u, nbrs in sym.items()}
    )


class TopologyDatabase:
    """Per-node replica of the global connectivity graph.

    Records are keyed by origin node; each carries the origin's local
    view ``{neighbor: cost-or-None}`` (``None`` = link down) and a
    sequence number. Higher sequence numbers win; stale or duplicate
    updates are ignored (and not re-flooded).

    Alongside the local ``version`` counter (which ticks on *every*
    accepted update) the database maintains an incrementally-updated
    content :attr:`fingerprint` covering only the link-state content —
    not sequence numbers, not arrival order. Two replicas that have
    converged on the same connectivity graph therefore expose the same
    fingerprint even though their version counters differ, which is the
    cache key contract :class:`repro.core.compute.RouteComputeEngine`
    relies on. A periodic refresh update that re-announces unchanged
    costs bumps ``version`` but leaves the fingerprint (and thus every
    derived routing artifact) intact.
    """

    def __init__(self) -> None:
        self._records: dict[str, tuple[int, dict[str, float | None]]] = {}
        self.version = 0
        self._fingerprint = 0
        self._parts: dict[str, int] = {}

    @property
    def fingerprint(self) -> int:
        """Content digest of the current connectivity graph (order- and
        sequence-number-independent; see class docstring)."""
        return self._fingerprint

    def update(self, origin: str, seq: int, neighbor_costs: dict) -> bool:
        """Apply an update; returns True if it was new (should re-flood)."""
        current = self._records.get(origin)
        if current is not None and current[0] >= seq:
            return False
        costs = dict(neighbor_costs)
        self._records[origin] = (seq, costs)
        self.version += 1
        part = self.record_digest(origin, costs)
        self._fingerprint ^= self._parts.get(origin, 0) ^ part
        self._parts[origin] = part
        return True

    def record(self, origin: str) -> Mapping | None:
        """The origin's current ``{neighbor: cost-or-None}`` record as a
        read-only view (the stored record is never mutated in place, so
        the view is a stable snapshot)."""
        entry = self._records.get(origin)
        return MappingProxyType(entry[1]) if entry else None

    def seq(self, origin: str) -> int:
        entry = self._records.get(origin)
        return entry[0] if entry else 0

    def origins(self) -> list[str]:
        return list(self._records)

    def adjacency(self) -> Mapping:
        """Directed, deterministic adjacency for routing.

        An edge ``u -> v`` exists iff ``u``'s record reports the link to
        ``v`` as up. Keys are sorted so every node derives the *same*
        data structure from the same records — required for consistent
        hop-by-hop multicast trees.

        Each call builds a fresh read-only view; replicas on one
        :attr:`fingerprint` share a single one through
        :meth:`repro.core.compute.RouteComputeEngine.view`.
        """
        adj: dict[str, Mapping] = {}
        for origin in sorted(self._records):
            __, nbrs = self._records[origin]
            adj[origin] = MappingProxyType({
                v: nbrs[v] for v in sorted(nbrs) if nbrs[v] is not None
            })
        return MappingProxyType(adj)

    # ------------------------------------------------- warm-start support

    @staticmethod
    def record_digest(origin: str, costs: Mapping) -> int:
        """The content digest one record contributes to the fingerprint."""
        return content_digest((origin, tuple(sorted(costs.items()))))

    @classmethod
    def record_digests(cls, records: Mapping) -> dict[str, int]:
        """:meth:`record_digest` of every ``{origin: (seq, costs)}``
        record — computed once for records that several replicas load."""
        return {
            origin: cls.record_digest(origin, costs)
            for origin, (__, costs) in records.items()
        }

    def export_state(self) -> dict[str, tuple[int, dict]]:
        """The record table as ``{origin: (seq, {nbr: cost-or-None})}``
        (insertion order preserved). Stored cost dicts are never mutated
        in place, so the export aliases them — snapshot code serializes
        or shares them without copying."""
        return dict(self._records)

    def load_state(
        self, records: Mapping, version: int, digests: Mapping
    ) -> None:
        """Install a snapshotted record table into an **empty** replica,
        deriving the per-origin content parts and fingerprint from
        ``digests``, the :meth:`record_digests` of the records (computed
        in-process from their content, not trusted from the snapshot;
        computed once when many replicas load the same records).
        ``records`` may alias dicts shared across replicas; updates
        replace records rather than mutating them, so sharing is safe.
        ``version`` restores the replica's local update counter."""
        if self._records:
            raise ValueError("load_state requires an empty database")
        parts: dict[str, int] = {}
        fingerprint = 0
        for origin, (seq, costs) in records.items():
            self._records[origin] = (seq, costs)
            part = digests[origin]
            fingerprint ^= part
            parts[origin] = part
        self.version = version
        self._parts = parts
        self._fingerprint = fingerprint


class GroupDatabase:
    """Group State — shared global state #2 (Sec II-B).

    Tracks, per overlay node, the set of groups that node has interested
    clients in. Only node-level interest is shared (the two-level
    hierarchy keeps per-client membership local to each node).

    Like :class:`TopologyDatabase`, maintains a content
    :attr:`fingerprint` over the membership records (ignoring sequence
    numbers and arrival order) so converged replicas produce identical
    cache keys for shared group-derived artifacts.
    """

    def __init__(self) -> None:
        self._records: dict[str, tuple[int, frozenset[str]]] = {}
        self.version = 0
        self._fingerprint = 0
        self._parts: dict[str, int] = {}
        self._members_cache: dict[str, tuple[str, ...]] = {}

    @property
    def fingerprint(self) -> int:
        """Content digest of the current group state."""
        return self._fingerprint

    def update(self, origin: str, seq: int, groups) -> bool:
        """Apply a membership update; True if new (should re-flood)."""
        current = self._records.get(origin)
        new = frozenset(groups)
        if current is not None and current[0] >= seq:
            return False
        self._records[origin] = (seq, new)
        self.version += 1
        part = self.record_digest(origin, new)
        self._fingerprint ^= self._parts.get(origin, 0) ^ part
        self._parts[origin] = part
        self._members_cache.clear()
        return True

    def seq(self, origin: str) -> int:
        entry = self._records.get(origin)
        return entry[0] if entry else 0

    def origins(self) -> list[str]:
        return list(self._records)

    def members_view(self, group: str) -> tuple[str, ...]:
        """Overlay nodes with clients in ``group`` as a sorted immutable
        tuple, cached until the next accepted update — the hashable form
        the route-computation engine keys shared artifacts on."""
        cached = self._members_cache.get(group)
        if cached is None:
            cached = tuple(sorted(
                origin
                for origin, (__, groups) in self._records.items()
                if group in groups
            ))
            self._members_cache[group] = cached
        return cached

    def members(self, group: str) -> list[str]:
        """Overlay nodes with clients in ``group`` (sorted, deterministic)."""
        return list(self.members_view(group))

    def groups_of(self, origin: str) -> frozenset[str]:
        entry = self._records.get(origin)
        return entry[1] if entry else frozenset()

    # ------------------------------------------------- warm-start support

    @staticmethod
    def record_digest(origin: str, groups) -> int:
        """The content digest one record contributes to the fingerprint."""
        return content_digest((origin, tuple(sorted(groups))))

    @classmethod
    def record_digests(cls, records: Mapping) -> dict[str, int]:
        """:meth:`record_digest` of every ``{origin: (seq, groups)}``
        record (see :meth:`TopologyDatabase.record_digests`)."""
        return {
            origin: cls.record_digest(origin, groups)
            for origin, (__, groups) in records.items()
        }

    def export_state(self) -> dict[str, tuple[int, frozenset]]:
        """The record table as ``{origin: (seq, frozenset(groups))}``
        (insertion order preserved); see
        :meth:`TopologyDatabase.export_state`."""
        return dict(self._records)

    def load_state(
        self, records: Mapping, version: int, digests: Mapping
    ) -> None:
        """Install a snapshotted record table into an **empty** replica,
        deriving parts and fingerprint from ``digests`` (mirror of
        :meth:`TopologyDatabase.load_state`)."""
        if self._records:
            raise ValueError("load_state requires an empty database")
        parts: dict[str, int] = {}
        fingerprint = 0
        for origin, (seq, groups) in records.items():
            members = frozenset(groups)
            self._records[origin] = (seq, members)
            part = digests[origin]
            fingerprint ^= part
            parts[origin] = part
        self.version = version
        self._parts = parts
        self._fingerprint = fingerprint


class DedupCache:
    """Bounded memory of recently seen message keys with per-link send
    tracking, enabling redundant dissemination with de-duplication in
    the middle of the network (Sec I: flow-based processing).

    For each message key we remember which outgoing link bits the node
    has already used, so a copy arriving later over a second path is
    forwarded only on links not yet covered, and delivered only once.
    """

    def __init__(self, capacity: int = 100_000) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._sent: dict[Hashable, int] = {}
        self._delivered: set[Hashable] = set()

    def already_delivered(self, key: Hashable) -> bool:
        """Mark delivery; returns True if it was already delivered."""
        if key in self._delivered:
            return True
        self._delivered.add(key)
        if len(self._delivered) > self.capacity:
            self._evict(self._delivered)
        return False

    def links_sent(self, key: Hashable) -> int:
        """Bitmask of links this node has already forwarded ``key`` on."""
        return self._sent.get(key, 0)

    def mark_sent(self, key: Hashable, link_bits: int) -> None:
        self._sent[key] = self._sent.get(key, 0) | link_bits
        if len(self._sent) > self.capacity:
            self._evict(self._sent)

    @staticmethod
    def _evict(store) -> None:
        # Drop the oldest half (dicts and sets iterate in insertion order).
        oldest = list(store)[: len(store) // 2]
        if isinstance(store, set):
            store.difference_update(oldest)
        else:
            for key in oldest:
                del store[key]
