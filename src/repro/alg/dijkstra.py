"""Dijkstra shortest paths over adjacency mappings.

Used by the underlay ISP routing tables and by the overlay's Link-State
routing service (Connectivity Graph Maintenance feeds the adjacency).
"""

from __future__ import annotations

import heapq
from types import MappingProxyType
from typing import Hashable, Mapping

Node = Hashable

_UNREACHED = float("inf")


def dijkstra(adj: dict, src: Node) -> tuple[Mapping, Mapping]:
    """Single-source shortest distances and predecessors.

    Returns ``(dist, prev)`` where ``dist[v]`` is the shortest distance
    from ``src`` and ``prev[v]`` the predecessor of ``v`` on that path.
    Unreachable nodes are absent from both mappings. Both are returned
    as immutable views safe to cache and share across consumers.
    """
    if src not in adj:
        return (MappingProxyType({src: 0.0}), MappingProxyType({}))
    dist: dict = {src: 0.0}
    prev: dict = {}
    done: set = set()
    heap: list[tuple[float, int, Node]] = [(0.0, 0, src)]
    counter = 1  # tie-break so heterogeneous node types never compare
    while heap:
        d, _, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v, w in adj.get(u, {}).items():
            if w < 0:
                raise ValueError(f"negative edge weight {w} on ({u!r}, {v!r})")
            nd = d + w
            if nd < dist.get(v, _UNREACHED):
                dist[v] = nd
                prev[v] = u
                heapq.heappush(heap, (nd, counter, v))
                counter += 1
    return MappingProxyType(dist), MappingProxyType(prev)


def extract_path(prev: dict, src: Node, dst: Node) -> list | None:
    """Rebuild the node path ``src .. dst`` from a predecessor map."""
    if dst == src:
        return [src]
    if dst not in prev:
        return None
    path = [dst]
    node = dst
    while node != src:
        node = prev[node]
        path.append(node)
    path.reverse()
    return path


def shortest_path(adj: dict, src: Node, dst: Node) -> list | None:
    """Shortest node path from ``src`` to ``dst``, or ``None``."""
    __, prev = dijkstra(adj, src)
    return extract_path(prev, src, dst)


def path_cost(adj: dict, path: list) -> float:
    """Total weight of a node path under ``adj``."""
    return sum(adj[u][v] for u, v in zip(path, path[1:]))


def shortest_path_tree(adj: dict, src: Node) -> dict:
    """Map every reachable node to its shortest path from ``src``."""
    __, prev = dijkstra(adj, src)
    paths = {src: [src]}
    for node in prev:
        path = extract_path(prev, src, node)
        if path is not None:
            paths[node] = path
    return paths


def all_shortest_paths(adj: dict) -> dict:
    """All-pairs shortest node paths: ``paths[src][dst] -> list``."""
    return {src: shortest_path_tree(adj, src) for src in adj}


def reverse_adjacency(adj: Mapping) -> dict:
    """The reversed graph of ``adj``: ``v -> {u: w}`` for every edge
    ``u -> v`` of weight ``w``. Every node of ``adj`` keeps a row, in
    ``adj``'s order, and each row lists its predecessors in ``adj``'s
    order, so Dijkstra's tie-breaking over the result is deterministic.
    """
    reversed_adj: dict = {u: {} for u in adj}
    for u, nbrs in adj.items():
        for v, w in nbrs.items():
            reversed_adj.setdefault(v, {})[u] = w
    return reversed_adj


def next_hops(adj: Mapping, dst: Node, reversed_adj: Mapping | None = None) -> Mapping:
    """Routing table toward ``dst``: for every node, the next hop on its
    shortest path to ``dst``. Computed by running Dijkstra from ``dst``
    on the reversed graph (correct for asymmetric weights too). Returned
    as an immutable view safe to cache and share across consumers.

    ``reversed_adj`` is :func:`reverse_adjacency` of ``adj``, for callers
    that compute tables toward many destinations of one graph; it is
    built here when not given.
    """
    if reversed_adj is None:
        reversed_adj = reverse_adjacency(adj)
    __, prev = dijkstra(reversed_adj, dst)
    # prev in the reversed graph is the next hop in the forward graph;
    # a compact copy, since tables outlive the search.
    return MappingProxyType(dict(prev))
