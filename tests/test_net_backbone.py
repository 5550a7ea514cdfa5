"""Fiber links and routing domains: traversal, queuing, and the
stale-tables-until-reconvergence behaviour that E2 measures against."""

import random

import pytest

from repro.alg.dijkstra import next_hops
from repro.net.backbone import FWD, REV, FiberLink, RoutingDomain
from repro.net.loss import BernoulliLoss
from repro.sim.events import Simulator


def _chain(sim, n=4, delay=0.01, convergence=5.0):
    domain = RoutingDomain("isp", sim, convergence_delay=convergence)
    for i in range(n - 1):
        domain.add_link(f"r{i}", f"r{i + 1}", delay)
    return domain


def test_fiber_traverse_adds_delay():
    link = FiberLink("l", delay=0.01)
    arrival = link.traverse(1.0, 100, FWD, random.Random(1))
    assert arrival == pytest.approx(1.01)
    assert link.packets_carried == 1
    assert link.bytes_carried == 100


def test_fiber_negative_delay_rejected():
    with pytest.raises(ValueError):
        FiberLink("l", delay=-0.1)


def test_failed_fiber_drops_everything():
    link = FiberLink("l", delay=0.01)
    link.failed = True
    assert link.traverse(0.0, 100, FWD, random.Random(1)) is None
    assert link.packets_dropped == 1


def test_fiber_loss_model_applies():
    link = FiberLink("l", delay=0.01, loss=BernoulliLoss(1.0))
    assert link.traverse(0.0, 100, FWD, random.Random(1)) is None


def test_capacity_serialization_delay():
    link = FiberLink("l", delay=0.0, capacity_bps=8000.0)  # 1000 B/s
    rng = random.Random(1)
    first = link.traverse(0.0, 100, FWD, rng)
    assert first == pytest.approx(0.1)  # 100 B at 1000 B/s
    second = link.traverse(0.0, 100, FWD, rng)
    assert second == pytest.approx(0.2)  # queued behind the first


def test_capacity_directions_are_independent():
    link = FiberLink("l", delay=0.0, capacity_bps=8000.0)
    rng = random.Random(1)
    link.traverse(0.0, 100, FWD, rng)
    reverse = link.traverse(0.0, 100, REV, rng)
    assert reverse == pytest.approx(0.1)


def test_queue_overflow_drops():
    link = FiberLink("l", delay=0.0, capacity_bps=8.0)  # 1 B/s: 100 B = 100 s
    rng = random.Random(1)
    assert link.traverse(0.0, 100, FWD, rng) is not None
    assert link.traverse(0.0, 100, FWD, rng) is None  # queue delay 100 s > cap


def test_domain_routes_along_chain():
    sim = Simulator()
    domain = _chain(sim)
    assert domain.current_path("r0", "r3") == ["r0", "r1", "r2", "r3"]
    assert domain.next_hop("r0", "r3") == "r1"
    assert domain.current_path("r2", "r2") == ["r2"]


def test_domain_rejects_self_loop():
    sim = Simulator()
    domain = RoutingDomain("isp", sim)
    with pytest.raises(ValueError):
        domain.add_link("a", "a", 0.01)


def test_tables_stay_stale_until_convergence():
    sim = Simulator()
    domain = _chain(sim, convergence=5.0)
    sim.run(until=1.0)
    domain.fail_link("r1", "r2")
    # Tables still point through the dead link...
    assert domain.current_path("r0", "r3") == ["r0", "r1", "r2", "r3"]
    sim.run(until=3.0)
    assert domain.current_path("r0", "r3") == ["r0", "r1", "r2", "r3"]
    # ...until convergence_delay elapses; the chain has no alternative.
    sim.run(until=7.0)
    assert domain.current_path("r0", "r3") is None


def test_reconvergence_uses_alternate_path():
    sim = Simulator()
    domain = RoutingDomain("isp", sim, convergence_delay=2.0)
    domain.add_link("a", "b", 0.01)
    domain.add_link("b", "c", 0.01)
    domain.add_link("a", "c", 0.05)
    assert domain.current_path("a", "c") == ["a", "b", "c"]
    domain.fail_link("a", "b")
    sim.run(until=3.0)
    assert domain.current_path("a", "c") == ["a", "c"]


def test_repair_restores_path_after_convergence():
    sim = Simulator()
    domain = RoutingDomain("isp", sim, convergence_delay=2.0)
    domain.add_link("a", "b", 0.01)
    domain.add_link("b", "c", 0.01)
    domain.add_link("a", "c", 0.05)
    domain.fail_link("a", "b")
    sim.run(until=3.0)
    domain.repair_link("a", "b")
    sim.run(until=6.0)
    assert domain.current_path("a", "c") == ["a", "b", "c"]


def test_fail_unknown_link_raises():
    sim = Simulator()
    domain = _chain(sim)
    with pytest.raises(KeyError):
        domain.fail_link("r0", "r3")


def test_shortest_converged_path_sees_live_topology():
    sim = Simulator()
    domain = RoutingDomain("isp", sim, convergence_delay=100.0)
    domain.add_link("a", "b", 0.01)
    domain.add_link("b", "c", 0.01)
    domain.add_link("a", "c", 0.05)
    domain.fail_link("a", "b")
    # Forwarding is stale, but the audit view reflects the cut at once.
    assert domain.shortest_converged_path("a", "c") == ["a", "c"]


def test_converge_listeners_fire():
    sim = Simulator()
    domain = _chain(sim, convergence=1.0)
    fired = []
    domain.on_converge(lambda: fired.append(sim.now))
    domain.fail_link("r0", "r1")
    sim.run(until=2.0)
    assert fired == [1.0]


def test_multiple_failures_coalesce_into_one_reconvergence():
    sim = Simulator()
    domain = _chain(sim, n=5, convergence=1.0)
    fired = []
    domain.on_converge(lambda: fired.append(sim.now))
    domain.fail_link("r0", "r1")
    domain.fail_link("r2", "r3")
    sim.run(until=3.0)
    assert len(fired) == 1


def test_links_enumeration():
    sim = Simulator()
    domain = _chain(sim, n=4)
    assert len(domain.links()) == 3


# ------------------------------------------- incremental routing adjacency


def _assert_routing_current(domain):
    """The domain's routing adjacency is exactly what a full rebuild
    gives right now (content and dict order, rows and entries), and
    every next-hop table matches a reference computed from scratch."""
    current = domain._current_adjacency()
    route = domain._route_adj
    assert list(route) == list(current)
    for u, row in current.items():
        assert list(route[u].items()) == list(row.items()), u
    for dst in domain.routers:
        reference = next_hops(current, dst)  # builds its own reverse
        for router in domain.routers:
            assert domain.next_hop(router, dst) == reference.get(router)


@pytest.mark.parametrize("seed", range(6))
def test_incremental_adds_match_full_rebuild(seed):
    rng = random.Random(seed)
    sim = Simulator()
    domain = RoutingDomain("isp", sim, convergence_delay=1.0)
    names = iter(f"r{i}" for i in range(1000))
    for __ in range(3):
        domain.add_router(next(names))
    _assert_routing_current(domain)

    def add_link():
        routers = domain.routers
        a = rng.choice(routers) if rng.random() < 0.8 else next(names)
        b = rng.choice([r for r in routers if r != a] or [next(names)])
        domain.add_link(a, b, rng.choice((0.01, 0.02, 0.03)))

    for __ in range(60):
        op = rng.choice(("router", "existing-router", "link", "link", "readd",
                         "failed-fiber", "fail-repair"))
        pairs = [(a, b) for a in domain._adj for b in domain._adj[a]]
        if op == "router":
            domain.add_router(next(names))
        elif op == "existing-router":
            domain.add_router(rng.choice(domain.routers))
        elif op == "link" or not pairs:
            add_link()
        elif op == "readd":
            # A fresh fiber over an existing pair, either orientation;
            # the replaced fiber may itself be failed.
            a, b = rng.choice(pairs)
            domain.add_link(a, b, rng.choice((0.01, 0.02, 0.03)))
        elif op == "failed-fiber":
            link = FiberLink(f"dark{rng.random()}", rng.choice((0.01, 0.02)))
            link.failed = True
            if rng.random() < 0.5:
                domain.add_link_object(*rng.choice(pairs), link)
            else:
                domain.add_link_object(*rng.sample(domain.routers, 2), link)
        else:
            a, b = rng.choice(pairs)
            if domain.link_between(a, b).failed:
                domain.repair_link(a, b)
            else:
                domain.fail_link(a, b)
            if rng.random() < 0.5:
                # An add while the reconvergence is pending converges
                # the whole domain at once.
                add_link()
                _assert_routing_current(domain)
            sim.run(until=sim.now + 1.5)
        _assert_routing_current(domain)


@pytest.mark.parametrize("seed", range(3))
def test_native_domain_built_after_cuts_matches_full_rebuild(seed):
    from repro.net.internet import Internet
    from repro.sim.rng import RngRegistry

    rng = random.Random(seed)
    sim = Simulator()
    inet = Internet(sim, RngRegistry(seed))
    cuts = []
    for isp in ("a", "b"):
        domain = inet.add_isp(isp, convergence_delay=1.0)
        for i in range(8):
            for j in rng.sample(range(8), 3):
                if i != j:
                    domain.add_link(f"{isp}{i}", f"{isp}{j}",
                                    rng.choice((0.01, 0.02)))
                    cuts.append((isp, f"{isp}{i}", f"{isp}{j}"))
    inet.add_peering("a", "a0", "b", "b0")
    inet.add_peering("a", "a5", "b", "b3")
    for isp, u, v in rng.sample(cuts, 4):
        inet.fail_fiber(isp, u, v)  # the native domain does not exist yet
    native = inet.native
    assert any(link.failed for link in native.links())
    _assert_routing_current(native)
    sim.run(until=sim.now + 100.0)
    for isp in inet.isps.values():
        _assert_routing_current(isp)
    _assert_routing_current(inet.native)
