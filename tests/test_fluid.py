"""Hybrid fluid traffic engine (repro.core.fluid).

Fluid bulk flows advance as piecewise-constant rate intervals settled
analytically; the control plane and sampled probe packets stay
packet-level. These tests pin the calibration story (fluid == packet
within documented tolerance, byte-identical packet traces with the
engine on), the re-solve triggers, the lifecycle plumbing in the
traffic sources, and the analytic loss/metrics helpers.
"""

from __future__ import annotations

import math

import pytest

from repro.analysis.calibrate import run_calibration
from repro.analysis.metrics import (
    flow_stats,
    fluid_flow_stats,
    weighted_latency_summary,
)
from repro.analysis.scenarios import triangle_scenario
from repro.analysis.workloads import CbrSource, PoissonSource
from repro.core.fluid import FluidFlow, validate_fluid_spec
from repro.core.message import (
    Address,
    LINK_RELIABLE,
    ROUTING_ADAPTIVE,
    ServiceSpec,
)
from repro.net.loss import BernoulliLoss, CompositeLoss, ScheduledOutages
from repro.sim.rng import RngRegistry


def _fluid_cbr(scn, src, sink, port=7, rate=10.0, **kwargs):
    engine = scn.overlay.fluid_engine()
    scn.overlay.client(sink, port)
    source = CbrSource(
        scn.sim, scn.overlay.client(src), Address(sink, port),
        rate_pps=rate, fluid=engine, **kwargs,
    )
    return engine, source


# --------------------------------------------------------------- validation


def test_fluid_spec_rejects_unmodellable_services():
    dst = Address("hy", 7)
    with pytest.raises(ValueError, match="best-effort"):
        validate_fluid_spec(dst, ServiceSpec(link=LINK_RELIABLE))
    with pytest.raises(ValueError, match="link-state"):
        validate_fluid_spec(dst, ServiceSpec(routing=ROUTING_ADAPTIVE))
    with pytest.raises(ValueError, match="anycast"):
        validate_fluid_spec(Address("acast:pool", 7), ServiceSpec())
    validate_fluid_spec(dst, ServiceSpec())  # best-effort unicast is fine


def test_traffic_source_validation():
    scn = triangle_scenario(seed=31)
    engine, __ = _fluid_cbr(scn, "hx", "hy")
    with pytest.raises(ValueError, match="rate must be positive"):
        CbrSource(scn.sim, scn.overlay.client("hx"), Address("hy", 7),
                  rate_pps=0.0)
    with pytest.raises(ValueError, match="probe_every"):
        CbrSource(scn.sim, scn.overlay.client("hx"), Address("hy", 7),
                  rate_pps=5.0, fluid=engine, probe_every=1)
    # Fluid mode validates the service eagerly, at construction.
    with pytest.raises(ValueError, match="best-effort"):
        CbrSource(scn.sim, scn.overlay.client("hx"), Address("hy", 7),
                  rate_pps=5.0, service=ServiceSpec(link=LINK_RELIABLE),
                  fluid=engine)


# ------------------------------------------------------------ analytic loss


def test_scheduled_outages_fluid_rate_is_exact_overlap():
    outage = ScheduledOutages([(2.0, 4.0)])
    assert outage.fluid_rate(0.0, 1.0) == 0.0
    assert outage.fluid_rate(1.0, 3.0) == pytest.approx(0.5)
    assert outage.fluid_rate(2.0, 4.0) == pytest.approx(1.0)
    assert outage.fluid_rate(3.0, 7.0) == pytest.approx(0.25)
    assert outage.next_transition(0.0) == 2.0
    assert outage.next_transition(2.0) == 4.0
    assert outage.next_transition(4.0) is None


def test_composite_loss_fluid_rate_composes_survival():
    loss = CompositeLoss(BernoulliLoss(0.1), BernoulliLoss(0.2))
    assert loss.fluid_rate(0.0, 1.0) == pytest.approx(1 - 0.9 * 0.8)
    assert loss.next_transition(0.0) is None
    timed = CompositeLoss(BernoulliLoss(0.1), ScheduledOutages([(5.0, 6.0)]))
    assert timed.next_transition(0.0) == 5.0


# ----------------------------------------------------------- metrics helpers


def test_weighted_latency_summary():
    summary = weighted_latency_summary([(3.0, 0.010), (1.0, 0.020)])
    assert summary.count == pytest.approx(4.0)
    assert summary.mean == pytest.approx(0.0125)
    assert summary.p50 == pytest.approx(0.010)
    assert summary.p99 == pytest.approx(0.020)
    assert summary.max == pytest.approx(0.020)
    assert summary.jitter == 0.0
    assert weighted_latency_summary([]).count == 0
    assert math.isnan(weighted_latency_summary([]).mean)


def test_fluid_flow_stats_shapes_like_packet_stats():
    flow = FluidFlow("hx", Address("hx", 5), Address("hy", 7), 10.0, 1200,
                     ServiceSpec())
    flow.offered = 10.0
    flow._account("hy:7", 6.0, 0.010)
    flow._account("hy:7", 3.0, 0.030)
    stats = fluid_flow_stats(flow, "hy:7", deadline=0.020)
    assert stats.sent == pytest.approx(10.0)
    assert stats.delivered == pytest.approx(9.0)
    assert stats.delivery_ratio == pytest.approx(0.9)
    assert stats.within_deadline == pytest.approx(0.6)
    assert stats.latency.mean == pytest.approx((6 * 0.010 + 3 * 0.030) / 9)


# ------------------------------------------------------- fidelity / identity


def test_fluid_matches_packet_on_triangle():
    """Same flow, same scenario: the fluid model's delivery and latency
    equal the packet run's (no loss, no queueing — both are exact)."""
    packet_scn = triangle_scenario(seed=32)
    packet_scn.overlay.client("hy", 7)
    packet_src = CbrSource(
        packet_scn.sim, packet_scn.overlay.client("hx"), Address("hy", 7),
        rate_pps=10.0, duration=5.0,
    ).start()
    packet_scn.run_for(6.0)
    packet = flow_stats(packet_scn.overlay.trace, packet_src.flow, "hy:7")

    fluid_scn = triangle_scenario(seed=32)
    engine, source = _fluid_cbr(fluid_scn, "hx", "hy", rate=10.0,
                                duration=5.0)
    source.start()
    fluid_scn.run_for(6.0)
    engine.settle_now()
    fluid = fluid_flow_stats(source.fluid_flow, "hy:7")

    assert fluid.flow == packet.flow
    assert source.fluid_flow.offered == pytest.approx(50.0)
    assert fluid.delivery_ratio == pytest.approx(packet.delivery_ratio)
    assert fluid.latency.mean == pytest.approx(packet.latency.mean, abs=1e-9)


def test_calibration_harness_within_documented_tolerance():
    """The 16-node calibration: bulk flows agree within tolerance AND
    the pure packet flows' traces are byte-identical with the fluid
    engine attached (inertness of the hybrid hooks)."""
    result = run_calibration(run_time=6.0)
    result.check()
    assert result.fluid_wall_events < result.packet_wall_events


def test_probe_sampling_keeps_packet_evidence():
    scn = triangle_scenario(seed=33)
    engine, source = _fluid_cbr(scn, "hx", "hy", rate=10.0, duration=4.0,
                                probe_every=5)
    source.start()
    scn.run_for(5.0)
    engine.settle_now()
    # Every 5th message rode the packet path on the same flow id...
    probes = [r for r in scn.overlay.trace.records
              if r.flow == source.flow and r.destination == "hy:7"]
    assert len(probes) >= 7
    assert all(r.latency is not None for r in probes)
    # ...and the fluid share shrank to 4/5 of the nominal rate.
    assert source.fluid_rate == pytest.approx(8.0)
    assert source.fluid_flow.offered == pytest.approx(8.0 * 4.0)


def test_fluid_off_is_inert():
    scn = triangle_scenario(seed=34)
    scn.overlay.client("hy", 7)
    CbrSource(scn.sim, scn.overlay.client("hx"), Address("hy", 7),
              rate_pps=20.0, duration=2.0).start()
    scn.run_for(3.0)
    assert scn.internet.fluid_listeners == []
    assert "fluid" not in scn.overlay.status()
    fluid_counters = [k for k in scn.overlay.counters.as_dict()
                      if k.startswith("fluid.")]
    assert fluid_counters == []


# ------------------------------------------------------------- re-solve


def test_fiber_fail_and_repair_trigger_resolves_and_reroute():
    scn = triangle_scenario(seed=35)
    engine, source = _fluid_cbr(scn, "hx", "hz", rate=10.0)
    source.start()
    scn.run_for(2.0)
    resolves_before = engine.resolves
    scn.internet.fail_fiber("tri", "x", "z")
    scn.run_for(8.0)  # hello timeout -> LSU reroute via hy
    assert engine.resolves > resolves_before
    scn.internet.repair_fiber("tri", "x", "z")
    scn.run_for(8.0)
    source.stop()
    engine.settle_now()
    flow = source.fluid_flow
    latencies = {round(lat, 6): w for w, lat in flow.intervals("hz:7")}
    # Direct x-z leg (10 ms fiber + proc) before the cut and after the
    # repair; the detour via hy (>= 20 ms of fiber) while it was down.
    assert any(lat == pytest.approx(0.0105) for lat in latencies)
    assert any(lat > 0.015 for lat, w in latencies.items() if w > 0)
    # Loss during the cut: delivered strictly less than offered.
    assert flow.delivered("hz:7") < flow.offered
    assert engine.counters.get("fluid.poke:fiber-repair") > 0


def test_flow_start_stop_resolves_are_coalesced():
    scn = triangle_scenario(seed=36)
    engine = scn.overlay.fluid_engine()
    scn.overlay.client("hy", 7)
    sources = [
        CbrSource(scn.sim, scn.overlay.client("hx"), Address("hy", 7),
                  rate_pps=2.0, fluid=engine).start()
        for __ in range(20)
    ]
    resolves_before = engine.resolves
    scn.run_for(0.5)
    # 20 same-instant flow starts coalesce into one re-solve (unrelated
    # control-plane boundaries, e.g. an adaptive-cost LSU landing in
    # the window, may add a couple more — never one per flow).
    assert engine.counters.get("fluid.poke:flow-start") == 20.0
    assert 1 <= engine.resolves - resolves_before <= 3
    for source in sources:
        source.stop()
    scn.run_for(0.5)
    assert not engine.flows


def test_duration_and_stop_lifecycle():
    scn = triangle_scenario(seed=37)
    engine, source = _fluid_cbr(scn, "hx", "hy", rate=10.0, duration=2.0)
    source.start(delay=1.0)
    scn.run_for(0.5)
    assert source.fluid_flow is None  # not started yet
    scn.run_for(4.0)
    engine.settle_now()
    assert source.fluid_flow is not None
    assert not source.fluid_flow.active
    assert source.fluid_flow.offered == pytest.approx(20.0)
    source.stop()  # idempotent after duration expiry
    assert not engine.flows


def test_poisson_source_fluid_models_mean_rate():
    scn = triangle_scenario(seed=38)
    engine = scn.overlay.fluid_engine()
    scn.overlay.client("hy", 7)
    rng = RngRegistry(99).stream("poisson")
    source = PoissonSource(
        scn.sim, rng, scn.overlay.client("hx"), Address("hy", 7),
        rate_pps=40.0, duration=3.0, fluid=engine,
    ).start()
    scn.run_for(4.0)
    engine.settle_now()
    assert source.fluid_flow.offered == pytest.approx(120.0)
    assert source.sent == 0  # no probes requested -> no packets


# ------------------------------------------------------------- multicast


def test_multicast_fluid_delivers_to_group_and_tracks_leave():
    scn = triangle_scenario(seed=39)
    engine = scn.overlay.fluid_engine()
    rx_y = scn.overlay.client("hy", 9000)
    rx_z = scn.overlay.client("hz", 9000)
    rx_y.join("mcast:g")
    rx_z.join("mcast:g")
    scn.run_for(1.0)  # GSUs flood
    source = CbrSource(
        scn.sim, scn.overlay.client("hx"), Address("mcast:g", 9000),
        rate_pps=10.0, fluid=engine,
    ).start()
    scn.run_for(2.0)
    engine.settle_now()
    flow = source.fluid_flow
    mid_y, mid_z = flow.delivered("hy:9000"), flow.delivered("hz:9000")
    assert mid_y == pytest.approx(flow.offered)
    assert mid_z == pytest.approx(flow.offered)
    rx_z.leave("mcast:g")
    scn.run_for(2.0)
    source.stop()
    engine.settle_now()
    # hy kept receiving; hz stopped at the leave boundary.
    assert flow.delivered("hy:9000") == pytest.approx(flow.offered)
    assert flow.delivered("hz:9000") < flow.offered


# ------------------------------------------------------------ flow table


def test_fluid_traffic_lands_in_flow_tables():
    scn = triangle_scenario(seed=40)
    engine, source = _fluid_cbr(scn, "hx", "hy", rate=10.0)
    source.start()
    scn.run_for(2.0)
    engine.settle_now()
    origin = [e for e in scn.overlay.node("hx").flows.active(scn.sim.now)
              if e.flow == source.flow]
    assert origin and origin[0].fluid_messages > 0
    assert origin[0].fluid_bytes > 0
    status = scn.overlay.status()
    assert status["fluid"]["flows"] == 1
    assert status["fluid"]["offered"] == pytest.approx(
        source.fluid_flow.offered)


# ------------------------------------------------------------ plan sharing


def _start(engine, scn, src, port, dst, rate=10.0, size=1200):
    return engine.add_flow(scn.overlay.client(src, port), dst, rate, size=size)


def test_flows_with_equal_plan_keys_share_one_plan():
    scn = triangle_scenario(seed=41)
    engine = scn.overlay.fluid_engine()
    scn.overlay.client("hy", 7)
    flows = [_start(engine, scn, "hx", 100 + i, Address("hy", 7))
             for i in range(3)]
    other = _start(engine, scn, "hz", 200, Address("hy", 7))
    scn.run_for(1.0)
    plan_of = dict((f.flow, plan) for f, plan in engine._assigned)
    assert plan_of[flows[0].flow] is plan_of[flows[1].flow] is plan_of[flows[2].flow]
    assert plan_of[other.flow] is not plan_of[flows[0].flow]
    summary = engine.summary()
    assert (summary["flows"], summary["plans"]) == (4, 2)
    # One plan per key per re-solve, counted next to the re-solves.
    assert engine.counters.get("fluid.plans") == summary["plans_built"]
    assert summary["plans_built"] == 2 * engine.resolves
    engine.settle_now()
    for flow in flows:
        assert flow.delivered("hy:7") == pytest.approx(flow.offered)


def test_sizes_keep_distinct_latencies_over_capacitated_fiber():
    from repro.analysis.scenarios import continental_scenario

    scn = continental_scenario(seed=42, capacity_bps=2_000_000.0)
    engine = scn.overlay.fluid_engine()
    scn.overlay.client("site-LAX", 7)
    dst = Address("site-LAX", 7)
    big = _start(engine, scn, "site-NYC", 100, dst, rate=50.0, size=1200)
    small = _start(engine, scn, "site-NYC", 101, dst, rate=50.0, size=200)
    scn.run_for(1.0)
    engine.settle_now()
    assert len(engine._plans) == 2
    big_lat = {lat for __, lat in big.intervals("site-LAX:7")}
    small_lat = {lat for __, lat in small.intervals("site-LAX:7")}
    # Same path, same queue: the larger datagram pays more serialization.
    assert len(big_lat) == len(small_lat) == 1
    assert big_lat.pop() > small_lat.pop()


def test_sibling_flow_to_absent_port_delivers_nothing():
    scn = triangle_scenario(seed=43)
    engine = scn.overlay.fluid_engine()
    scn.overlay.client("hy", 7)
    present = _start(engine, scn, "hx", 100, Address("hy", 7))
    absent = _start(engine, scn, "hx", 101, Address("hy", 99))
    scn.run_for(2.0)
    engine.settle_now()
    assert absent.offered == present.offered > 0
    assert absent.deliveries == {}
    assert present.delivered("hy:7") == pytest.approx(present.offered)


def test_multicast_flows_from_one_origin_share_a_plan():
    scn = triangle_scenario(seed=44)
    engine = scn.overlay.fluid_engine()
    for site in ("hy", "hz"):
        scn.overlay.client(site, 9000).join("mcast:g")
    scn.run_for(1.0)  # GSUs flood
    flows = [_start(engine, scn, "hx", 100 + i, Address("mcast:g", 9000))
             for i in range(2)]
    scn.run_for(2.0)
    engine.settle_now()
    plans = {id(plan) for __, plan in engine._assigned}
    assert len(plans) == 1
    for flow in flows:
        assert flow.delivered("hy:9000") == pytest.approx(flow.offered)
        assert flow.delivered("hz:9000") == pytest.approx(flow.offered)


def test_zero_rate_flow_on_capacitated_path_resolves():
    """A flow paused at rate 0 alone on capacitated fibers carries no
    load; the re-solve prices its (idle) hops instead of failing."""
    from repro.analysis.scenarios import continental_scenario

    scn = continental_scenario(seed=45, capacity_bps=5_000_000.0)
    engine = scn.overlay.fluid_engine()
    scn.overlay.client("site-LAX", 7)
    flow = _start(engine, scn, "site-NYC", 100, Address("site-LAX", 7))
    scn.run_for(0.5)
    engine.set_rate(flow, 0.0)
    scn.run_for(0.5)
    engine.settle_now()
    assert flow.offered == pytest.approx(5.0)
    engine.set_rate(flow, 10.0)
    scn.run_for(0.5)
    engine.settle_now()
    assert flow.offered == pytest.approx(10.0)


# ------------------------------------------------------- input validation


@pytest.mark.parametrize("kwargs, argument", [
    ({"rate_pps": math.nan}, "rate_pps"),
    ({"rate_pps": math.inf}, "rate_pps"),
    ({"rate_pps": 0.0}, "rate_pps"),
    ({"rate_pps": -1.0}, "rate_pps"),
    ({"rate_pps": 10.0, "size": 0}, "size"),
    ({"rate_pps": 10.0, "size": -5}, "size"),
    ({"rate_pps": 10.0, "size": math.inf}, "size"),
])
def test_add_flow_rejects_bad_rate_and_size(kwargs, argument):
    scn = triangle_scenario(seed=46)
    engine = scn.overlay.fluid_engine()
    with pytest.raises(ValueError, match=argument):
        engine.add_flow(scn.overlay.client("hx"), Address("hy", 7), **kwargs)
    assert not engine.flows


@pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf, -1.0])
def test_set_rate_rejects_non_finite_or_negative(rate):
    scn = triangle_scenario(seed=47)
    engine, source = _fluid_cbr(scn, "hx", "hy", rate=10.0)
    source.start()
    scn.run_for(0.5)
    with pytest.raises(ValueError, match="rate_pps"):
        engine.set_rate(source.fluid_flow, rate)
    assert source.fluid_flow.rate == 10.0
    scn.run_for(0.5)
    engine.settle_now()  # the flow still settles cleanly
    assert source.fluid_flow.offered == pytest.approx(10.0)
