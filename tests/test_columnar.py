"""Columnar data plane: slot-bucket engine, per-instant link profiles,
and the RNG draw-order discipline that keeps traces byte-identical.

The columnar simulator keeps one heap entry per distinct instant (a
slot bucket of (seq, event) records) and the underlay amortizes each
link's per-instant work across same-instant crossings via
``FiberLink.instant_profile``. Everything here checks the load-bearing
contract: same firing order, same RNG draws, same floats as the scalar
engine — batching selects an implementation, never an outcome.
"""

import random

import pytest

from repro.core.config import OverlayConfig
from repro.core.message import Address
from repro.core.network import OverlayNetwork
from repro.analysis.scenarios import line_scenario
from repro.analysis.workloads import CbrSource
from repro.audit.diff import diff_traces
from repro.net.backbone import (
    FWD,
    PROF_DECIDED,
    PROF_DROP,
    PROF_SCALAR,
    PROF_SHARED,
    FiberLink,
)
from repro.net.internet import Internet
from repro.net.loss import (
    BernoulliLoss,
    CompositeLoss,
    GilbertElliottLoss,
    NoLoss,
    ScheduledOutages,
)
from repro.sim.events import Simulator
from repro.sim.rng import RngRegistry


# ----------------------------------------------------- slot-bucket engine


def test_same_instant_events_fire_in_schedule_order():
    sim = Simulator(columnar=True)
    fired = []
    for tag in ("a", "b", "c"):
        sim.schedule(1.0, fired.append, tag)
    sim.schedule(0.5, fired.append, "early")
    sim.run()
    assert fired == ["early", "a", "b", "c"]


def test_schedule_during_drain_of_same_instant_fires_after_bucket():
    # A same-time schedule made *while* the slot drains must land in a
    # fresh bucket that fires after the current one — exactly the
    # (time, seq) order the scalar heap gives.
    sim = Simulator(columnar=True)
    fired = []

    def first():
        fired.append("first")
        sim.schedule(0.0, fired.append, "nested")

    sim.schedule(1.0, first)
    sim.schedule(1.0, fired.append, "second")
    sim.run()
    assert fired == ["first", "second", "nested"]


def test_cancelled_bucket_records_are_skipped():
    sim = Simulator(columnar=True)
    fired = []
    sim.schedule(1.0, fired.append, "keep")
    victim = sim.schedule(1.0, fired.append, "cancel")
    sim.schedule(1.0, fired.append, "keep2")
    victim.cancel()
    sim.run()
    assert fired == ["keep", "keep2"]


def test_periodic_timer_recycles_through_the_wheel():
    sim = Simulator(columnar=True)
    ticks = []
    timer = sim.schedule_periodic(0.5, lambda: ticks.append(sim.now))
    sim.run(until=2.6)
    assert ticks == [0.5, 1.0, 1.5, 2.0, 2.5]
    timer.cancel()
    sim.run(until=4.0)
    assert len(ticks) == 5


def test_max_events_requeues_bucket_remainder():
    sim = Simulator(columnar=True)
    fired = []
    for i in range(6):
        sim.schedule(1.0, fired.append, i)
    sim.run(max_events=3)
    assert fired == [0, 1, 2]
    sim.run()
    assert fired == [0, 1, 2, 3, 4, 5]


def test_iter_queued_reports_liveness():
    sim = Simulator(columnar=True)
    keep = sim.schedule(1.0, lambda: None)
    victim = sim.schedule(1.0, lambda: None)
    victim.cancel()
    by_live = {}
    for event, live in sim.iter_queued():
        by_live.setdefault(live, []).append(event)
    assert keep in by_live.get(True, [])
    assert victim in by_live.get(False, [])


def test_columnar_and_scalar_fire_orders_match():
    # A randomized mix of instants, duplicates, and cancellations fires
    # in exactly the same order on both engines.
    rng = random.Random(42)
    plan = [(rng.choice([0.5, 1.0, 1.0, 1.5, 2.0]), i) for i in range(40)]
    cancel_idx = set(rng.sample(range(40), 8))

    def drive(columnar):
        sim = Simulator(columnar=columnar)
        fired = []
        handles = [sim.schedule(delay, fired.append, tag)
                   for delay, tag in plan]
        for i in cancel_idx:
            handles[i].cancel()
        sim.run()
        return fired

    assert drive(True) == drive(False)


# ------------------------------------------------- instant_profile modes


def _rng():
    return random.Random(1234)


def test_profile_failed_link_drops_without_touching_loss():
    class Tripwire(NoLoss):
        def batch_profile(self, now, rng):  # pragma: no cover - must not run
            raise AssertionError("failed-link profile consulted the loss model")

    link = FiberLink("f", 0.01, None, Tripwire())
    link.failed = True
    failed_snap, loss_snap, mode, p, arrival = link.instant_profile(0.0, _rng())
    assert (failed_snap, mode, p, arrival) == (True, PROF_DROP, None, None)
    assert loss_snap is link.loss


def test_profile_shared_arrival_matches_traverse():
    link = FiberLink("f", 0.0123, None, NoLoss())
    entry = link.instant_profile(2.0, _rng())
    assert entry[2] == PROF_SHARED
    twin = FiberLink("f", 0.0123, None, NoLoss())
    assert entry[4] == twin.traverse(2.0, 100, FWD, _rng())


def test_profile_bernoulli_reports_per_packet_probability():
    link = FiberLink("f", 0.01, None, BernoulliLoss(0.25))
    entry = link.instant_profile(0.0, _rng())
    assert entry[2] == PROF_DECIDED
    assert entry[3] == 0.25


def test_profile_outage_is_always_drop_without_draws():
    link = FiberLink("f", 0.01, None, ScheduledOutages([(1.0, 2.0)]))
    entry = link.instant_profile(1.5, _rng())
    assert entry[2] == PROF_DROP
    assert entry[3] is None  # scalar should_drop makes no draw either
    clear = link.instant_profile(2.5, _rng())
    assert clear[2] == PROF_SHARED


def test_profile_capacitated_link_defers_to_finish_pass():
    link = FiberLink("f", 0.01, 1_000_000.0, NoLoss())
    entry = link.instant_profile(0.0, _rng())
    assert entry[2] == PROF_DECIDED
    assert entry[3] is None


def test_profile_double_stochastic_composite_is_scalar():
    loss = CompositeLoss(
        BernoulliLoss(0.1),
        GilbertElliottLoss(mean_good=1.0, mean_bad=0.1,
                           good_loss=0.0, bad_loss=1.0),
    )
    link = FiberLink("f", 0.01, None, loss)
    rng = _rng()
    state_before = rng.getstate()
    entry = link.instant_profile(0.0, rng)
    assert entry[2] == PROF_SCALAR
    # The draw-order bug this guards against: probing child profiles
    # before discovering the composite is unbatchable would consume the
    # GE child's state-advance draws out of scalar order.
    assert rng.getstate() == state_before


def test_finish_pass_matches_traverse_tail():
    # Same RNG stream, same busy-chain state: finish_pass must produce
    # traverse's exact arrival floats and counter updates once the loss
    # verdict is out of the way.
    a = FiberLink("f", 0.01, 2_000_000.0, NoLoss(), jitter=0.003)
    b = FiberLink("f", 0.01, 2_000_000.0, NoLoss(), jitter=0.003)
    rng_a, rng_b = _rng(), _rng()
    for k in range(5):
        now = 0.001 * k
        arr_a = a.traverse(now, 700, FWD, rng_a)
        arr_b = b.finish_pass(now, 700, FWD, rng_b)
        assert arr_a == arr_b
    assert a._busy_until == b._busy_until
    assert (a.bytes_carried, a.packets_carried) == (
        b.bytes_carried, b.packets_carried)


# ------------------------------------------------------- profile_traits


def test_profile_traits_classify_draw_behaviour():
    assert NoLoss().profile_traits() == (False, False)
    assert BernoulliLoss(0.0).profile_traits() == (False, True)
    assert GilbertElliottLoss(
        mean_good=1.0, mean_bad=0.1).profile_traits() == (True, True)
    assert ScheduledOutages([(0.0, 1.0)]).profile_traits() == (False, False)


def test_profile_traits_composites():
    outage = ScheduledOutages([(0.0, 1.0)])
    assert CompositeLoss(outage, BernoulliLoss(0.1)).profile_traits() == (
        False, True)
    assert CompositeLoss(
        outage, GilbertElliottLoss(mean_good=1.0, mean_bad=0.1)
    ).profile_traits() == (True, True)
    # Two per-packet-drawing children: unbatchable.
    assert CompositeLoss(
        BernoulliLoss(0.1), BernoulliLoss(0.2)).profile_traits() is None
    # An unknown child poisons the whole composite.
    class Mystery(BernoulliLoss):
        def profile_traits(self):
            return None
    assert CompositeLoss(Mystery(0.1)).profile_traits() is None


# ------------------------------------------------------ config plumbing


def test_overlay_rejects_columnar_mismatch():
    sim = Simulator()  # scalar engine
    inet = Internet(sim, RngRegistry(7))
    domain = inet.add_isp("isp", convergence_delay=10.0)
    domain.add_router("r0")
    domain.add_router("r1")
    domain.add_link("r0", "r1", 0.01, None, None)
    for name, router in (("h0", "r0"), ("h1", "r1")):
        inet.add_host(name, access_delay=0.0)
        inet.attach(name, "isp", router)
    with pytest.raises(ValueError):
        OverlayNetwork(inet, ["h0", "h1"], [("h0", "h1")],
                       OverlayConfig(columnar=True))


# ------------------------------------- end-to-end trace identity (fixed)


def _line_trace(columnar, loss_factory=None, run=3.0):
    scn = line_scenario(7, config=OverlayConfig(columnar=columnar),
                        loss_factory=loss_factory)
    sim = scn.sim
    scn.overlay.client("h5", 7)
    CbrSource(sim, scn.overlay.client("h0"), Address("h5", 7),
              rate_pps=25.0, duration=run).start()
    sim.run(until=sim.now + run + 0.5)
    return scn.overlay.trace, sim.events_processed


def test_columnar_trace_identity_composite_regression():
    # Regression for the composite draw-order bug: a Bernoulli child
    # ahead of a Gilbert-Elliott child forces the scalar path to make
    # the per-packet draw *before* the GE state advance; the columnar
    # path must not reorder those draws while classifying the profile.
    factory = lambda: CompositeLoss(
        BernoulliLoss(0.03),
        GilbertElliottLoss(mean_good=0.5, mean_bad=0.05,
                           good_loss=0.0, bad_loss=1.0),
    )
    scalar, scalar_events = _line_trace(False, factory)
    columnar, columnar_events = _line_trace(True, factory)
    assert diff_traces(columnar, scalar) is None
    assert scalar_events == columnar_events
