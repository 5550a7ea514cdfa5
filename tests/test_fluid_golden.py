"""Golden digest for the fluid engine's settled state.

One hybrid run exercises every part of the fluid model at once: many
flows per city pair in two message sizes over capacitated fibers (so
analytic queueing and capacity shares are non-trivial), a multicast
group with a mid-run leave, a flow to a port with no client, a flow to
its own node, a fiber cut and repair, rate changes, and churn. The
digest covers every flow's offered count and settled intervals, every
overlay link's fluid byte counter and rate, every fiber's fluid bytes,
and the per-node flow-table fluid volumes, hashed from exact float
``repr``s — an engine change that is meant to be behaviour-neutral must
reproduce it bit for bit.

Regenerate the fixture only for an intended model change::

    PYTHONPATH=src python tests/test_fluid_golden.py --capture
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from repro.analysis.scenarios import continental_scenario
from repro.core.message import Address
from repro.core.warmstart import _all_fibers
from repro.net.loss import BernoulliLoss

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "fluid_golden.json"

SEED = 17
#: Every ISP fiber carries this much per direction: enough that the
#: heavier city pairs overload a shared fiber and the rest queue.
CAPACITY_BPS = 3_000_000.0
PAIRS = [("NYC", "LAX"), ("SEA", "MIA"), ("BOS", "DAL"), ("CHI", "NYC"),
         ("LAX", "SEA")]
SINK_PORT = 7
ABSENT_PORT = 99
GROUP = "mcast:g"
GROUP_PORT = 9000


def _site(city: str) -> str:
    return f"site-{city}"


def build_run():
    """Build and run the golden scenario; returns (scenario, engine,
    every flow ever started, in start order)."""
    scn = continental_scenario(
        seed=SEED, capacity_bps=CAPACITY_BPS,
        loss_factory=lambda: BernoulliLoss(0.001),
    )
    overlay, sim, internet = scn.overlay, scn.sim, scn.internet
    engine = overlay.fluid_engine()
    for city in {c for pair in PAIRS for c in pair}:
        overlay.client(_site(city), SINK_PORT)
    receivers = [overlay.client(_site(c), GROUP_PORT)
                 for c in ("SEA", "MIA", "BOS")]
    for rx in receivers:
        rx.join(GROUP)
    scn.run_for(1.0)  # GSUs flood

    flows = []
    ports = iter(range(100, 10_000))

    def start(src_city, dst, rate, size):
        client = overlay.client(_site(src_city), next(ports))
        flow = engine.add_flow(client, dst, rate, size=size)
        flows.append(flow)
        return flow

    for a, b in PAIRS:
        dst = Address(_site(b), SINK_PORT)
        for __ in range(6):
            start(a, dst, 40.0, 1200)
        for __ in range(4):
            start(a, dst, 60.0, 200)
    # Siblings of a delivering pair: no client on the port, and a
    # flow that never leaves its origin node.
    start("NYC", Address(_site("LAX"), ABSENT_PORT), 30.0, 1200)
    start("CHI", Address(_site("CHI"), SINK_PORT), 20.0, 600)
    group = Address(GROUP, GROUP_PORT)
    start("CHI", group, 25.0, 1200)
    start("CHI", group, 25.0, 600)
    start("CHI", group, 15.0, 600)

    def churn_in(a, b, rate, size):
        start(a, Address(_site(b), SINK_PORT), rate, size)

    t0 = sim.now
    sim.schedule(0.5, churn_in, "SEA", "MIA", 35.0, 1200)
    sim.schedule(0.5, churn_in, "BOS", "DAL", 35.0, 200)
    sim.schedule(1.25, engine.remove_flow, flows[3])
    sim.schedule(1.25, engine.set_rate, flows[12], 75.0)
    sim.schedule(1.5, internet.fail_fiber, "ispA", "CHI", "NYC")
    sim.schedule(2.25, receivers[1].leave, GROUP)
    sim.schedule(2.5, engine.remove_flow, flows[21])
    sim.schedule(2.5, churn_in, "CHI", "NYC", 50.0, 1200)
    sim.schedule(3.5, internet.repair_fiber, "ispA", "CHI", "NYC")
    sim.schedule(3.75, engine.set_rate, flows[0], 10.0)
    sim.schedule(4.0, engine.remove_flow, flows[-1])
    sim.run(until=t0 + 6.0)
    engine.settle_now()
    return scn, engine, flows


def _sections(scn, engine, flows) -> dict:
    overlay = scn.overlay
    now = scn.sim.now
    flow_part = [
        [f.flow, repr(f.offered), repr(f.rate), f.active,
         [[label, repr(agg[0]), [[repr(w), repr(lat)] for w, lat in agg[1]]]
          for label, agg in f.deliveries.items()]]
        for f in flows
    ]
    link_part = [
        [node_id, nbr, repr(link.fluid_bytes_sent), repr(link.fluid_rate_bps)]
        for node_id, node in sorted(overlay.nodes.items())
        for nbr, link in sorted(node.links.items())
    ]
    fiber_part = [
        [name, repr(fiber.fluid_bytes)]
        for name, fiber in sorted(_all_fibers(scn.internet).items())
    ]
    table_part = [
        [node_id, e.flow, repr(e.fluid_messages), repr(e.fluid_bytes),
         sorted(e.roles)]
        for node_id, node in sorted(overlay.nodes.items())
        for e in sorted(node.flows.active(now), key=lambda e: e.flow)
        if e.fluid_messages or e.fluid_bytes
    ]
    counter_part = [
        [name, repr(overlay.counters.get(name))]
        for name in ("fluid.msgs-offered", "fluid.msgs-delivered",
                     "fluid.intervals", "fluid.resolve")
    ]
    return {"flows": flow_part, "links": link_part, "fibers": fiber_part,
            "flow_tables": table_part, "counters": counter_part,
            "resolves": engine.resolves}


def digests(scn, engine, flows) -> dict:
    """Per-section blake2b digests of the run's settled fluid state."""
    out = {}
    for name, part in _sections(scn, engine, flows).items():
        blob = json.dumps(part, separators=(",", ":")).encode()
        out[name] = hashlib.blake2b(blob, digest_size=16).hexdigest()
    return out


def test_fluid_state_matches_golden_digest():
    expected = json.loads(FIXTURE.read_text())
    got = digests(*build_run())
    assert got == expected["digests"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--capture"]:
        sys.exit("usage: test_fluid_golden.py --capture")
    scn, engine, flows = build_run()
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps({
        "scenario": "tests/test_fluid_golden.py:build_run",
        "flows": len(flows),
        "resolves": engine.resolves,
        "offered": scn.overlay.counters.get("fluid.msgs-offered"),
        "delivered": scn.overlay.counters.get("fluid.msgs-delivered"),
        "digests": digests(scn, engine, flows),
    }, indent=1) + "\n")
    print(FIXTURE.read_text())
