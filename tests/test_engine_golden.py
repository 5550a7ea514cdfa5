"""Golden digests for the discrete-event engines.

Five runs pin what the scheduler and the packet data plane do:

* ``timers`` — the mixed periodic/manual/one-shot workload of
  ``tests/test_sim_periodic.py``, on a bare simulator;
* ``simcore16`` — the 16-node ring+chords steady overlay of
  ``benchmarks/bench_simcore.py`` (four CBR flows, 2 s window);
* ``continental`` — the 12-city overlay under light loss carrying
  best-effort unicast and multicast, disjoint-path, reliable and
  NM-Strikes traffic across a fiber cut;
* ``warmstart`` — a snapshot taken on an organically warmed mesh,
  restored into a fresh twin, and continued;
* ``vectorized`` — the simcore overlay on the approximate numpy tier
  (``columnar_window=0.00025``), which runs only on the columnar engine.

Each case records a blake2b digest of its delivery trace (exact float
``repr``s), ``events_processed``, ``timer.fired`` and digests of the
overlay and internet counters. Every exact engine must reproduce the
same record bit for bit.

Regenerate the fixture only for an intended behaviour change::

    PYTHONPATH=src python -m tests.test_engine_golden --capture
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.analysis.scenarios import Scenario, _aligned_carriers
from repro.analysis.workloads import CbrSource
from repro.core.config import OverlayConfig
from repro.core.message import (
    LINK_NM_STRIKES,
    LINK_RELIABLE,
    Address,
    ServiceSpec,
)
from repro.core.network import OverlayNetwork
from repro.core.warmstart import restore
from repro.net.internet import Internet
from repro.net.loss import BernoulliLoss
from repro.net.topologies import US_CITIES, continental_internet, overlay_edges, site_name
from repro.sim.events import Simulator
from repro.sim.rng import RngRegistry
from tests.test_forwarding_cache import _continental_traffic
from tests.test_sim_periodic import _trace
from tests.test_warmstart import _drive, _mesh, _organic_capture

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "engine_golden.json"

#: The exact engines every case must agree on.
ENGINES = ("recycled", "columnar")


def _sim(engine: str) -> Simulator:
    return Simulator(columnar=engine == "columnar")


def _config(engine: str, **knobs) -> OverlayConfig:
    return OverlayConfig(columnar=engine == "columnar", **knobs)


def _digest(part) -> str:
    blob = json.dumps(part, separators=(",", ":"), default=repr).encode()
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


def _record(sim: Simulator, trace: list, overlay=None) -> dict:
    def counters(counter):
        return _digest(sorted(counter.as_dict().items()))

    return {
        "deliveries": len(trace),
        "trace": _digest(trace),
        "events_processed": sim.events_processed,
        "timer.fired": sim.timer_fired,
        "overlay_counters": None if overlay is None else counters(overlay.counters),
        "internet_counters": (
            None if overlay is None else counters(overlay.internet.counters)
        ),
    }


def _receiver(sim: Simulator, trace: list, site: str):
    return lambda msg: trace.append(
        (site, msg.origin, msg.flow, msg.seq, sim.now)
    )


# ---------------------------------------------------------------- cases


def _timers(engine: str) -> dict:
    sim = _sim(engine)
    return _record(sim, _trace(sim))


SIMCORE_N = 16
SIMCORE_FIBERS = sorted(
    {tuple(sorted((f"r{i:02d}", f"r{(i + d) % SIMCORE_N:02d}")))
     for i in range(SIMCORE_N) for d in (1, 3)}
)


def _simcore(sim: Simulator, config: OverlayConfig) -> dict:
    """bench_simcore's 16-node steady overlay: warm up, then four CBR
    flows at 20 pps for 2 s."""
    inet = Internet(sim, RngRegistry(777))
    domain = inet.add_isp("mesh", convergence_delay=10.0)
    for i in range(SIMCORE_N):
        domain.add_router(f"r{i:02d}")
    for a, b in SIMCORE_FIBERS:
        domain.add_link(a, b, 0.010, None, None)
    for i in range(SIMCORE_N):
        inet.add_host(f"n{i:02d}", access_delay=0.0)
        inet.attach(f"n{i:02d}", "mesh", f"r{i:02d}")
    sites = [f"n{i:02d}" for i in range(SIMCORE_N)]
    links = [(f"n{a[1:]}", f"n{b[1:]}") for a, b in SIMCORE_FIBERS]
    overlay = OverlayNetwork(inet, sites, links, config)
    overlay.warm_up(2.0)
    trace: list = []
    for src, sink in (("n00", "n08"), ("n03", "n11"), ("n05", "n13"),
                      ("n10", "n02")):
        overlay.client(sink, 7, on_message=_receiver(sim, trace, sink))
        CbrSource(sim, overlay.client(src), Address(sink, 7),
                  rate_pps=20.0).start()
    sim.run(until=sim.now + 2.0)
    return _record(sim, trace, overlay)


def _simcore16(engine: str) -> dict:
    return _simcore(_sim(engine), _config(engine))


def _vectorized(engine: str) -> dict:
    return _simcore(_sim(engine), _config(
        engine, columnar_window=0.00025, columnar_vectorized=True))


def _continental(engine: str) -> dict:
    sim = _sim(engine)
    isps = ["ispA", "ispB"]
    internet = continental_internet(
        sim, RngRegistry(777), isps=isps,
        loss_factory=lambda: BernoulliLoss(0.01),
    )
    overlay = OverlayNetwork(
        internet,
        [site_name(city) for city in US_CITIES],
        [(site_name(a), site_name(b)) for a, b in overlay_edges(isps)],
        _config(engine),
        carriers=_aligned_carriers(isps),
    )
    overlay.warm_up(2.0)
    scn = Scenario(sim, overlay.rngs, internet, overlay)
    trace: list = []
    _continental_traffic(scn, trace)
    overlay.client("site-SEA", 11, on_message=_receiver(sim, trace, "site-SEA"))
    overlay.client("site-ATL", 12, on_message=_receiver(sim, trace, "site-ATL"))
    reliable = overlay.client("site-BOS")
    strikes = overlay.client("site-DEN")
    strikes_spec = ServiceSpec.make(
        link=LINK_NM_STRIKES, n=3, m=2, req_spacing=0.035,
        retr_spacing=0.035, deadline=0.200,
    )

    def tick():
        reliable.send(Address("site-SEA", 11),
                      service=ServiceSpec(link=LINK_RELIABLE))
        strikes.send(Address("site-ATL", 12), service=strikes_spec)
        sim.schedule(0.04, tick)

    def cut():
        internet.fail_fiber("ispA", "NYC", "CHI")
        internet.fail_fiber("ispB", "NYC", "CHI")

    sim.schedule(0.0, tick)
    sim.schedule(2.0, cut)
    sim.run(until=sim.now + 6.0)
    return _record(sim, trace, overlay)


def _warmstart(engine: str) -> dict:
    __, payload, __ = _organic_capture()
    twin = _mesh(engine=engine)
    restore(twin, payload)
    return _record(twin.sim, _drive(twin), twin)


#: case name -> (runner, engines it runs on).
CASES = {
    "timers": (_timers, ENGINES),
    "simcore16": (_simcore16, ENGINES),
    "continental": (_continental, ENGINES),
    "warmstart": (_warmstart, ENGINES),
    "vectorized": (_vectorized, ("columnar",)),
}


@pytest.mark.parametrize("case, engine", [
    (case, engine) for case, (__, engines) in CASES.items()
    for engine in engines
])
def test_engine_reproduces_golden_record(case, engine):
    expected = json.loads(FIXTURE.read_text())["cases"][case]
    runner = CASES[case][0]
    assert runner(engine) == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--capture"]:
        sys.exit("usage: python -m tests.test_engine_golden --capture")
    cases = {}
    for case, (runner, engines) in CASES.items():
        records = {engine: runner(engine) for engine in engines}
        first = records[engines[0]]
        for engine, got in records.items():
            assert got == first, f"{case}: {engine} disagrees with {engines[0]}"
        cases[case] = first
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps({
        "scenario": "tests/test_engine_golden.py:CASES",
        "captured_on": list(ENGINES),
        "cases": cases,
    }, indent=1) + "\n")
    print(FIXTURE.read_text())
