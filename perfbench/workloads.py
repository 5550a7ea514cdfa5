"""The four reference workloads of the benchmark.

Every workload is one batch simulation of a fixed input size, split in
two timed phases:

* ``setup(inputs)`` builds a converged, quiesced overlay from nothing
  and primes the lazy underlay tables (the ``setup_s`` metric);
* ``window(env)`` advances the simulation over the measured window
  (the ``sim_rate`` metric), with open-loop CBR traffic at stated rates.

``make_inputs(seed)`` draws everything random a workload has — flow
pairs (where the workload varies them), start phases, churn timings and
the simulation's own master seed, which drives the loss draws — from the
benchmark seed alone. The simulator is handed only those generated
inputs.

Workloads are built from the public package API. The n=300 mesh is
specified here by value, not imported from an older bench, so an edit
elsewhere cannot silently change what this benchmark measures.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field

from repro.analysis.calibrate import DELIVERY_TOL
from repro.analysis.scenarios import continental_scenario
from repro.analysis.workloads import CbrSource
from repro.core import warmstart
from repro.core.config import OverlayConfig
from repro.core.message import (
    LINK_NM_STRIKES,
    LINK_RELIABLE,
    ROUTING_DISJOINT,
    Address,
    ServiceSpec,
)
from repro.core.network import OverlayNetwork
from repro.net.internet import NATIVE, Internet
from repro.net.loss import GilbertElliottLoss
from repro.net.topologies import US_CITIES, site_name
from repro.sim.events import Simulator
from repro.sim.rng import RngRegistry

#: Sources stop this long before the window closes, so messages still
#: in flight at the end are not counted as losses.
DRAIN_S = 1.0
#: The tail metric is the highest percentile with this many samples
#: beyond it.
TAIL_MIN_BEYOND = 10
#: Port every sink listens on; sources use one port per flow so every
#: flow has its own identity even when two flows share a city pair.
SINK_PORT = 7
SOURCE_PORT_BASE = 1000

SERVICES = {
    "best-effort": ServiceSpec(),
    "reliable": ServiceSpec(link=LINK_RELIABLE),
    "nm-strikes": ServiceSpec.make(
        link=LINK_NM_STRIKES, n=3, m=2, req_spacing=0.035, retr_spacing=0.035,
        deadline=0.200,
    ),
    "disjoint": ServiceSpec(routing=ROUTING_DISJOINT, k=2),
}

CITY_PAIRS = [(a, b) for a in US_CITIES for b in US_CITIES if a != b]
PROBE_PAIR = ("NYC", "LAX")


def _great_circle_km(a: str, b: str) -> float:
    (lat1, lon1), (lat2, lon2) = US_CITIES[a], US_CITIES[b]
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dp, dl = p2 - p1, math.radians(lon2 - lon1)
    h = math.sin(dp / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2) ** 2
    return 2 * 6371.0 * math.asin(math.sqrt(h))


def stratified(ordered: list, k: int) -> list:
    """The middle item of each of ``k`` contiguous, near-equal strata of
    ``ordered``: a fixed sample spanning the whole range of the ordering
    key (path length)."""
    n = len(ordered)
    return [ordered[(2 * i + 1) * n // (2 * k)] for i in range(k)]


#: Simulated instant the continental windows open at. Where quiescence
#: ends depends on the loss draws; running on to a fixed instant gives
#: every input set the same hello-timer phase at the window and the same
#: amount of set-up simulation.
CONTINENTAL_START = 3.0


def run_to_start(sim) -> None:
    """Advance a quiesced continental simulation to ``CONTINENTAL_START``."""
    check(sim.now <= CONTINENTAL_START,
          f"quiesced at t={sim.now:.3f} s, after the window start {CONTINENTAL_START} s")
    sim.run(until=CONTINENTAL_START)


class CheckFailed(RuntimeError):
    """A workload's output failed one of its correctness checks."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Flow:
    """One generated CBR flow: endpoints, service class, rate, and the
    window-relative start and stop instants."""

    src: str
    dst: str
    service: str
    rate_pps: float
    start: float
    stop: float
    fluid: bool = False


@dataclass
class Env:
    """A set-up workload: the converged overlay plus what the window
    needs (started sources, the probe flow, the fluid engine)."""

    overlay: OverlayNetwork
    inputs: dict
    sources: list = field(default_factory=list)
    fluid: object = None

    @property
    def sim(self):
        return self.overlay.sim


@dataclass
class Outcome:
    """What one window produced: the figures the metrics pool over a
    run's input sets, and the digest of its delivery trace."""

    offered: float
    delivered: float
    latencies: list  # (latency_s, weight) pairs
    probe_gap_s: float
    deadline_total: float
    deadline_met: float
    digest: str
    per_class: dict

    @property
    def delivery_ratio(self) -> float:
        return self.delivered / self.offered


def weighted_percentile(samples: list, pct: float) -> float:
    """Smallest latency whose cumulative weight reaches ``pct`` percent
    (nearest rank; packet samples have weight 1, fluid intervals carry
    their modeled message count)."""
    ordered = sorted(samples)
    total = sum(w for __, w in ordered)
    target = total * pct / 100.0
    acc = 0.0
    for latency, weight in ordered:
        acc += weight
        if acc >= target:
            return latency
    return ordered[-1][0]


def tail(samples: list) -> tuple[float, float, float]:
    """(percentile, latency_s, sample count) for the highest percentile
    that has ``TAIL_MIN_BEYOND`` samples beyond it: 100 * (1 - 10 / n)."""
    total = sum(w for __, w in samples)
    check(total > 2 * TAIL_MIN_BEYOND,
          f"only {total:g} latency samples: too few for a tail percentile")
    pct = 100.0 * (1.0 - TAIL_MIN_BEYOND / total)
    return pct, weighted_percentile(samples, pct), total


# ---------------------------------------------------------------- helpers


def prime_tables(overlay: OverlayNetwork) -> None:
    """Fill every routing domain's lazy next-hop tables and (on the
    vectorized tier) every overlay channel's path profile, so the
    measured window does not pay lazy fills that setup should own."""
    inet = overlay.internet
    for domain in list(inet.isps.values()) + [inet.native]:
        for dst in domain.routers:
            domain.next_hop(dst, dst)
    for node in overlay.nodes.values():
        for link in node.links.values():
            for carrier in link.carriers:
                inet.prime_path(inet.channel(link.node_host, link.nbr_host, carrier))


def start_sources(env: Env, flows: list[Flow]) -> None:
    """Register sinks and start one CBR source per flow at its
    window-relative start instant."""
    overlay = env.overlay
    sinks: set[str] = set()
    for i, flow in enumerate(flows):
        if flow.dst not in sinks:
            sinks.add(flow.dst)
            overlay.client(flow.dst, SINK_PORT)
        source = CbrSource(
            env.sim,
            overlay.client(flow.src, SOURCE_PORT_BASE + i),
            Address(flow.dst, SINK_PORT),
            rate_pps=flow.rate_pps,
            service=SERVICES[flow.service],
            duration=flow.stop - flow.start,
            fluid=env.fluid if flow.fluid else None,
        )
        env.sources.append((flow, source.start(flow.start)))


def native_first_fiber(internet: Internet, src: str, dst: str) -> tuple:
    """(isp, a, b) of the first fiber on the native route src -> dst."""
    route = internet.current_route(site_name(src), site_name(dst), NATIVE)
    (isp, a), (__, b) = route[0], route[1]
    return isp, a, b


def outcome_of(env: Env, deadline_of) -> Outcome:
    """Reduce a finished window to its outcome. ``deadline_of(flow)``
    gives the deadline a flow's messages are scored against, or None
    when the flow is not in the workload's deadline class."""
    overlay = env.overlay
    records = overlay.trace.records
    first: dict = {}
    hasher = hashlib.blake2b(digest_size=16)
    for r in records:
        hasher.update(
            f"{r.flow}|{r.seq}|{r.sent_at!r}|{r.delivered_at!r}|{r.destination}\n".encode()
        )
        key = (r.flow, r.seq, r.destination)
        if r.delivered_at is not None and key not in first:
            first[key] = r.delivered_at - r.sent_at
    by_flow: dict = {}
    for (flow_id, __, __), latency in first.items():
        by_flow.setdefault(flow_id, []).append(latency)

    offered = delivered = 0.0
    latencies: list = []
    deadline_total = deadline_met = 0.0
    per_class: dict = {}
    probe_gap = 0.0
    for i, (flow, source) in enumerate(env.sources):
        deadline = deadline_of(flow)
        if flow.fluid:
            ff = source.fluid_flow
            check(ff is not None, f"fluid flow {flow.src}->{flow.dst} never started")
            label = str(source.dst)
            sent, got, intervals = ff.offered, ff.delivered(label), ff.intervals(label)
            hasher.update(f"{ff.flow}|{sent!r}|{got!r}|{intervals!r}\n".encode())
            samples = [(lat, w) for w, lat in intervals if w > 0]
        else:
            sent = source.sent + source.rejected
            lats = by_flow.get(source.flow, [])
            got = len(lats)
            samples = [(lat, 1.0) for lat in lats]
            hasher.update(f"{source.flow}|{source.sent}|{source.rejected}\n".encode())
        offered += sent
        delivered += got
        latencies.extend(samples)
        cls = per_class.setdefault(flow.service, [0.0, 0.0])
        cls[0] += sent
        cls[1] += got
        if deadline is not None:
            deadline_total += sent
            deadline_met += sum(w for lat, w in samples if lat <= deadline)
        if i == 0:
            probe_gap = _longest_gap(overlay.trace, source.flow)
    check(offered > 0, "no message was offered")
    check(delivered <= offered + 1e-6,
          f"delivered {delivered:g} exceeds offered {offered:g}")
    return Outcome(
        offered=offered,
        delivered=delivered,
        latencies=latencies,
        probe_gap_s=probe_gap,
        deadline_total=deadline_total,
        deadline_met=deadline_met,
        digest=hasher.hexdigest(),
        per_class=per_class,
    )


def _longest_gap(trace, flow_id: str) -> float:
    times = sorted({r.delivered_at for r in trace.for_flow(flow_id)
                    if r.delivered_at is not None})
    check(len(times) >= 2, f"probe flow {flow_id} delivered fewer than 2 messages")
    return max(b - a for a, b in zip(times, times[1:]))


def _phase(rng: random.Random, rate_pps: float) -> float:
    """A start offset within one send interval, so sources do not all
    tick on the same instant."""
    return rng.random() / rate_pps


# ---------------------------------------------------------- the workloads


class Workload:
    """Hooks every workload has; the checks default to none."""

    name = ""
    why = ""
    #: Independent input sets drawn per benchmark seed. Simulated metrics
    #: pool over them, which keeps a run's figures from hinging on one
    #: draw of the loss process or the flow pairs.
    input_sets = 1

    def verify_setup(self, env: Env) -> None:
        """Checks on the set-up state, run outside the timed phases."""

    def cross_check(self, inputs: dict, out: Outcome) -> None:
        """Checks against another engine, run once per benchmark run."""


class ContinentalCut(Workload):
    """Paper-scale E2 fabric under light bursty loss, 24 mixed-service
    CBR flows, and a fiber cut under the NYC->LAX probe mid-window."""

    name = "continental-cut"
    why = ("Data plane, link-state flood and route recompute after a fiber "
           "cut on the paper-scale 12-city fabric; setup is trivial.")
    input_sets = 9
    window_s = 9.0
    cut_at = 4.5
    n_flows = 24
    rate_pps = 50.0
    classes = ("best-effort", "reliable", "nm-strikes", "disjoint")

    def make_inputs(self, seed: str) -> dict:
        rng = random.Random(f"{self.name}:{seed}")
        # Fixed pairs spanning every path length: the seed varies the
        # loss draws and start phases, not which cities talk.
        pairs = sorted((p for p in CITY_PAIRS if p != PROBE_PAIR),
                       key=lambda p: (_great_circle_km(*p), p))
        drawn = [PROBE_PAIR] + stratified(pairs, self.n_flows - 1)
        stop = self.window_s - DRAIN_S
        flows = []
        for i, (a, b) in enumerate(drawn):
            # The probe keeps a fixed phase against the cut instant.
            start = _phase(rng, self.rate_pps) if i else 0.0
            flows.append(Flow(site_name(a), site_name(b),
                              self.classes[i % len(self.classes)],
                              self.rate_pps, start, stop))
        return {"sim_seed": rng.randrange(2**31), "flows": flows}

    def setup(self, inputs: dict) -> Env:
        scn = continental_scenario(
            seed=inputs["sim_seed"],
            loss_factory=lambda: GilbertElliottLoss(
                mean_good=10.0, mean_bad=0.05, bad_loss=0.3),
            warmup=2.0,
        )
        scn.overlay.quiesce()
        run_to_start(scn.sim)
        prime_tables(scn.overlay)
        return Env(scn.overlay, inputs)

    def window(self, env: Env) -> None:
        sim = env.sim
        end = sim.now + self.window_s
        start_sources(env, env.inputs["flows"])
        isp, a, b = native_first_fiber(env.overlay.internet, *PROBE_PAIR)
        sim.schedule(self.cut_at, env.overlay.internet.fail_fiber, isp, a, b)
        sim.run(until=end)

    def outcome(self, env: Env) -> Outcome:
        out = outcome_of(env, lambda f: SERVICES[f.service].deadline)
        check(out.probe_gap_s < 1.0,
              f"reroute outage {out.probe_gap_s * 1e3:.1f} ms is not sub-second")
        for cls, (sent, got) in out.per_class.items():
            check(got > 0, f"service class {cls} delivered nothing")
        return out


MESH_NODES = 300
#: Underlay: fibers i~i+1 and i~i+3 around the ring, 10 ms each.
MESH_FIBER_STEPS = (1, 3)
MESH_FIBER_DELAY = 0.010
#: Overlay links join nodes 11 and 13 ring positions apart, so every
#: overlay link rides five 10 ms fibers (a uniform carrier profile,
#: which constructed convergence requires).
MESH_OVERLAY_STEPS = (11, 13)
MESH_ISP = "mesh"
MESH_SIM_SEED = 777
MESH_WARMUP = 2.0
VECTORIZED = dict(columnar=True, columnar_window=0.00025, columnar_vectorized=True)


def build_mesh(config: OverlayConfig) -> OverlayNetwork:
    """A fresh, unstarted n=300 ring+chords mesh with its overlay."""
    n = MESH_NODES
    sim = Simulator(columnar=config.columnar)
    inet = Internet(sim, RngRegistry(MESH_SIM_SEED))
    domain = inet.add_isp(MESH_ISP, convergence_delay=10.0)
    for i in range(n):
        domain.add_router(f"r{i:03d}")
    fibers = sorted({tuple(sorted((f"r{i:03d}", f"r{(i + d) % n:03d}")))
                     for i in range(n) for d in MESH_FIBER_STEPS})
    for a, b in fibers:
        domain.add_link(a, b, MESH_FIBER_DELAY, None, None)
    for i in range(n):
        inet.add_host(f"n{i:03d}", access_delay=0.0)
        inet.attach(f"n{i:03d}", MESH_ISP, f"r{i:03d}")
    sites = [f"n{i:03d}" for i in range(n)]
    links = sorted({tuple(sorted((f"n{i:03d}", f"n{(i + d) % n:03d}")))
                    for i in range(n) for d in MESH_OVERLAY_STEPS})
    return OverlayNetwork(inet, sites, links, config)


class MeshSteady(Workload):
    """The n=300 mesh, fault-free, 64 CBR flows on the packet engine."""

    name = "mesh-steady"
    why = ("n=300 mesh, fault-free: per-event dispatch of the hello stream "
           "sets sim_rate; setup is constructed convergence, which fills the "
           "underlay next-hop tables.")
    window_s = 3.0
    n_flows = 64
    rate_pps = 5.0
    #: Scoring deadline for the fleet (its flows carry no deadline of
    #: their own): one second, well above the ~8 overlay hops of the
    #: longest flows.
    deadline_s = 1.0

    def config(self) -> OverlayConfig:
        return OverlayConfig()

    def make_inputs(self, seed: str) -> dict:
        rng = random.Random(f"mesh:{seed}")
        stop = self.window_s - DRAIN_S
        flows = []
        for i in range(self.n_flows):
            src = rng.randrange(MESH_NODES)
            # Ring distances spread evenly over 15..90 keep every sink a
            # handful of overlay hops away, far inside the overlay TTL
            # budget. The overlay is a circulant graph, so a flow's path
            # length depends on its distance alone: the seed moves the
            # fleet around the ring without changing its path lengths.
            dst = (src + 15 + (2 * i + 1) * 76 // (2 * self.n_flows)) % MESH_NODES
            start = _phase(rng, self.rate_pps)
            flows.append(Flow(f"n{src:03d}", f"n{dst:03d}", "best-effort",
                              self.rate_pps, start, stop))
        return {"flows": flows}

    def setup(self, inputs: dict) -> Env:
        overlay = build_mesh(self.config())
        warmstart.construct_converged(overlay, MESH_WARMUP)
        prime_tables(overlay)
        return Env(overlay, inputs)

    def window(self, env: Env) -> None:
        end = env.sim.now + self.window_s
        start_sources(env, env.inputs["flows"])
        env.sim.run(until=end)

    def verify_setup(self, env: Env) -> None:
        check(env.overlay.converged(), "mesh not converged after setup")

    def outcome(self, env: Env) -> Outcome:
        out = outcome_of(env, lambda f: self.deadline_s)
        for flow, source in env.sources:
            check(env.overlay.trace.for_flow(source.flow),
                  f"flow {flow.src}->{flow.dst} delivered nothing")
        return out


class MeshVectorized(MeshSteady):
    """The same mesh, fleet and seed on the approximate vectorized tier,
    warm-started by restoring a snapshot of an exact twin."""

    name = "mesh-vectorized"
    why = ("Same mesh on the approximate tier: the only workload running the "
           "columnar wheel and numpy batch settle, and the only one timing "
           "warm-start capture and restore.")

    def config(self) -> OverlayConfig:
        return OverlayConfig(**VECTORIZED)

    def setup(self, inputs: dict) -> Env:
        twin = build_mesh(OverlayConfig())
        warmstart.construct_converged(twin, MESH_WARMUP)
        payload = warmstart.capture(twin)
        overlay = build_mesh(self.config())
        warmstart.restore(overlay, payload)
        prime_tables(overlay)
        return Env(overlay, inputs)

    def cross_check(self, inputs: dict, out: Outcome) -> None:
        """The approximate tier's delivery ratio must stay within the
        calibration harness's loss-free tolerance of the exact packet
        engine's on the same mesh, fleet and seed."""
        exact = MeshSteady()
        ref = exact.setup(inputs)
        exact.window(ref)
        exact_ratio = exact.outcome(ref).delivery_ratio
        delta = abs(out.delivery_ratio - exact_ratio)
        check(delta <= DELIVERY_TOL,
              f"vectorized delivery ratio {out.delivery_ratio:.4f} is "
              f"{delta:.4f} from the exact engine's {exact_ratio:.4f} "
              f"(tolerance {DELIVERY_TOL})")


class FluidBulk(Workload):
    """The continental fabric carrying ~2,000 fluid CBR flows plus short
    churn flows, with a fiber cut and repair under a packet probe."""

    name = "fluid-bulk"
    why = ("~2,000 fluid flows over 132 city pairs plus churn: every re-solve "
           "re-plans every flow, so plan sharing shows here and nowhere else.")
    input_sets = 5
    window_s = 6.0
    cut_at = 2.0
    repair_at = 4.0
    n_bulk = 2000
    n_churn = 200
    bulk_rate_pps = 0.5
    churn_rate_pps = 2.0
    probe_rate_pps = 50.0
    #: Churn flows are admitted and retired on this grid, the way a
    #: controller batches admissions; same-instant starts coalesce into
    #: one re-solve.
    churn_slot_s = 0.25
    #: Scoring deadline (the fluid flows carry none of their own).
    deadline_s = 0.200

    def make_inputs(self, seed: str) -> dict:
        rng = random.Random(f"{self.name}:{seed}")
        stop = self.window_s - DRAIN_S
        flows = [Flow(site_name(PROBE_PAIR[0]), site_name(PROBE_PAIR[1]),
                      "best-effort", self.probe_rate_pps, 0.0, stop)]
        for __ in range(self.n_bulk):
            a, b = rng.choice(CITY_PAIRS)
            flows.append(Flow(site_name(a), site_name(b), "best-effort",
                              self.bulk_rate_pps, 0.0, stop, fluid=True))
        slot = self.churn_slot_s
        last_start = int((stop - 2.0) / slot)
        for __ in range(self.n_churn):
            a, b = rng.choice(CITY_PAIRS)
            start = rng.randint(2, last_start) * slot
            length = rng.randint(2, 8) * slot
            flows.append(Flow(site_name(a), site_name(b), "best-effort",
                              self.churn_rate_pps, start, start + length,
                              fluid=True))
        return {"sim_seed": rng.randrange(2**31), "flows": flows}

    def setup(self, inputs: dict) -> Env:
        scn = continental_scenario(seed=inputs["sim_seed"], warmup=2.0)
        scn.overlay.quiesce()
        run_to_start(scn.sim)
        prime_tables(scn.overlay)
        env = Env(scn.overlay, inputs)
        env.fluid = scn.overlay.fluid_engine()
        return env

    def window(self, env: Env) -> None:
        sim = env.sim
        end = sim.now + self.window_s
        start_sources(env, env.inputs["flows"])
        internet = env.overlay.internet
        isp, a, b = native_first_fiber(internet, *PROBE_PAIR)
        sim.schedule(self.cut_at, internet.fail_fiber, isp, a, b)
        sim.schedule(self.repair_at, internet.repair_fiber, isp, a, b)
        sim.run(until=end)
        env.fluid.settle_now()

    def outcome(self, env: Env) -> Outcome:
        return outcome_of(env, lambda f: self.deadline_s)


WORKLOADS = {w.name: w for w in (ContinentalCut(), MeshSteady(),
                                 MeshVectorized(), FluidBulk())}
