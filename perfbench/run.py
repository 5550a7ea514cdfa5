"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload continental-cut --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout; the program under test is imported
from ``src/`` there. One run is one single-threaded process. The seed
gives the workload's input sets (``Workload.input_sets`` of them); the
run repeats the batch simulation (set up, then the measured window)
over the sets in turn until ``--seconds`` have passed, every set has run
and at least ``MIN_REPS`` repetitions are done. Host metrics are medians
over the repetitions; simulated metrics pool over the input sets.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` adds one
traced repetition of the first input set and prints the per-layer
metrics instead, with the tracing overhead; its spans are written to
``perfbench/out/``.

Every repetition hashes its delivery trace. A set run again must
reproduce its digest, the traced repetition must match the untraced
ones, and a run must match earlier runs of the same workload, seed and
source tree (logged in ``perfbench/out/digests.json``). Any mismatch, or
any failed workload check, prints ``"correct": false`` and exits with 1.
The last line of standard output is the JSON result, except when the
program under test cannot be found or ``REPRO_AUDIT`` is set: then
nothing goes to standard output and the exit code is 2.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy can be imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
MANIFEST = BENCH_DIR / "manifest.json"

MIN_REPS = 3
MAX_REPS = 60
#: Stores that would let set-up skip work; a run must not create them.
STORES = (".warmstart", ".sweep_cache")


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark at all."""


def load_program():
    """Import the program under test from this checkout's ``src/``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(f"no program under test: {SRC / 'repro'} is missing")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SetupError(f"imported repro from {repro.__file__}, not {SRC}")
    import workloads

    return workloads


def environment() -> dict:
    """Host and program facts recorded with every run."""
    import numpy

    return {
        "git_sha": _git_sha(),
        "source_fingerprint": source_fingerprint(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git
    (``unknown`` outside a git checkout)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def source_fingerprint() -> str:
    """blake2b over the program's and the benchmark's source files
    (paths and contents)."""
    hasher = hashlib.blake2b(digest_size=12)
    for path in sorted([*(SRC / "repro").rglob("*.py"), *BENCH_DIR.glob("*.py")]):
        hasher.update(str(path.relative_to(ROOT)).encode())
        hasher.update(path.read_bytes())
    return hasher.hexdigest()


# ------------------------------------------------------------ repetitions


def run_rep(wl, inputs: dict, tracer=None) -> dict:
    """One set-up + measured window; returns timings, outcome and env."""
    gc.collect()
    started = time.perf_counter()
    env = wl.setup(inputs)
    setup_s = time.perf_counter() - started
    wl.verify_setup(env)
    gc.collect()
    sim = env.sim
    sim_before = sim.now
    events_before = sim.events_processed
    opening = _counters(env, tracer)
    started = time.perf_counter()
    wl.window(env)
    window_s = time.perf_counter() - started
    closing = _counters(env, tracer)
    out = wl.outcome(env)
    return {
        "setup_s": setup_s,
        "window_s": window_s,
        "sim_s": sim.now - sim_before,
        "events": sim.events_processed - events_before,
        "outcome": out,
        "env": env,
        "marks": (opening, closing),
    }


def _counters(env, tracer):
    """Program counters and the span index at a window boundary (traced
    runs only)."""
    if tracer is None:
        return None
    return {
        "span": tracer.mark(),
        "counts": dict(tracer.counts),
        "overlay": dict(env.overlay.counters.as_dict()),
        "internet": dict(env.overlay.internet.counters.as_dict()),
        "timers": dict(env.sim.timer_stats()),
        "transmits": sum(link.frames_sent for node in env.overlay.nodes.values()
                         for link in node.links.values()),
    }


def measure(wl, inputs: list[dict], seconds: float) -> tuple[list[dict], list]:
    """Repeat the workload over its input sets, in turn, until
    ``seconds`` have passed and every set has run (and at least
    ``MIN_REPS`` repetitions in all). A set run again must reproduce its
    first delivery digest. Returns the repetitions (timings) and each
    set's outcome."""
    reps: list[dict] = []
    outs: dict[int, object] = {}
    started = time.perf_counter()
    while len(reps) < max(MIN_REPS, len(inputs)) or (
        time.perf_counter() - started < seconds and len(reps) < MAX_REPS
    ):
        j = len(reps) % len(inputs)
        rep = run_rep(wl, inputs[j])
        del rep["env"]
        out = rep.pop("outcome")
        rep["input"] = j
        if j in outs:
            check_digest(outs[j].digest, out.digest, f"input set {j} run again")
        else:
            outs[j] = out
            if j == 0:
                gc.collect()  # free the window's overlay before building another
                wl.cross_check(inputs[j], out)
        reps.append(rep)
    return reps, [outs[j] for j in sorted(outs)]


def run_digest(outs: list) -> str:
    hasher = hashlib.blake2b(digest_size=16)
    for out in outs:
        hasher.update(out.digest.encode())
    return hasher.hexdigest()


def check_digest(expected: str, got: str, what: str) -> None:
    if got != expected:
        raise DigestMismatch(f"{what}: delivery digest {got} != {expected}")


class DigestMismatch(RuntimeError):
    pass


# ----------------------------------------------------------------- metrics


def end_to_end(reps: list[dict], outs: list) -> dict:
    """Host metrics: medians over repetitions. Simulated metrics: pooled
    over the run's input sets (each set is exact for its inputs), the
    probe's outage as the median over the sets."""
    from workloads import tail, weighted_percentile

    latencies = [s for o in outs for s in o.latencies]
    pct, tail_s, count = tail(latencies)
    print(f"# tail: p{pct:.4f} of {count:.0f} latency samples over "
          f"{len(outs)} input set(s); probe gaps "
          f"{[round(o.probe_gap_s * 1e3, 3) for o in outs]} ms")
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in reps), "s"),
        "sim_rate": (statistics.median(r["sim_s"] / r["window_s"] for r in reps),
                     "sim-s/host-s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "delivery_ratio": (sum(o.delivered for o in outs) / sum(o.offered for o in outs),
                           "fraction"),
        "latency_p50_ms": (weighted_percentile(latencies, 50.0) * 1e3, "sim-ms"),
        "latency_tail_ms": (tail_s * 1e3, "sim-ms"),
        "reroute_outage_ms": (statistics.median(o.probe_gap_s for o in outs) * 1e3, "sim-ms"),
        "deadline_met_ratio": (sum(o.deadline_met for o in outs)
                               / sum(o.deadline_total for o in outs), "fraction"),
    }


def per_layer(rep: dict, tracer, untraced_rate: float, us_per_event: float) -> dict:
    """Per-layer metrics of one traced repetition."""
    from tracer import LAYERS, TraceError

    opening, closing = rep["marks"]
    times, rooted_s = tracer.self_times(opening["span"], closing["span"])
    setup, __ = tracer.self_times(0, opening["span"])
    window_s = rep["window_s"]

    def delta(kind: str, key: str) -> float:
        return closing[kind].get(key, 0) - opening[kind].get(key, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    self_s = {layer: 0.0 for layer in LAYERS}
    for name, (own, __, __) in times.items():
        self_s[name.split(".")[0]] += own
    attributed = sum(self_s.values())
    residual = window_s - rooted_s
    if residual < 0 or abs(attributed + residual - window_s) > 1e-6 * max(window_s, 1.0):
        raise TraceError(
            f"layer self times {attributed:.6f}s + residual {residual:.6f}s "
            f"do not add up to the traced window {window_s:.6f}s")
    self_s["other"] += residual

    def span(name: str, which=times) -> tuple:
        return which.get(name, (0.0, 0, 0.0))

    overlay = lambda key: delta("overlay", key)  # noqa: E731
    drops = sum(delta("internet", k) for k in closing["internet"] if k.startswith("drop:"))
    retransmits = sum(overlay(k) for k in closing["overlay"] if "retransmit" in k)
    nacks = sum(overlay(k) for k in closing["overlay"]
                if k.endswith("-nack") or k == "strikes-request")
    counts = lambda key: closing["counts"][key] - opening["counts"][key]  # noqa: E731
    fwd_hit, fwd_miss = overlay("fwd.hit"), overlay("fwd.miss")
    route_hit, route_compute = overlay("route.hit"), overlay("route.compute")
    forwarded = overlay("forwarded")
    flow_plans = counts("fluid.flow_plans")
    recompute_total = span("fluid.recompute")[2]
    next_hop_all = [span("net.next_hop", times), span("net.next_hop", setup)]
    traced_rate = rep["sim_s"] / window_s
    m = {
        "sim.events": (rep["events"], "count"),
        "sim.us_per_event": (us_per_event, "us"),
        "sim.timer_fired": (delta("timers", "timer.fired"), "count"),
        "sim.timer_rearmed": (delta("timers", "timer.rearmed"), "count"),
        "net.datagrams_sent": (delta("internet", "datagrams-sent"), "count"),
        "net.datagrams_delivered": (delta("internet", "datagrams-delivered"), "count"),
        "net.drops": (drops, "count"),
        "net.next_hop_calls": (sum(s[1] for s in next_hop_all), "count"),
        "net.next_hop_s": (sum(s[2] for s in next_hop_all), "s"),
        "link.hellos": (counts("link.hellos"), "count"),
        "link.transmits": (closing["transmits"] - opening["transmits"], "count"),
        "link.up_events": (overlay("link-up"), "count"),
        "lsdb.updates": (counts("lsdb.updates"), "count"),
        "lsdb.accept_ratio": (ratio(counts("lsdb.accepted"), counts("lsdb.updates")), "fraction"),
        "lsdb.originated": (counts("lsdb.originated"), "count"),
        "route.compute": (route_compute, "count"),
        "route.hit": (route_hit, "count"),
        "route.evict": (overlay("route.evict"), "count"),
        "route.hit_ratio": (ratio(route_hit, route_hit + route_compute), "fraction"),
        "fwd.hit": (fwd_hit, "count"),
        "fwd.miss": (fwd_miss, "count"),
        "fwd.invalidate": (overlay("fwd.invalidate"), "count"),
        "fwd.hit_ratio": (ratio(fwd_hit, fwd_hit + fwd_miss), "fraction"),
        "fwd.forwarded": (forwarded, "count"),
        "fwd.dup_ratio": (ratio(overlay("duplicate-suppressed"), forwarded), "fraction"),
        "proto.retransmits": (retransmits, "count"),
        "proto.nacks": (nacks, "count"),
        "fluid.resolve": (overlay("fluid.resolve"), "count"),
        "fluid.poke": (overlay("fluid.poke"), "count"),
        "fluid.coalesce_ratio": (ratio(overlay("fluid.resolve"), overlay("fluid.poke")), "fraction"),
        "fluid.us_per_flow_resolve": (ratio(recompute_total * 1e6, flow_plans), "us"),
        "warm.construct_s": (span("warm.construct", setup)[2], "s"),
        "warm.restore_s": (span("warm.restore", setup)[2], "s"),
        "warm.capture_s": (span("warm.capture", setup)[2], "s"),
        "warm.prime_s": (span("warm.prime", setup)[2], "s"),
        "trace.window_s": (window_s, "s"),
        "trace.sim_rate_ratio": (traced_rate / untraced_rate, "fraction"),
    }
    for layer in LAYERS:
        if layer != "warm":  # set-up only: reported through warm.*_s above
            m[f"{layer}.self_s"] = (self_s[layer], "s")
    return m


# ------------------------------------------------------------ digests log


def record_digest(workload: str, seed: int, fingerprint: str, digest: str) -> None:
    """Compare with, or record, the digest earlier runs of this workload
    and seed produced on this source tree."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / "digests.json"
    try:
        known = json.loads(path.read_text())
    except (OSError, ValueError):
        known = {}
    key = f"{workload}|{seed}|{fingerprint}"
    if key in known and known[key] != digest:
        raise DigestMismatch(
            f"delivery digest {digest} differs from the {known[key]} an "
            f"earlier run of {workload} at seed {seed} produced")
    known[key] = digest
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, path)


# ------------------------------------------------------------------- main


def run(args) -> int:
    if os.environ.get("REPRO_AUDIT"):
        print("refusing to time a run with REPRO_AUDIT set", file=sys.stderr)
        return 2
    try:
        workloads = load_program()
    except (SetupError, ImportError) as exc:
        print(f"cannot run the benchmark here: {exc}", file=sys.stderr)
        return 2
    from tracer import TraceError

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    stores_before = {s for s in STORES if (ROOT / s).exists()}
    env_info = environment()
    print("# " + json.dumps({"workload": args.workload, "seed": args.seed,
                             "trace": args.trace, **env_info}))
    wl = workloads.WORKLOADS[args.workload]
    inputs = [wl.make_inputs(f"{args.seed}.{j}") for j in range(wl.input_sets)]
    reps: list = []
    try:
        reps, outs = measure(wl, inputs, args.seconds)
        record_digest(wl.name, args.seed, env_info["source_fingerprint"], run_digest(outs))
        if args.trace:
            metrics = traced(wl, inputs[0], reps, outs[0].digest, args)
        else:
            metrics = end_to_end(reps, outs)
        created = {s for s in STORES if (ROOT / s).exists()} - stores_before
        if created:
            raise workloads.CheckFailed(f"the run created store(s) {sorted(created)}")
    except (workloads.CheckFailed, DigestMismatch, TraceError) as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        return failed(reps)
    except Exception:  # the program under test crashed: report, not hang
        traceback.print_exc()
        return failed(reps)
    for name, (value, unit) in metrics.items():
        print(f"# {name:28s} {value:>16.6f} {unit}")
    print(json.dumps({
        "correct": True,
        "attempted": len(reps) + (1 if args.trace else 0),
        "failed": 0,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def failed(reps: list) -> int:
    print(json.dumps({"correct": False, "attempted": len(reps) + 1,
                      "failed": 1, "metrics": {}}))
    return 1


def traced(wl, inputs: dict, reps: list[dict], digest: str, args) -> dict:
    """One traced repetition; per-layer metrics against the untraced reps."""
    import workloads
    from tracer import Tracer

    reps = [r for r in reps if r["input"] == 0]
    untraced_rate = statistics.median(r["sim_s"] / r["window_s"] for r in reps)
    us_per_event = statistics.median(r["window_s"] / r["events"] * 1e6 for r in reps)
    tracer = Tracer()
    tracer.install()
    tracer.patch(workloads, "prime_tables", tracer.wrap(workloads.prime_tables, "warm.prime"))
    try:
        rep = run_rep(wl, inputs, tracer=tracer)
    finally:
        tracer.uninstall()
    check_digest(digest, rep["outcome"].digest, "traced run against the untraced runs")
    metrics = per_layer(rep, tracer, untraced_rate, us_per_event)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{wl.name}-seed{args.seed}.npz")
    return metrics


def self_test() -> int:
    """Run every workload at the default and the held-out seed (short
    runs) and traced at the default seed; check each result is correct
    and reports exactly the metrics ``BENCHMARK.json`` declares."""
    manifest = json.loads(MANIFEST.read_text())
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        trace: {m["name"]: m["unit"] for m in declared[key]}
        for trace, key in ((0, "end_to_end"), (1, "per_layer"))
    }
    seeds = (manifest["default_seed"], manifest["heldout_seed"])
    failures = 0
    for wl in declared["workloads"]:
        for seed, trace in ((seeds[0], 0), (seeds[1], 0), (seeds[0], 1)):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", wl["name"], "--seed", str(seed),
                   "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            units = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
            ok = (proc.returncode == 0 and result.get("correct") is True
                  and units == expected[trace])
            failures += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {wl['name']} seed={seed} trace={trace}")
            if not ok:
                print(proc.stderr[-2000:])
                if units != expected[trace]:
                    print(f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(expected[trace]))}")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if not args.workload:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
