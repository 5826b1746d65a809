"""Benchmark harness: end-to-end and per-layer metrics per workload.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paxos-static --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 22 --trace 1

Each workload runs a fixed set of instances (worlds) whose sub-seeds
are derived from ``--seed``; ``perfbench/spec.json`` defines the
workloads, why each exists, and which end-to-end metric each layer
metric should move.  Everything runs in this one process and thread.

``--trace 0`` runs every instance untraced, then repeats instances,
cheapest first, until ``--seconds`` have passed (at least one repeat).
The only hook in the program is a timestamp around each ``Cluster.run``
call.  Host metrics are the median over instances of each instance's
median over its repeats; sim-outcome metrics pool the operations of
all instances.  Every repeat must reproduce the state digest and the
sim-outcome metrics exactly.

``--trace 1`` runs the workload's first ``traced_instances`` worlds
untraced, then again with spans recorded around each layer's entry
points (see ``tracing.py``).  The traced pass must reproduce the
untraced state digests, and its span counts must equal the program's
own counters.  Spans are written to ``perfbench/out/<workload>.*``, the
only files a run writes.

The last line of stdout is one JSON object: ``correct``, ``attempted``
(instance runs), ``failed`` (instance runs that failed a check) and the
``end_to_end`` (trace 0) or ``per_layer`` (trace 1) metrics listed in
``BENCHMARK.json``.  Human-readable tables go to stdout before it.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

from tracing import Tracer
from workloads import RUNNERS, CheckFailed, RunClock, install_run_clock, pooled_outcome

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# ----------------------------------------------------------------------
# Host measurements
# ----------------------------------------------------------------------


def reset_peak_rss() -> bool:
    """Reset the kernel's peak-RSS mark so the next read is per run."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
        return True
    except OSError:
        return False


def peak_rss_mib() -> float:
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def sub_seeds(workload: str, seed: int, count: int) -> List[int]:
    """Per-instance seeds: a pure function of (workload, seed, index)."""
    return [
        int.from_bytes(hashlib.sha256(f"{workload}/{seed}/{i}".encode()).digest()[:4],
                       "big") & 0x7FFFFFFF
        for i in range(count)
    ]


class Execution:
    """One instance run: its outcome plus host-side timings."""

    def __init__(self, outcome: Any, clock: Any, start: float, end: float,
                 peak_mib: float) -> None:
        self.outcome = outcome
        self.setup_s = clock.first_call - start
        self.wall_s = end - start
        self.loop_s = clock.loop_s
        self.tail_s = end - clock.last_return
        self.peak_rss_mib = peak_mib

    def host_metrics(self) -> Dict[str, float]:
        layer = self.outcome.layer
        return {
            "setup_s": self.setup_s,
            "wall_s": self.wall_s,
            "ops_per_wall_s": self.outcome.ops / self.wall_s,
            "events_per_wall_s": layer["sim.events"] / self.loop_s,
            "peak_rss_mib": self.peak_rss_mib,
        }


class Bench:
    def __init__(self, spec: Dict[str, Any]) -> None:
        self.workloads = {**spec["workloads"], **spec["withheld"]}
        self.clock_ref = [RunClock()]
        install_run_clock(self.clock_ref)
        self.rss_reset = True

    def execute(self, runner, params: Dict[str, Any], seed: int) -> Execution:
        gc.collect()
        self.rss_reset = reset_peak_rss() and self.rss_reset
        clock = self.clock_ref[0] = RunClock()
        start = perf_counter()
        outcome = runner(params, seed, clock)
        end = perf_counter()
        return Execution(outcome, clock, start, end, peak_rss_mib())


# ----------------------------------------------------------------------
# Traced pass
# ----------------------------------------------------------------------


def install_tracer(tracer: Any) -> None:
    """Wrap every layer entry point the per-layer metrics are built on."""
    import repro.eval.chaos_experiment as chaos_experiment
    import repro.eval.paxos_experiment as paxos_experiment
    import repro.apps.gossip.common as gossip_common
    import repro.statemachine.serialization as ser
    from repro.chaos.faults import LinkChaos
    from repro.mc.consequence import ConsequencePredictor
    from repro.net.transport import Network
    from repro.runtime.controller import CrystalBallRuntime
    from repro.runtime.policy import AmortizedSteering
    from repro.sim.scheduler import Simulator
    from repro.statemachine.node import Node
    from repro.statemachine.service import Service

    service_module = "repro.statemachine.service"
    serialization_module = "repro.statemachine.serialization"

    def count_events(_args, dispatched):
        tracer.observe("sim.dispatched", dispatched)

    def count_payloads(args, _result):
        rumors = getattr(args[2], "payload_rumors", None)
        if rumors:
            tracer.observe("gossip.payload_rumors", len(rumors))

    def count_source(_args, result):
        tracer.observe("steer." + result[1])

    # serialization: Service entry points cover service.py's own
    # bindings; every other module's bindings are rebound, and
    # serialization.py keeps its internal recursion untraced.
    tracer.patch_method(Service, "checkpoint", "serialization.checkpoint")
    tracer.patch_method(Service, "restore", "serialization.restore")
    tracer.patch_method(Service, "state_digest", "serialization.digest")
    tracer.patch_function(ser, "digest", "serialization.digest", skip=(service_module,))
    for name in ("freeze", "digest_of_frozen"):
        tracer.patch_function(ser, name, "serialization.freeze", skip=(serialization_module,))
    tracer.patch_function(ser, "snapshot_value", "serialization.snapshot",
                          skip=(serialization_module,))
    # handlers
    tracer.patch_method(Service, "deliver", "handler", keep_durations=True,
                        after=count_payloads)
    tracer.patch_method(Service, "fire_timer", "handler", keep_durations=True)
    # mc
    tracer.patch_method(ConsequencePredictor, "predict", "mc.predict")
    # runtime
    tracer.patch_method(CrystalBallRuntime, "resolve_choice", "runtime.resolve")
    tracer.patch_method(CrystalBallRuntime, "run_prediction", "runtime.predict")
    tracer.patch_method(CrystalBallRuntime, "_score_candidate", "runtime.predict")
    tracer.patch_method(CrystalBallRuntime, "broadcast_checkpoint", "runtime.checkpoint")
    tracer.patch_method(AmortizedSteering, "resolve_explain", "runtime.steer",
                        after=count_source)
    # choice
    tracer.patch_method(Node, "resolve_choice", "choice.resolve", keep_durations=True)
    # sim
    tracer.patch_method(Simulator, "run", "sim.run", after=count_events)
    # net (+ chaos interposers, consulted inside a send)
    tracer.patch_method(Network, "send", "net.send")
    traced_many = tracer.patch_method(Network, "send_many", "net.send")

    def send_many(self, src, dsts, *args, **kwargs):
        dsts = list(dsts)
        tracer.observe("net.send_many.calls")
        tracer.observe("net.send_many.messages", len(dsts))
        return traced_many(self, src, dsts, *args, **kwargs)

    Network.send_many = send_many
    tracer.patch_method(LinkChaos, "apply", "chaos.apply")
    # oracles
    for module, name in ((paxos_experiment, "agreement_holds"),
                         (paxos_experiment, "at_most_once_holds"),
                         (chaos_experiment, "check_randtree_invariants"),
                         (gossip_common, "coverage")):
        tracer.patch_function(module, name, "oracle.probe")


def traced_classes_ok(cluster: Any) -> List[str]:
    """Concrete classes whose overrides would bypass a wrapped entry point."""
    from repro.statemachine.service import Service

    problems = []
    for service in {type(s) for s in cluster.services}:
        for attr in ("checkpoint", "restore", "state_digest", "deliver", "fire_timer"):
            if getattr(service, attr) is not Service.__dict__[attr]:
                problems.append(f"{service.__name__}.{attr} overrides the traced method")
    return problems


def cross_check(tracer: Any, before: Dict[str, float], layer: Dict[str, float],
                steering: bool) -> List[str]:
    """Span counts of one traced instance against the program's counters."""

    def delta(key: str) -> float:
        now = _tracer_counts(tracer)[key]
        return now - before[key]

    pairs = [
        ("sim.run dispatched", delta("sim.dispatched"), layer["sim.events"]),
        ("net.send messages", delta("net.messages"), layer["net.messages_sent"]),
        ("mc.predict calls", delta("mc.predict"), layer["mc.predictions"]),
        ("runtime.resolve calls", delta("runtime.resolve"),
         layer["runtime.choices_resolved"]),
    ]
    if steering:
        pairs += [
            ("coalesced resolutions", delta("steer.coalesced"), layer["runtime.coalesced"]),
            ("policy resolutions", delta("steer.policy"), layer["runtime.policy_hits"]),
            ("fallback resolutions", delta("steer.fallback"), layer["runtime.fallbacks"]),
            ("steered choices", delta("runtime.steer"), delta("choice.resolve")),
        ]
    return [f"{name}: traced {traced} != program {program}"
            for name, traced, program in pairs if traced != program]


def _tracer_counts(tracer: Any) -> Dict[str, float]:
    obs = tracer.observed
    sends = tracer.stat("net.send")[0]
    # send_many calls count once as spans but carry one message per
    # destination, which is what the transport's counter counts.
    many = obs.get("net.send_many.messages", 0)
    many_calls = obs.get("net.send_many.calls", 0)
    return {
        "sim.dispatched": obs.get("sim.dispatched", 0),
        "net.messages": sends - many_calls + many,
        "mc.predict": tracer.stat("mc.predict")[0],
        "runtime.resolve": tracer.stat("runtime.resolve")[0],
        "runtime.steer": tracer.stat("runtime.steer")[0],
        "choice.resolve": tracer.stat("choice.resolve")[0],
        "steer.coalesced": obs.get("steer.coalesced", 0),
        "steer.policy": obs.get("steer.policy", 0),
        "steer.fallback": obs.get("steer.fallback", 0),
    }


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def end_to_end(executions: Dict[int, List[Execution]]) -> Dict[str, float]:
    """Host metrics: the median over instances of each instance's median
    over its repeats (set-up: the median over every set-up).  Sim-outcome
    metrics pool the operations of every instance."""
    metrics: Dict[str, float] = {}
    first = [runs[0] for runs in executions.values()]
    for name in first[0].host_metrics():
        if name == "setup_s":
            metrics[name] = statistics.median(
                e.setup_s for runs in executions.values() for e in runs)
            continue
        metrics[name] = statistics.median(
            statistics.median(e.host_metrics()[name] for e in runs)
            for runs in executions.values()
        )
    metrics.update(pooled_outcome([e.outcome for e in first]).sim_metrics())
    return metrics


def per_layer(tracer: Any, traced: List[Execution], untraced: List[Execution]) -> Dict[str, float]:
    k = len(traced)
    layer_sum: Dict[str, float] = {}
    for e in traced:
        for key, value in e.outcome.layer.items():
            layer_sum[key] = layer_sum.get(key, 0.0) + value
    ops = sum(e.outcome.ops for e in traced)
    m: Dict[str, float] = {}

    def span(prefix: str) -> None:
        calls, self_s, _ = tracer.stat(prefix)
        m[f"{prefix}.calls"] = calls / k
        m[f"{prefix}.self_s"] = self_s / k

    for part in ("checkpoint", "restore", "digest", "freeze", "snapshot"):
        span(f"serialization.{part}")
    span("mc.predict")
    predict_incl = tracer.stat("mc.predict")[2]
    m["mc.states"] = layer_sum["mc.states"] / k
    m["mc.states_per_s"] = layer_sum["mc.states"] / predict_incl if predict_incl else 0.0
    lookups = layer_sum["mc.memo.hits"] + layer_sum["mc.memo.misses"]
    m["mc.memo_hit_rate"] = layer_sum["mc.memo.hits"] / lookups if lookups else 0.0
    for part in ("resolve", "predict", "checkpoint"):
        span(f"runtime.{part}")
    m["runtime.checkpoint_bytes"] = layer_sum["runtime.checkpoint_bytes"] / k
    for name in ("coalesced", "policy_hits", "scored_rounds", "fallbacks",
                 "admission_denied"):
        m[f"runtime.{name}"] = layer_sum.get(f"runtime.{name}", 0.0) / k
    steered = tracer.stat("runtime.steer")[0]
    m["runtime.policy_hit_rate"] = (
        layer_sum.get("runtime.policy_hits", 0.0) / steered if steered else 0.0)
    m["choice.resolve.calls"] = tracer.stat("choice.resolve")[0] / k
    m["choice.resolve.p50_us"] = tracer.percentile_us("choice.resolve", 0.50)
    m["choice.resolve.p99_us"] = tracer.percentile_us("choice.resolve", 0.99)
    span("handler")
    m["handler.p99_us"] = tracer.percentile_us("handler", 0.99)
    m["sim.events"] = layer_sum["sim.events"] / k
    m["sim.self_s"] = tracer.stat("sim.run")[1] / k
    span("net.send")
    m["net.msgs_per_op"] = layer_sum["net.messages_sent"] / ops
    m["net.bytes_per_op"] = layer_sum["net.bytes_sent"] / ops
    m["net.drop_share"] = layer_sum["net.messages_dropped"] / layer_sum["net.messages_sent"]
    span("chaos.apply")
    m["chaos.faults_landed"] = layer_sum.get("chaos.faults_landed", 0.0) / k
    m["paxos.mean_batch"] = layer_sum.get("paxos.mean_batch", 0.0) / k
    m["paxos.follower_lag_max"] = max(
        (e.outcome.layer.get("paxos.follower_lag_max", 0) for e in traced), default=0)
    payloads = tracer.observed.get("gossip.payload_rumors", 0)
    useful = sum(e.outcome.layer.get("gossip.new_deliveries", 0) for e in traced)
    m["gossip.useful_share"] = useful / payloads if payloads else 0.0
    pooled = pooled_outcome([e.outcome for e in traced])
    m["ops.failed_share"] = pooled.failed / pooled.attempted
    m["tree_mean_depth"] = layer_sum.get("tree_mean_depth", 0.0) / k
    m["tree_one_sided_edges"] = layer_sum.get("tree_one_sided_edges", 0.0) / k
    span("oracle.probe")
    m["oracle.final_s"] = statistics.median(e.tail_s for e in untraced)
    m["runner.self_s"] = tracer.stat("runner")[1] / k
    m["trace.overhead_share"] = (
        sum(e.wall_s for e in traced) / sum(e.wall_s for e in untraced) - 1.0)
    return m


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------


def run_workload(bench: Bench, name: str, seed: int, seconds: float,
                 trace: bool) -> Dict[str, Any]:
    spec = bench.workloads[name]
    runner = RUNNERS[spec["runner"]]
    params = spec["params"]
    # A traced run measures fewer worlds: its per-layer metrics are
    # per-world means, and the traced pass costs more than the plain one.
    seeds = sub_seeds(name, seed, spec["traced_instances"] if trace else spec["instances"])
    attempted = failed = 0
    errors: List[str] = []

    def attempt(index: int, run=runner) -> Optional[Execution]:
        nonlocal attempted, failed
        attempted += 1
        try:
            return bench.execute(run, params, seeds[index])
        except CheckFailed as exc:
            errors.append(f"{name}[{index}] seed {seeds[index]}: {exc}")
        except Exception:  # a crash in the program is a failed run, not a harness crash
            errors.append(f"{name}[{index}] seed {seeds[index]}:\n{traceback.format_exc()}")
        failed += 1
        return None

    def same_outcome(index: int, again: Execution, what: str) -> None:
        nonlocal failed
        a, b = runs[index][0].outcome, again.outcome
        if a.digest != b.digest or a.sim_metrics() != b.sim_metrics():
            failed += 1
            errors.append(f"{name}[{index}] seed {seeds[index]}: {what} differs "
                          f"(digest {a.digest} vs {b.digest})")

    started = perf_counter()
    runs: Dict[int, List[Execution]] = {}
    for index in range(len(seeds)):
        e = attempt(index)
        if e is not None:
            e.outcome.cluster = None
            runs[index] = [e]
    result = {"correct": False, "attempted": attempted, "failed": failed,
              "errors": errors, "e2e": {}, "layers": None}
    if not runs:
        return result

    if not trace:
        # Repeats check determinism and add host samples; cheapest first,
        # so the one repeat every run makes costs least.
        order = sorted(runs, key=lambda i: runs[i][0].wall_s)
        repeat = 0
        while repeat == 0 or perf_counter() - started < seconds:
            index = order[repeat % len(order)]
            repeat += 1
            e = attempt(index)
            if e is not None:
                e.outcome.cluster = None
                same_outcome(index, e, "repeated run")
                runs[index].append(e)
    else:
        tracer = Tracer()
        install_tracer(tracer)
        problems = tracer.audit()
        traced: List[Execution] = []
        root = tracer.wrap("runner", runner)
        steering = params.get("steering") == "amortized"
        try:
            for index in sorted(runs):
                tracer.run_id = index
                before = _tracer_counts(tracer)
                e = attempt(index, root)
                if e is None:
                    continue
                problems += traced_classes_ok(e.outcome.cluster)
                e.outcome.cluster = None
                problems += [f"{name}[{index}] {p}" for p in
                             cross_check(tracer, before, e.outcome.layer, steering)]
                same_outcome(index, e, "traced run")
                traced.append(e)
        finally:
            tracer.unpatch()
        if problems:
            failed += 1
            errors += problems
        if len(traced) == len(runs):
            result["layers"] = per_layer(tracer, traced, [runs[i][0] for i in sorted(runs)])
            tracer.write(OUT_DIR, name, [
                {"run": i, "workload": name, "seed": seed, "sub_seed": seeds[i]}
                for i in sorted(runs)
            ])
    result.update(correct=failed == 0, attempted=attempted, failed=failed,
                  e2e=end_to_end(runs))
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        fail(f"no program source at {ROOT / 'src' / 'repro'}: run from a full checkout")
    benchmark_file = ROOT / "BENCHMARK.json"
    if not benchmark_file.is_file():
        fail("BENCHMARK.json is missing")
    benchmark = json.loads(benchmark_file.read_text())
    spec = json.loads((HERE / "spec.json").read_text())
    if [w["name"] for w in benchmark["workloads"]] != list(spec["workloads"]):
        fail("BENCHMARK.json and perfbench/spec.json list different workloads")
    # Withheld workloads are not benchmarked but stay runnable by name.
    known = {**spec["workloads"], **spec["withheld"]}
    names = list(spec["workloads"]) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in known:
            fail(f"unknown workload {name!r}; expected one of {list(known)} or all")

    sys.path.insert(0, str(ROOT / "src"))
    bench = Bench(spec)
    wanted = benchmark["per_layer"] if args.trace else benchmark["end_to_end"]
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}

    correct, attempted, failed = True, 0, 0
    metrics: Dict[str, Dict[str, Any]] = {}
    for name in names:
        result = run_workload(bench, name, args.seed, args.seconds, bool(args.trace))
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for error in result["errors"]:
            print(f"CHECK FAILED {error}", file=sys.stderr)
        shown = dict(result["e2e"])
        if result["layers"] is not None:
            shown.update(result["layers"])
        print(f"== {name} seed={args.seed} correct={result['correct']} "
              f"runs={result['attempted']} failed={result['failed']}")
        for metric, value in shown.items():
            print(f"  {metric:<34} {value:>16.6g} {units.get(metric, '?')}")
        source = result["layers"] if args.trace else result["e2e"]
        missing = [m["name"] for m in wanted if source is None or m["name"] not in source]
        if missing:
            if correct:
                fail(f"{name}: metrics not produced: {missing}")
            continue
        prefix = f"{name}:" if len(names) > 1 else ""
        for m in wanted:
            metrics[prefix + m["name"]] = {"value": source[m["name"]], "unit": m["unit"]}
    if not bench.rss_reset:
        print("perfbench: could not reset the peak-RSS mark; peak_rss_mib is a "
              "process high-water mark", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
