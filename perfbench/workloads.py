"""The benchmark's workloads, one runner each.

A runner executes one *instance* of its workload: one simulated world
built from one sub-seed, run to its end, with the workload's
correctness oracles applied.  It returns an :class:`Outcome` with the
state digest and the sim-side facts the metrics are computed from.
Host-side timing is not done here: the harness timestamps the runner
call and every ``Cluster.run`` call (see ``run.py``).

Runners get the workload's parameters from ``spec.json`` and the
sub-seed; the program only ever sees the generated inputs.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional


class CheckFailed(AssertionError):
    """A correctness check of the benchmark failed."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Outcome:
    """What one workload instance did, in simulated terms."""

    digest: str
    ops: int
    attempted: int
    failed: int
    latencies_s: List[float]
    sim_s: float
    # Layer facts read from the program's own counters after the run.
    layer: Dict[str, float] = field(default_factory=dict)
    cluster: Any = None

    def sim_metrics(self) -> Dict[str, float]:
        """The sim-outcome metrics: exact repeats at a given seed."""
        lat = sorted(self.latencies_s)
        return {
            "ops_per_sim_s": self.ops / self.sim_s,
            "latency_p50_sim_ms": _quantile(lat, 0.50) * 1e3,
            "latency_p99_sim_ms": _quantile(lat, 0.99) * 1e3,
        }


def pooled_outcome(outcomes: List[Outcome]) -> Outcome:
    """One outcome holding the operations of several instances."""
    return Outcome(
        digest="",
        ops=sum(o.ops for o in outcomes),
        attempted=sum(o.attempted for o in outcomes),
        failed=sum(o.failed for o in outcomes),
        latencies_s=[lat for o in outcomes for lat in o.latencies_s],
        sim_s=sum(o.sim_s for o in outcomes),
    )


def _quantile(sorted_values: List[float], q: float) -> float:
    check(bool(sorted_values), "no completed operation to take a latency from")
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def _digest(*parts: Any) -> str:
    return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()[:16]


def network_layer(cluster: Any) -> Dict[str, float]:
    net = cluster.network
    return {
        "net.messages_sent": net.messages_sent,
        "net.messages_dropped": net.messages_dropped,
        "net.bytes_sent": net.bytes_sent,
        "sim.events": cluster.sim.events_dispatched,
    }


def runtime_layer(cluster: Any) -> Dict[str, float]:
    """Counters the CrystalBall runtimes keep (zero without runtimes)."""
    runtimes = [node.crystalball for node in cluster.nodes
                if getattr(node, "crystalball", None) is not None]
    registries = {id(r.metrics): r.metrics for r in runtimes}.values()
    out = {
        "runtime.checkpoint_bytes": sum(
            r.stats["checkpoint_bytes_sent"] for r in runtimes),
        "runtime.choices_resolved": sum(
            r.stats["choices_resolved"] for r in runtimes),
    }
    for name in ("mc.predictions", "mc.states", "mc.memo.hits", "mc.memo.misses"):
        out[name] = sum(reg.counter(name).value for reg in registries)
    return out


# ----------------------------------------------------------------------
# paxos-static / paxos-amortized
# ----------------------------------------------------------------------


def run_paxos(params: Dict[str, Any], seed: int, clock: "RunClock") -> Outcome:
    from repro.eval.paxos_experiment import run_throughput_experiment

    result = run_throughput_experiment(
        params["steering"], seed=seed, horizon=params["horizon_s"],
        total_requests=params["total_requests"], window=params["window"],
        burst=params["burst"], tick=params["tick_s"],
    )
    cluster = clock.the_cluster()
    check(result.agreement, f"paxos agreement violated (seed {seed})")
    check(result.at_most_once, f"paxos at-most-once violated (seed {seed})")
    check(result.probes >= 2, "paxos safety was never probed during the run")
    latencies: List[float] = []
    for service in cluster.services:
        latencies.extend(service.commit_latencies())
    executed = [len(s.executed) for s in cluster.services]
    counters = result.metrics.get("steering", {}).get("counters", {})
    layer = {
        **network_layer(cluster),
        **runtime_layer(cluster),
        "paxos.mean_batch": result.mean_batch,
        "paxos.follower_lag_max": max(executed) - min(executed),
        "chaos.faults_landed": sum(result.chaos_stats.values()),
        "runtime.coalesced": counters.get("coalesced", 0),
        "runtime.policy_hits": counters.get("policy_hits", 0),
        "runtime.scored_rounds": counters.get("scored_rounds", 0),
        "runtime.fallbacks": counters.get("fallbacks", 0),
        "runtime.admission_denied": counters.get("denied", 0),
    }
    return Outcome(
        digest=_digest(result.state_digest, cluster.sim.events_dispatched,
                       cluster.network.messages_sent),
        ops=result.committed,
        attempted=result.offered,
        failed=result.offered - result.committed,
        latencies_s=latencies,
        sim_s=result.horizon,
        layer=layer,
        cluster=cluster,
    )


# ----------------------------------------------------------------------
# gossip-1k
# ----------------------------------------------------------------------


def run_gossip(params: Dict[str, Any], seed: int, clock: "RunClock") -> Outcome:
    from repro.apps.gossip import GossipConfig, coverage, delivery_latencies
    from repro.apps.gossip.views import make_view_gossip_factory
    from repro.choice.resolvers import RandomResolver
    from repro.net import ViewConfig, transit_stub
    from repro.statemachine import Cluster

    n_stubs, stub_size = params["n_stubs"], params["stub_size"]
    n = n_stubs * stub_size
    rumors = params["rumors"]
    # The deployment is fixed (like the reference WAN of the Paxos
    # workloads); the seed drives membership, peer choice and timing.
    topology = transit_stub(rng=random.Random(params["topology_seed"]),
                            n_stubs=n_stubs, stub_size=stub_size)
    config = GossipConfig(n=n, rumor_count=rumors,
                          publish_interval=params["publish_interval_s"])
    cluster = Cluster(n, make_view_gossip_factory(config, ViewConfig()),
                      topology=topology, seed=seed,
                      resolver_factory=lambda nid: RandomResolver(seed))
    cluster.sim.trace.enabled = False
    cluster.start_all()
    now = 0.0
    while coverage(cluster.services, rumors) < 1.0:
        check(now < params["deadline_s"],
              f"gossip coverage below 1.0 after {now} sim-s (seed {seed})")
        now += params["check_every_s"]
        cluster.run(until=now)
    latencies = delivery_latencies(cluster.services, config)
    attempted = n * rumors
    check(len(latencies) == attempted, "a (node, rumor) pair was delivered twice")
    last = max(max(s.known_at.values()) for s in cluster.services)
    return Outcome(
        digest=_digest(
            [sorted(s.known_at.items()) for s in cluster.services],
            cluster.sim.events_dispatched, cluster.network.messages_sent,
        ),
        ops=attempted,
        attempted=attempted,
        failed=attempted - len(latencies),
        latencies_s=latencies,
        sim_s=last,
        layer={
            **network_layer(cluster), **runtime_layer(cluster),
            "gossip.new_deliveries": sum(
                len(s.known_at) for s in cluster.services if s.node_id != config.source),
        },
        cluster=cluster,
    )


# ----------------------------------------------------------------------
# randtree-churn
# ----------------------------------------------------------------------


class TreeSampler:
    """Reads the live tree after each churn-window ``Cluster.run`` call.

    The churn runner samples tree quality after every ``Cluster.run``
    past the warm-up; this sampler reads the same instants.  Per live
    node it records whether the node is attached and, if so, the
    root-to-node path latency over the tree's links (the delay a root
    multicast takes to reach it), and it checks the structural safety
    properties on every sample.
    """

    def __init__(self, config: Any) -> None:
        self.config = config
        self.calls = 0
        self.samples = 0
        self.attached = 0
        self.live = 0
        self.attached_fraction_sum = 0.0
        self.one_sided_edges = 0
        self.path_latencies: List[float] = []

    def __call__(self, cluster: Any) -> None:
        from repro.apps.randtree.common import child_parent_consistent, consistent_edges
        from repro.eval.chaos_experiment import check_randtree_invariants

        self.calls += 1
        if self.calls == 1:
            return  # warm-up run: the runner does not sample it either
        states = {
            node.node_id: {
                "parent": node.service.parent,
                "children": list(node.service.children),
                "joined": node.service.joined,
            }
            for node in cluster.nodes if node.is_up
        }
        # The structural safety the protocol guarantees at every instant:
        # no self-loops, no duplicate child, degree bound, and an acyclic
        # graph of mutually agreed (child-parent consistent) edges.
        violations = check_randtree_invariants(states, self.config)
        check(not violations, f"randtree invariant violated at "
              f"t={cluster.sim.now}: {violations[:3]}")
        # A parent still listing a joined child that names another parent
        # is a one-sided stale belief, a legitimate transient under churn:
        # counted, not failed.
        self.one_sided_edges += sum(
            1 for a, sa in states.items() for b, sb in states.items()
            if a != b and not child_parent_consistent(a, sa, b, sb)
        )
        root = self.config.root
        adjacency = consistent_edges(states, root)
        topology = cluster.topology
        reached = {root: 0.0}
        frontier = [root]
        while frontier:
            parent = frontier.pop()
            for child in adjacency.get(parent, ()):
                if child not in reached:
                    reached[child] = reached[parent] + topology.link(parent, child).latency
                    frontier.append(child)
        attached = [reached[nid] for nid in states if nid in reached]
        self.samples += 1
        self.live += len(states)
        self.attached += len(attached)
        self.attached_fraction_sum += len(attached) / max(1, len(states))
        self.path_latencies.extend(attached)


def run_randtree(params: Dict[str, Any], seed: int, clock: "RunClock") -> Outcome:
    from repro.apps.randtree import RandTreeConfig
    from repro.eval.churn_experiment import run_churn_experiment

    config = RandTreeConfig()
    sampler = TreeSampler(config)
    clock.after_run.append(sampler)
    result = run_churn_experiment(
        "choice-crystalball", n=params["nodes"], seed=seed, config=config,
        warmup=params["warmup_s"], duration=params["duration_s"],
        churn_period=params["churn_period_s"], downtime=params["downtime_s"],
        sample_period=params["sample_period_s"],
    )
    cluster = clock.the_cluster()
    check(sampler.samples == result.samples,
          f"sampled {sampler.samples} instants, the runner {result.samples}")
    check(abs(sampler.attached_fraction_sum / sampler.samples
              - result.mean_attached_fraction) < 1e-9,
          "the sampled attached share disagrees with the runner's")
    return Outcome(
        digest=_digest(
            result.mean_depth, result.max_depth, result.mean_attached_fraction,
            sampler.path_latencies, cluster.sim.events_dispatched,
            cluster.network.messages_sent,
        ),
        ops=sampler.attached,
        attempted=sampler.live,
        failed=sampler.live - sampler.attached,
        latencies_s=sampler.path_latencies,
        sim_s=params["duration_s"],
        layer={
            **network_layer(cluster), **runtime_layer(cluster),
            "tree_mean_depth": result.mean_depth,
            "tree_one_sided_edges": sampler.one_sided_edges,
        },
        cluster=cluster,
    )


RUNNERS: Dict[str, Callable[..., Outcome]] = {
    "paxos": run_paxos,
    "gossip": run_gossip,
    "randtree": run_randtree,
}

# ----------------------------------------------------------------------
# The one hook into the program: Cluster.run timestamps
# ----------------------------------------------------------------------


class RunClock:
    """The ``Cluster.run`` calls of one instance: when the first began,
    when the last returned, their total time, and the cluster they ran.
    ``after_run`` callables read the cluster after each call."""

    def __init__(self) -> None:
        self.first_call: Optional[float] = None
        self.last_return: Optional[float] = None
        self.loop_s = 0.0
        self.clusters: List[Any] = []
        self.after_run: List[Callable[[Any], None]] = []

    def the_cluster(self) -> Any:
        check(len(self.clusters) == 1,
              f"expected one cluster per instance, the runner ran {len(self.clusters)}")
        return self.clusters[0]


def install_run_clock(clock_ref: List[RunClock]) -> None:
    """Wrap ``Cluster.run`` so each call is timed into ``clock_ref[0]``."""
    from repro.statemachine.node import Cluster

    original = Cluster.__dict__["run"]

    def run(self, until=None, max_events=None):
        clock = clock_ref[0]
        start = perf_counter()
        if clock.first_call is None:
            clock.first_call = start
        if self not in clock.clusters:
            clock.clusters.append(self)
        try:
            return original(self, until=until, max_events=max_events)
        finally:
            end = perf_counter()
            clock.loop_s += end - start
            clock.last_return = end
            for sampler in clock.after_run:
                sampler(self)

    Cluster.run = run
