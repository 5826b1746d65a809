"""E4: gossip dissemination under restricted vs exposed peer choice.

Section 3.1's gossip example: BAR-style restriction of peer choice is
robust but "the performance might suffer if, e.g., the only target is
behind a slow network connection"; exposing the choice lets the runtime
recover the speed.  The scenario streams rumors from a source over a
heterogeneous topology where a fraction of nodes sit behind slow links,
and measures mean per-rumor delivery latency, completion, and message
overhead.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..apps.gossip import (
    GossipConfig,
    all_delivered,
    coverage,
    make_baseline_gossip_factory,
    make_exposed_gossip_factory,
    make_model_gossip_resolver,
    mean_delivery_latency,
)
from ..choice.resolvers import RandomResolver
from ..net import Link, LinkDynamics, Topology
from ..obs import collect_cluster_metrics
from ..statemachine import Cluster
from .assembly import Variant, Variants, build

GOSSIP_TABLE = Variants({
    "baseline-random": Variant(lambda s: make_baseline_gossip_factory(s.config, "random")),
    "baseline-bar": Variant(lambda s: make_baseline_gossip_factory(s.config, "bar")),
    "choice-random": Variant(lambda s: make_exposed_gossip_factory(s.config),
                             lambda s: RandomResolver(s.seed)),
    "choice-model": Variant(
        lambda s: make_exposed_gossip_factory(s.config),
        lambda s: make_model_gossip_resolver(),
        lambda s: dict(checkpoint_period=s.config.round_period, prediction_period=0.0,
                       passive_measurement=s.model_updates),
        bootstrap=True,
    ),
})
GOSSIP_VARIANTS = tuple(GOSSIP_TABLE)

APP_MESSAGE_KINDS = ("GossipPush", "GossipPullReply")


@dataclass
class GossipResult:
    """Outcome of one gossip dissemination run."""

    variant: str
    seed: int
    n: int
    mean_latency: Optional[float]
    coverage: float
    app_messages: int
    metrics: Dict[str, Any] = field(default_factory=dict)

    def summary(self) -> str:
        latency = f"{self.mean_latency:.3f}s" if self.mean_latency is not None else "n/a"
        return (
            f"{self.variant:>16}  seed={self.seed}  mean latency={latency}  "
            f"coverage={self.coverage:.0%}  msgs={self.app_messages}"
        )


def heterogeneous_topology(
    n: int,
    seed: int,
    slow_fraction: float = 0.25,
    slow_latency: float = 0.4,
    fast_latency_range=(0.01, 0.04),
    fast_bandwidth: float = 50e6,
    slow_bandwidth: float = 2e6,
) -> Topology:
    """Mostly-fast cluster with a fraction of nodes behind slow links."""
    rng = random.Random(seed)
    slow = set(rng.sample(range(n), max(1, int(n * slow_fraction))))
    lo, hi = fast_latency_range
    topo = Topology(n)
    for i in range(n):
        for j in range(i + 1, n):
            latency = rng.uniform(lo, hi)
            bandwidth = fast_bandwidth
            if i in slow or j in slow:
                latency += slow_latency
                bandwidth = slow_bandwidth
            topo.set_symmetric(i, j, Link(latency=latency, bandwidth=bandwidth))
    return topo


def _count_app_messages(cluster: Cluster) -> int:
    return sum(
        1
        for rec in cluster.sim.trace.select("net.send")
        if rec.data.get("kind") in APP_MESSAGE_KINDS
    )


def run_gossip_experiment(
    variant: str,
    n: int = 32,
    seed: int = 0,
    rumor_count: int = 10,
    round_period: float = 0.5,
    publish_interval: float = 1.0,
    max_time: float = 120.0,
    topology: Optional[Topology] = None,
    poll_interval: float = 0.1,
    congestion: bool = False,
    model_updates: bool = True,
) -> GossipResult:
    """Run one streaming dissemination scenario.

    With ``congestion`` the topology suffers random transient slowdown
    episodes (``repro.net.LinkDynamics``).  ``model_updates=False``
    freezes the choice-model variant's network model after its oracle
    bootstrap — the A4 ablation of adaptation.
    """
    config = GossipConfig(
        n=n, round_period=round_period, rumor_count=rumor_count,
        publish_interval=publish_interval,
    )
    if topology is None:
        topology = heterogeneous_topology(n, seed)

    cluster = build(
        GOSSIP_TABLE[variant], n=n, seed=seed, topology=topology,
        config=config, model_updates=model_updates,
    ).cluster

    if congestion:
        dynamics = LinkDynamics(
            cluster.sim, topology, period=1.0, episode_duration=5.0,
            latency_factor=8.0, bandwidth_factor=0.2, episode_probability=0.8,
        )
        dynamics.start()
    cluster.start_all()
    while cluster.sim.now < max_time:
        cluster.run(until=min(max_time, cluster.sim.now + poll_interval))
        if all_delivered(cluster.services, rumor_count):
            break
    return GossipResult(
        variant=variant,
        seed=seed,
        n=n,
        mean_latency=mean_delivery_latency(cluster.services, config),
        coverage=coverage(cluster.services, rumor_count),
        app_messages=_count_app_messages(cluster),
        metrics=collect_cluster_metrics(cluster),
    )


__all__ = ["GOSSIP_VARIANTS", "GossipResult", "heterogeneous_topology", "run_gossip_experiment"]
