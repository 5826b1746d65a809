#!/usr/bin/env python
"""Runtime models as shared infrastructure (Sections 3.3.1 and 3.4).

Two extension mechanisms the paper sketches, demonstrated live:

1. **iPlane-style model sharing** — "the network and the system model
   should be exported and kept in the runtime ... allowing the runtime
   to leverage other information services".  Here only node 0 probes
   the network, yet after a round of ``ModelShareMsg`` exchange every
   runtime predicts latencies for pairs it never measured.

2. **Precomputed choice policies** — "removing complex mechanisms for
   making the choices from the critical path, using choices based on
   previous similar scenarios as a fast alternative".  A
   ``CachedResolver`` wraps the expensive predictive resolver; repeat
   scenarios are answered from the policy cache.  The TTL implements
   the paper's "updating the choices as more information becomes
   available": a long TTL would freeze decisions made before the model
   warmed up.
"""

import time

from repro.choice import PerformanceObjective
from repro.runtime import (
    CachedResolver,
    PolicyCache,
    install_crystalball,
)
from repro.statemachine import Cluster

# Reuse the quickstart's load-balancer service.
import os
import sys

sys.path.insert(0, os.path.dirname(__file__))
from quickstart import LoadBalancer, make_objective  # noqa: E402

N = 4


def demo_model_sharing():
    print("--- 1. iPlane-style model sharing ---")
    cluster = Cluster(N, LoadBalancer, seed=3)
    runtimes = install_crystalball(
        cluster, LoadBalancer, set_resolver=False,
        checkpoint_period=0.0, model_share_period=1.0,
    )
    # Only node 0 measures anything.
    for peer in range(1, N):
        runtimes[0].probe(peer)
    cluster.run(until=0.5)
    before = runtimes[2].network_model.confidence(0, 1, now=cluster.sim.now)
    cluster.run(until=3.0)
    after = runtimes[2].network_model.confidence(0, 1, now=cluster.sim.now)
    rtt = runtimes[2].network_model.rtt(0, 1)
    print(f"node 2's confidence in the (0,1) link: {before:.2f} -> {after:.2f}")
    print(f"node 2 predicts rtt(0,1) = {rtt * 1000:.0f} ms without ever probing it")
    adopted = sum(r.stats["model_entries_adopted"] for r in runtimes)
    print(f"model entries adopted across the cluster: {adopted}\n")


def demo_policy_cache():
    print("--- 2. precomputed choices off the critical path ---")
    results = {}
    for label, cached in (("predictive", False), ("predictive+cache", True)):
        cluster = Cluster(N, LoadBalancer, seed=7)
        install_crystalball(
            cluster, LoadBalancer, objective=make_objective(),
            checkpoint_period=0.5, chain_depth=3, budget=300,
            set_resolver=False,
        )
        cache = PolicyCache(ttl=2.0)
        for node in cluster.nodes:
            resolver = node.crystalball
            node.choice_resolver = CachedResolver(resolver, cache=cache) if cached else resolver
        cluster.start_all()
        start = time.perf_counter()
        cluster.run(until=20.0)
        elapsed = time.perf_counter() - start
        total = sum(s.done for s in cluster.services)
        results[label] = (elapsed, total, cache)
        hit_note = f"  cache hit rate {cache.hit_rate:.0%}" if cached else ""
        print(f"{label:>18}: wall {elapsed:.2f}s  work done {total}{hit_note}")
    slow, fast = results["predictive"][0], results["predictive+cache"][0]
    print(f"\nsame decisions, {slow / fast:.1f}x less wall-clock on the critical path")


def main():
    print(__doc__)
    demo_model_sharing()
    demo_policy_cache()


if __name__ == "__main__":
    main()
