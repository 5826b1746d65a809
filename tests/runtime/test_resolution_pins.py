"""Pinned outcomes of both choice-resolution modes.

The equivalence oracle for refactors of the runtime's resolution
pipeline: each mode's digest and resolution counters are recorded
values, not run-against-run comparisons, so any change in which
candidate a choice resolves to (or how it was counted) fails here.
"""

import repro.eval.tree_experiment as tree_experiment
from repro.eval import run_throughput_experiment
from repro.eval.chaos_experiment import trace_digest


def test_amortized_mode_digest_and_counters_pinned():
    result = run_throughput_experiment(
        "amortized", seed=1, total_requests=4000, horizon=15.0,
    )
    assert result.state_digest == "3736c7d1c2abc87d"
    assert result.metrics["steering"]["counters"] == {
        "coalesced": 11, "policy_hits": 13, "scored_rounds": 26,
        "fallbacks": 56, "deferred": 54, "denied": 2,
    }


def test_per_choice_mode_trace_and_counters_pinned(monkeypatch):
    clusters = []
    build = tree_experiment.build

    def capture(*args, **kwargs):
        world = build(*args, **kwargs)
        clusters.append(world.cluster)
        return world

    monkeypatch.setattr(tree_experiment, "build", capture)
    tree_experiment.run_tree_experiment("choice-crystalball", n=15, seed=1)
    (cluster,) = clusters
    runtimes = [node.crystalball for node in cluster.nodes]
    assert trace_digest(cluster.sim.trace) == (
        "89261840ae292c5a7425e5fbd1ae1dc9f4794574178e43d6a7579d9a4a9d466f"
    )
    assert sum(r.stats["choices_resolved"] for r in runtimes) == 30
    assert sum(r.stats["choices_fallback"] for r in runtimes) == 0
