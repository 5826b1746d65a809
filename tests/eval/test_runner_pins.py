"""Pinned outcomes of every experiment runner, variant by variant.

The equivalence oracle for refactors of how runs are assembled: each
case runs one runner x variant at a small size and compares a digest
of what the run reports (its summary line, the sim / trace / network
metric sections, and its trace digest where it carries one) against a
recorded value.  Any change in what a cluster is built from, which
resolver answers a choice, or the order in which the world is wired
and scheduled shows up as a changed digest.
"""

import random

import pytest

from repro.eval import (
    run_chaos_paxos_experiment,
    run_chaos_tree_experiment,
    run_churn_experiment,
    run_gossip_experiment,
    run_paxos_experiment,
    run_swarm_experiment,
    run_throughput_experiment,
    run_trace_session,
    run_tree_experiment,
    standard_plans,
)
from repro.fuzz import make_target
from repro.obs import collect_cluster_metrics
from repro.statemachine.serialization import digest


def _run_digest(result, metrics=None) -> str:
    metrics = result.metrics if metrics is None else metrics
    return digest({
        "summary": result.summary(),
        "sim": metrics["sim"],
        "trace": metrics["trace"],
        "network": metrics["network"],
        "trace_digest": getattr(result, "trace_digest", None),
    })


def _fuzz_digest(target_name: str, steering: bool) -> str:
    target = make_target(target_name)
    plan = target.random_plan(random.Random(1))
    result = target.execute(plan, 1, steering=steering)
    return digest({
        "trace_digest": result.trace_digest,
        "violations": result.violations,
        "near_violations": result.near_violations,
        "min_violation_depth": result.min_violation_depth,
        "score": result.score,
        "chaos_stats": result.chaos_stats,
        "features": sorted(result.features),
    })


def _tree(variant):
    return lambda: _run_digest(run_tree_experiment(
        variant, n=9, seed=1, join_settle=4.0, failure_settle=3.0,
        rejoin_settle=4.0,
    ))


def _churn(variant):
    return lambda: _run_digest(run_churn_experiment(
        variant, n=9, seed=1, warmup=4.0, duration=8.0,
    ))


def _chaos_tree(variant):
    return lambda: _run_digest(run_chaos_tree_experiment(
        variant, seed=1, n=9, plan=standard_plans(9, 6.0)[0], settle=3.0,
    ))


def _gossip(variant):
    return lambda: _run_digest(run_gossip_experiment(
        variant, n=8, seed=1, rumor_count=3, round_period=0.2,
        publish_interval=0.3, max_time=20.0,
    ))


def _swarm(variant):
    return lambda: _run_digest(run_swarm_experiment(
        variant, n=6, seed=1, block_count=12, max_time=60.0,
    ))


def _e6(variant):
    return lambda: _run_digest(run_paxos_experiment(
        variant, seed=1, requests_per_node=3, max_time=20.0,
    ))


def _t1(mode):
    return lambda: _run_digest(run_throughput_experiment(
        mode, seed=1, total_requests=2000, horizon=10.0,
    ))


def _trace(experiment):
    def run():
        session = run_trace_session(experiment, keep_cluster=True)
        return _run_digest(session, collect_cluster_metrics(session.cluster))
    return run


def _fuzz(target_name, steering):
    return lambda: _fuzz_digest(target_name, steering)


CASES = {
    "tree/baseline": _tree("baseline"),
    "tree/choice-random": _tree("choice-random"),
    "tree/choice-crystalball": _tree("choice-crystalball"),
    "churn/baseline": _churn("baseline"),
    "churn/choice-random": _churn("choice-random"),
    "churn/choice-crystalball": _churn("choice-crystalball"),
    "chaos-tree/baseline": _chaos_tree("baseline"),
    "chaos-tree/choice-random": _chaos_tree("choice-random"),
    "chaos-tree/choice-crystalball": _chaos_tree("choice-crystalball"),
    "chaos-paxos/mencius": lambda: _run_digest(run_chaos_paxos_experiment(
        seed=1, requests_per_node=3, max_time=12.0,
    )),
    "gossip/baseline-random": _gossip("baseline-random"),
    "gossip/baseline-bar": _gossip("baseline-bar"),
    "gossip/choice-random": _gossip("choice-random"),
    "gossip/choice-model": _gossip("choice-model"),
    "swarm/baseline-random": _swarm("baseline-random"),
    "swarm/baseline-rarest": _swarm("baseline-rarest"),
    "swarm/choice-random": _swarm("choice-random"),
    "swarm/choice-rarest": _swarm("choice-rarest"),
    "swarm/choice-adaptive": _swarm("choice-adaptive"),
    "e6/fixed": _e6("fixed"),
    "e6/mencius": _e6("mencius"),
    "e6/choice": _e6("choice"),
    "t1/off": _t1("off"),
    "t1/static": _t1("static"),
    "t1/amortized": _t1("amortized"),
    "trace/e6": _trace("e6"),
    "trace/a7": _trace("a7"),
    "fuzz/paxos/off": _fuzz("paxos", False),
    "fuzz/paxos/on": _fuzz("paxos", True),
    "fuzz/paxos-batched/off": _fuzz("paxos-batched", False),
    "fuzz/paxos-batched/on": _fuzz("paxos-batched", True),
    "fuzz/randtree/off": _fuzz("randtree", False),
    "fuzz/randtree/on": _fuzz("randtree", True),
}

PINS = {
    "tree/baseline": "b5060c1eefea8c13",
    "tree/choice-random": "26d18d78c5037c5e",
    "tree/choice-crystalball": "56d1501ab8e05d18",
    "churn/baseline": "2d81db9f211698dc",
    "churn/choice-random": "1f48fb963fac8c61",
    "churn/choice-crystalball": "fceb2d942de59208",
    "chaos-tree/baseline": "81fe224e602e2d34",
    "chaos-tree/choice-random": "5eb58af9e9957f8a",
    "chaos-tree/choice-crystalball": "8cb9989b70e20290",
    "chaos-paxos/mencius": "5bedeb885cc7b56a",
    "gossip/baseline-random": "9ae863484fb6cf16",
    "gossip/baseline-bar": "f1543c3c83bb9f36",
    "gossip/choice-random": "1de514e6030eb73d",
    "gossip/choice-model": "4fccff5607f5d730",
    "swarm/baseline-random": "79c7673def1ec03d",
    "swarm/baseline-rarest": "eb547993153409df",
    "swarm/choice-random": "0e15884a1fa10900",
    "swarm/choice-rarest": "6cda6449943ad42a",
    "swarm/choice-adaptive": "8ede16bbbcfd695d",
    "e6/fixed": "15d3957469c48911",
    "e6/mencius": "4efb8f5f267b1e7a",
    "e6/choice": "2ed811375a378804",
    "t1/off": "88ac82829c5aae17",
    "t1/static": "cb361b045b1b8216",
    "t1/amortized": "a3eb1976eeb9b48d",
    "trace/e6": "287db9dfaab65dfe",
    "trace/a7": "29a5fcdb3b5f7a52",
    "fuzz/paxos/off": "a910638f079e5e4b",
    "fuzz/paxos/on": "631bbf89820b8c71",
    "fuzz/paxos-batched/off": "8dddfc1e14e5a610",
    "fuzz/paxos-batched/on": "e6e5e83528f1772a",
    "fuzz/randtree/off": "49f5924d89930c0f",
    "fuzz/randtree/on": "307042f575cab4f7",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_runner_outcome_pinned(case):
    assert CASES[case]() == PINS[case]
