"""Fuzz targets: one deterministic execution of a plan against an app.

A :class:`FuzzTarget` knows how to run one :class:`FaultPlan` against
one protocol and report everything the campaign's coverage signal
needs: which safety properties broke live, what the trace looked like
(digest + behavior features), which faults actually landed, and what
consequence prediction foresaw from probe snapshots mid-run.

Two targets ship:

* ``paxos`` — the 5-replica Mencius WAN workload.  Live safety is
  single-decree agreement, checked at every probe and at the end.
  The prediction probes also carry the ``near:accepted-coherent``
  canary — "no accepted value conflicts with a chosen value elsewhere,
  and no two replicas accept different values at one (instance,
  ballot)" — a *precursor* property whose predicted violations sit one
  or two actions from the current world, giving the search a gradient
  long before agreement itself (which needs a full gap-fill round
  trip) can break.
* ``randtree`` — an 8-node RandTree join under chaos.  Live safety is
  the structural invariant set (degree bound, no self-edges, no
  consistent-edge cycle), probed twice a simulated second; prediction
  probes use the protocol's own CrystalBall property set.

Executions are pure functions of ``(plan, seed)``: same inputs, same
trace digest, same verdict — the property the shrinker and the corpus
replay test rely on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, List, Optional

from ..apps.paxos import PaxosConfig, make_paxos_factory
from ..apps.randtree import RandTreeConfig, make_baseline_factory, randtree_properties
from ..chaos import FaultPlan
from ..chaos.plan import CrashEvent, LinkFaultEvent, PartitionEvent, plan_rng
from ..choice import FirstResolver
from ..eval.assembly import Variant, build, every, staggered_join
from ..eval.chaos_experiment import check_randtree_invariants, trace_digest
from ..eval.paxos_experiment import agreement_holds, at_most_once_holds, wan_topology
from ..mc import (
    ConsequencePredictor,
    Explorer,
    SafetyProperty,
    WorldState,
    world_from_services,
)
from ..net import Topology, transit_stub
from ..statemachine import Cluster
from .coverage import (
    chaos_features,
    near_violation_score,
    prediction_features,
    trace_features,
)
from .mutators import MAX_PROB


@dataclass
class ExecutionResult:
    """Everything one execution tells the campaign."""

    target: str
    seed: int
    plan_digest: str
    trace_digest: str = ""
    violations: List[str] = field(default_factory=list)
    near_violations: Dict[str, int] = field(default_factory=dict)
    min_violation_depth: Optional[int] = None
    features: FrozenSet = frozenset()
    score: float = 0.0
    chaos_stats: Dict[str, int] = field(default_factory=dict)
    # Only populated on keep_cluster executions (forensics re-runs).
    cluster: Optional[Cluster] = None

    @property
    def violated(self) -> bool:
        return bool(self.violations)


#: ``execute(steering=...)`` -> how a target's nodes resolve choices:
#: always the first candidate; with steering, a CrystalBall runtime per
#: node also predicts over the target's properties and filters events.
STEERING_VARIANTS = {
    False: Variant(lambda s: s.target.factory, lambda s: FirstResolver()),
    True: Variant(
        lambda s: s.target.factory, lambda s: FirstResolver(),
        lambda s: dict(
            properties=s.target.properties, checkpoint_period=1.0,
            prediction_period=1.0, chain_depth=s.target.chain_depth,
            budget=s.target.predict_budget,
        ),
    ),
}


class FuzzTarget:
    """One app under adversarial scenario search."""

    name = "target"
    n_nodes = 0
    horizon = 0.0
    # Consequence-prediction probe schedule and exploration bounds.
    probe_times: tuple = ()
    chain_depth = 3
    predict_budget = 160

    # Stable-storage cadence of the chaos controller's crash recovery.
    chaos_checkpoint_period = 0.0

    def random_plan(self, rng: random.Random) -> FaultPlan:
        """Draw a plan from this target's random surface (the baseline
        the guided campaign is benchmarked against)."""
        raise NotImplementedError

    def topology(self, seed: int) -> Topology:
        raise NotImplementedError

    def execute(self, plan: FaultPlan, seed: int, *, probes: bool = True,
                causal: bool = False, keep_cluster: bool = False,
                steering: bool = False) -> ExecutionResult:
        world = build(
            STEERING_VARIANTS[steering], n=self.n_nodes, seed=seed,
            topology=self.topology(seed), plan=plan,
            chaos_checkpoint_period=self.chaos_checkpoint_period,
            causal=causal, target=self,
        )
        cluster = world.cluster
        result = ExecutionResult(target=self.name, seed=seed,
                                 plan_digest=plan.digest())
        predictor = None
        if probes:
            explorer = Explorer(self.factory, properties=self.properties)
            predictor = ConsequencePredictor(
                explorer, chain_depth=self.chain_depth,
                budget=self.predict_budget,
            )
        self._schedule_probes(cluster, predictor, result)
        self._start(cluster, result)
        cluster.run(until=self.horizon)
        for violation in self._live_violations(_snapshot(cluster)):
            result.violations.append(f"t=end: {violation}")
        result.trace_digest = trace_digest(cluster.sim.trace)
        result.chaos_stats = world.chaos.stats()
        features = trace_features(cluster.sim.trace)
        features |= chaos_features(result.chaos_stats)
        features |= {("viol", v.split(":", 1)[0]) for v in result.violations}
        features |= prediction_features(result.near_violations,
                                        result.min_violation_depth)
        result.features = frozenset(features)
        result.score = near_violation_score(
            result.near_violations, result.min_violation_depth, self.chain_depth,
        )
        if keep_cluster:
            result.cluster = cluster
        return result

    def _start(self, cluster: Cluster, result: ExecutionResult) -> None:
        """Start the workload (after the probes are scheduled)."""
        cluster.start_all()

    def _live_violations(self, world: WorldState) -> List[str]:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Shared machinery
    # ------------------------------------------------------------------

    def _check(self, cluster: Cluster, result: ExecutionResult) -> WorldState:
        """Record the live world's new safety violations; return the world."""
        world = _snapshot(cluster)
        for violation in self._live_violations(world):
            message = f"t={cluster.sim.now:g}: {violation}"
            if message not in result.violations:
                result.violations.append(message)
        return world

    def _schedule_probes(
        self,
        cluster: Cluster,
        predictor: Optional[ConsequencePredictor],
        result: ExecutionResult,
    ) -> None:
        """Probe at the target's probe times: live property check plus
        (when a predictor is given) a consequence-prediction pass whose
        near-violation counts feed the coverage score."""

        def probe() -> None:
            world = self._check(cluster, result)
            if predictor is not None:
                report = predictor.predict(world)
                for prop, count in report.near_violations().items():
                    result.near_violations[prop] = (
                        result.near_violations.get(prop, 0) + count
                    )
                depth = report.min_violation_depth()
                if depth is not None:
                    current = result.min_violation_depth
                    result.min_violation_depth = (
                        depth if current is None else min(current, depth)
                    )

        for time in self.probe_times:
            cluster.sim.schedule_at(time, probe, tag="fuzz.probe")


def _snapshot(cluster: Cluster) -> WorldState:
    """The live world: every service's state, the crashed nodes down."""
    down = [n.node_id for n in cluster.nodes if not n.is_up]
    return world_from_services(
        cluster.services, cluster.nodes, down=down, time=cluster.sim.now,
    )


# ----------------------------------------------------------------------
# Paxos target
# ----------------------------------------------------------------------


def _replica_logs(world: WorldState, field: str) -> List[Any]:
    """One log field (``chosen`` / ``executed``) of every replica."""
    return [world.state_of(node_id).get(field, {}) for node_id in world.node_ids]


def paxos_agreement(world: WorldState) -> bool:
    """:func:`~repro.eval.paxos_experiment.agreement_holds` over a world."""
    return agreement_holds(_replica_logs(world, "chosen"))


def accepted_coherent(world: WorldState) -> bool:
    """The near-violation canary for Paxos.

    Two precursor conditions of an agreement break: an acceptor holds
    an accepted value conflicting with a value already chosen
    elsewhere, or two acceptors hold different values for one
    (instance, ballot).  Either means a quorum could be assembled for
    the wrong value — detectable one delivery ahead of the break
    itself.
    """
    chosen: Dict[int, tuple] = {}
    for node_id in world.node_ids:
        for instance, value in world.state_of(node_id).get("chosen", {}).items():
            chosen[int(instance)] = tuple(value)
    seen: Dict[tuple, tuple] = {}
    for node_id in world.node_ids:
        for instance, acc in world.state_of(node_id).get("accepted", {}).items():
            instance = int(instance)
            ballot, value = acc[0], tuple(acc[1])
            if instance in chosen and value != chosen[instance]:
                return False
            if (instance, ballot) in seen and seen[(instance, ballot)] != value:
                return False
            seen[(instance, ballot)] = value
    return True


class PaxosFuzzTarget(FuzzTarget):
    """Mencius over the 5-site WAN, hunting agreement violations.

    The interesting adversary couples high message loss (so ``Learn``
    broadcasts miss a majority) with an amnesia crash (so a recovered
    replica gap-fills a slot it already decided) — exactly the surface
    :meth:`random_plan` samples.
    """

    name = "paxos"
    n_nodes = 5
    horizon = 16.0
    probe_times = (3.0, 5.0, 7.0)
    chain_depth = 3
    predict_budget = 160

    def __init__(self) -> None:
        self.config = PaxosConfig(n=5, request_interval=0.5, requests_per_node=3)
        self.factory = make_paxos_factory("mencius", self.config)
        self.properties = [
            SafetyProperty("paxos-agreement", paxos_agreement),
            SafetyProperty("near:accepted-coherent", accepted_coherent),
        ]

    def random_plan(self, rng: random.Random) -> FaultPlan:
        rng = plan_rng(rng, stream="fuzz.surface")
        events: List[Any] = [LinkFaultEvent(
            at=0.0, drop=rng.uniform(0.05, MAX_PROB),
            reorder=rng.uniform(0.0, 0.3), reorder_jitter=0.2,
        )]
        for _ in range(rng.randint(1, 2)):
            at = rng.uniform(1.0, 8.0)
            events.append(CrashEvent(
                at=at, node=rng.randrange(self.n_nodes),
                amnesia=rng.random() < 0.7,
                recover_at=at + rng.uniform(0.1, 2.5),
            ))
        return FaultPlan(events=events)

    def topology(self, seed: int) -> Topology:
        return wan_topology(self.n_nodes)

    def _live_violations(self, world: WorldState) -> List[str]:
        if not paxos_agreement(world):
            return ["paxos-agreement: two replicas chose different values"]
        return []


def paxos_at_most_once(world: WorldState) -> bool:
    """:func:`~repro.eval.paxos_experiment.at_most_once_holds` over a world."""
    return at_most_once_holds(_replica_logs(world, "executed"))


class BatchedPaxosFuzzTarget(PaxosFuzzTarget):
    """Batched Multi-Paxos over the same WAN, same adversary surface.

    The batched replica adds attack surface the single-decree target
    lacks: whole batches lose instances at a time (re-sequencing must
    not duplicate or drop commands), ranged prepares can race point
    escalations, and learner catch-up replays decided values into
    recovering replicas.  The choice sets are kept small
    (batch sizes 1/4, pipeline depth 2) so the prediction probes'
    choose-branching stays within the exploration budget.
    """

    name = "paxos-batched"

    def __init__(self) -> None:
        self.config = PaxosConfig(
            n=5, request_interval=0.4, requests_per_node=4,
            batch_size_choices=(1, 4), pipeline_depth=2,
            retry_pacing_choices=(1.0, 2.0),
        )
        self.factory = make_paxos_factory("batched", self.config)
        self.properties = [
            SafetyProperty("paxos-agreement", paxos_agreement),
            SafetyProperty("paxos-at-most-once", paxos_at_most_once),
            SafetyProperty("near:accepted-coherent", accepted_coherent),
        ]

    def _live_violations(self, world: WorldState) -> List[str]:
        violations = super()._live_violations(world)
        if not paxos_at_most_once(world):
            violations.append(
                "paxos-at-most-once: a replica applied a command twice"
            )
        return violations


# ----------------------------------------------------------------------
# RandTree target
# ----------------------------------------------------------------------


class RandTreeFuzzTarget(FuzzTarget):
    """An 8-node RandTree join, hunting structural-invariant breaks.

    The known surface: amnesia crashes make a node forget its children
    while they still point at it; combined with a partition during the
    join wave, stale beliefs can close a consistent-edge cycle.
    """

    name = "randtree"
    n_nodes = 8
    horizon = 10.0
    probe_times = (3.0, 5.0, 7.0)
    chain_depth = 2
    predict_budget = 80
    join_spacing = 0.2
    invariant_period = 0.5
    chaos_checkpoint_period = 1.0

    def __init__(self) -> None:
        self.config = RandTreeConfig()
        self.factory = make_baseline_factory(self.config)
        self.properties = randtree_properties(self.config)

    def random_plan(self, rng: random.Random) -> FaultPlan:
        rng = plan_rng(rng, stream="fuzz.surface")
        events: List[Any] = [LinkFaultEvent(
            at=0.0, drop=rng.uniform(0.0, 0.25),
            reorder=rng.uniform(0.0, 0.2), reorder_jitter=0.2,
        )]
        for _ in range(rng.randint(1, 3)):
            at = rng.uniform(0.5, 6.0)
            events.append(CrashEvent(
                at=at, node=rng.randrange(1, self.n_nodes),
                amnesia=rng.random() < 0.8,
                recover_at=at + rng.uniform(0.2, 2.0),
            ))
        if rng.random() < 0.5:
            nodes = list(range(self.n_nodes))
            rng.shuffle(nodes)
            cut = rng.randint(1, self.n_nodes - 1)
            at = rng.uniform(0.5, 5.0)
            events.append(PartitionEvent(
                at=at,
                groups=(tuple(sorted(nodes[:cut])), tuple(sorted(nodes[cut:]))),
                heal_at=at + rng.uniform(0.5, 3.0),
            ))
        return FaultPlan(events=events)

    def topology(self, seed: int) -> Topology:
        return transit_stub(self.n_nodes, random.Random(seed))

    def _start(self, cluster: Cluster, result: ExecutionResult) -> None:
        staggered_join(cluster, self.config.root, self.join_spacing)
        # The cheap high-frequency invariant sweep (live checks only).
        every(cluster, self.invariant_period, self.horizon,
              lambda: self._check(cluster, result))

    def _live_violations(self, world: WorldState) -> List[str]:
        states = {nid: world.state_of(nid) for nid in world.node_ids
                  if nid not in world.down}
        return check_randtree_invariants(states, self.config)


TARGETS: Dict[str, Callable[[], FuzzTarget]] = {
    "paxos": PaxosFuzzTarget,
    "paxos-batched": BatchedPaxosFuzzTarget,
    "randtree": RandTreeFuzzTarget,
}


def make_target(name: str) -> FuzzTarget:
    """Instantiate a registered fuzz target by name."""
    try:
        return TARGETS[name]()
    except KeyError:
        raise ValueError(
            f"unknown fuzz target {name!r}; known: {sorted(TARGETS)}"
        ) from None


__all__ = [
    "BatchedPaxosFuzzTarget",
    "ExecutionResult",
    "FuzzTarget",
    "PaxosFuzzTarget",
    "RandTreeFuzzTarget",
    "TARGETS",
    "accepted_coherent",
    "make_target",
    "paxos_agreement",
    "paxos_at_most_once",
]
