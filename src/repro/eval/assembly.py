"""One way to assemble a run: variant tables, the builder, shared steps.

An experiment variant is data (PAPER §4 sets one application against
several choice resolvers): the service every node runs, the resolver
that answers its choices, and optionally a CrystalBall runtime.  Each
experiment module declares its variants once, as a :class:`Variants`
table, and :func:`build` is the only code that turns one into a world,
always in one order: build the cluster, install the runtimes, bootstrap
their network models from the topology, arm the chaos controller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional

from ..chaos import ChaosController, FaultPlan
from ..net import Topology
from ..runtime import CrystalBallRuntime, install_crystalball
from ..statemachine import Cluster


@dataclass(frozen=True)
class Variant:
    """One experiment variant; each callable takes the run's setup.

    ``service`` returns the service factory; ``resolver`` returns one
    node's resolver (``None``: the first candidate); ``crystalball``
    returns the runtime's keyword arguments (``None``: no runtime).
    ``runtime_resolves`` makes each runtime its node's resolver;
    ``bootstrap`` seeds each runtime's network model from the topology.
    """

    service: Callable[[Any], Callable[[int], Any]]
    resolver: Optional[Callable[[Any], Any]] = None
    crystalball: Optional[Callable[[Any], Dict[str, Any]]] = None
    runtime_resolves: bool = False
    bootstrap: bool = False


class Variants(dict):
    """An experiment's variant table: an unknown name is a ValueError."""

    def __missing__(self, name: str) -> Variant:
        raise ValueError(f"unknown variant {name!r}; expected one of {tuple(self)}")


@dataclass
class World:
    """An assembled run: the cluster, its runtimes, its chaos controller."""

    cluster: Cluster
    runtimes: List[CrystalBallRuntime] = field(default_factory=list)
    chaos: Optional[ChaosController] = None


def build(variant: Variant, *, n: int, seed: int, topology: Optional[Topology] = None,
          plan: Optional[FaultPlan] = None, chaos_checkpoint_period: float = 0.0,
          causal: bool = False, transport_wrapper: Optional[Callable] = None,
          **params: Any) -> World:
    """Assemble one run of ``variant``.  ``n``, ``seed``, ``topology`` and
    ``params`` are the setup its callables read; a ``plan`` is armed last,
    with ``chaos_checkpoint_period`` as its stable-storage cadence."""
    setup = SimpleNamespace(n=n, seed=seed, topology=topology, **params)
    factory = variant.service(setup)
    resolver = variant.resolver
    cluster = Cluster(
        n, factory, topology=topology, seed=seed,
        resolver_factory=(lambda _node: resolver(setup)) if resolver else None,
        transport_wrapper=transport_wrapper, causal=causal,
    )
    world = World(cluster)
    if variant.crystalball is not None:
        world.runtimes = install_crystalball(
            cluster, factory, set_resolver=variant.runtime_resolves,
            **variant.crystalball(setup),
        )
        if variant.bootstrap:
            for runtime in world.runtimes:
                runtime.network_model.bootstrap_from_topology(cluster.topology)
    if plan is not None:
        world.chaos = ChaosController(
            cluster, plan, checkpoint_period=chaos_checkpoint_period,
        )
        world.chaos.arm()
    return world


def live_states(cluster: Cluster) -> Dict[int, dict]:
    """The checkpoint of every node that is up, by node id."""
    return {node.node_id: node.service.checkpoint()
            for node in cluster.nodes if node.is_up}


def staggered_join(cluster: Cluster, root: int, spacing: float) -> None:
    """Start ``root`` now and the other nodes ``spacing`` seconds apart."""
    cluster.node(root).start()
    others = (nid for nid in range(len(cluster.nodes)) if nid != root)
    for index, node_id in enumerate(others):
        cluster.sim.schedule_at(
            (index + 1) * spacing, cluster.node(node_id).start, tag="join",
        )


def every(cluster: Cluster, period: float, until: float,
          action: Callable[[], None]) -> None:
    """Run ``action`` every ``period`` simulated seconds up to ``until``."""

    def tick() -> None:
        action()
        if cluster.sim.now + period <= until:
            cluster.sim.schedule(period, tick, tag="probe")

    cluster.sim.schedule(period, tick, tag="probe")


__all__ = ["Variant", "Variants", "World", "build", "every", "live_states",
           "staggered_join"]
