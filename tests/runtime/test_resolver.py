"""Predictive choice resolution via dispatch replay."""

from dataclasses import dataclass

import pytest

from repro.choice import ConfigurationError, PerformanceObjective
from repro.runtime import install_crystalball
from repro.statemachine import Cluster, Message, Service, msg_handler, timer_handler


@dataclass
class Gift(Message):
    amount: int


class GiverService(Service):
    """Node 0 periodically gives to a chosen peer; peers differ in how
    much the objective values them receiving."""

    state_fields = ("wealth",)

    def __init__(self, node_id: int, n: int = 3) -> None:
        super().__init__(node_id)
        self.n = n
        self.wealth = 0

    def on_init(self) -> None:
        if self.node_id == 0:
            self.set_timer("give", 1.0)

    @timer_handler("give")
    def on_give(self, payload) -> None:
        target = self.choose("gift-target", [p for p in range(self.n) if p != 0])
        self.send(target, Gift(amount=1))
        self.set_timer("give", 1.0)

    @msg_handler(Gift)
    def on_gift(self, src: int, msg: Gift) -> None:
        self.wealth += msg.amount


def factory(node_id):
    return GiverService(node_id, 3)


def weighted_wealth(world):
    # Node 2's wealth is worth double: the predictive resolver should
    # learn to always give to node 2.
    total = 0.0
    for node_id in world.node_ids:
        weight = 2.0 if node_id == 2 else 1.0
        total += weight * world.state_of(node_id).get("wealth", 0)
    return total


def test_predictive_resolver_maximizes_objective():
    cluster = Cluster(3, factory, seed=1)
    install_crystalball(
        cluster, factory,
        objective=PerformanceObjective("wealth", weighted_wealth),
        checkpoint_period=0.5, chain_depth=2, budget=200,
    )
    cluster.start_all()
    cluster.run(until=5.5)
    assert cluster.service(2).wealth == 5
    assert cluster.service(1).wealth == 0


def test_fallback_used_without_captured_dispatch():
    """The runtime is the node's resolver; a choice with no captured
    dispatch to replay is answered (and counted) by its fallback."""
    from repro.choice import ChoicePoint, FixedResolver

    cluster = Cluster(3, factory, seed=1)
    runtimes = install_crystalball(cluster, factory, fallback=FixedResolver(1))
    assert all(node.choice_resolver is runtime
               for node, runtime in zip(cluster.nodes, runtimes))
    point = ChoicePoint(label="gift-target", candidates=[1, 2], node_id=0)
    assert cluster.node(0).current_dispatch is None
    assert runtimes[0].resolve(point) == 2
    assert runtimes[0].stats["choices_resolved"] == 1
    assert runtimes[0].stats["choices_fallback"] == 1


def test_choice_scores_traced():
    cluster = Cluster(3, factory, seed=1)
    install_crystalball(
        cluster, factory,
        objective=PerformanceObjective("wealth", weighted_wealth),
        checkpoint_period=0.5, chain_depth=2, budget=200,
    )
    cluster.start_all()
    cluster.run(until=2.5)
    records = cluster.sim.trace.select("runtime.choice_score")
    assert len(records) >= 2  # two candidates scored per resolution
    assert records[0].data["label"] == "gift-target"


def test_missing_fallback_is_a_configuration_error():
    """A missing or non-resolver fallback is refused when the runtime is
    installed, in either mode, not at the first choice prediction
    cannot answer."""
    from repro.choice import FirstResolver

    for steering_policy in (False, True):
        for bad in (None, object()):  # object() has no .resolve method
            with pytest.raises(ConfigurationError) as err:
                install_crystalball(Cluster(3, factory, seed=1), factory,
                                    fallback=bad, steering_policy=steering_policy)
            assert "fallback" in str(err.value)
        # Omitting the argument means FirstResolver.
        runtimes = install_crystalball(Cluster(3, factory, seed=1), factory,
                                       steering_policy=steering_policy)
        assert isinstance(runtimes[0].fallback, FirstResolver)


def test_choices_resolved_counted():
    cluster = Cluster(3, factory, seed=1)
    runtimes = install_crystalball(
        cluster, factory,
        objective=PerformanceObjective("wealth", weighted_wealth),
        checkpoint_period=0.5, chain_depth=2, budget=200,
    )
    cluster.start_all()
    cluster.run(until=3.5)
    assert runtimes[0].stats["choices_resolved"] == 3
