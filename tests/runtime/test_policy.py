"""Amortized prediction-driven steering: policy, coalescing, scheduler.

The hypothesis properties at the bottom pin the two contracts the T2
bench relies on:

* **Equivalence when fresh** — with a live policy entry, the amortized
  scheduler returns exactly what a per-choice prediction round would
  have picked (the best-ranked candidate still offered), for any
  candidate set and scores.
* **Never stale-silently** — once a policy entry has aged past
  ``max_age`` (or was invalidated), resolution comes from the static
  fallback, never from the dead ranking.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.choice import ChoicePoint, ConfigurationError
from repro.choice.resolvers import FirstResolver
from repro.runtime import (
    AmortizedSteering,
    SteeringPolicy,
    identity_key,
    merge_steering_snapshots,
    scenario_signature,
)


def point(candidates=(1, 2, 3), label="l", **info):
    return ChoicePoint(label=label, candidates=list(candidates), node_id=0, info=info)


class LastResolver:
    """Distinguishable from FirstResolver: picks the last candidate."""

    def __init__(self):
        self.calls = 0

    def resolve(self, p, node=None):
        self.calls += 1
        return p.candidates[-1]


def scored_by(scores):
    """A deterministic ScoreFn ranking candidates by a score table."""

    def score_fn(p, node):
        ranking = sorted(
            ((c, float(scores.get(c, 0.0))) for c in p.candidates),
            key=lambda pair: pair[1], reverse=True,
        )
        return tuple(ranking), len(p.candidates)

    return score_fn


# ----------------------------------------------------------------------
# Signatures
# ----------------------------------------------------------------------

def test_identity_key_distinguishes_info():
    assert identity_key(point(queue=3)) != identity_key(point(queue=4))
    assert identity_key(point(queue=3)) == identity_key(point(queue=3))


def test_scenario_signature_buckets_queue_depth():
    # 5..7 share a log2 bucket; 8 starts the next one.
    assert scenario_signature(point(queue=5)) == scenario_signature(point(queue=7))
    assert scenario_signature(point(queue=7)) != scenario_signature(point(queue=8))


def test_scenario_signature_clamps_conflicts():
    assert scenario_signature(point(conflicts=9.0)) == scenario_signature(point(conflicts=4.0))
    assert scenario_signature(point(conflicts=1.0)) != scenario_signature(point(conflicts=2.0))


def test_scenario_signature_separates_labels_and_candidates():
    assert scenario_signature(point(label="a")) != scenario_signature(point(label="b"))
    assert scenario_signature(point((1, 2))) != scenario_signature(point((1, 2, 3)))


# ----------------------------------------------------------------------
# SteeringPolicy
# ----------------------------------------------------------------------

def test_policy_install_and_lookup():
    policy = SteeringPolicy(max_age=5.0)
    p = point()
    sig = scenario_signature(p)
    policy.install(sig, ((2, 1.0), (1, 0.5), (3, 0.1)), now=0.0)
    assert policy.lookup(sig, p, now=1.0) == 2


def test_policy_entry_ages_out():
    policy = SteeringPolicy(max_age=2.0)
    p = point()
    sig = scenario_signature(p)
    policy.install(sig, ((2, 1.0),), now=0.0)
    assert policy.lookup(sig, p, now=2.0) == 2
    assert policy.lookup(sig, p, now=2.1) is None


def test_policy_skips_candidates_no_longer_offered():
    policy = SteeringPolicy(max_age=5.0)
    sig = ("s",)
    policy.install(sig, ((9, 1.0), (2, 0.5)), now=0.0)
    assert policy.lookup(sig, point((1, 2, 3)), now=0.0) == 2


def test_policy_all_candidates_gone_is_a_stale_miss():
    policy = SteeringPolicy(max_age=5.0)
    sig = ("s",)
    policy.install(sig, ((9, 1.0),), now=0.0)
    assert policy.lookup(sig, point((1, 2)), now=0.0) is None
    assert policy.cache.stale == 1


def test_policy_invalidate_counts_reasons():
    policy = SteeringPolicy(max_age=5.0)
    policy.install(("s",), ((1, 1.0),), now=0.0)
    policy.invalidate("liveness")
    policy.invalidate("liveness")
    policy.invalidate("topology:link")
    assert policy.lookup(("s",), point(), now=0.0) is None
    snap = policy.snapshot()
    assert snap["invalidations"] == {"liveness": 2, "topology:link": 1}
    assert snap["refreshed_at"] is None


def test_policy_rejects_nonpositive_max_age():
    with pytest.raises(ConfigurationError):
        SteeringPolicy(max_age=0.0)


# ----------------------------------------------------------------------
# AmortizedSteering
# ----------------------------------------------------------------------

def test_missing_fallback_raises_at_install_time():
    with pytest.raises(ConfigurationError):
        AmortizedSteering(fallback=None)
    with pytest.raises(ConfigurationError):
        AmortizedSteering(fallback=object())  # no .resolve


def test_scored_round_installs_policy_for_scenario():
    sched = AmortizedSteering(
        fallback=FirstResolver(), score_fn=scored_by({1: 0.0, 2: 1.0, 3: 0.5}),
        coalesce_window=0.0,
    )
    value, source = sched.resolve_explain(point(queue=4), now=0.0)
    assert (value, source) == (2, "scored")
    # Same scenario bucket (queue 4..7), different exact info: policy hit.
    value, source = sched.resolve_explain(point(queue=6), now=1.0)
    assert (value, source) == (2, "policy")
    assert sched.counters["scored_rounds"] == 1
    assert sched.counters["policy_hits"] == 1


def test_coalescing_shares_one_resolution():
    sched = AmortizedSteering(
        fallback=FirstResolver(), score_fn=scored_by({3: 1.0}),
        coalesce_window=0.25,
    )
    assert sched.resolve_explain(point(queue=4), now=0.0) == (3, "scored")
    assert sched.resolve_explain(point(queue=4), now=0.2) == (3, "coalesced")
    # Outside the window the coalesced answer is gone (policy answers).
    assert sched.resolve_explain(point(queue=4), now=1.0) == (3, "policy")


def test_budget_exhaustion_defers_to_fallback():
    fallback = LastResolver()
    sched = AmortizedSteering(
        fallback=fallback, score_fn=scored_by({1: 1.0}),
        coalesce_window=0.0, rate_budget=1.0, initial_allowance=3.0,
    )
    # First round costs 3 states (three candidates) and exhausts the
    # t=0 allowance; a different scenario at t=0 must not score.
    assert sched.resolve_explain(point(queue=1), now=0.0)[1] == "scored"
    value, source = sched.resolve_explain(point(queue=100), now=0.0)
    assert (value, source) == (3, "fallback")
    assert fallback.calls == 1
    # Sim time passing replenishes the rate budget deterministically.
    assert sched.resolve_explain(point(queue=100), now=10.0)[1] == "scored"


def test_admission_denies_unaffordable_rounds_and_disarms_capture():
    class FakeNode:
        capture_dispatch = True
        network = None

    node = FakeNode()
    calls = []
    inner = scored_by({2: 1.0})

    def counting_score(p, n):
        calls.append(p)
        return inner(p, n)

    sched = AmortizedSteering(
        fallback=LastResolver(), score_fn=counting_score,
        cost_fn=lambda p, n: 1_000, coalesce_window=0.0,
        rate_budget=1.0, initial_allowance=10.0,
    )
    # Projected cost (1000) exceeds the allowance: the round is denied
    # *before* score_fn runs, and capture is disarmed so the node stops
    # paying for pre-dispatch snapshots it cannot use.
    value, source = sched.resolve_explain(point(), node=node, now=0.0)
    assert (value, source) == (3, "fallback")
    assert calls == []
    assert sched.counters["denied"] == 1
    assert node.capture_dispatch is False
    # Once the accruing allowance covers the projection, scoring resumes.
    assert sched.resolve_explain(point(), node=node, now=2_000.0)[1] == "scored"
    assert len(calls) == 1


def test_unknown_cost_admits_scoring():
    sched = AmortizedSteering(
        fallback=LastResolver(), score_fn=scored_by({2: 1.0}),
        cost_fn=lambda p, n: None, coalesce_window=0.0,
        rate_budget=1.0, initial_allowance=3.0,
    )
    # cost_fn returning None (no captured dispatch to size) admits.
    assert sched.resolve_explain(point(), now=0.0)[1] == "scored"
    assert sched.counters["denied"] == 0


def test_deferred_scoring_arms_capture():
    class FakeNode:
        capture_dispatch = False
        network = None

    node = FakeNode()
    sched = AmortizedSteering(
        fallback=FirstResolver(), score_fn=lambda p, n: None,
        coalesce_window=0.0,
    )
    value, source = sched.resolve_explain(point(), node=node, now=0.0)
    assert source == "fallback"
    assert node.capture_dispatch is True  # hungry for a checkpoint
    assert sched.counters["deferred"] == 1
    sched.score_fn = scored_by({2: 1.0})
    assert sched.resolve_explain(point(), node=node, now=1.0)[1] == "scored"
    assert node.capture_dispatch is False  # fed, disarmed


def test_invalidate_drops_policy_and_coalesced_answers():
    sched = AmortizedSteering(
        fallback=LastResolver(), score_fn=scored_by({1: 1.0}),
        coalesce_window=10.0, rate_budget=0.0, initial_allowance=3.0,
    )
    assert sched.resolve_explain(point(), now=0.0)[1] == "scored"
    sched.invalidate("liveness")
    # Budget spent and caches cleared: only the fallback remains.
    value, source = sched.resolve_explain(point(), now=0.1)
    assert (value, source) == (3, "fallback")
    assert sched.policy.snapshot()["invalidations"] == {"liveness": 1}


def test_merge_steering_snapshots_aggregates():
    a = AmortizedSteering(fallback=FirstResolver(), score_fn=scored_by({2: 1.0}))
    b = AmortizedSteering(fallback=FirstResolver(), score_fn=scored_by({2: 1.0}))
    a.resolve_explain(point(queue=4), now=0.0)
    a.resolve_explain(point(queue=4), now=10.0)  # policy aged out: rescored
    b.resolve_explain(point(queue=4), now=0.0)
    merged = merge_steering_snapshots([a.snapshot(), b.snapshot()])
    assert merged["counters"]["scored_rounds"] == 3
    assert merged["policy"]["installs"] == 3
    assert merged["spent_states"] == a.spent_states + b.spent_states
    assert 0.0 <= merged["policy"]["hit_rate"] <= 1.0


# ----------------------------------------------------------------------
# Properties (satellite: amortized == per-choice when fresh; stale
# policies always fall back)
# ----------------------------------------------------------------------

candidate_sets = st.lists(
    st.integers(min_value=0, max_value=9), min_size=1, max_size=6, unique=True
)
score_tables = st.dictionaries(
    st.integers(min_value=0, max_value=9),
    st.floats(min_value=-10, max_value=10, allow_nan=False),
)
# Scores as the runtime produces them: ties (candidates missing from a
# table score 0.0 too), -inf for a candidate whose sandbox replay
# failed, and whole rounds where every replay failed.
runtime_scores = st.one_of(
    st.dictionaries(
        st.integers(min_value=0, max_value=9),
        st.one_of(
            st.floats(min_value=-10, max_value=10, allow_nan=False),
            st.sampled_from([0.0, 1.0, float("-inf")]),
        ),
    ),
    st.just({c: float("-inf") for c in range(10)}),
)


def stub_runtime(scores, steering_policy):
    """A real runtime on node 0 whose candidate scores come from a table.

    Everything above ``_score_candidate`` — the shared ranking, the
    per-choice pipeline, the policy round and the amortized scheduler —
    runs unmodified against a captured dispatch.
    """
    from types import SimpleNamespace

    from repro.runtime import CrystalBallRuntime
    from repro.statemachine import Cluster

    from .test_resolver import factory

    cluster = Cluster(3, factory, seed=1)
    node = cluster.node(0)
    runtime = CrystalBallRuntime(node, factory, steering_policy=steering_policy,
                                 fallback=LastResolver())
    runtime._score_candidate = (
        lambda dispatch, candidate, budget=None, memo=None: scores.get(candidate, 0.0)
    )
    node.current_dispatch = SimpleNamespace(checkpoint={}, choices=[])
    return runtime


@settings(max_examples=120, deadline=None)
@given(candidates=candidate_sets, scores=runtime_scores, queue=st.integers(0, 500))
def test_fresh_policy_equals_per_choice_prediction(candidates, scores, queue):
    """With a fresh policy, amortized resolution == one-shot prediction.

    Both modes of the runtime rank candidates through the same loop.
    The per-choice answer must be the strict-improvement argmax over
    scores in application order (the first candidate when every replay
    failed); the amortized scheduler installs the ranking and answers
    from it.  They must agree on every candidate set, score table
    (ties and -inf included) and scenario."""
    p = point(tuple(candidates), queue=queue)

    # Reference: strict improvement over the scores in offer order.
    best, best_score = candidates[0], float("-inf")
    for candidate in candidates:
        if scores.get(candidate, 0.0) > best_score:
            best, best_score = candidate, scores.get(candidate, 0.0)

    per_choice = stub_runtime(scores, steering_policy=False)
    assert per_choice.resolve(p) == best
    assert per_choice.stats["choices_fallback"] == 0

    runtime = stub_runtime(scores, steering_policy=True)
    ranking = runtime._rank(p, runtime.node.current_dispatch)
    assert sorted(c for c, _ in ranking) == sorted(candidates)
    assert ranking[0][0] == best
    assert all(a[1] >= b[1] for a, b in zip(ranking, ranking[1:]))

    value, source = runtime.amortized.resolve_explain(p, runtime.node, now=0.0)
    assert (value, source) == (best, "scored")
    # And every policy answer within max_age agrees with the round.
    value, source = runtime.amortized.resolve_explain(p, runtime.node, now=1.0)
    assert (value, source) == (best, "policy")


@settings(max_examples=120, deadline=None)
@given(
    candidates=candidate_sets,
    scores=score_tables,
    age=st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
    max_age=st.floats(min_value=0.1, max_value=5.0, allow_nan=False),
)
def test_stale_policy_always_falls_back_never_stale_silently(
    candidates, scores, age, max_age
):
    """Past max_age a policy entry never answers: the resolution is the
    fallback's (or a fresh scored round's), not the dead ranking's."""
    p = point(tuple(candidates))
    fallback = LastResolver()
    sched = AmortizedSteering(
        fallback=fallback, score_fn=scored_by(scores),
        coalesce_window=0.0, max_policy_age=max_age,
        rate_budget=1.0, initial_allowance=float(len(candidates)),
    )
    assert sched.resolve_explain(p, now=0.0)[1] == "scored"
    value, source = sched.resolve_explain(p, now=age)
    if age <= max_age:
        # age == 0.0 can re-hit the zero-width coalesce entry instead.
        assert source in ("policy", "coalesced")
    else:
        # Aged out.  The budget replenished with sim time, so a fresh
        # scored round is legitimate; otherwise only the fallback is —
        # never the stale ranking presented as live.
        assert source in ("scored", "fallback")
        if source == "fallback":
            assert value == p.candidates[-1]
            assert fallback.calls >= 1


@settings(max_examples=60, deadline=None)
@given(candidates=candidate_sets, scores=score_tables)
def test_invalidated_policy_never_answers(candidates, scores):
    p = point(tuple(candidates))
    fallback = LastResolver()
    sched = AmortizedSteering(
        fallback=fallback, score_fn=scored_by(scores),
        coalesce_window=0.0, rate_budget=1.0,
        initial_allowance=float(len(candidates)),
    )
    assert sched.resolve_explain(p, now=0.0)[1] == "scored"
    sched.invalidate("steering")
    value, source = sched.resolve_explain(p, now=0.0)
    assert (value, source) == (p.candidates[-1], "fallback")
