"""PolicyCache and CachedResolver: the fast path off the critical path."""

import pytest

from repro.choice import ChoicePoint, ChoiceResolver
from repro.runtime import CachedResolver, PolicyCache, scenario_key


class CountingResolver(ChoiceResolver):
    """Returns the last candidate; counts invocations."""

    def __init__(self):
        self.calls = 0

    def resolve(self, point, node=None):
        self.calls += 1
        return point.candidates[-1]


def point(candidates=(1, 2, 3), label="l"):
    return ChoicePoint(label=label, candidates=list(candidates), node_id=0)


def test_cache_put_get():
    cache = PolicyCache()
    cache.put(("k",), "v", now=1.0)
    assert cache.get(("k",), now=2.0) == (True, "v")


def test_cache_miss():
    cache = PolicyCache()
    assert cache.get(("nope",), now=0.0) is None
    assert cache.misses == 1


def test_ttl_expiry():
    cache = PolicyCache(ttl=1.0)
    cache.put(("k",), "v", now=0.0)
    assert cache.get(("k",), now=0.5) is not None
    assert cache.get(("k",), now=2.0) is None


def test_ttl_boundary_entry_still_hits():
    """An entry stored at exactly ``now - ttl`` is a hit.

    The timestamps are compared directly (``stored_at < now - ttl``):
    the double-subtraction form ``now - stored_at > ttl`` drifts under
    floating point (e.g. 0.3 - 0.2 > 0.1) and evicted live entries."""
    cache = PolicyCache(ttl=0.1)
    cache.put(("k",), "v", now=0.2)
    assert cache.get(("k",), now=0.3) == (True, "v")
    assert cache.expirations == 0
    # Strictly older than the window does expire.
    assert cache.get(("k",), now=0.3000001 + 0.1) is None
    assert cache.expirations == 1


def test_expired_entry_deleted_without_lru_bookkeeping():
    cache = PolicyCache(ttl=1.0, max_entries=4)
    cache.put(("old",), 1, now=0.0)
    cache.put(("new",), 2, now=5.0)
    assert cache.get(("old",), now=5.0) is None
    assert ("old",) not in cache._entries  # deleted outright
    assert cache.expirations == 1
    assert cache.misses == 1


def test_snapshot_reports_counters():
    cache = PolicyCache(ttl=1.0, max_entries=2)
    cache.put(("a",), 1, now=0.0)
    cache.put(("b",), 2, now=0.0)
    cache.put(("c",), 3, now=0.0)  # evicts a
    cache.get(("b",), now=0.5)  # hit
    cache.get(("x",), now=0.5)  # miss
    cache.get(("c",), now=9.0)  # expired
    snap = cache.snapshot()
    assert snap == {
        "entries": 1,
        "max_entries": 2,
        "ttl": 1.0,
        "hits": 1,
        "misses": 2,
        "hit_rate": 1 / 3,
        "expirations": 1,
        "evictions": 1,
        "stale": 0,
        "keys": {
            "b": {"hits": 1, "misses": 0, "stale": 0},
            "x": {"hits": 0, "misses": 1, "stale": 0},
            "c": {"hits": 0, "misses": 1, "stale": 0},
        },
    }


def test_per_key_counters_track_stale_and_overflow():
    """Satellite: per-scenario-key hit/miss/stale tallies in snapshot().

    Lookup keys get their own counters; beyond ``max_tracked_keys`` the
    tail aggregates under ``<other>`` so an adversarial key stream can't
    grow the snapshot without bound."""
    cache = PolicyCache(ttl=10.0, max_tracked_keys=2)
    cache.put(("a",), 1, now=0.0)
    cache.get(("a",), now=0.0)          # hit on key "a"
    cache.get(("b",), now=0.0)          # miss on key "b"
    cache.get(("c",), now=0.0)          # overflow -> "<other>"
    keys = cache.key_stats()
    assert keys["a"] == {"hits": 1, "misses": 0, "stale": 0}
    assert keys["b"] == {"hits": 0, "misses": 1, "stale": 0}
    assert keys["<other>"] == {"hits": 0, "misses": 1, "stale": 0}
    # mark_stale reclassifies the last lookup's hit as a stale miss on
    # that same key (mirrors the global counters).
    cache.get(("a",), now=0.0)
    cache.mark_stale()
    assert cache.key_stats()["a"] == {"hits": 1, "misses": 1, "stale": 1}


def test_cached_resolver_stats_delegates_to_snapshot():
    resolver = CachedResolver(CountingResolver())
    resolver.resolve(point())
    resolver.resolve(point())
    stats = resolver.stats()
    assert stats["hits"] == 1
    assert stats["misses"] == 1
    assert stats["entries"] == 1


def test_lru_eviction():
    cache = PolicyCache(max_entries=2)
    cache.put(("a",), 1, now=0.0)
    cache.put(("b",), 2, now=0.0)
    cache.get(("a",), now=0.0)  # refresh a
    cache.put(("c",), 3, now=0.0)  # evicts b
    assert cache.get(("b",), now=0.0) is None
    assert cache.get(("a",), now=0.0) is not None


def test_invalid_size_rejected():
    with pytest.raises(ValueError):
        PolicyCache(max_entries=0)


def test_hit_rate():
    cache = PolicyCache()
    cache.put(("k",), "v", now=0.0)
    cache.get(("k",), now=0.0)
    cache.get(("x",), now=0.0)
    assert cache.hit_rate == 0.5


def test_invalidate():
    cache = PolicyCache()
    cache.put(("k",), "v", now=0.0)
    cache.invalidate()
    assert len(cache) == 0


def test_cached_resolver_avoids_recompute():
    inner = CountingResolver()
    resolver = CachedResolver(inner)
    assert resolver.resolve(point()) == 3
    assert resolver.resolve(point()) == 3
    assert inner.calls == 1


def test_cached_resolver_distinguishes_labels():
    inner = CountingResolver()
    resolver = CachedResolver(inner)
    resolver.resolve(point(label="a"))
    resolver.resolve(point(label="b"))
    assert inner.calls == 2


def test_cached_value_no_longer_candidate_recomputes():
    inner = CountingResolver()
    resolver = CachedResolver(inner, key_fn=lambda p, n: (p.label,))
    assert resolver.resolve(point((1, 2, 3))) == 3
    # Same key but 3 vanished from candidates: must recompute.
    assert resolver.resolve(point((1, 2))) == 2
    assert inner.calls == 2


def test_stale_candidate_counts_as_miss_not_hit():
    """A cached value no longer among the candidates ran the slow path;
    counting it as a hit inflated hit_rate."""
    inner = CountingResolver()
    resolver = CachedResolver(inner, key_fn=lambda p, n: (p.label,))
    resolver.resolve(point((1, 2, 3)))  # miss, caches 3
    resolver.resolve(point((1, 2)))     # stale: 3 not a candidate
    cache = resolver.cache
    assert cache.stale == 1
    assert cache.hits == 0
    assert cache.misses == 2
    assert cache.hit_rate == 0.0
    assert cache.snapshot()["stale"] == 1
    # A genuine hit afterwards still counts as one.
    resolver.resolve(point((1, 2)))
    assert cache.hits == 1
    assert cache.stale == 1


def test_scenario_key_uses_state_digest():
    class FakeService:
        def __init__(self, digest):
            self._digest = digest

        def state_digest(self):
            return self._digest

    class FakeNode:
        def __init__(self, digest):
            self.service = FakeService(digest)

    a = scenario_key(point(), FakeNode("d1"))
    b = scenario_key(point(), FakeNode("d2"))
    assert a != b
    assert scenario_key(point(), FakeNode("d1")) == a


def test_cached_resolver_speeds_up_predictive(tick=None):
    """Integration: cached predictive resolution hits after first call."""
    from repro.choice import PerformanceObjective
    from repro.runtime import install_crystalball
    from repro.statemachine import Cluster

    from .test_resolver import GiverService, factory, weighted_wealth

    cluster = Cluster(3, factory, seed=1)
    install_crystalball(
        cluster, factory,
        objective=PerformanceObjective("wealth", weighted_wealth),
        checkpoint_period=0.5, chain_depth=2, budget=200,
        set_resolver=False,
    )
    cache = PolicyCache(ttl=100.0)
    for node in cluster.nodes:
        node.choice_resolver = CachedResolver(node.crystalball, cache=cache)
    cluster.start_all()
    cluster.run(until=6.5)
    # Same scenario recurs only when node 0's full state digest repeats;
    # the giver's state never changes (only receivers'), so after the
    # first resolution the rest are hits.
    assert cache.hits >= 4
    assert cluster.service(2).wealth >= 5  # predictive quality retained
