"""World states for model checking.

A :class:`WorldState` is CrystalBall's unit of exploration: the
checkpointed service state of every known node, the set of in-flight
messages, the pending timers, and which nodes are down.  Worlds are
plain data, cloneable, and hashable via a stable digest so the explorer
can recognize revisits.

Time in a world is an *estimate*: when the explorer is given a network
model it advances ``time`` by predicted delivery delays, turning the
model checker into a simulator (Section 3.3.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..statemachine.serialization import digest, digest_of_frozen, freeze, snapshot_value


@dataclass(frozen=True)
class InFlightMessage:
    """A message sent but not yet delivered.

    ``key()`` and ``digest()`` are memoized per instance: worlds along
    an exploration path share message objects, so each payload is
    frozen once per object lifetime instead of once per world visit.
    """

    src: int
    dst: int
    msg: Any

    def key(self) -> Tuple:
        """Canonical identity used for matching and digests."""
        key = getattr(self, "_key", None)
        if key is None:
            key = (self.src, self.dst, freeze(self.msg))
            object.__setattr__(self, "_key", key)
        return key

    def digest(self) -> str:
        """Memoized digest of :meth:`key` (world-digest building block)."""
        cached = getattr(self, "_digest", None)
        if cached is None:
            cached = digest_of_frozen(self.key())
            object.__setattr__(self, "_digest", cached)
        return cached


@dataclass(frozen=True)
class PendingTimer:
    """An armed timer in some node's runtime.

    ``delay`` is the interval it was armed with, kept for performance
    estimation; in exploration any pending timer may fire next.
    """

    node: int
    name: str
    payload: Any
    delay: float = 0.0

    def key(self) -> Tuple:
        key = getattr(self, "_key", None)
        if key is None:
            key = (self.node, self.name, freeze(self.payload))
            object.__setattr__(self, "_key", key)
        return key

    def digest(self) -> str:
        """Memoized digest of :meth:`key` (world-digest building block)."""
        cached = getattr(self, "_digest", None)
        if cached is None:
            cached = digest_of_frozen(self.key())
            object.__setattr__(self, "_digest", cached)
        return cached


class WorldState:
    """A global snapshot: node states + in-flight events."""

    def __init__(
        self,
        node_states: Dict[int, Dict[str, Any]],
        inflight: Iterable[InFlightMessage] = (),
        timers: Iterable[PendingTimer] = (),
        down: Iterable[int] = (),
        time: float = 0.0,
        depth: int = 0,
        copy_states: bool = True,
    ) -> None:
        # State dicts inside a world are treated as immutable: services
        # are always *restored* from them (which copies) and never hold
        # references into them.  ``copy_states=False`` lets internal
        # paths (clone/evolve, checkpoints that are already copies)
        # share them, keeping successor generation O(changed node)
        # instead of O(all nodes).
        if copy_states:
            self.node_states = {
                nid: snapshot_value(state) for nid, state in node_states.items()
            }
        else:
            self.node_states = dict(node_states)
        self.inflight: List[InFlightMessage] = list(inflight)
        self.timers: List[PendingTimer] = list(timers)
        self.down: FrozenSet[int] = frozenset(down)
        self.time = time
        self.depth = depth
        # Per-node digest cache, filled lazily by digest() and pulled
        # from ancestors on demand: clone() records a parent link
        # instead of copying the cache, and _node_digest() walks that
        # chain while the state dict is the *same object* — so a
        # successor re-hashes O(changed nodes), not O(cluster), no
        # matter in which order worlds get digested.  Valid because
        # state dicts inside a world are immutable by contract (see
        # above).  digest() drops the parent link once every node is
        # cached locally, keeping ancestor chains short.
        self._node_digests: Dict[int, str] = {}
        self._digest_parent: Optional["WorldState"] = None
        # Incremental property checking (see properties.pairwise):
        # _prop_parent is the world this one was evolved from,
        # _changed_nodes the ids whose state dicts differ from it, and
        # _prop_cache memoizes property verdicts by name.  with_down()
        # clears the parent link (the live set changed, so per-node
        # deltas no longer describe the difference).
        self._prop_cache: Dict[str, bool] = {}
        self._prop_parent: Optional["WorldState"] = None
        self._changed_nodes: set = set()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def node_ids(self) -> List[int]:
        """Known node ids, ascending."""
        return sorted(self.node_states)

    def state_of(self, node_id: int) -> Dict[str, Any]:
        """Checkpoint dict of one node (live reference, do not mutate)."""
        return self.node_states[node_id]

    def is_up(self, node_id: int) -> bool:
        """Whether the node is up in this world."""
        return node_id not in self.down

    def live_nodes(self) -> List[int]:
        """Known node ids that are up."""
        return [nid for nid in self.node_ids if nid not in self.down]

    # ------------------------------------------------------------------
    # Functional updates
    # ------------------------------------------------------------------

    def clone(self) -> "WorldState":
        """Deep copy (state dicts copied; messages/timers are immutable)."""
        successor = WorldState(
            node_states=self.node_states,
            inflight=self.inflight,
            timers=self.timers,
            down=self.down,
            time=self.time,
            depth=self.depth,
            copy_states=False,
        )
        successor._digest_parent = self
        successor._prop_parent = self
        return successor

    def evolve(
        self,
        node_id: Optional[int] = None,
        new_state: Optional[Dict[str, Any]] = None,
        remove_inflight: Optional[InFlightMessage] = None,
        add_inflight: Iterable[InFlightMessage] = (),
        remove_timers: Iterable[Tuple[int, str]] = (),
        add_timers: Iterable[PendingTimer] = (),
        time_delta: float = 0.0,
        copy_state: bool = True,
    ) -> "WorldState":
        """Return a successor world with the given deltas applied.

        ``remove_inflight`` removes one instance matching by key (a
        multiset removal); ``remove_timers`` removes all timers with the
        given ``(node, name)``; ``add_timers`` then re-arms (so a re-armed
        timer supersedes its predecessor, matching live semantics).

        ``copy_state=False`` adopts ``new_state`` without snapshotting;
        only pass it for dicts that are already fresh copies nothing
        else aliases (e.g. a ``Service.checkpoint()`` result).
        """
        successor = self.clone()
        if node_id is not None and new_state is not None:
            successor.node_states = dict(successor.node_states)
            successor.node_states[node_id] = (
                snapshot_value(new_state) if copy_state else new_state
            )
            successor._changed_nodes.add(node_id)
        if remove_inflight is not None:
            target = remove_inflight.key()
            for index, message in enumerate(successor.inflight):
                if message.key() == target:
                    successor.inflight = (
                        successor.inflight[:index] + successor.inflight[index + 1:]
                    )
                    break
            else:
                raise ValueError(f"message not in flight: {remove_inflight!r}")
        removals = set(remove_timers)
        if removals:
            successor.timers = [
                t for t in successor.timers if (t.node, t.name) not in removals
            ]
        added = list(add_timers)
        if added:
            rearmed = {(t.node, t.name) for t in added}
            successor.timers = [
                t for t in successor.timers if (t.node, t.name) not in rearmed
            ] + added
        extra = list(add_inflight)
        if extra:
            successor.inflight = successor.inflight + extra
        successor.time = self.time + time_delta
        successor.depth = self.depth + 1
        return successor

    def with_down(self, down: Iterable[int]) -> "WorldState":
        """Copy of this world with a different down-set."""
        successor = self.clone()
        successor.down = frozenset(down)
        successor._prop_parent = None
        return successor

    # ------------------------------------------------------------------
    # Hashing
    # ------------------------------------------------------------------

    def _node_digest(self, node_id: int) -> str:
        """Cached digest of one node's checkpoint dict.

        On a miss, walks the clone-parent chain while the ancestor holds
        the *same dict object* for this node — an identity check, so a
        hit is always sound — and pulls its cached digest in before
        falling back to a full encode+hash.
        """
        cached = self._node_digests.get(node_id)
        if cached is not None:
            return cached
        state = self.node_states[node_id]
        ancestor = self._digest_parent
        last_match: Optional["WorldState"] = None
        while ancestor is not None and ancestor.node_states.get(node_id) is state:
            cached = ancestor._node_digests.get(node_id)
            if cached is not None:
                break
            last_match = ancestor
            ancestor = ancestor._digest_parent
        if cached is None:
            cached = digest(state)
            if last_match is not None:
                # Publish at the highest ancestor sharing this state so
                # sibling branches find it instead of re-freezing.
                last_match._node_digests[node_id] = cached
        self._node_digests[node_id] = cached
        return cached

    def frozen(self) -> Tuple:
        """Canonical hashable form (time/depth excluded: they are
        bookkeeping, not protocol state).  Events are ordered by their
        cached digests, so ordering cost is O(events), not O(repr)."""
        states = tuple(
            (nid, freeze(self.node_states[nid])) for nid in sorted(self.node_states)
        )
        messages = tuple(
            m.key() for m in sorted(self.inflight, key=InFlightMessage.digest)
        )
        timers = tuple(t.key() for t in sorted(self.timers, key=PendingTimer.digest))
        return (states, messages, timers, tuple(sorted(self.down)))

    def digest(self) -> str:
        """Stable hex digest for visited-state tracking.

        A combine of per-part digests: per-node state digests (cached,
        maintained incrementally across :meth:`evolve`) and per-event
        digests (memoized on the immutable message/timer objects).  The
        expensive ``freeze`` of a node state therefore runs once per
        distinct state, not once per ``digest()`` call.
        """
        parts = (
            tuple((nid, self._node_digest(nid)) for nid in sorted(self.node_states)),
            tuple(sorted(m.digest() for m in self.inflight)),
            tuple(sorted(t.digest() for t in self.timers)),
            tuple(sorted(self.down)),
        )
        # Every node digest is cached locally now; release the parent
        # link so undigested ancestor chains stay bounded.
        self._digest_parent = None
        return digest_of_frozen(parts)

    def recompute_digest(self) -> str:
        """Digest recomputed from scratch, bypassing every cache.

        Test/debug oracle for the incremental-digest invariant:
        ``world.digest() == world.recompute_digest()`` must hold after
        any sequence of :meth:`evolve`/:meth:`with_down` steps.
        """
        fresh = WorldState(
            node_states=self.node_states,
            inflight=[InFlightMessage(m.src, m.dst, m.msg) for m in self.inflight],
            timers=[
                PendingTimer(t.node, t.name, t.payload, t.delay) for t in self.timers
            ],
            down=self.down,
            time=self.time,
            depth=self.depth,
            copy_states=False,
        )
        return fresh.digest()

    def __repr__(self) -> str:
        return (
            f"WorldState(nodes={len(self.node_states)}, inflight={len(self.inflight)}, "
            f"timers={len(self.timers)}, down={sorted(self.down)}, depth={self.depth})"
        )


def world_from_services(services, node_hosts=None, down: Iterable[int] = (), time: float = 0.0) -> WorldState:
    """Build a world from live service instances (and optionally their
    hosting nodes, to capture pending timers)."""
    node_states = {service.node_id: service.checkpoint() for service in services}
    timers: List[PendingTimer] = []
    if node_hosts is not None:
        for host in node_hosts:
            for name, deadline, payload in host.pending_timers():
                timers.append(
                    PendingTimer(node=host.node_id, name=name, payload=payload,
                                 delay=max(0.0, deadline - time))
                )
    # checkpoint() already deep-copies, so the world can adopt the dicts.
    return WorldState(node_states=node_states, timers=timers, down=down, time=time,
                      copy_states=False)


__all__ = [
    "InFlightMessage",
    "PendingTimer",
    "WorldState",
    "digest_of_frozen",
    "world_from_services",
]
