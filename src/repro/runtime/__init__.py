"""The CrystalBall-enabled runtime (Figure 1).

Checkpoint exchange, predictive model maintenance, consequence
prediction, execution steering via event filters, and predictive
resolution of exposed choices.
"""

from .checkpoints import (
    CheckpointDeltaMsg,
    CheckpointMsg,
    ModelShareMsg,
    ProbeMsg,
    ProbeReplyMsg,
    is_runtime_message,
)
from .controller import CrystalBallRuntime, install_crystalball
from .policy import (
    AmortizedSteering,
    SteeringPolicy,
    identity_key,
    merge_steering_snapshots,
    scenario_signature,
)
from .policy_cache import CachedResolver, PolicyCache, scenario_key
from .steering import EventFilter, SteeringModule

__all__ = [
    "AmortizedSteering",
    "SteeringPolicy",
    "identity_key",
    "merge_steering_snapshots",
    "scenario_signature",
    "CheckpointDeltaMsg",
    "CheckpointMsg",
    "ModelShareMsg",
    "ProbeMsg",
    "ProbeReplyMsg",
    "is_runtime_message",
    "CrystalBallRuntime",
    "CachedResolver",
    "PolicyCache",
    "scenario_key",
    "install_crystalball",
    "EventFilter",
    "SteeringModule",
]
