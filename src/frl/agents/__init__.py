from .replay import Batch, ReplayBuffers, RingBuffer
from .models import DynamicsModel, RewardModel, augment_batch
from .dqn import (
    DqnConfig,
    DqnResult,
    SelectionMeta,
    ad_dqn_train,
    evaluate_policy,
    select_action,
)
from .bcq import (
    BcqConfig,
    BcqNet,
    VARIANTS,
    ad_bcq_train,
    checkpoint_candidates,
    episodes_to_transitions,
    extract_policy,
    filtered_argmax,
    log_softmax,
)
from .presets import (
    BCQ_TAU_GRID,
    OFFLINE_PRESETS,
    ONLINE_PRESETS,
    offline_preset,
    online_preset,
)

__all__ = [
    "Batch",
    "ReplayBuffers",
    "RingBuffer",
    "DynamicsModel",
    "RewardModel",
    "augment_batch",
    "DqnConfig",
    "DqnResult",
    "SelectionMeta",
    "ad_dqn_train",
    "evaluate_policy",
    "select_action",
    "BcqConfig",
    "BcqNet",
    "VARIANTS",
    "ad_bcq_train",
    "checkpoint_candidates",
    "episodes_to_transitions",
    "extract_policy",
    "filtered_argmax",
    "log_softmax",
    "BCQ_TAU_GRID",
    "OFFLINE_PRESETS",
    "ONLINE_PRESETS",
    "offline_preset",
    "online_preset",
]
