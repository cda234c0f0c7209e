"""Named learner configurations.

Online presets differ only in mixer kind, trunk sharing, augmentation,
and (for the mode-switching row) the evaluation-return threshold at
which augmentation turns off.  FLAT-DQN is the joint-action baseline:
run it on a flattened single-block environment and the per-head TD
update is an ordinary DQN over the whole action space.
"""

from __future__ import annotations

from ..errors import ConfigurationError
from .bcq import BcqConfig
from .dqn import DqnConfig

BCQ_TAU_GRID = (0.0, 0.01, 0.05, 0.1, 0.3, 0.5, 0.75, 0.9999)

ONLINE_PRESETS: dict[str, dict] = {
    "DECQN": {"mixer": "average", "shared_trunk": True, "augmentation": False},
    "DECQN-y": {"mixer": "average", "shared_trunk": True, "augmentation": True},
    "AD-DQN-1y": {"mixer": "relu", "shared_trunk": True, "augmentation": True},
    "AD-DQN-1n": {"mixer": "relu", "shared_trunk": True, "augmentation": False},
    "AD-DQN-2y": {"mixer": "linear", "shared_trunk": True, "augmentation": True},
    "AD-DQN-2n": {"mixer": "linear", "shared_trunk": True, "augmentation": False},
    "AD-DQN-3n": {"mixer": "linear", "shared_trunk": False, "augmentation": False},
    "AD-DQN-4": {
        "mixer": "linear",
        "shared_trunk": True,
        "augmentation": True,
        "model_free_switch_value": 500.0,
    },
    "FLAT-DQN": {"mixer": "average", "shared_trunk": True, "augmentation": False},
}

OFFLINE_PRESETS: dict[str, dict] = {
    "BCQ": {"variant": "flat"},
    "BCQ-f": {"variant": "factored"},
    "AD-BCQ": {"variant": "decomposed"},
}


def online_preset(name: str, **overrides) -> DqnConfig:
    if name not in ONLINE_PRESETS:
        raise ConfigurationError(
            f"unknown online preset {name!r}; choose from {', '.join(sorted(ONLINE_PRESETS))}"
        )
    return DqnConfig(**{**ONLINE_PRESETS[name], **overrides})


def offline_preset(name: str, **overrides) -> BcqConfig:
    if name not in OFFLINE_PRESETS:
        raise ConfigurationError(
            f"unknown offline preset {name!r}; choose from {', '.join(sorted(OFFLINE_PRESETS))}"
        )
    return BcqConfig(**{**OFFLINE_PRESETS[name], **overrides})
