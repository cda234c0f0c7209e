"""Factored-action reinforcement learning toolkit.

Modules:
    factored_mdp  tabular MDPs with per-block intervention semantics
    tabular       model-based factored policy iteration and model learning
    approx        float64 MLPs, decomposed Q networks, optimizers
    agents        online decomposed DQN and offline decomposed BCQ
    ope           weighted importance sampling with ESS-gated selection
    envs          synthetic spec generators and the point-mass task
    cli           command-line entry points
"""

from .errors import (
    ConfigurationError,
    DataError,
    DomainError,
    FrlError,
    NumericError,
    SelectionError,
    ShapeError,
    StateError,
    ValidationError,
)
from .factored_mdp import (
    FactoredMdpSpec,
    FactoredPolicy,
    NoopFactor,
    QTable,
    SigmaTable,
)
from .indexing import MixedRadix

__version__ = "0.1.0"
