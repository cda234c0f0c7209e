from .synthetic import (
    SyntheticSpec,
    generate_synthetic,
    treatment_spec,
    two_switch_spec,
    xor_trap_spec,
)
from .point_mass import FlattenedEnv, PointMassEnv, point_mass_step
from .offline import generate_offline_dataset
