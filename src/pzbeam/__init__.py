"""Coupled 1D constitutive models for laminated piezoelectric beams."""

from .beam import (
    Beam,
    BeamError,
    cantilever_tip_deflection,
    coupling_factor,
    free_actuation_state,
    make_beam,
    modal_frequencies,
    sensor_charge,
)
from .materials import (
    EPS0,
    Material3D,
    MaterialDForm,
    MaterialError,
    PlaneMaterial,
    as_plane,
    builtin_materials,
    condense_to_plane,
    convert_d_to_e,
    isotropic_elastic,
    load_material_db,
)
from .oracle import discretized_oracle, oracle_transverse_multipliers
from .section import (
    Closure,
    ClosureComparison,
    GeneralizedState,
    Layer,
    LayupError,
    Section,
    SectionConstitutive,
    StressProfile,
    build_section,
    capacitance_per_length,
    compare_closures,
    load_layup,
    nsr_transverse_field,
    recover_stress_profile,
    reduce_section,
)

__version__ = "0.1.0"
