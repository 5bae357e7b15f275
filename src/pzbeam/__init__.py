"""Coupled 1D constitutive models for laminated piezoelectric beams.

The package loads lazily (PEP 562): `import pzbeam` imports neither numpy
nor a submodule. The first use of an exported name imports the module that
defines it, so the CLI, which never uses the discretized oracle, never
imports pzbeam.oracle. `from pzbeam import *` and dir(pzbeam) see every
export. The `pzbeam` console script runs _cli_process.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "beam": ("Beam", "BeamError", "cantilever_tip_deflection", "coupling_factor",
             "free_actuation_state", "make_beam", "modal_frequencies", "sensor_charge"),
    "materials": ("EPS0", "Material3D", "MaterialDForm", "MaterialError", "PlaneMaterial",
                  "as_plane", "builtin_materials", "condense_to_plane", "convert_d_to_e",
                  "isotropic_elastic", "load_material_db"),
    "oracle": ("discretized_oracle", "oracle_transverse_multipliers"),
    "section": ("Closure", "ClosureComparison", "GeneralizedState", "LayupError", "Section",
                "SectionConstitutive", "StressProfile", "build_section", "capacitance_per_length",
                "compare_closures", "load_layup", "nsr_transverse_field",
                "recover_stress_profile", "reduce_section"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module    # local: keeps it out of the package namespace

    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


def _cli_process():
    """Run pzbeam.cli as __main__, as `python -m pzbeam.cli` does: it ends in os._exit."""
    import runpy

    runpy.run_module(f"{__name__}.cli", run_name="__main__", alter_sys=True)
