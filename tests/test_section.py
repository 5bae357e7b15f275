"""Section building, closure reduction, capacitance and stress recovery."""

import functools
import json
import re
from pathlib import Path

import numpy as np
import pytest

import pzbeam.materials
import pzbeam.section
from pzbeam import (
    Closure,
    GeneralizedState,
    LayupError,
    MaterialError,
    PlaneMaterial,
    Section,
    SectionConstitutive,
    as_plane,
    build_section,
    builtin_materials,
    capacitance_per_length,
    compare_closures,
    isotropic_elastic,
    condense_to_plane,
    free_actuation_state,
    load_layup,
    load_material_db,
    nsr_transverse_field,
    recover_stress_profile,
    reduce_section,
)

from conftest import columns_of, section_of, section_of_layup

DOCS = Path(__file__).resolve().parent.parent / "docs"
AL = condense_to_plane(isotropic_elastic("al", 69e9, 0.33, 2700.0))

DIELECTRIC = PlaneMaterial(name="dielectric", Q11=60e9, Q12=18e9, Q22=60e9,
                           e31=0.0, e32=0.0, eps33=1.5e-8, density=7500.0)


class TestBuildSection:
    def test_benchmark_sandwich_geometry(self):
        layup = {
            "width_mm": 17.8,
            "wiring": "parallel",
            "layers": [
                {"material": "PZT-5H", "thickness_mm": 0.27, "poling": "-z", "electroded": True},
                {"material": "Al-6061", "thickness_mm": 2.0, "poling": "none"},
                {"material": "PZT-5H", "thickness_mm": 0.27, "poling": "+z", "electroded": True},
            ],
        }
        s = build_section(layup)
        assert s.thickness == pytest.approx(2.54e-3, rel=1e-12)
        np.testing.assert_allclose(s.z_interfaces, (-1.27e-3, -1.0e-3, 1.0e-3, 1.27e-3),
                                   rtol=0, atol=1e-18)
        assert s.terminals == ((0, 2),)
        assert s.width == pytest.approx(17.8e-3)

    def test_single_layer_interfaces(self):
        s = section_of(((AL, 3e-3),), width=0.01)
        np.testing.assert_allclose(s.z_interfaces, (-1.5e-3, 1.5e-3), atol=1e-18)

    def test_unimorph_wiring(self):
        layers = [
            {"material": "PZT-5H", "thickness_mm": 0.3, "poling": "+z", "electroded": True},
            {"material": "Al-6061", "thickness_mm": 1.0, "poling": "none"},
        ]
        parallel = build_section({"width_mm": 10, "wiring": "parallel", "layers": layers})
        independent = build_section({"width_mm": 10, "wiring": "independent", "layers": layers})
        assert parallel.n_terminals == 1
        assert independent.n_terminals == 1
        two = build_section({"width_mm": 10, "wiring": "independent", "layers": [
            {"material": "PZT-5H", "thickness_mm": 0.3, "poling": "+z", "electroded": True},
            {"material": "PZT-5H", "thickness_mm": 0.3, "poling": "-z", "electroded": True},
        ]})
        assert two.terminals == ((0,), (1,))

    def test_unknown_material(self):
        with pytest.raises(LayupError, match="unknown material"):
            build_section({"width_mm": 10, "layers": [
                {"material": "unobtainium", "thickness_mm": 1.0}]})

    def test_zero_layers(self):
        with pytest.raises(LayupError, match="no layers"):
            build_section({"width_mm": 10, "layers": []})

    def test_electroded_elastic_layer(self):
        with pytest.raises(LayupError, match="electroded"):
            build_section({"width_mm": 10, "layers": [
                {"material": "Al-6061", "thickness_mm": 1.0, "electroded": True}]})

    def test_poled_layer_needs_poling_for_coupling(self, pzt_plane):
        with pytest.raises(LayupError, match="poling"):
            section_of(((pzt_plane, 1e-3, 0),), width=0.01)

    def test_bad_inputs(self):
        with pytest.raises(LayupError):
            section_of(((AL, 1e-3),), width=-1.0)
        with pytest.raises(LayupError):
            section_of(((AL, 1e-3),), width=0.01, wiring="serial")
        with pytest.raises(LayupError):
            section_of(((AL, 0.0),), width=0.01)
        for poling in (2, [1]):
            with pytest.raises(LayupError, match="poling must be -1, 0 or \\+1"):
                section_of(((AL, 1e-3, poling),), width=0.01)
        with pytest.raises(LayupError, match="at least one layer"):
            Section((), (), (), (), width=0.01)

    def test_electroded_must_be_bool(self):
        for value in ("false", "true", 0, 1, None):
            with pytest.raises(LayupError, match="'electroded'"):
                build_section({"width_mm": 10, "layers": [
                    {"material": "PZT-5H", "thickness_mm": 0.3, "poling": "+z",
                     "electroded": value}]})


    @pytest.mark.parametrize("field, value", [("material", ["PZT-5H"]), ("material", 5),
                                              ("poling", 1), ("poling", ["+z"]),
                                              ("wiring", ["parallel"]), ("wiring", None)])
    def test_string_fields_must_be_strings(self, field, value):
        layer = {"material": "PZT-5H", "thickness_mm": 0.3, "poling": "+z", "electroded": True}
        layup = {"width_mm": 10, "layers": [layer]}
        (layup if field == "wiring" else layer)[field] = value
        with pytest.raises(LayupError, match=f"'{field}' must be a string"):
            build_section(layup)

    @pytest.mark.parametrize("where, key, hint", [
        ("layer", "electrode", "electroded"), ("layer", "thickness", "thickness_mm"),
        ("layup", "width", "width_mm"), ("layup", "wirring", "wiring")])
    def test_unknown_key_names_nearest(self, where, key, hint):
        layer = {"material": "PZT-5H", "thickness_mm": 0.3, "poling": "+z", "electroded": True}
        layup = {"width_mm": 10, "layers": [layer]}
        (layer if where == "layer" else layup)[key] = True
        with pytest.raises(LayupError, match=f"unknown {where} key '{key}' "
                                             f"\\(did you mean '{hint}'\\?\\)"):
            build_section(layup)

    @pytest.mark.parametrize("second", [{"thickness_mm": 1.0},
                                        {"material": "Al-6061", "thickness_mm": 1.0, "colour": 1}])
    def test_first_layer_fault_is_named_before_a_later_key_fault(self, second):
        # a reader that checked every layer's keys before any layer's
        # material would name the second layer's key instead
        layers = [{"material": "Unobtainium", "thickness_mm": 1.0}, second]
        with pytest.raises(LayupError, match="unknown material 'Unobtainium'"):
            build_section({"width_mm": 10, "layers": layers})

    def test_thickness_fault_is_named_before_a_later_unknown_key(self):
        layers = [{"material": "Al-6061", "thickness_mm": 1e-40},
                  {"material": "Al-6061", "thickness_mm": 1.0, "electrode": True}]
        with pytest.raises(LayupError, match="layer thickness must be positive and finite"):
            build_section({"width_mm": 10, "layers": layers})

    @pytest.mark.parametrize("first, fault", [
        ({"material": "Al-6061", "thickness_mm": 1e-40}, "layer thickness must be positive"),
        ({"material": "X", "thickness_mm": 1.0, "poling": "up"}, "unknown poling 'up'")],
        ids=["thickness", "poling"])
    def test_layer_fault_is_named_before_a_record_fault(self, first, fault):
        # the layer kinds are checked before the layers are checked one by
        # one, so a bad record must not be named before an earlier fault
        layers = [first, {"material": "X", "thickness_mm": 1.0}]
        materials = {"X": "not a record"}
        with pytest.raises(LayupError, match=fault):
            build_section({"width_mm": 10, "layers": layers}, materials)
        with pytest.raises(MaterialError, match="unsupported material record type str"):
            build_section({"width_mm": 10, "layers": layers[1:]}, materials)

    @pytest.mark.parametrize("layup", [[], "layers", {"width_mm": 10, "layers": "PZT-5H"},
                                       {"width_mm": 10, "layers": ["PZT-5H"]},
                                       {"width_mm": "wide", "layers": [{}]},
                                       {"width_mm": 10, "layers": [{"material": "PZT-5H",
                                                                    "thickness_mm": 0.3,
                                                                    "poling": "up"}]}])
    def test_malformed_structure(self, layup):
        with pytest.raises(LayupError):
            build_section(layup)


class TestFiniteInputs:
    LAYER = {"material": "Al-6061", "thickness_mm": 1.0}

    def test_infinite_width(self):
        with pytest.raises(LayupError, match="finite"):
            build_section({"width_mm": "inf", "layers": [self.LAYER]})
        with pytest.raises(LayupError, match="finite"):
            section_of(((AL, 1e-3),), width=np.inf)

    def test_non_finite_thickness(self):
        with pytest.raises(LayupError, match="finite"):
            build_section({"width_mm": 10, "layers": [dict(self.LAYER, thickness_mm="inf")]})
        for thickness in (np.inf, np.nan):
            with pytest.raises(LayupError):
                section_of(((AL, thickness),), width=0.01)

    @pytest.mark.parametrize("length", [0.5e-30, 2e30, 1e300])
    def test_length_out_of_range(self, length):
        bounds = f"must be positive and finite, between 1e-30 and 1e+30 m, got {length}"
        with pytest.raises(LayupError, match=re.escape(f"layer thickness {bounds}")):
            section_of(((AL, length),), width=0.01)
        with pytest.raises(LayupError, match=re.escape(f"width {bounds}")):
            section_of(((AL, 1e-3),), width=length)

    NOT_NUMBERS = ["1", None, 1j, np.array([1e-3, 2e-3]), True]

    @pytest.mark.parametrize("thickness", NOT_NUMBERS, ids=repr)
    def test_thickness_that_is_not_a_number(self, thickness):
        with pytest.raises(LayupError, match=re.escape(f"layer thickness must be positive "
                                                       f"and finite, between 1e-30 and 1e+30 m, "
                                                       f"got {thickness!r}")):
            Section((AL,), (thickness,), (0,), (False,), 0.01)

    @pytest.mark.parametrize("width", NOT_NUMBERS + ["0.01"], ids=repr)
    def test_width_that_is_not_a_number(self, width):
        with pytest.raises(LayupError, match=re.escape(f"width must be positive and finite, "
                                                       f"between 1e-30 and 1e+30 m, "
                                                       f"got {width!r}")):
            Section((AL,), (1e-3,), (0,), (False,), width)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix(self, bad):
        # NaN fails no eigenvalue comparison, so finiteness is checked first
        matrix = np.eye(3)
        matrix[2, 2] = bad
        with pytest.raises(LayupError, match="non-finite"):
            SectionConstitutive(matrix)

    def test_matrix_shape_checked(self):
        for matrix, shape in ((np.eye(4)[:3], "(3, 4)"), ([[1.0]], "(1, 1)")):
            with pytest.raises(LayupError, match=re.escape(
                    f"has shape {shape}, expected a square matrix of order at least 2")):
                SectionConstitutive(matrix)


class TestPositiveDefiniteness:
    @staticmethod
    def _constitutive(kmm, cq):
        t = len(cq)
        matrix = np.zeros((2 + t, 2 + t))
        matrix[:2, :2] = kmm
        matrix[2:, 2:] = cq
        return SectionConstitutive(matrix)

    def test_definite_blocks_accepted(self):
        k = self._constitutive([[2.0, 1.0], [1.0, 2.0]], [[3e-8, 1e-8], [1e-8, 3e-8]])
        assert k.n_terminals == 2

    def test_indefinite_stiffness_rejected(self):
        with pytest.raises(LayupError, match="stiffness block is not positive definite"):
            self._constitutive([[1.0, 2.0], [2.0, 1.0]], [[1e-8]])

    def test_indefinite_capacitance_rejected(self):
        with pytest.raises(LayupError, match="capacitance block is not positive definite"):
            self._constitutive(np.eye(2), [[1e-8, 0.0], [0.0, -1e-9]])

    def test_singular_capacitance_rejected(self):
        # positive semidefinite: eigenvalues 2e-8 and exactly 0
        with pytest.raises(LayupError, match="capacitance block is not positive definite"):
            self._constitutive(np.eye(2), [[1e-8, 1e-8], [1e-8, 1e-8]])

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_diagonal_capacitance_with_zero_rejected(self, zero):
        # exactly diagonal, as under ND and NS: tested without a factorization
        with pytest.raises(LayupError, match="capacitance block is not positive definite"):
            self._constitutive(np.eye(2), np.diag([1e-8, zero, 2e-8]))

    def test_diagonal_stiffness_with_negative_entry_rejected(self):
        # B = 0, as on a mirror-symmetric stack
        with pytest.raises(LayupError, match="stiffness block is not positive definite"):
            self._constitutive(np.diag([1.0, -1e-9]), [[1e-8]])

    def test_symmetric_part_is_tested(self):
        # the lower triangle alone, [[1, 0], [-3, 1]], has no Cholesky factor;
        # the symmetric part, the identity, has one
        matrix = np.eye(3)
        matrix[0, 1], matrix[1, 0] = 3.0, -3.0
        SectionConstitutive(matrix)


class TestReduceSection:
    def test_single_elastic_layer_ns(self):
        e_mod, b, h = 69e9, 0.02, 1.5e-3
        s = section_of(((AL, h),), width=b)
        k = reduce_section(s, "ns")
        assert k.extension_stiffness == pytest.approx(e_mod * b * h, rel=1e-12)
        assert k.bending_stiffness == pytest.approx(e_mod * b * h ** 3 / 12, rel=1e-12)
        assert abs(k.coupling_stiffness) < 1e-12 * k.extension_stiffness * h

    def test_single_elastic_layer_nd(self):
        e_mod, nu, b, h = 69e9, 0.33, 0.02, 1.5e-3
        s = section_of(((AL, h),), width=b)
        k = reduce_section(s, "nd")
        assert k.extension_stiffness == pytest.approx(e_mod * b * h / (1 - nu ** 2), rel=1e-12)
        assert k.bending_stiffness == pytest.approx(e_mod * b * h ** 3 / (12 * (1 - nu ** 2)),
                                                    rel=1e-12)

    def test_closure_coercion(self, sandwich):
        assert reduce_section(sandwich, Closure.NSR).matrix == pytest.approx(
            reduce_section(sandwich, "NSR").matrix)
        assert Closure.coerce("NSR") is Closure.coerce("nsr") is Closure.NSR
        for bad in ("bogus", ["nd"]):    # an unhashable value too
            with pytest.raises(LayupError, match="closure"):
                reduce_section(sandwich, bad)

    def test_benchmark_capacitances_regression(self, sandwich):
        """Frozen values of the shipped sandwich; see the acceptance suite for
        the comparison against the published reference."""
        expected = {"nd": 2.1322436670896985e-06,
                    "ns": 3.6179954434808386e-06,
                    "nsr": 2.8309686282311343e-06}
        for closure, value in expected.items():
            k = reduce_section(sandwich, closure)
            assert capacitance_per_length(k, "blocked") == pytest.approx(value, rel=1e-10)

    def test_mirror_sandwich_decouples(self, sandwich):
        k = reduce_section(sandwich, "nsr")
        scale_b = k.extension_stiffness * sandwich.thickness
        scale_g = abs(k.gk[0]) / sandwich.thickness
        assert abs(k.coupling_stiffness) <= 1e-12 * scale_b
        assert abs(k.gm[0]) <= 1e-12 * scale_g

    def test_same_poled_sandwich_couples_extension(self, same_poled_sandwich):
        k = reduce_section(same_poled_sandwich, "nsr")
        assert abs(k.gm[0]) > 0.1
        assert abs(k.gk[0]) <= 1e-12 * abs(k.gm[0]) * same_poled_sandwich.thickness

    def test_full_matrix_symmetric(self, sandwich, unimorph):
        for section in (sandwich, unimorph):
            for closure in ("nd", "ns", "nsr"):
                m = reduce_section(section, closure).matrix
                assert np.max(np.abs(m - m.T)) <= 1e-12 * np.max(np.abs(m))


class TestCapacitance:
    def test_dielectric_limit(self):
        b, h = 0.02, 1e-3
        s = section_of(((DIELECTRIC, h, +1, True),), width=b)
        k = reduce_section(s, "nsr")
        expected = DIELECTRIC.eps33 * b / h
        assert capacitance_per_length(k, "blocked") == pytest.approx(expected, rel=1e-12)
        assert capacitance_per_length(k, "free") == pytest.approx(expected, rel=1e-12)
        assert np.max(np.abs(k.kme)) == 0.0

    def test_free_exceeds_blocked(self, sandwich, unimorph):
        for section in (sandwich, unimorph):
            for closure in ("nd", "ns", "nsr"):
                k = reduce_section(section, closure)
                assert capacitance_per_length(k, "free") >= capacitance_per_length(k, "blocked")

    def test_free_matches_energy_condensation(self, unimorph):
        # independent route: flip the electrical block back to the energy
        # Hessian and condense the mechanics out at zero force; the Schur
        # complement is minus the free capacitance
        k = reduce_section(unimorph, "nsr")
        h = k.matrix.copy()
        h[2:, 2:] *= -1.0
        schur = h[2:, 2:] - h[2:, :2] @ np.linalg.solve(h[:2, :2], h[:2, 2:])
        assert capacitance_per_length(k, "free") == pytest.approx(-schur[0, 0], rel=1e-12)
        # two-point difference of the released charge under force-free actuation
        x = np.linalg.solve(k.kmm, -k.kme[:, 0])
        q_step = -k.kme[:, 0] @ x + k.cq[0, 0]   # physical sensing sign
        assert q_step >= k.cq[0, 0]
        assert capacitance_per_length(k, "free") == pytest.approx(q_step, rel=1e-12)

    def test_bad_terminal(self, sandwich):
        k = reduce_section(sandwich, "nsr")
        with pytest.raises(LayupError, match="terminal"):
            capacitance_per_length(k, "blocked", terminal=3)
        with pytest.raises(LayupError, match="condition"):
            capacitance_per_length(k, "clamped")


class TestTransverseField:
    def test_single_homogeneous_elastic_layer(self):
        s = section_of(((AL, 2e-3),), width=0.01)
        a, b = nsr_transverse_field(s)[0]   # unit eps
        assert a == pytest.approx(-AL.Q12 / AL.Q22, rel=1e-12)
        assert abs(b) < 1e-9
        profile = recover_stress_profile(s, "nsr", GeneralizedState(eps=1e-4))
        assert np.max(np.abs(profile.samples[:, 3])) <= 1e-12 * AL.Q11 * 1e-4

    def test_symmetric_sandwich_even_odd_split(self, sandwich):
        tf = nsr_transverse_field(sandwich)
        a_eps, b_eps = tf[0]
        scale = abs(a_eps)
        assert abs(b_eps) * sandwich.thickness <= 1e-10 * scale
        # mirror-poled pair under the shared terminal: odd field, even part vanishes
        a_v, b_v = tf[2]
        assert abs(a_v) <= 1e-12 * abs(b_v) * sandwich.thickness
        assert b_v == pytest.approx(6.33341625050860e-04, rel=1e-10)

    def test_same_poled_sandwich_even_field(self, same_poled_sandwich):
        a_v, b_v = nsr_transverse_field(same_poled_sandwich)[2]
        assert abs(b_v) * same_poled_sandwich.thickness <= 1e-12 * abs(a_v)
        assert a_v != 0.0


class TestStressProfile:
    def test_ns_closure_null_transverse_stress(self, sandwich):
        state = GeneralizedState(eps=1e-4, kappa=0.2, voltages=(120.0,))
        profile = recover_stress_profile(sandwich, "ns", state)
        assert np.max(np.abs(profile.samples[:, 3])) == 0.0
        assert profile.n2 == 0.0 and profile.m2 == 0.0

    def test_nd_closure_uniform_reaction(self):
        s = section_of(((AL, 2e-3),), width=0.01)
        eps = 1e-4
        profile = recover_stress_profile(s, "nd", GeneralizedState(eps=eps))
        np.testing.assert_allclose(profile.samples[:, 3], AL.Q12 * eps, rtol=1e-12)

    def test_nsr_annihilates_resultants(self, sandwich):
        state = GeneralizedState(voltages=(100.0,))
        profile = recover_stress_profile(sandwich, "nsr", state)
        t22_max = np.max(np.abs(profile.samples[:, 3]))
        h = sandwich.thickness
        assert t22_max > 1e5   # genuinely nonzero transverse stress
        assert abs(profile.n2) <= 1e-10 * t22_max * h
        assert abs(profile.m2) <= 1e-10 * t22_max * h ** 2
        # transverse stress pulls opposite ways in the ceramic and the core
        bottom_mid = profile.samples[5]       # default 11 points/layer
        core = profile.samples[11 + 3]
        assert bottom_mid[3] * core[3] < 0.0

    def test_midpoint_matches_coefficients(self, unimorph):
        state = GeneralizedState(eps=5e-5, kappa=0.1, voltages=(50.0,))
        profile = recover_stress_profile(unimorph, "nsr", state, samples_per_layer=3)
        z = unimorph.z_interfaces
        for i in range(len(unimorph.thicknesses)):
            zm = 0.5 * (z[i] + z[i + 1])
            c0, c1 = profile.t11_coefficients[i]
            row = profile.samples[3 * i + 1]
            assert row[1] == pytest.approx(zm, rel=1e-15)
            assert row[2] == c0 + c1 * row[1]

    @pytest.mark.parametrize("n", [0, 1, -1, 2.0, True, "11"])
    def test_samples_per_layer_must_be_int_of_at_least_two(self, sandwich, n):
        with pytest.raises(LayupError, match="samples per layer"):
            recover_stress_profile(sandwich, "nsr", GeneralizedState(voltages=(1.0,)),
                                   samples_per_layer=n)

    @pytest.mark.parametrize("n", [2, 3, np.int64(7), 11])
    def test_samples_match_linspace(self, n):
        # at n = 11 one layer's bottom + 10 * step misses its top face by an
        # ulp, which linspace replaces by the top face
        section = build_section(MIXED_LAYUP)
        profile = recover_stress_profile(section, "nsr",
                                         GeneralizedState(voltages=(1.0, 2.0, 3.0)),
                                         samples_per_layer=n)
        z = section.z_interfaces
        want = np.linspace(z[:-1], z[1:], n, axis=1).ravel()
        assert profile.samples[:, 1].tobytes() == want.tobytes()

    def test_voltage_count_checked(self, sandwich):
        with pytest.raises(LayupError, match="voltages"):
            recover_stress_profile(sandwich, "ns", GeneralizedState(eps=1e-4))


class TestTransverseResultants:
    def test_zero_stress(self, sandwich):
        profile = recover_stress_profile(sandwich, "ns", GeneralizedState(voltages=(10.0,)))
        assert (profile.n2, profile.m2) == (0.0, 0.0)

    def test_pure_gradient_closed_form(self):
        # T22 = c*z over a single centered layer: N2 = 0, M2 = c h^3 / 12
        s = section_of(((AL, 2e-3),), width=0.01)
        profile = recover_stress_profile(s, "nd", GeneralizedState(kappa=0.1))
        c = AL.Q12 * 0.1
        n2, m2 = profile.n2, profile.m2
        assert n2 == pytest.approx(0.0, abs=1e-12 * abs(c) * (2e-3) ** 2)
        assert m2 == pytest.approx(c * (2e-3) ** 3 / 12, rel=1e-12)


class TestCompareClosures:
    def test_elastic_stack_decoupled(self):
        s = section_of(((AL, 1e-3), (AL, 2e-3)), width=0.01)
        rows = compare_closures(s)
        assert all(row.capacitance == 0.0 for row in rows)
        assert all(row.bending_voltage_coupling == 0.0 for row in rows)
        by = {row.closure: row for row in rows}
        ratio = by[Closure.ND].bending_stiffness_short / by[Closure.NS].bending_stiffness_short
        assert ratio == pytest.approx(1 / (1 - 0.33 ** 2), rel=1e-12)

    def test_single_piezo_layer_ns_equals_nsr(self, pzt_plane):
        s = section_of(((pzt_plane, 0.5e-3, +1, True),), width=0.02)
        by = {row.closure: row for row in compare_closures(s)}
        for attr in ("capacitance", "capacitance_free", "extension_stiffness",
                     "bending_stiffness_short", "bending_voltage_coupling"):
            ns, nsr = getattr(by[Closure.NS], attr), getattr(by[Closure.NSR], attr)
            assert nsr == pytest.approx(ns, rel=1e-12, abs=1e-300)

    def test_capacitance_ordering_on_shipped_layups(self, sandwich, unimorph):
        for section in (sandwich, unimorph):
            by = {row.closure: row for row in compare_closures(section)}
            assert by[Closure.ND].capacitance < by[Closure.NSR].capacitance \
                < by[Closure.NS].capacitance

    def test_single_piezo_layer_nd_differs(self, pzt_plane):
        # the rigid-transverse closure stays distinct whenever Q12 or e32 is live
        s = section_of(((pzt_plane, 0.5e-3, +1, True),), width=0.02)
        by = {row.closure: row for row in compare_closures(s)}
        assert by[Closure.ND].capacitance != pytest.approx(
            by[Closure.NS].capacitance, rel=1e-3)
        assert by[Closure.ND].extension_stiffness != pytest.approx(
            by[Closure.NS].extension_stiffness, rel=1e-3)


class TestIndependentWiring:
    def test_two_terminal_capacitance_blocks(self, pzt_plane):
        s = section_of((
            (pzt_plane, 0.4e-3, +1, True),
            (pzt_plane, 0.4e-3, -1, True),
        ), width=0.02, wiring="independent")
        # pointwise closures keep the terminals electrically independent
        k_ns = reduce_section(s, "ns")
        assert k_ns.cq.shape == (2, 2)
        assert abs(k_ns.cq[0, 1]) <= 1e-15 * k_ns.cq[0, 0]
        # the section-wide transverse field couples them, symmetrically
        k_nsr = reduce_section(s, "nsr")
        assert abs(k_nsr.cq[0, 1]) > 0.0
        assert k_nsr.cq[0, 1] == pytest.approx(k_nsr.cq[1, 0], rel=1e-12)

    def test_parallel_equals_summed_independent_charge(self, pzt_plane, al_plane):
        layers = ((pzt_plane, 0.3e-3, -1, True),
                  (al_plane, 1.5e-3),
                  (pzt_plane, 0.3e-3, +1, True))
        par = reduce_section(section_of(layers, width=0.02), "nsr")
        ind = reduce_section(section_of(layers, width=0.02, wiring="independent"), "nsr")
        # same voltage on every independent terminal == the parallel hookup
        ones = np.ones(2)
        assert par.cq[0, 0] == pytest.approx(ones @ ind.cq @ ones, rel=1e-12)
        # gm cancels between the two layers; summing the independent columns
        # leaves round-off at the scale of the per-layer couplings (~0.5 N/V)
        np.testing.assert_allclose(par.kme[:, 0], ind.kme @ ones, rtol=1e-12, atol=1e-13)


MIXED_LAYUP = {"width_mm": 12.0, "wiring": "independent", "layers": [
    {"material": "PZT-5H", "thickness_mm": 0.2, "poling": "-z", "electroded": True},
    {"material": "Al-6061", "thickness_mm": 0.9},
    {"material": "PZT-5H", "thickness_mm": 0.35, "poling": "+z", "electroded": True},
    {"material": "PZT-5H", "thickness_mm": 0.1, "poling": "+z"},
    {"material": "Al-6061", "thickness_mm": 0.4},
    {"material": "PZT-5H", "thickness_mm": 0.25, "poling": "-z", "electroded": True},
]}


class TestGeneralizedState:
    @pytest.mark.parametrize("kwargs", [dict(eps=np.nan), dict(kappa=-np.inf),
                                        dict(voltages=(1.0, np.inf)), dict(voltages=(np.nan,))])
    def test_non_finite_rejected(self, kwargs):
        with pytest.raises(LayupError, match="generalized state must be finite"):
            GeneralizedState(**kwargs)

    @pytest.mark.parametrize("kwargs", [dict(eps="1"), dict(kappa=None), dict(eps=1j),
                                        dict(kappa=np.array([1.0, 2.0])), dict(voltages=("x",)),
                                        dict(voltages=(1.0, None)), dict(voltages=5)], ids=repr)
    def test_values_that_are_not_numbers_rejected(self, kwargs):
        (field, value), = kwargs.items()
        with pytest.raises(LayupError, match="generalized state must be finite") as raised:
            GeneralizedState(**kwargs)
        assert f"{field}={value!r}" in str(raised.value)

    def test_finite_accepted(self):
        state = GeneralizedState(eps=1e-4, kappa=-0.2, voltages=(1, np.float64(2.5)))
        assert state.voltages == (1.0, 2.5)


class TestExactZeros:
    """Zeros by mirror symmetry or by wiring stay exact zeros.

    Elementwise products summed with .sum() cancel a mirrored pair exactly;
    a BLAS dot (@, np.dot, einsum) fuses multiply and add and leaves the
    rounding error of one product behind.
    """

    @pytest.mark.parametrize("closure", ["nd", "ns", "nsr"])
    def test_bimorph_decouples_exactly(self, bimorph, closure):
        k = reduce_section(bimorph, closure)
        assert k.coupling_stiffness == 0.0
        assert k.gm[0] == 0.0
        assert free_actuation_state(k, [100.0]).eps == 0.0
        assert k.gk[0] != 0.0

    @pytest.mark.parametrize("closure", ["nd", "ns"])
    def test_independent_terminals_decouple_exactly(self, closure):
        cq = reduce_section(build_section(MIXED_LAYUP), closure).cq
        assert cq.shape == (3, 3)
        assert np.all(cq[~np.eye(3, dtype=bool)] == 0.0)
        assert np.all(np.diag(cq) > 0.0)


class TestFactorizationCount:
    """Kmm is 2x2 and tested in closed form, and Cq is diagonal under ND and NS,
    so only NSR's 3x3 Cq is factored; only NSR solves a linear system."""

    @pytest.mark.parametrize("closure, factorizations", [("nd", 0), ("ns", 0), ("nsr", 1)])
    def test_cholesky_calls_per_reduction(self, count_calls, closure, factorizations):
        section = build_section(MIXED_LAYUP)
        calls = count_calls(np.linalg, "cholesky")
        k = reduce_section(section, closure)
        # B != 0 keeps Kmm off the diagonal, so its diagonal test does not apply
        assert (k.n_terminals, k.coupling_stiffness != 0.0) == (3, True)
        assert len(calls) == factorizations

    @pytest.mark.parametrize("closure, solves", [("nd", 0), ("ns", 0), ("nsr", 1)])
    def test_solve_calls_per_reduction_and_stress_recovery(self, count_calls, closure, solves):
        section = build_section(MIXED_LAYUP)
        calls = count_calls(np.linalg, "solve")
        reduce_section(section, closure)
        assert len(calls) == solves
        recover_stress_profile(section, closure, GeneralizedState(1e-4, 0.2, (1.0, -2.0, 3.0)))
        assert len(calls) == 2 * solves


class TestSharedTable:
    STATE = GeneralizedState(eps=2e-4, kappa=-0.3, voltages=(40.0, -15.0, 70.0))

    @staticmethod
    def _results(section, call):
        if call == "field":
            return (nsr_transverse_field(section),)
        kind, closure = call
        if kind == "reduce":
            return (reduce_section(section, closure).matrix,)
        p = recover_stress_profile(section, closure, TestSharedTable.STATE)
        return (p.t11_coefficients, p.t22_coefficients, p.samples, np.array((p.n2, p.m2)))

    def test_interleaved_calls_match_fresh_sections(self):
        shared = build_section(MIXED_LAYUP)
        calls = [("reduce", "nsr"), ("stress", "nsr"), "field", ("reduce", "nd"),
                 ("stress", "ns"), ("reduce", "ns"), ("stress", "nd"), "field",
                 ("reduce", "nsr"), ("stress", "nsr")]
        for call in calls:
            got = self._results(shared, call)
            want = self._results(build_section(MIXED_LAYUP), call)
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes(), call
        assert shared._table is shared._table

    def test_the_constructor_builds_the_one_table(self, count_calls):
        calls = count_calls(pzbeam.section, "_layer_table")
        section = build_section(MIXED_LAYUP)
        assert calls == [(section,)]
        for closure in ("nd", "ns", "nsr"):
            reduce_section(section, closure)
        recover_stress_profile(section, "nsr", self.STATE)
        assert len(calls) == 1
        assert not any(isinstance(value, functools.cached_property)
                       for value in vars(Section).values())

    def test_table_is_read_only(self):
        for column in build_section(MIXED_LAYUP)._table:
            with pytest.raises(ValueError, match="read-only"):
                column[(0,) * column.ndim] = 1


class TestLayerRecords:
    """The Section constructor is the one place that checks the layer rules."""

    LAYUP = {"width_mm": 12.0, "wiring": "independent", "layers": [
        {"material": "PZT-5H", "thickness_mm": 0.2, "poling": "-z" if i % 4 else "+z",
         "electroded": True} if i % 2 == 0 else {"material": "Al-6061", "thickness_mm": 0.5}
        for i in range(95)]}

    def test_no_layer_checks_on_the_reduction_path(self, count_calls):
        built = build_section(self.LAYUP)
        calls = count_calls(pzbeam.section, "_check_layer")
        section = Section(*columns_of(built), built.width, built.wiring)
        assert len(calls) == 95 and section == built
        for closure in ("nd", "ns", "nsr"):
            reduce_section(section, closure)
        state = GeneralizedState(eps=1e-4, kappa=0.2,
                                 voltages=tuple(range(section.n_terminals)))
        recover_stress_profile(section, "nsr", state)
        assert section.n_terminals == 48 and len(calls) == 95

    def test_layers_are_checked_once_each_up_to_the_first_fault(self, count_calls):
        calls = count_calls(pzbeam.section, "_check_layer")
        build_section(self.LAYUP)
        assert len(calls) == 95
        calls.clear()
        layers = [*self.LAYUP["layers"]]
        layers[10] = {**layers[10], "thickness_mm": 1e-40}
        with pytest.raises(LayupError, match="layer thickness"):
            build_section({**self.LAYUP, "layers": layers})
        assert len(calls) == 11


class TestConstructor:
    """Section(materials, thicknesses, polings, electroded, width, wiring)."""

    @pytest.mark.parametrize("at", [1, 2])
    def test_nan_thickness_above_the_first_layer_is_rejected(self, at):
        h = [1e-3, 2e-3, 3e-3]
        h[at] = np.nan
        assert 1e-30 <= min(h) and max(h) <= 1e30       # min and max skip it
        with pytest.raises(LayupError, match="layer thickness must be positive and finite"):
            section_of([(AL, t) for t in h], width=0.01)

    def test_columns_of_unequal_length_and_an_empty_stack_are_rejected(self):
        with pytest.raises(LayupError, match=re.escape("differ in length: (2, 1, 2, 2)")):
            Section((AL, AL), (1e-3,), (0, 0), (False, False), 0.01)
        with pytest.raises(LayupError, match="differ in length"):
            Section((AL,), (1e-3,), (0,), (), 0.01)
        with pytest.raises(LayupError, match="at least one layer"):
            Section((), (), (), (), 0.01)

    @pytest.mark.parametrize("name", ["sandwich", "unimorph", "bimorph"])
    def test_shipped_layup_equals_the_section_of_its_columns(self, name):
        layup = json.loads((DOCS / f"{name}.json").read_text())
        planes = {key: as_plane(record) for key, record in builtin_materials().items()}
        direct = section_of_layup(layup, planes)
        built = load_layup(DOCS / f"{name}.json")
        assert built == direct and hash(built) == hash(direct)
        for closure in ("nd", "ns", "nsr"):
            assert (reduce_section(built, closure).matrix.tobytes()
                    == reduce_section(direct, closure).matrix.tobytes())

    def test_a_direct_call_names_the_first_faulty_layer(self, pzt_plane):
        # layer 2 (PZT-5H with no poling) is the first faulty one; layer 3 fails too
        rows = [(AL, 1e-3), (pzt_plane, 1e-3, 1, True), (pzt_plane, 2e-3), (AL, 1e-3, 0, True)]
        layup = {"width_mm": 10, "layers": [
            {"material": "Al-6061", "thickness_mm": 1.0},
            {"material": "PZT-5H", "thickness_mm": 1.0, "poling": "+z", "electroded": True},
            {"material": "PZT-5H", "thickness_mm": 2.0},
            {"material": "Al-6061", "thickness_mm": 1.0, "electroded": True}]}
        for bad in (None, 0.0):     # layer 3 fails too: electroded unpoled, then also too thin
            if bad is not None:
                rows[3] = (AL, bad, 0, True)
                layup["layers"][3]["thickness_mm"] = bad
            with pytest.raises(LayupError) as built:
                build_section(layup)
            with pytest.raises(LayupError) as direct:
                section_of(rows, width=0.01)
            assert str(direct.value) == str(built.value)
            assert "PZT-5H has piezoelectric coupling" in str(built.value)


class TestMaterialMemo:
    @pytest.fixture
    def builds(self, monkeypatch):
        """Counts of the built-in record builds, under a fresh memo.

        Earlier tests have filled the process's memo; monkeypatch puts it
        back after the test.
        """
        counts = {"_pzt_5h": 0, "_al_6061": 0}
        for name in counts:
            build = getattr(pzbeam.materials, name)

            def wrapper(build=build, name=name):
                counts[name] += 1
                return build()

            monkeypatch.setattr(pzbeam.materials, name, wrapper)
        monkeypatch.setattr(pzbeam.materials, "_builtin_records",
                            functools.cache(pzbeam.materials._builtin_records.__wrapped__))
        return counts

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"convert_d_to_e": 0, "builtin_materials": 0}

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(pzbeam.materials, "convert_d_to_e")
        counted(pzbeam.section, "builtin_materials")
        return counts

    def test_second_build_converts_nothing(self, builds, calls):
        # the built-in records are built, and PZT-5H converted, once per process
        db = load_material_db()
        first = build_section(MIXED_LAYUP, db)
        assert {**builds, **calls} == {"_pzt_5h": 1, "_al_6061": 1, "convert_d_to_e": 1,
                                       "builtin_materials": 1}
        mappings = (None, db, {}, builtin_materials(), load_material_db(), {"X": AL})
        later = [build_section(MIXED_LAYUP, mapping) for mapping in mappings for _ in range(3)]
        later.append(load_layup(DOCS / "sandwich.json"))
        assert {**builds, **calls} == {"_pzt_5h": 1, "_al_6061": 1, "convert_d_to_e": 1,
                                       "builtin_materials": 20}
        assert all(s == first and s.materials[0] is first.materials[0] for s in later[:-1])
        assert as_plane(db["PZT-5H"]) is first.materials[0] is later[-1].materials[0]

    def test_each_call_returns_a_new_dict_over_the_same_records(self, builds):
        first = builtin_materials()
        first["PZT-5H"] = first.pop("Al-6061")
        first["extra"] = None
        again = builtin_materials()
        assert again is not first and list(again) == ["PZT-5H", "Al-6061"]
        assert isinstance(again["PZT-5H"], pzbeam.materials.MaterialDForm)
        assert all(again[name] is builtin_materials()[name] for name in again)
        assert build_section(MIXED_LAYUP).materials[0] is again["PZT-5H"].plane
        assert builds == {"_pzt_5h": 1, "_al_6061": 1}

    def test_mapping_shadows_builtin(self, calls):
        custom = isotropic_elastic("PZT-5H", 80e9, 0.3, 7000.0)
        layup = {"width_mm": 10, "layers": [
            {"material": "PZT-5H", "thickness_mm": 0.3, "poling": "+z", "electroded": True},
            {"material": "Al-6061", "thickness_mm": 1.0},
            {"material": "PZT-5H", "thickness_mm": 0.3, "poling": "-z", "electroded": True},
            {"material": "Al-6061", "thickness_mm": 1.0},
        ]}
        section = build_section(layup, {"PZT-5H": custom})
        assert section.materials[0] is custom.plane
        assert section.materials[2] is custom.plane
        # Al-6061 is missing from the mapping: the built-ins are built once
        assert calls == {"convert_d_to_e": 0, "builtin_materials": 1}
