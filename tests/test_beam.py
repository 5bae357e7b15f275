"""Beam-level statics, modal analysis and coupling factors."""

import re
import warnings

import numpy as np
import pytest

from pzbeam import (
    Beam,
    BeamError,
    cantilever_tip_deflection,
    coupling_factor,
    free_actuation_state,
    make_beam,
    modal_frequencies,
    reduce_section,
    sensor_charge,
)
from pzbeam.beam import BOUNDARIES, _boundary_eigenvalues
from pzbeam.materials import PlaneMaterial

from conftest import random_section, section_of

DIELECTRIC = PlaneMaterial(name="dielectric", Q11=60e9, Q12=18e9, Q22=60e9,
                           e31=0.0, e32=0.0, eps33=1.5e-8, density=7500.0)


class TestFreeActuation:
    def test_zero_voltage(self, sandwich):
        k = reduce_section(sandwich, "nsr")
        state = free_actuation_state(k, [0.0])
        assert state.eps == 0.0 and state.kappa == 0.0

    def test_mirror_sandwich_pure_bending(self, sandwich):
        k = reduce_section(sandwich, "nsr")
        state = free_actuation_state(k, [100.0])
        assert state.kappa != 0.0
        assert abs(state.eps) <= 1e-12 * abs(state.kappa) * sandwich.thickness

    def test_same_poled_sandwich_pure_extension(self, same_poled_sandwich):
        k = reduce_section(same_poled_sandwich, "nsr")
        state = free_actuation_state(k, [100.0])
        assert state.eps != 0.0
        assert abs(state.kappa) * same_poled_sandwich.thickness <= 1e-12 * abs(state.eps)

    def test_unimorph_fixture(self, unimorph):
        """Frozen 2x2 solve with the shipped records."""
        k = reduce_section(unimorph, "nsr")
        state = free_actuation_state(k, [100.0])
        assert state.eps == pytest.approx(2.330891306694728e-05, rel=1e-10)
        assert state.kappa == pytest.approx(-0.0868524496997991, rel=1e-10)

    def test_voltage_count_checked(self, sandwich):
        k = reduce_section(sandwich, "nsr")
        with pytest.raises(BeamError, match=r"voltages, got shape \(2,\)"):
            free_actuation_state(k, [1.0, 2.0])
        with pytest.raises(BeamError, match=r"voltages, got shape \(1, 1\)"):
            free_actuation_state(k, [[1.0]])


class TestTipDeflection:
    def test_zero_voltage(self, sandwich):
        beam = make_beam(sandwich, "nsr", 0.1)
        assert cantilever_tip_deflection(beam, [0.0]) == 0.0

    def test_length_squared_scaling(self, sandwich):
        d1 = cantilever_tip_deflection(make_beam(sandwich, "nsr", 0.1), [50.0])
        d2 = cantilever_tip_deflection(make_beam(sandwich, "nsr", 0.2), [50.0])
        assert d2 == 4.0 * d1

    def test_linear_in_voltage(self, unimorph):
        beam = make_beam(unimorph, "ns", 0.08)
        d1 = cantilever_tip_deflection(beam, [40.0])
        d3 = cantilever_tip_deflection(beam, [120.0])
        assert d3 == pytest.approx(3.0 * d1, rel=1e-12)

    def test_bimorph_against_classical_formula(self, bimorph):
        """Opposed pair, each layer under field 2V/h_total; classical series
        deflection 3 d31 V L^2 / (2 h^2) evaluated at the equivalent drive.

        The pointwise null-transverse-stress closure condenses to the uniaxial
        law when d31 = d32, so the ratio is 1 up to round-off; the transverse
        kinematics of the other closures shifts it.
        """
        d31 = -320e-12
        length, h_total, volts = 50e-3, 1.0e-3, 10.0
        beam = make_beam(bimorph, "ns", length)
        deflection = cantilever_tip_deflection(beam, [volts])
        classical = 3 * d31 * (2 * volts) * length ** 2 / (2 * h_total ** 2)
        ratio = deflection / classical
        assert ratio == pytest.approx(1.0, abs=0.15)
        assert ratio == pytest.approx(1.0, rel=1e-9)   # frozen regression
        nd_ratio = cantilever_tip_deflection(make_beam(bimorph, "nd", length), [volts]) / classical
        assert nd_ratio == pytest.approx(1.2896969696969693, rel=1e-9)

    def test_requires_cantilever(self, sandwich):
        beam = make_beam(sandwich, "nsr", 0.1, boundary="simply-supported")
        with pytest.raises(BeamError, match="cantilever"):
            cantilever_tip_deflection(beam, [1.0])


class TestSensorCharge:
    def test_zero_state(self, sandwich):
        k = reduce_section(sandwich, "nsr")
        assert np.all(sensor_charge(k) == 0.0)

    def test_extension_decoupled_on_mirror_sandwich(self, sandwich):
        k = reduce_section(sandwich, "nsr")
        q = sensor_charge(k, eps=1e-4)
        assert abs(q[0]) <= 1e-12 * abs(k.gk[0]) / sandwich.thickness * 1e-4

    def test_curvature_fixture_and_reciprocity(self, sandwich):
        k = reduce_section(sandwich, "nsr")
        kappa = 0.01
        q = sensor_charge(k, kappa=kappa)
        assert q[0] == pytest.approx(7.601769641523459e-06, rel=1e-10)
        # charge per unit curvature equals minus moment per unit voltage
        assert q[0] == pytest.approx(-k.gk[0] * kappa, rel=1e-12)

    @pytest.mark.parametrize("closure", ["nd", "ns", "nsr"])
    def test_open_circuit_stiffening(self, closure):
        # q = sensor_charge + Cq V = 0 and N = 0 at unit curvature: the moment
        # is the open-circuit bending stiffness, (1 + k^2) times the short one
        rng = np.random.default_rng(11)
        for _ in range(40):
            k = reduce_section(random_section(rng), closure)
            t = k.n_terminals
            system = np.zeros((1 + t, 1 + t))
            system[0, 0], system[0, 1:] = k.kmm[0, 0], k.kme[0]
            system[1:, 0], system[1:, 1:] = sensor_charge(k, eps=1.0), k.cq
            rhs = -np.concatenate(([k.kmm[0, 1]], sensor_charge(k, kappa=1.0)))
            eps, *volts = np.linalg.solve(system, rhs)
            moment = k.kmm[1, 0] * eps + k.kmm[1, 1] + k.kme[1] @ volts
            d_short = k.kmm[1, 1] - k.kmm[0, 1] * k.kmm[1, 0] / k.kmm[0, 0]
            assert moment == pytest.approx((1.0 + coupling_factor(k)) * d_short, rel=1e-10)


class TestModal:
    def test_zero_coupling_open_equals_short(self):
        section = section_of(((DIELECTRIC, 1e-3, +1, True),), width=0.02)
        beam = make_beam(section, "nsr", 0.1)
        np.testing.assert_array_equal(modal_frequencies(beam, "open", 5),
                                      modal_frequencies(beam, "short", 5))
        assert coupling_factor(beam.constitutive) == 0.0

    @pytest.mark.parametrize("closure", ["nd", "ns", "nsr"])
    def test_open_stiffening(self, sandwich, closure):
        beam = make_beam(sandwich, closure, 0.1)
        f_short = modal_frequencies(beam, "short", 4)
        f_open = modal_frequencies(beam, "open", 4)
        assert np.all(f_open >= f_short)

    def test_first_frequency_fixture(self, sandwich):
        """Hand evaluation of the closed form with the reduced stiffness."""
        beam = make_beam(sandwich, "nsr", 0.1)
        k = beam.constitutive
        d_eff = k.bending_stiffness - k.coupling_stiffness ** 2 / k.extension_stiffness
        expected = 1.8751040687119611 ** 2 / (2 * np.pi) * np.sqrt(
            d_eff / (beam.mass_per_length * 0.1 ** 4))
        got = modal_frequencies(beam, "short", 1)[0]
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(169.70182829403092, rel=1e-10)
        assert beam.mass_per_length == pytest.approx(0.1710936, rel=1e-12)

    def test_inverse_length_squared_scaling(self, sandwich):
        f1 = modal_frequencies(make_beam(sandwich, "nsr", 0.1), "short", 3)
        f2 = modal_frequencies(make_beam(sandwich, "nsr", 0.2), "short", 3)
        np.testing.assert_allclose(f2, f1 / 4.0, rtol=1e-12)

    def test_simply_supported_mode_ratios(self, sandwich):
        beam = make_beam(sandwich, "nsr", 0.15, boundary="simply-supported")
        f = modal_frequencies(beam, "short", 3)
        np.testing.assert_allclose(f / f[0], [1.0, 4.0, 9.0], rtol=1e-12)

    def test_cantilever_exact_roots(self, sandwich):
        # the published roots of cos(l) cosh(l) = -1
        published = [1.8751040687119611, 4.694091132974175, 7.854757438237613,
                     10.995540734875467, 14.13716839104647]
        np.testing.assert_allclose(_boundary_eigenvalues("cantilever", 5), published,
                                   rtol=1e-15, atol=0.0)
        beam = make_beam(sandwich, "nsr", 0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = modal_frequencies(beam, "short", 2000)
        assert np.all(np.isfinite(f)) and np.all(np.diff(f) > 0.0)

    @pytest.mark.parametrize("boundary", ["cantilever", "simply-supported"])
    def test_fractional_mode_count_rejected(self, sandwich, boundary):
        beam = make_beam(sandwich, "nsr", 0.1, boundary=boundary)
        with pytest.raises(BeamError, match="mode count"):
            modal_frequencies(beam, "short", 2.5)

    def test_validation(self, sandwich):
        beam = make_beam(sandwich, "nsr", 0.1)
        with pytest.raises(BeamError):
            modal_frequencies(beam, "grounded", 2)
        with pytest.raises(BeamError):
            modal_frequencies(beam, "short", 0)
        with pytest.raises(BeamError):
            make_beam(sandwich, "nsr", -0.1)
        for length in (1e-31, 1e31):
            with pytest.raises(BeamError, match=re.escape(
                    f"length must be positive and finite, between 1e-30 and 1e+30 m, "
                    f"got {length}")):
                make_beam(sandwich, "nsr", length)
        with pytest.raises(BeamError):
            Beam(constitutive=beam.constitutive, mass_per_length=0.0, length=0.1)
        with pytest.raises(BeamError, match="unknown boundary 'free'"):
            Beam(constitutive=beam.constitutive, mass_per_length=1.0, length=0.1,
                 boundary="free")


    @pytest.mark.parametrize("length", ["0.1", None, 1j, np.array([0.1, 0.2]), True], ids=repr)
    def test_length_that_is_not_a_number(self, sandwich, length):
        with pytest.raises(BeamError, match=re.escape(
                f"length must be positive and finite, between 1e-30 and 1e+30 m, "
                f"got {length!r}")):
            make_beam(sandwich, "nd", length)

class TestCouplingFactor:
    def test_fixtures_and_ordering(self, sandwich):
        """Frozen from the reduced matrices of the shipped sandwich."""
        k2 = {c: coupling_factor(reduce_section(sandwich, c)) for c in ("nd", "ns", "nsr")}
        assert k2["nd"] == pytest.approx(0.3276947057815043, rel=1e-9)
        assert k2["ns"] == pytest.approx(0.10791589677630035, rel=1e-9)
        assert k2["nsr"] == pytest.approx(0.12972668315608715, rel=1e-9)
        assert k2["ns"] < k2["nsr"] < k2["nd"]

    def test_no_terminals_is_exactly_zero(self, al_plane):
        section = section_of(((al_plane, 1e-3),), width=0.01)
        assert coupling_factor(reduce_section(section, "nsr")) == 0.0

    def test_matches_modal_definition(self):
        """k^2 = (f_open^2 - f_short^2) / f_short^2 of every mode, length and boundary."""
        rng = np.random.default_rng(31)
        for _ in range(300):
            section = random_section(rng)
            for closure in ("nd", "ns", "nsr"):
                k = reduce_section(section, closure)
                k2 = coupling_factor(k)
                assert k2 >= 0.0
                for boundary in BOUNDARIES:
                    beam = Beam(k, section.mass_per_length, rng.uniform(0.05, 0.5), boundary)
                    f_short = modal_frequencies(beam, "short", 6)
                    f_open = modal_frequencies(beam, "open", 6)
                    np.testing.assert_allclose((f_open ** 2 - f_short ** 2) / f_short ** 2, k2,
                                               rtol=0.0, atol=1e-12 * (1.0 + k2))
