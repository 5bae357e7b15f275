"""Acceptance suite: one test per release criterion, one line printed each.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from pzbeam import (
    GeneralizedState,
    Layer,
    PlaneMaterial,
    Section,
    capacitance_per_length,
    cantilever_tip_deflection,
    coupling_factor,
    discretized_oracle,
    load_layup,
    make_beam,
    modal_frequencies,
    recover_stress_profile,
    reduce_section,
)
from pzbeam.cli import main as cli_main

from conftest import random_section, random_state

DOCS = Path(__file__).resolve().parent.parent / "docs"
CLOSURES = ("nd", "ns", "nsr")

# published capacitance comparison for the sandwich benchmark, nF/mm
BENCHMARK_CAPS = {"nd": 2.09, "ns": 3.62, "nsr": 2.81}
MEASURED_CAP = 2.86


def _ok(number: int, text: str):
    print(f"\nPASS criterion {number}: {text}")


def test_criterion_1_benchmark_capacitance_comparison():
    """Sandwich benchmark: blocked parallel capacitance per closure.

    The headline 'capacitance per unit line' is the blocked constitutive
    coefficient of the mirror-poled parallel pair (see README conventions);
    absolute agreement depends on the shipped ceramic dataset, hence the
    +-8% tolerance and the 5% check against the measured value.
    """
    start = time.perf_counter()
    section = load_layup(DOCS / "sandwich.json")
    caps = {}
    for closure in CLOSURES:
        k = reduce_section(section, closure)
        caps[closure] = capacitance_per_length(k, "blocked") * 1e6   # nF/mm
    elapsed = time.perf_counter() - start

    for closure, target in BENCHMARK_CAPS.items():
        assert abs(caps[closure] - target) / target <= 0.08, (closure, caps[closure])
    assert caps["nd"] < caps["nsr"] < caps["ns"]
    assert abs(caps["nsr"] - MEASURED_CAP) / MEASURED_CAP <= 0.05
    assert elapsed < 1.0
    _ok(1, "capacitance per unit line ND/NS/NSR = "
           f"{caps['nd']:.4f}/{caps['ns']:.4f}/{caps['nsr']:.4f} nF/mm vs "
           f"{BENCHMARK_CAPS['nd']}/{BENCHMARK_CAPS['ns']}/{BENCHMARK_CAPS['nsr']} "
           f"(+-8%), ordering strict, NSR within 5% of measured {MEASURED_CAP} "
           f"[{elapsed:.3f} s] (dataset-dependent: shipped vendor-derived PZT-5H)")


def test_criterion_2_nsr_resultant_annihilation():
    """1000 randomized layups and states: recovered T22 has null resultants."""
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst_n2 = worst_m2 = 0.0
    for _ in range(1000):
        section = random_section(rng, min_layers=2)
        state = random_state(rng, section)
        profile = recover_stress_profile(section, "nsr", state, samples_per_layer=3)
        t22_max = np.max(np.abs(profile.samples[:, 3]))
        if t22_max == 0.0:
            assert profile.n2 == 0.0 and profile.m2 == 0.0
            continue
        h = section.thickness
        worst_n2 = max(worst_n2, abs(profile.n2) / (t22_max * h))
        worst_m2 = max(worst_m2, abs(profile.m2) / (t22_max * h ** 2))
        assert abs(profile.n2) <= 1e-10 * t22_max * h
        assert abs(profile.m2) <= 1e-10 * t22_max * h ** 2
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _ok(2, f"N2, M2 annihilated on 1000 random layups; worst |N2|, |M2| = "
           f"{worst_n2:.2e}, {worst_m2:.2e} of the 1e-10 scale bound [{elapsed:.2f} s]")


def test_criterion_3_oracle_equivalence():
    """Analytic reduction vs discretized stationarity, n = 200 sublayers."""
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(100):
        section = random_section(rng)
        for closure in CLOSURES:
            analytic = reduce_section(section, closure).matrix
            oracle = discretized_oracle(section, closure, 200).matrix
            rel = np.linalg.norm(analytic - oracle) / np.linalg.norm(analytic)
            worst = max(worst, rel)
            assert rel <= 1e-8
    _ok(3, f"reduce_section vs discretized oracle (n=200), 100 layups x 3 closures, "
           f"worst relative Frobenius distance {worst:.2e} <= 1e-8")


def test_criterion_4_degeneracies():
    """Single homogeneous layer NSR == NS; elastic stack is a plain capacitor."""
    rng = np.random.default_rng(5)
    for _ in range(50):
        single = random_section(rng)
        while len(single.layers) > 1:
            single = random_section(rng)
        m_ns = reduce_section(single, "ns").matrix
        m_nsr = reduce_section(single, "nsr").matrix
        assert np.max(np.abs(m_ns - m_nsr)) <= 1e-12 * np.max(np.abs(m_ns))

    # zero-coupling stack: dielectric capacitance eps33 * width / h per layer
    width = 0.02
    diel_a = PlaneMaterial(name="da", Q11=60e9, Q12=18e9, Q22=60e9,
                           e31=0.0, e32=0.0, eps33=1.5e-8, density=7000.0)
    diel_b = PlaneMaterial(name="db", Q11=90e9, Q12=20e9, Q22=80e9,
                           e31=0.0, e32=0.0, eps33=4.0e-9, density=5000.0)
    stack = Section(layers=(
        Layer(diel_a, 0.4e-3, poling=+1, electroded=True),
        Layer(diel_b, 1.1e-3, poling=-1, electroded=True),
    ), width=width, wiring="parallel")
    expected = diel_a.eps33 * width / 0.4e-3 + diel_b.eps33 * width / 1.1e-3
    for closure in CLOSURES:
        k = reduce_section(stack, closure)
        assert np.max(np.abs(k.kme)) == 0.0
        assert capacitance_per_length(k, "blocked") == pytest.approx(expected, rel=1e-12)
        assert capacitance_per_length(k, "free") == pytest.approx(expected, rel=1e-12)
    _ok(4, "single-layer NSR == NS to 1e-12; elastic-only stack reduces to the "
           "pure dielectric capacitance with zero coupling")


def test_criterion_5_symmetry_and_decoupling():
    """Reciprocity on 1000 random layups; mirror sandwich decouples."""
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(1000):
        section = random_section(rng)
        closure = CLOSURES[int(rng.integers(0, 3))]
        m = reduce_section(section, closure).matrix
        rel = np.max(np.abs(m - m.T)) / np.max(np.abs(m))
        worst = max(worst, rel)
        assert rel <= 1e-12
    sandwich = load_layup(DOCS / "sandwich.json")
    k = reduce_section(sandwich, "nsr")
    h = sandwich.thickness
    assert abs(k.coupling_stiffness) <= 1e-12 * k.extension_stiffness * h
    assert abs(k.gm[0]) <= 1e-12 * abs(k.gk[0]) / h
    _ok(5, f"full-matrix symmetry on 1000 random layups, worst {worst:.2e} <= 1e-12; "
           "mirror sandwich has |B|, |gm| at the 1e-12 decoupling scale")


def test_criterion_6_beam_consistency():
    """Open vs short frequencies, scaling laws, bimorph against the
    classical uniaxial deflection formula."""
    sandwich = load_layup(DOCS / "sandwich.json")
    rng = np.random.default_rng(13)
    for _ in range(25):
        section = random_section(rng)
        closure = CLOSURES[int(rng.integers(0, 3))]
        beam = make_beam(section, closure, rng.uniform(0.05, 0.5))
        f_short = modal_frequencies(beam, "short", 4)
        f_open = modal_frequencies(beam, "open", 4)
        assert np.all(f_open >= f_short)

    k2 = coupling_factor(reduce_section(sandwich, "nsr"))
    for length, boundary in ((0.07, "cantilever"), (0.35, "simply-supported")):
        beam = make_beam(sandwich, "nsr", length, boundary)
        f_short = modal_frequencies(beam, "short", 4)
        f_open = modal_frequencies(beam, "open", 4)
        np.testing.assert_allclose((f_open ** 2 - f_short ** 2) / f_short ** 2, k2,
                                   rtol=0.0, atol=1e-12 * (1.0 + k2))

    d_short = cantilever_tip_deflection(make_beam(sandwich, "nsr", 0.1), [80.0])
    d_long = cantilever_tip_deflection(make_beam(sandwich, "nsr", 0.2), [80.0])
    assert d_long == 4.0 * d_short

    bimorph = load_layup(DOCS / "bimorph.json")
    d31, volts, length, h_total = -320e-12, 10.0, 50e-3, 1.0e-3
    deflection = cantilever_tip_deflection(make_beam(bimorph, "ns", length), [volts])
    classical = 3 * d31 * (2 * volts) * length ** 2 / (2 * h_total ** 2)
    ratio = deflection / classical
    assert ratio == pytest.approx(1.0, abs=0.15)
    assert ratio == pytest.approx(1.0, rel=1e-9)   # frozen regression value
    _ok(6, f"f_open >= f_short on random beams; k^2 = (f_open^2 - f_short^2)/f_short^2 to 1e-12; "
           f"tip deflection scales with L^2 exactly; bimorph/classical ratio "
           f"{ratio:.9f} within 15%")


def test_criterion_7_cli_determinism_and_roundtrip(capsys):
    """compare reproduces criterion-1 numbers; reduce JSON round-trips."""
    layup = str(DOCS / "sandwich.json")
    assert cli_main(["compare", "--layup", layup,
                     "--reference-capacitance", "2.86nF/mm"]) == 0
    first = capsys.readouterr().out
    assert cli_main(["compare", "--layup", layup,
                     "--reference-capacitance", "2.86nF/mm"]) == 0
    second = capsys.readouterr().out
    assert first == second
    for token in ("2.1322", "3.6180", "2.8310"):
        assert token in first

    assert cli_main(["reduce", "--layup", layup, "--model", "nsr",
                     "--output", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    reread = np.array(doc["matrix_rows_N_M_q_cols_eps_kappa_V"])
    k = reduce_section(load_layup(layup), "nsr")
    assert np.array_equal(reread, k.matrix)
    _ok(7, "compare output byte-identical across runs and carries the benchmark "
           "capacitances; reduce --output json round-trips the matrix bit-exactly")
