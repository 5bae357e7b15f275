"""Cross-validation of the analytic reduction against the discretized oracle."""

import numpy as np
import pytest

import pzbeam.section
from pzbeam import (
    Section,
    build_section,
    discretized_oracle,
    nsr_transverse_field,
    oracle_transverse_multipliers,
    reduce_section,
)

from conftest import random_plane_material, random_section, section_of

CLOSURES = ("nd", "ns", "nsr")


def rel_distance(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(a)


@pytest.mark.parametrize("closure", CLOSURES)
def test_single_sublayer_matches_analytic(sandwich, closure):
    analytic = reduce_section(sandwich, closure)
    oracle = discretized_oracle(sandwich, closure, 1)
    assert rel_distance(analytic.matrix, oracle.matrix) <= 1e-12


@pytest.mark.parametrize("closure", CLOSURES)
def test_fine_discretization_random_stack(closure):
    rng = np.random.default_rng(7)
    for _ in range(5):
        section = random_section(rng)
        analytic = reduce_section(section, closure)
        oracle = discretized_oracle(section, closure, 200)
        assert rel_distance(analytic.matrix, oracle.matrix) <= 1e-8


@pytest.mark.parametrize("closure", CLOSURES)
def test_thin_skin_far_from_midplane(pzt_plane, al_plane, closure):
    # a 1e-12 mm skin 1 mm off the mid-plane: plain z-moments of the skin
    # cancel to a few digits, the layer-centered ones keep full precision
    section = section_of(((al_plane, 2e-3), (pzt_plane, 1e-15, +1, True)),
                         width=0.01, wiring="independent")
    analytic = reduce_section(section, closure).matrix
    oracle = discretized_oracle(section, closure, 1).matrix
    scale = np.sqrt(np.abs(np.outer(np.diag(oracle), np.diag(oracle))))
    assert np.max(np.abs(analytic - oracle) / scale) <= 1e-13


def deep_independent_stack(rng, n_layers):
    """Random materials and thicknesses; every poled layer is electroded on its own terminal."""
    layers = []
    for i in range(n_layers):
        piezo = i % 3 != 1
        layers.append((random_plane_material(rng, piezo), 0.5e-3 * rng.uniform(0.05, 20.0),
                       int(rng.choice((-1, 1))) if piezo else 0, piezo))
    return section_of(layers, width=rng.uniform(2e-3, 0.1), wiring="independent")


@pytest.mark.parametrize("closure", CLOSURES)
@pytest.mark.parametrize("n_layers, seed", [(40, 1), (80, 2), (120, 3)])
def test_deep_independent_stack_matches_oracle(closure, n_layers, seed):
    section = deep_independent_stack(np.random.default_rng(seed), n_layers)
    analytic = reduce_section(section, closure).matrix
    oracle = discretized_oracle(section, closure, 1).matrix
    scale = np.sqrt(np.abs(np.outer(np.diag(oracle), np.diag(oracle))))
    assert np.max(np.abs(analytic - oracle) / scale) <= 1e-12


def test_oracle_multipliers_match_transverse_field(sandwich):
    field = nsr_transverse_field(sandwich)
    dual = oracle_transverse_multipliers(sandwich, 40)
    scale = np.max(np.abs(field))
    assert np.max(np.abs(field - dual)) <= 1e-10 * max(scale, 1.0)


def test_oracle_multipliers_random_sections():
    rng = np.random.default_rng(11)
    for _ in range(8):
        section = random_section(rng)
        field = nsr_transverse_field(section)
        dual = oracle_transverse_multipliers(section, 17)
        scale = max(np.max(np.abs(field)), 1.0)
        assert np.max(np.abs(field - dual)) <= 1e-10 * scale


def test_oracle_single_elastic_layer(al_plane):
    e_mod, b, h = 69e9, 0.02, 1.5e-3
    section = section_of(((al_plane, h),), width=b)
    k = discretized_oracle(section, "ns", 50)
    assert k.extension_stiffness == pytest.approx(e_mod * b * h, rel=1e-10)
    assert k.bending_stiffness == pytest.approx(e_mod * b * h ** 3 / 12, rel=1e-10)


def test_oracle_capacitance_blocks_positive(sandwich):
    for closure in CLOSURES:
        k = discretized_oracle(sandwich, closure, 10)
        assert np.min(np.linalg.eigvalsh(k.cq)) > 0.0


@pytest.mark.parametrize("n", [0, -1, 2.5, "3"])
def test_invalid_sublayer_count(sandwich, n):
    with pytest.raises(ValueError, match="sublayer count must be an integer of at least 1"):
        discretized_oracle(sandwich, "nsr", n)


def test_oracle_reads_no_layer_table(sandwich, monkeypatch):
    """The oracle is an independent check: it reads only the Section's layer columns."""
    sections = (sandwich, deep_independent_stack(np.random.default_rng(5), 16))

    def run():
        return [discretized_oracle(s, c, 3).matrix for s in sections for c in CLOSURES] + \
            [oracle_transverse_multipliers(s, 3) for s in sections]

    expected = run()

    def forbidden(self):
        raise AssertionError("the oracle read Section._table")

    monkeypatch.setattr(Section, "_table", property(forbidden), raising=False)
    for a, b in zip(run(), expected, strict=True):
        assert np.array_equal(a, b)


def test_oracle_of_a_built_section_equals_that_of_its_columns(count_calls):
    layup = {"width_mm": 12.0, "wiring": "independent", "layers": [
        {"material": "PZT-5H", "thickness_mm": 0.2, "poling": "-z" if i % 4 else "+z",
         "electroded": True} if i % 2 == 0 else {"material": "Al-6061", "thickness_mm": 0.5}
        for i in range(9)]}
    built = build_section(layup)
    calls = count_calls(pzbeam.section, "_check_layer")
    got = [discretized_oracle(built, c, 3).matrix for c in CLOSURES]
    got.append(oracle_transverse_multipliers(built, 3))
    assert len(calls) == 0
    direct = Section(built.materials, built.thicknesses, built.polings, built.electroded,
                     built.width, built.wiring)
    want = [discretized_oracle(direct, c, 3).matrix for c in CLOSURES]
    want.append(oracle_transverse_multipliers(direct, 3))
    for a, b in zip(got, want, strict=True):
        assert a.tobytes() == b.tobytes()
