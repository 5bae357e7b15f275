"""Shared fixtures: built-in materials, benchmark layups, random stacks."""

import numpy as np
import pytest

from pzbeam import (
    GeneralizedState,
    PlaneMaterial,
    Section,
    as_plane,
    builtin_materials,
)
from pzbeam.section import _POLING


def section_of(rows, width: float, wiring: str = "parallel") -> Section:
    """The Section of (material, thickness, poling, electroded) rows, bottom to top.

    A row may stop after the thickness (poling 0, not electroded) or after the
    poling (not electroded).
    """
    return Section(*zip(*(row + (0, False)[len(row) - 2:] for row in rows)), width, wiring)


def columns_of(section: Section) -> tuple:
    """The four per-layer columns of a section: materials, thicknesses, polings, electroded."""
    return section.materials, section.thicknesses, section.polings, section.electroded


def section_of_layup(layup: dict, planes: dict) -> Section:
    """The Section constructor called on the columns of a layup over named plane materials."""
    return section_of([(planes[l["material"]], l["thickness_mm"] * 1e-3,
                        _POLING[l.get("poling", "none")], l.get("electroded", False))
                       for l in layup["layers"]],
                      layup["width_mm"] * 1e-3, layup.get("wiring", "parallel"))


@pytest.fixture(scope="session")
def pzt_plane() -> PlaneMaterial:
    return as_plane(builtin_materials()["PZT-5H"])


@pytest.fixture(scope="session")
def al_plane() -> PlaneMaterial:
    return as_plane(builtin_materials()["Al-6061"])


@pytest.fixture(scope="session")
def sandwich(pzt_plane, al_plane) -> Section:
    """Mirror-poled PZT / Al / PZT benchmark stack, parallel wiring."""
    return section_of(((pzt_plane, 0.27e-3, -1, True),
                       (al_plane, 2.0e-3),
                       (pzt_plane, 0.27e-3, +1, True)), width=17.8e-3)


@pytest.fixture(scope="session")
def same_poled_sandwich(pzt_plane, al_plane) -> Section:
    return section_of(((pzt_plane, 0.27e-3, +1, True),
                       (al_plane, 2.0e-3),
                       (pzt_plane, 0.27e-3, +1, True)), width=17.8e-3)


@pytest.fixture(scope="session")
def unimorph(pzt_plane, al_plane) -> Section:
    return section_of(((pzt_plane, 0.27e-3, +1, True), (al_plane, 1.0e-3)), width=17.8e-3)


@pytest.fixture(scope="session")
def bimorph(pzt_plane) -> Section:
    """Opposed-poled pair, no core; each layer sees twice the series field."""
    return section_of(((pzt_plane, 0.5e-3, +1, True), (pzt_plane, 0.5e-3, -1, True)),
                      width=10e-3)


def random_plane_material(rng, piezo: bool) -> PlaneMaterial:
    q11 = rng.uniform(5e9, 3e11)
    q22 = rng.uniform(5e9, 3e11)
    q12 = rng.uniform(-0.9, 0.9) * np.sqrt(q11 * q22)
    if piezo:
        e31, e32 = rng.uniform(-35.0, 35.0, size=2)
        eps33 = rng.uniform(1e-9, 1e-7)
    else:
        e31 = e32 = 0.0
        eps33 = rng.uniform(1e-11, 1e-8)
    return PlaneMaterial(name="random", Q11=q11, Q12=q12, Q22=q22, e31=e31, e32=e32,
                         eps33=eps33, density=rng.uniform(1000.0, 10000.0))


def random_section(rng, require_terminal: bool = True, min_layers: int = 1) -> Section:
    """1-6 layers, thickness ratios 0.05-20, random poling and wiring."""
    n_layers = int(rng.integers(min_layers, 7))
    layers = []
    for _ in range(n_layers):
        piezo = rng.random() < 0.65
        material = random_plane_material(rng, piezo)
        thickness = 0.5e-3 * rng.uniform(0.05, 20.0)
        poling = int(rng.choice((-1, 1))) if piezo else 0
        electroded = piezo and rng.random() < 0.75
        layers.append((material, thickness, poling, electroded))
    if require_terminal and not any(electroded for *_, electroded in layers):
        material = random_plane_material(rng, piezo=True)
        layers[int(rng.integers(0, n_layers))] = (
            material, 0.5e-3 * rng.uniform(0.05, 20.0), int(rng.choice((-1, 1))), True)
    wiring = "parallel" if rng.random() < 0.5 else "independent"
    return section_of(layers, width=rng.uniform(2e-3, 0.1), wiring=wiring)


def random_state(rng, section: Section) -> GeneralizedState:
    return GeneralizedState(
        eps=rng.uniform(-1e-3, 1e-3),
        kappa=rng.uniform(-1.0, 1.0),
        voltages=tuple(rng.uniform(-200.0, 200.0, size=section.n_terminals)))


@pytest.fixture
def make_random_section():
    return random_section


@pytest.fixture
def make_random_state():
    return random_state


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(owner, name) wraps owner.name for this test; returns its list of calls."""

    def install(owner, name):
        calls, fn = [], getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls

    return install
