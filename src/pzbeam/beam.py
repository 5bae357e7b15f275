"""Beam-level quantities built on a reduced section: statics and modes.

Euler-Bernoulli kinematics with a uniform section; rotary inertia and shear
are neglected. The effective bending stiffness is condensed at N = 0
(axially free beam), D_eff = D - B^2 / A, with the electrical condition
setting the mechanical block:

    short circuit (V = 0):  Kmm
    open circuit  (q = 0):  Kmm + Kme Cq^-1 Kme^T   (stiffening, Cq > 0)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .section import GeneralizedState, Section, SectionConstitutive, reduce_section

#: Boundary eigenvalues lambda_n of the bending mode shapes.
CANTILEVER_ROOTS = (1.87510407, 4.69409113, 7.85475744)

BOUNDARIES = ("cantilever", "simply-supported")


class BeamError(ValueError):
    """Invalid beam definition or request."""


@dataclass(frozen=True)
class Beam:
    """Uniform beam: reduced section, inertia and boundary condition."""

    constitutive: SectionConstitutive
    mass_per_length: float    # kg/m
    length: float             # m
    boundary: str = "cantilever"

    def __post_init__(self):
        if not self.mass_per_length > 0.0:
            raise BeamError("mass per length must be positive")
        if not self.length > 0.0:
            raise BeamError("length must be positive")
        if self.boundary not in BOUNDARIES:
            raise BeamError(f"unknown boundary {self.boundary!r}, expected one of {BOUNDARIES}")


def make_beam(section: Section, closure, length: float, boundary: str = "cantilever") -> Beam:
    """Reduce the section under the closure and attach beam data."""
    return Beam(constitutive=reduce_section(section, closure),
                mass_per_length=section.mass_per_length,
                length=length, boundary=boundary)


def free_actuation_state(k: SectionConstitutive, voltages) -> GeneralizedState:
    """Force- and moment-free response: solve Kmm [eps; kappa] = -Kme V."""
    v = np.atleast_1d(np.asarray(voltages, dtype=float))
    if v.shape != (k.n_terminals,):
        raise BeamError(f"expected {k.n_terminals} terminal voltages, got {v.shape[0]}")
    try:
        x = np.linalg.solve(k.kmm, -k.kme @ v)
    except np.linalg.LinAlgError as exc:
        raise BeamError("degenerate section") from exc
    return GeneralizedState(eps=float(x[0]), kappa=float(x[1]), voltages=tuple(v))


def cantilever_tip_deflection(beam: Beam, voltages) -> float:
    """Tip deflection kappa L^2 / 2 under the uniform induced curvature."""
    if beam.boundary != "cantilever":
        raise BeamError("tip deflection is defined for cantilever boundary")
    state = free_actuation_state(beam.constitutive, voltages)
    return state.kappa * beam.length ** 2 / 2.0


def sensor_charge(beam: Beam, imposed: GeneralizedState) -> np.ndarray:
    """Short-circuit charge per unit length, q = Kme^T [eps; kappa] at V = 0."""
    k = beam.constitutive
    return k.kme.T @ np.array([imposed.eps, imposed.kappa])


def _bending_stiffness(k: SectionConstitutive, circuit: str) -> float:
    if circuit not in ("short", "open"):
        raise BeamError(f"unknown circuit {circuit!r}, expected 'short' or 'open'")
    kmm = k.kmm
    if circuit == "open" and k.n_terminals:
        kmm = kmm + k.kme @ np.linalg.solve(k.cq, k.kme.T)
    return float(kmm[1, 1] - kmm[0, 1] * kmm[1, 0] / kmm[0, 0])


def _boundary_eigenvalues(boundary: str, n_modes: int) -> np.ndarray:
    if boundary == "simply-supported":
        return np.pi * np.arange(1, n_modes + 1)
    lams = list(CANTILEVER_ROOTS[:n_modes])
    # asymptotic values for the higher cantilever modes
    lams += [np.pi * (n - 0.5) for n in range(len(lams) + 1, n_modes + 1)]
    return np.array(lams)


def modal_frequencies(beam: Beam, circuit: str, n_modes: int) -> np.ndarray:
    """Bending natural frequencies f_n = (lambda_n^2 / 2 pi) sqrt(D_eff / m L^4), Hz."""
    if n_modes < 1:
        raise BeamError("at least one mode is required")
    d_eff = _bending_stiffness(beam.constitutive, circuit)
    lams = _boundary_eigenvalues(beam.boundary, n_modes)
    return lams ** 2 / (2.0 * np.pi) * np.sqrt(d_eff / (beam.mass_per_length * beam.length ** 4))


def coupling_factor(beam: Beam, mode: int) -> float:
    """Modal electromechanical coupling k^2 = (f_open^2 - f_short^2) / f_short^2.

    With a uniform section the ratio f_open^2 / f_short^2 = D_open / D_short
    is shared by all modes, so k^2 = D_open / D_short - 1 is mode-independent
    here; the mode index is validated to keep the per-mode signature. A
    section with no terminal gives exactly 0.
    """
    if mode < 1:
        raise BeamError("mode index starts at 1")
    return _bending_stiffness(beam.constitutive, "open") \
        / _bending_stiffness(beam.constitutive, "short") - 1.0
