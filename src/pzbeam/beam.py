"""Beam-level quantities built on a reduced section: statics and modes.

Euler-Bernoulli kinematics with a uniform section; rotary inertia and shear
are neglected. The effective bending stiffness is condensed at N = 0
(axially free beam), D_eff = D - B^2 / A, with the electrical condition
setting the mechanical block:

    short circuit (V = 0):  Kmm
    open circuit  (q = 0):  Kmm + Kme Cq^-1 Kme^T   (stiffening, Cq > 0)
"""

from __future__ import annotations

import numpy as np

from .materials import _TINY, _is_count, _is_real, _Record
from .section import GeneralizedState, Section, SectionConstitutive, _bending_stiffness, \
    _check_length, reduce_section

BOUNDARIES = ("cantilever", "simply-supported")
CIRCUITS = ("short", "open")


class BeamError(ValueError):
    """Invalid beam definition or request."""


class Beam(_Record):
    """Uniform beam: reduced section, mass per length (kg/m), length (m) and boundary.

    constitutive is a SectionConstitutive, the mass per length a positive
    number (see _is_real) and the length within a layer's bounds (_check_length).
    """

    def __init__(self, constitutive: SectionConstitutive, mass_per_length: float, length: float,
                 boundary: str = "cantilever"):
        if not isinstance(constitutive, SectionConstitutive):
            raise BeamError(f"constitutive must be a SectionConstitutive, "
                            f"got {type(constitutive).__name__}")
        if not _is_real(mass_per_length, _TINY):
            raise BeamError(f"mass per length must be positive and finite, got {mass_per_length!r}")
        _check_length(length, "length", BeamError)
        if boundary not in BOUNDARIES:
            raise BeamError(f"unknown boundary {boundary!r}, expected one of {BOUNDARIES}")
        vars(self).update(constitutive=constitutive, mass_per_length=float(mass_per_length),
                          length=float(length), boundary=boundary)


def make_beam(section: Section, closure, length: float, boundary: str = "cantilever") -> Beam:
    """Reduce the section under the closure and attach beam data."""
    return Beam(constitutive=reduce_section(section, closure),
                mass_per_length=section.mass_per_length,
                length=length, boundary=boundary)


def free_actuation_state(k: SectionConstitutive, voltages) -> GeneralizedState:
    """Force- and moment-free response: solve Kmm [eps; kappa] = -Kme V.

    voltages holds one finite number per terminal (a lone number serves one
    terminal); it is checked before the solve.
    """
    v = np.atleast_1d(np.asarray(voltages, dtype=object))    # object: no string is parsed
    if v.shape != (k.n_terminals,):
        raise BeamError(f"expected {k.n_terminals} terminal voltages, got shape {v.shape}")
    if not all(map(_is_real, v)):
        raise BeamError(f"terminal voltages must be finite numbers, got {voltages!r}")
    # Kmm's symmetric part is positive definite
    x = np.linalg.solve(k.kmm, -k.kme @ v.astype(float))
    return GeneralizedState(eps=float(x[0]), kappa=float(x[1]), voltages=v)


def cantilever_tip_deflection(beam: Beam, voltages) -> float:
    """Tip deflection kappa L^2 / 2 under the uniform induced curvature."""
    if beam.boundary != "cantilever":
        raise BeamError("tip deflection is defined for cantilever boundary")
    return free_actuation_state(beam.constitutive, voltages).kappa * beam.length ** 2 / 2.0


def sensor_charge(k: SectionConstitutive, eps: float = 0.0, kappa: float = 0.0) -> np.ndarray:
    """Short-circuit charge per unit length, q = -Kme^T [eps; kappa] at V = 0.

    eps and kappa must be numbers (see _is_real).
    """
    if not (_is_real(eps) and _is_real(kappa)):
        raise BeamError(f"strain and curvature must be finite numbers, got {eps!r}, {kappa!r}")
    return -(k.kme.T @ np.array([eps, kappa]))


def _boundary_eigenvalues(boundary: str, n_modes: int) -> np.ndarray:
    """lambda_n = n pi simply supported; the roots of cos(l) cosh(l) = -1 for a cantilever."""
    if boundary == "simply-supported":
        return np.pi * np.arange(1, n_modes + 1)
    # Newton on cos(l) + sech(l) = 0 from pi (n - 1/2): exact in 4 steps; exp(-l) never overflows
    lams = np.pi * (np.arange(n_modes) + 0.5)
    for _ in range(5):
        x = np.exp(-2.0 * lams)
        sech, tanh = 2.0 * np.exp(-lams) / (1.0 + x), (1.0 - x) / (1.0 + x)
        lams = lams + (np.cos(lams) + sech) / (np.sin(lams) + sech * tanh)
    return lams


def modal_frequencies(beam: Beam, circuit: str, n_modes: int) -> np.ndarray:
    """Bending natural frequencies f_n = (lambda_n^2 / 2 pi) sqrt(D_eff / m L^4), Hz.

    n_modes is a count of at least 1 (see _is_count).
    """
    if not _is_count(n_modes, 1):
        raise BeamError(f"mode count must be an integer of at least 1, got {n_modes!r}")
    if circuit not in CIRCUITS:
        raise BeamError(f"unknown circuit {circuit!r}, expected {' or '.join(map(repr, CIRCUITS))}")
    d_eff = _bending_stiffness(beam.constitutive, circuit)
    lams = _boundary_eigenvalues(beam.boundary, n_modes)
    return lams ** 2 / (2.0 * np.pi) * np.sqrt(d_eff / (beam.mass_per_length * beam.length ** 4))


def coupling_factor(k: SectionConstitutive) -> float:
    """Modal electromechanical coupling k^2 = (f_open^2 - f_short^2) / f_short^2.

    With a uniform section f_open^2 / f_short^2 = D_open / D_short for every
    mode, length and boundary, so k^2 = D_open / D_short - 1 reads only the
    section law. A section with no terminal gives exactly 0.
    """
    return _bending_stiffness(k, "open") / _bending_stiffness(k, "short") - 1.0
