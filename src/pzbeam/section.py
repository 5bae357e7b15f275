"""Layered cross-sections and their coupled 1D constitutive reduction.

The beam kinematics carries a single axial strain S11(z) = eps + z*kappa
plus one voltage per electrode terminal; the transverse strain S22 is not
a kinematic descriptor and has to be closed by an extra hypothesis. Each
closure picks S22 from a different trial family and makes the sectional
energy stationary over it:

    ND  : S22 = 0                       (rigid transverse section)
    NS  : S22 pointwise stationary  ->  T22 = 0 layer by layer
    NSR : S22 = a + b*z section-wide, stationarity == the null transverse
          resultants  int T22 dz = 0  and  int z*T22 dz = 0

The trial families are nested ({0} < {a + b*z} < pointwise), which orders
the blocked capacitances C_ND <= C_NSR <= C_NS. The sign conventions are
README's Conventions.

Under every closure S22 is linear in z within a layer, so each closure's
matrix has a closed form: layer sums of material x moment products, and
per-terminal scatters (np.bincount, in layer order) over the electroded
layers, whose field per volt of their terminal is g = -poling/h. NS is ND on
the columns Q11 - Q12^2/Q22, e31 - Q12*e32/Q22 and eps33 + e32^2/Q22; NSR is
ND plus a rank-2 correction by the transverse field (a, b) of every unit
state. A unit voltage drives only its own terminal's layers, so no array is
larger than O(L + T) apart from the (2+T)^2 matrix. Sums are elementwise
products reduced with np.add.reduce, never @, np.dot or einsum: a BLAS dot
fuses multiply and add, which leaves one rounding error of a mirrored pair
behind (the bimorph's B = 0 came out as 2.2e-15 N m). Even so, mirrored
layers cancel exactly only about exactly mirrored centres, as in the bimorph
(interfaces -0.5, 0, 0.5 mm): the interfaces are summed from -H/2, so the
sandwich's B (about 6e-13 N m) and NSR gm (1.05e-18 N/V) are round-off, not
zero. The moments int 1, z, z^2 of a layer of thickness h centered at zc are
h, h*zc and h*zc^2 + h^3/12, which keep full precision for a thin layer far
from the mid-plane.
"""

from __future__ import annotations

import json
from enum import Enum
from itertools import accumulate, chain, compress, count, repeat
from operator import attrgetter, mul
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .materials import _BOOL, _LIST, _NUMBER, _REQUIRED, _STR, MaterialError, PlaneMaterial, \
    _as_matrix, _is_count, _is_positive_definite, _is_real, _read_by_column, _read_fields, \
    _Record, as_plane, builtin_materials


class LayupError(ValueError):
    """Invalid layer stack or layup description file."""


class Closure(str, Enum):
    """Transverse closure hypothesis."""

    ND = "nd"     # null transverse deformation, S22 = 0
    NS = "ns"     # null transverse stress, T22 = 0 pointwise
    NSR = "nsr"   # null transverse stress resultants

    @classmethod
    def coerce(cls, value) -> "Closure":
        if isinstance(value, cls):
            return value
        closure = _CLOSURES.get(str(value).lower())
        if closure is None:
            raise LayupError(f"unknown closure model {value!r} (expected nd, ns or nsr)")
        return closure


_CLOSURES = {c.value: c for c in Closure}


def _check_length(h, what: str, error) -> None:
    """Raise error unless h is a number (see _is_real) between 1e-30 and 1e30 m.

    Beyond these bounds the field 1/h, the moment h^3 or the width-scaled
    matrix entries of a physical material can leave the double range.
    """
    if not _is_real(h, 1e-30, 1e30):
        raise error(f"{what} must be positive and finite, between 1e-30 and 1e+30 m, got {h!r}")


def _check_layer(material, thickness, poling, flag) -> None:
    """Raise LayupError, naming the first fault, unless the four fields make a valid layer.

    The fields are one row of Section's columns (README, Library); the layer
    rules are docs/formats.md's, under Validation.
    """
    if not (isinstance(material, PlaneMaterial) and type(flag) in _BOOL):
        raise LayupError(f"a layer needs a PlaneMaterial and a bool electroded flag, "
                         f"got {type(material).__name__} and {flag!r}")
    _check_length(thickness, "layer thickness", LayupError)
    if not _is_count(poling, -1, 1):
        raise LayupError(f"poling must be -1, 0 or +1, got {poling!r}")
    if poling == 0 and material.has_coupling:
        raise LayupError(f"layer of {material.name} has piezoelectric coupling "
                         "and needs a poling direction")
    if flag and poling == 0:
        raise LayupError("electroded layer needs a poling direction (electroded elastic layer)")


class Section(_Record):
    """A stack of layers, bottom to top, as four columns, with width and electrode wiring.

    README's Library section gives the parameters, and docs/formats.md the
    wiring of a layup. The constructor checks the layers in order
    (_check_layer), then builds the whole section: the total thickness, the
    interfaces, the terminals and the table the reductions read.
    """

    def __init__(self, materials, thicknesses, polings, electroded, width: float,
                 wiring: str = "parallel"):
        columns = materials, h, polings, electroded = tuple(map(
            tuple, (materials, thicknesses, polings, electroded)))
        if not h:
            raise LayupError("section needs at least one layer")
        if not len(materials) == len(h) == len(polings) == len(electroded):
            raise LayupError(f"section columns differ in length: {tuple(map(len, columns))}")
        for layer in zip(*columns):
            _check_layer(*layer)
        _check_length(width, "width", LayupError)
        if wiring not in ("parallel", "independent"):
            raise LayupError(f"unknown wiring {wiring!r}")
        h = tuple(map(float, h))
        thickness, flagged = sum(h), tuple(compress(count(), electroded))
        # the layer indices of each terminal
        terminals = (tuple(zip(flagged)) if wiring == "independent"
                     else (flagged,) if flagged else ())
        vars(self).update(zip(self._fields, (materials, h, polings, electroded, float(width),
                                             wiring)), thickness=thickness,
                          z_interfaces=tuple(accumulate(h, initial=-thickness / 2.0)),
                          terminals=terminals)
        vars(self).update(_table=_layer_table(self))

    @property
    def n_terminals(self) -> int:
        return len(self.terminals)

    @property
    def mass_per_length(self) -> float:
        return self.width * sum(m.density * t for m, t in zip(self.materials, self.thicknesses))


class GeneralizedState(_Record):
    """Kinematic state of the 1D model: S11(z) = eps + z*kappa plus voltages.

    eps, kappa and each item of the iterable voltages is a number (see _is_real).
    """

    def __init__(self, eps: float = 0.0, kappa: float = 0.0, voltages=()):
        voltages = tuple(voltages) if np.iterable(voltages) else voltages
        vars(self).update(eps=eps, kappa=kappa, voltages=voltages)
        if type(voltages) is not tuple or not all(map(_is_real, (eps, kappa, *voltages))):
            raise LayupError(f"generalized state must be finite numbers, got {self!r}")
        vars(self).update(eps=float(eps), kappa=float(kappa), voltages=tuple(map(float, voltages)))


class SectionConstitutive(_Record):
    """Coupled section law of T terminals: a (2+T)x(2+T) matrix [[Kmm, Kme], [Kme^T, Cq]].

    It stores the law of README's Conventions. Its symmetry is the
    reciprocity statement, so it is stored exactly as assembled, without
    symmetrization. Each entry must be a number (see _is_real), and Kmm and
    Cq positive definite (see _is_positive_definite); every fault raises
    LayupError.
    """

    def __init__(self, matrix):
        m = _as_matrix(matrix, None, "constitutive matrix", LayupError)
        if m.ndim != 2 or not 2 <= m.shape[0] == m.shape[1]:
            raise LayupError(f"constitutive matrix has shape {m.shape}, "
                             "expected a square matrix of order at least 2")
        vars(self).update(matrix=m)
        if not _is_positive_definite(self.kmm):
            raise LayupError("mechanical stiffness block is not positive definite")
        if not _is_positive_definite(self.cq):    # an empty Cq passes
            raise LayupError("capacitance block is not positive definite")

    @property
    def n_terminals(self) -> int:
        return len(self.matrix) - 2

    @property
    def kmm(self) -> np.ndarray:
        return self.matrix[:2, :2]

    @property
    def kme(self) -> np.ndarray:
        return self.matrix[:2, 2:]

    @property
    def cq(self) -> np.ndarray:
        return self.matrix[2:, 2:]

    @property
    def extension_stiffness(self) -> float:
        return self.matrix[0, 0]

    @property
    def coupling_stiffness(self) -> float:
        return self.matrix[0, 1]

    @property
    def bending_stiffness(self) -> float:
        return self.matrix[1, 1]

    @property
    def gm(self) -> np.ndarray:
        """Extension-voltage coupling, N/V, one entry per terminal."""
        return self.matrix[0, 2:]

    @property
    def gk(self) -> np.ndarray:
        """Bending-voltage coupling, N m/V, one entry per terminal."""
        return self.matrix[1, 2:]


class StressProfile(NamedTuple):
    """Layerwise-linear T11(z), T22(z) with sampled grid and T22 resultants (README, Library)."""

    t11_coefficients: np.ndarray
    t22_coefficients: np.ndarray
    samples: np.ndarray
    n2: float
    m2: float


# ---------------------------------------------------------------------------
# the per-layer table

class _LayerTable(NamedTuple):
    """Read-only columns of one section, built by the Section constructor.

    The interfaces z, and per layer the material columns and the moments
    rows m0, m1, m2 of the layer centered at zc. Electroded layer members[i]
    feeds terminal collect[i] and sees E3 = g[i] * V, and pg = poling*g. The
    electrode rows -g*m0, -g*m1, poling and poling*zc, times e31 (or e32),
    give the T11 (or T22) of a unit voltage and the charge of a unit strain
    and curvature; slots sends row r to bin r*T + collect, so one bincount
    scatters all four. k is the NSR stiffness sum Q22*(m0, m1; m1, m2).
    """

    q11: np.ndarray
    q12: np.ndarray
    q22: np.ndarray
    e31: np.ndarray
    e32: np.ndarray
    eps33: np.ndarray
    z: np.ndarray
    moments: np.ndarray
    members: np.ndarray
    collect: np.ndarray
    g: np.ndarray
    pg: np.ndarray
    electrode: np.ndarray
    slots: np.ndarray
    k: np.ndarray


def _layer_table(section: Section) -> _LayerTable:
    """The read-only table of a section (see _LayerTable)."""
    materials, h, poling, terminals = (section.materials, section.thicknesses, section.polings,
                                       section.terminals)
    q11, q12, q22, e31, e32, eps33 = np.fromiter(chain.from_iterable(map(
        attrgetter("Q11", "Q12", "Q22", "e31", "e32", "eps33"), materials)),
        float, 6 * len(h)).reshape(-1, 6).T
    h, poling = np.array(h), np.array(poling, float)
    z = np.array(section.z_interfaces)
    members = np.fromiter(chain.from_iterable(terminals), int)
    collect = np.repeat(np.arange(len(terminals)), tuple(map(len, terminals)))
    zc = z[:-1] + 0.5 * h
    m1 = h * zc
    moments = np.array((h, m1, m1 * zc + h ** 3 / 12.0))
    pm = poling[members]
    g = -pm / h[members]
    electrode = np.array((-g * h[members], -g * m1[members], pm, pm * zc[members]))
    slots = (collect + len(terminals) * np.arange(4)[:, None]).ravel()
    k0, k1, k2 = np.add.reduce(q22 * moments, axis=1)
    table = _LayerTable(q11, q12, q22, e31, e32, eps33, z, moments, members, collect, g, pm * g,
                        electrode, slots, np.array(((k0, k1), (k1, k2))))
    for column in table:
        column.setflags(write=False)
    return table


def _integrals(t: _LayerTable, c0, c1) -> tuple:
    """int f dz and int z*f dz of the layerwise-linear f = c0 + c1*z."""
    m0, m1, m2 = t.moments
    return np.add.reduce(c0 * m0 + c1 * m1), np.add.reduce(c0 * m1 + c1 * m2)


def _scatter(t: _LayerTable, column, n_terminals: int) -> np.ndarray:
    """Per-terminal sums of column times each electrode row, shape (4, T)."""
    weights = column[t.members] * t.electrode
    return np.bincount(t.slots, weights.ravel(), minlength=4 * n_terminals).reshape(4, -1)


def _nsr_field(t: _LayerTable, n_terminals: int) -> tuple:
    """(a, b) of S22 = a + b*z for every unit state, with the Q12 sums and e32 scatters.

    a + b*z cancels both resultants n2, m2 of the T22 = Q12*S11 - e32*E3
    that S22 = 0 leaves: K (a, b) = -(n2, m2).
    """
    s12 = np.add.reduce(t.q12 * t.moments, axis=1)
    v = _scatter(t, t.e32, n_terminals)
    rhs = np.empty((2, 2 + n_terminals))
    rhs[0, :2], rhs[1, :2], rhs[:, 2:] = s12[:2], s12[1:], v[:2]
    a, b = np.linalg.solve(t.k, -rhs)
    return a, b, s12, v


def nsr_transverse_field(section: Section) -> np.ndarray:
    """The NSR strain S22 = a + b*z of every unit state (README, Library), from one 2x2 solve."""
    a, b, _, _ = _nsr_field(section._table, section.n_terminals)
    return np.column_stack((a, b))


def _under_closure(t: _LayerTable, closure: Closure) -> tuple:
    """Q11, e31 and eps33 under the closure; NS condenses them by T22 = 0 layer by layer."""
    if closure is not Closure.NS:
        return t.q11, t.e31, t.eps33
    return (t.q11 - t.q12 ** 2 / t.q22, t.e31 - t.q12 * t.e32 / t.q22,
            t.eps33 + t.e32 ** 2 / t.q22)


def reduce_section(section: Section, closure) -> SectionConstitutive:
    """Assemble the coupled constitutive matrix under the given closure.

    Column j of the matrix is the response (N, M, q) to the unit generalized
    state j, with q negated in the strain columns (see SectionConstitutive).
    The N and M rows integrate T11 (the actuation route for the voltage
    columns); the q rows collect the mean D3 of the electroded layers (the
    sensing route for the strain columns), so the returned matrix is
    symmetric only by reciprocity, not by construction.
    """
    closure = Closure.coerce(closure)
    t = section._table
    n_terminals = section.n_terminals
    q11, e31, eps33 = _under_closure(t, closure)
    s0, s1, s2 = np.add.reduce(q11 * t.moments, axis=1)
    v = _scatter(t, e31, n_terminals)
    k = np.zeros((2 + n_terminals, 2 + n_terminals))
    k[0, :2], k[1, :2] = (s0, s1), (s1, s2)
    k[:2, 2:] = v[:2]       # T11 of the unit voltages
    k[2:, :2] = v[2:].T     # charge of the unit strain and curvature
    # voltage j drives only terminal j's layers, so its charge is diagonal
    cq = k[2:, 2:]
    cq.flat[::n_terminals + 1] = np.bincount(t.collect, eps33[t.members] * t.pg,
                                             minlength=n_terminals)
    if closure is Closure.NSR:
        # the transverse field of each unit state adds its T11 and its D3
        a, b, s12, w = _nsr_field(t, n_terminals)
        k[:2] += a * s12[:2, None] + b * s12[1:, None]
        k[2:] += w[2, :, None] * a + w[3, :, None] * b
    # q = -width * sum(poling * mean D3): the strain columns hold -q, the
    # enthalpy Hessian's Kme^T, and the voltage columns +q, so the block is +Cq
    cq *= -1.0
    k *= section.width
    return SectionConstitutive(k)


def capacitance_per_length(constitutive: SectionConstitutive, condition: str,
                           terminal: int = 0) -> float:
    """Terminal capacitance per unit beam length, F/m, of terminal (a count from 0 to T-1).

    'blocked' is the constitutive coefficient Cq[t, t] (frozen generalized
    strains); 'free' releases the section at N = M = 0 and adds the
    mechanical-compliance contribution g^T Kmm^-1 g >= 0.
    """
    if not _is_count(terminal, 0, constitutive.n_terminals - 1):
        raise LayupError(f"terminal {terminal!r} out of range "
                         f"(section has {constitutive.n_terminals})")
    blocked = constitutive.cq[terminal, terminal]
    if condition == "blocked":
        return float(blocked)
    if condition == "free":
        g = constitutive.kme[:, terminal]
        return float(blocked + g @ np.linalg.solve(constitutive.kmm, g))
    raise LayupError(f"unknown capacitance condition {condition!r}")


def _bending_stiffness(k: SectionConstitutive, circuit: str) -> float:
    """D - B^2/A condensed at N = 0: of Kmm, or of Kmm + Kme Cq^-1 Kme^T for 'open'."""
    kmm = k.kmm
    if circuit == "open" and k.n_terminals:
        kmm = kmm + k.kme @ np.linalg.solve(k.cq, k.kme.T)
    return float(kmm[1, 1] - kmm[0, 1] * kmm[1, 0] / kmm[0, 0])


def recover_stress_profile(section: Section, closure, state: GeneralizedState,
                           samples_per_layer: int = 11) -> StressProfile:
    """Layerwise-linear T11 and T22 fields for an imposed generalized state.

    Each layer is sampled at samples_per_layer (an int >= 2) evenly spaced
    points from its bottom face to its top face, both included.
    """
    closure = Closure.coerce(closure)
    if not _is_count(samples_per_layer, 2):
        raise LayupError(f"samples per layer must be an integer of at least 2, "
                         f"got {samples_per_layer!r}")
    if len(state.voltages) != section.n_terminals:
        raise LayupError(f"state has {len(state.voltages)} voltages, "
                         f"section has {section.n_terminals} terminals")
    t = section._table
    eps, kappa = state.eps, state.kappa
    # E3 of the one imposed state: g times the voltage of the layer's terminal
    e3 = np.zeros(len(t.q11))
    e3[t.members] = t.g * np.array(state.voltages)[t.collect]
    q11, e31, _ = _under_closure(t, closure)
    s0 = s1 = 0.0
    if closure is Closure.NSR:
        # a + b*z cancels both resultants of the T22 that S22 = 0 leaves
        n2, m2 = _integrals(t, t.q12 * eps - t.e32 * e3, t.q12 * kappa)
        s0, s1 = np.linalg.solve(t.k, -np.array((n2, m2)))
    t11 = np.empty((len(e3), 2))
    t11[:, 0], t11[:, 1] = q11 * eps + t.q12 * s0 - e31 * e3, q11 * kappa + t.q12 * s1
    # under NS, T22 = 0 is the definition of the closure, not a computed value
    t22 = np.zeros((len(e3), 2))
    if closure is not Closure.NS:
        t22[:, 0], t22[:, 1] = t.q12 * eps + t.q22 * s0 - t.e32 * e3, t.q12 * kappa + t.q22 * s1
    n2, m2 = _integrals(t, t22[:, 0], t22[:, 1])

    # np.linspace's arithmetic without its overhead: start + i * step, with
    # the last point set to the layer's top face
    z0, z1 = t.z[:-1, None], t.z[1:, None]
    zq = np.arange(samples_per_layer) * ((z1 - z0) / (samples_per_layer - 1)) + z0
    zq[:, -1:] = z1
    samples = np.empty((zq.size, 4))
    samples[:, 0] = np.arange(zq.size) // samples_per_layer
    samples[:, 1] = zq.ravel()
    samples[:, 2] = (t11[:, :1] + t11[:, 1:] * zq).ravel()
    samples[:, 3] = (t22[:, :1] + t22[:, 1:] * zq).ravel()
    return StressProfile(t11, t22, samples, float(n2), float(m2))


class ClosureComparison(NamedTuple):
    """One closure's headline quantities for the comparison table."""

    closure: Closure
    capacitance: float                  # blocked constitutive capacitance, F/m
    capacitance_free: float             # released at N = M = 0, F/m
    extension_stiffness: float          # A, N
    bending_stiffness_short: float      # D condensed at N = 0, short circuit, N m^2
    bending_voltage_coupling: float     # gk of the first terminal, N m/V


def compare_closures(section: Section) -> tuple:
    """Evaluate all three closures on one section: one ClosureComparison per closure.

    The capacitance column holds the blocked (constitutive) capacitance of
    terminal 0, or 0 with no terminal.
    """
    rows = []
    for closure in Closure:
        k = reduce_section(section, closure)
        if k.n_terminals:
            cap = capacitance_per_length(k, "blocked")
            cap_free = capacitance_per_length(k, "free")
            gk = float(k.gk[0])
        else:
            cap = cap_free = gk = 0.0
        rows.append(ClosureComparison(closure, cap, cap_free, k.extension_stiffness,
                                      _bending_stiffness(k, "short"), gk))
    return tuple(rows)


# ---------------------------------------------------------------------------
# layup files

_POLING = {"+z": 1, "-z": -1, "none": 0}
_LAYUP_FIELDS = {"width_mm": (_NUMBER, _REQUIRED), "wiring": (_STR, "parallel"),
                 "layers": (_LIST, _REQUIRED)}
_LAYER_FIELDS = {"material": (_STR, _REQUIRED), "thickness_mm": (_NUMBER, _REQUIRED),
                 "poling": (_STR, "none"), "electroded": (_BOOL, False)}


def build_section(layup: dict, materials: dict | None = None) -> Section:
    """Build a Section from a parsed layup description (docs/formats.md).

    The layup is read by materials._read_fields and its layers column by
    column by materials._read_by_column. Each distinct material name is
    resolved once, by README's rule (Library), and so is each poling key,
    and the Section constructor checks every layer in order; if a layer
    cannot be read or resolved, the layers are read one by one instead, so
    either way the first faulty layer, bottom to top, is named.
    """
    width, wiring, entries = _read_fields(layup, _LAYUP_FIELDS, "layup", LayupError)
    if not entries:
        raise LayupError("layup has no layers")
    columns = _read_by_column(entries, _LAYER_FIELDS)
    names, thickness_mm, poling_keys, electroded = columns or ((),) * 4
    records = {**builtin_materials(), **(materials or {})}
    try:
        planes = {name: as_plane(records[name]) for name in set(names)}
        polings = tuple(map(_POLING.__getitem__, poling_keys))
    except (KeyError, MaterialError):
        columns = None
    if columns is None:
        # a layer cannot be read or resolved: raise the first faulty layer's first fault
        for entry in entries:
            name, h_mm, key, flag = _read_fields(entry, _LAYER_FIELDS, "layer", LayupError)
            if name not in records:
                raise LayupError(f"unknown material {name!r}")
            if key not in _POLING:
                raise LayupError(f"unknown poling {key!r} (expected +z, -z or none)")
            _check_layer(as_plane(records[name]), h_mm * 1e-3, _POLING[key], flag)
    return Section(tuple(map(planes.__getitem__, names)),
                   tuple(map(mul, thickness_mm, repeat(1e-3))),
                   polings, electroded, width * 1e-3, wiring)


def load_layup(path, material_db=None) -> Section:
    """Parse a layup JSON file, resolving materials against an optional database."""
    try:
        layup = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, RecursionError) as exc:
        raise LayupError(f"malformed layup file {path}: {exc}") from exc
    return build_section(layup, materials=material_db)
