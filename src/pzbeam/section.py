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
the blocked capacitances C_ND <= C_NSR <= C_NS.

Sign conventions (single source of truth for the whole package):

* z = 0 at the geometric mid-height of the stack; layers listed bottom to
  top; positive kappa bends the beam concave toward +z.
* N = width * int T11 dz,  M = width * int z*T11 dz.
* Every electroded layer sees the through-thickness field E3 = -V/h in its
  own poling frame (a -z-poled layer is hooked up with flipped leads), so
  in stack coordinates E3 = -poling * V / h.
* Terminal charge per unit beam length q = -width * sum_k poling_k *
  mean(D3_k), the mean taken over the layer thickness with D3 in the
  poling frame. This makes the capacitance block positive definite.
* The assembled constitutive matrix is stored in the layout
      [N; M; q] = [[Kmm, Kme], [Kme^T, Cq]] [eps; kappa; V]
  which is symmetric: the actuation coupling (force per volt) equals the
  sensing coupling (charge per unit strain) entry for entry.

Under every closure S22 is linear in z within a layer, so each closure's
matrix has a closed form: layer sums of material x moment products, and
per-terminal scatters (np.bincount, in layer order) over the electroded
layers, whose field per volt of their terminal is g = -poling/h. NS is ND on
the columns Q11 - Q12^2/Q22, e31 - Q12*e32/Q22 and eps33 + e32^2/Q22; NSR is
ND plus a rank-2 correction by the transverse field (a, b) of every unit
state. A unit voltage drives only its own terminal's layers, so no array is
larger than O(L + T) apart from the (2+T)^2 matrix. The N and M rows integrate
T11 (actuation) and the q rows collect the mean D3 (sensing); neither is
filled from the other. Sums are elementwise products reduced with
np.add.reduce, never @, np.dot or einsum: a BLAS dot fuses multiply and add,
which leaves one rounding error of a mirrored pair behind (the bimorph's B = 0
came out as 2.2e-15 N m). The moments int 1, z, z^2 of a layer of thickness h
centered at zc are h, h*zc and h*zc^2 + h^3/12, which keep full precision for
a thin layer far from the mid-plane. A Section builds its read-only per-layer
table once; its reductions and stress recoveries all read it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import accumulate, chain
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .materials import PlaneMaterial, _check_number, _check_object, _check_str, \
    _is_positive_definite, as_plane, builtin_materials


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
        try:
            return cls(str(value).lower())
        except ValueError:
            raise LayupError(f"unknown closure model {value!r} (expected nd, ns or nsr)") from None


# bounds on a layer thickness and on the width, in m: beyond them the field
# 1/h, the moment h^3 or the width-scaled matrix entries of a physical
# material can leave the double range
_MIN_LENGTH, _MAX_LENGTH = 1e-30, 1e30


@dataclass(frozen=True)
class Layer:
    """One layer of the stack, bottom face first.

    poling is +1/-1 for the orientation of the poling axis along +z, or 0
    for a layer with no poling direction. A poling of 0 requires a material
    with zero piezoelectric coupling; an electroded layer must be poled
    (any dielectric qualifies, coupled or not).
    """

    material: PlaneMaterial
    thickness: float
    poling: int = 0
    electroded: bool = False

    def __post_init__(self):
        if not _MIN_LENGTH <= self.thickness <= _MAX_LENGTH:
            raise LayupError(f"layer thickness must be positive and finite, between "
                             f"{_MIN_LENGTH:g} and {_MAX_LENGTH:g} m, got {self.thickness}")
        if self.poling not in (-1, 0, 1):
            raise LayupError(f"poling must be -1, 0 or +1, got {self.poling}")
        if self.poling == 0 and self.material.has_coupling:
            raise LayupError(f"layer of {self.material.name} has piezoelectric coupling "
                             "and needs a poling direction")
        if self.electroded and self.poling == 0:
            raise LayupError("electroded layer needs a poling direction "
                             "(electroded elastic layer)")


@dataclass(frozen=True)
class Section:
    """Ordered layer stack with width and electrode wiring.

    wiring 'parallel' joins all electroded layers into one terminal pair;
    'independent' gives every electroded layer its own terminal (ordered
    bottom to top).
    """

    layers: tuple
    width: float
    wiring: str = "parallel"

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if len(self.layers) == 0:
            raise LayupError("section needs at least one layer")
        if not _MIN_LENGTH <= self.width <= _MAX_LENGTH:
            raise LayupError(f"width must be positive and finite, between {_MIN_LENGTH:g} "
                             f"and {_MAX_LENGTH:g} m, got {self.width}")
        if self.wiring not in ("parallel", "independent"):
            raise LayupError(f"unknown wiring {self.wiring!r}")

    @property
    def thickness(self) -> float:
        return sum(l.thickness for l in self.layers)

    @cached_property
    def z_interfaces(self) -> tuple:
        return tuple(accumulate((l.thickness for l in self.layers), initial=-self.thickness / 2.0))

    @cached_property
    def terminals(self) -> tuple:
        """Layer indices per terminal."""
        electroded = tuple(i for i, l in enumerate(self.layers) if l.electroded)
        if not electroded:
            return ()
        if self.wiring == "parallel":
            return (electroded,)
        return tuple((i,) for i in electroded)

    @property
    def n_terminals(self) -> int:
        return len(self.terminals)

    @property
    def mass_per_length(self) -> float:
        return self.width * sum(l.material.density * l.thickness for l in self.layers)

    @cached_property
    def _table(self) -> _LayerTable:
        return _layer_table(self)


@dataclass(frozen=True)
class GeneralizedState:
    """Kinematic state of the 1D model: S11(z) = eps + z*kappa plus voltages."""

    eps: float = 0.0
    kappa: float = 0.0
    voltages: tuple = ()

    def __post_init__(self):
        voltages = tuple(float(v) for v in self.voltages)
        object.__setattr__(self, "voltages", voltages)
        if not all(map(math.isfinite, (self.eps, self.kappa) + voltages)):
            raise LayupError(f"generalized state must be finite, got {self!r}")


@dataclass(frozen=True)
class SectionConstitutive:
    """Assembled (2+T)x(2+T) coupled constitutive matrix.

    matrix rows/columns are ordered (eps, kappa, V_0, ..., V_{T-1}) against
    (N, M, q_0, ..., q_{T-1}). The matrix is stored exactly as assembled,
    without symmetrization; its symmetry is the reciprocity statement.
    It must be finite, and its stiffness block Kmm and capacitance block Cq
    positive definite: each block's symmetric part must have a Cholesky
    factor, which an exactly diagonal block (Cq under ND and NS) has when its
    diagonal is positive. Finiteness is checked first, because a NaN or
    infinite block factors without an error.
    """

    matrix: np.ndarray
    n_terminals: int
    closure: Closure
    width: float

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.shape != (2 + self.n_terminals,) * 2:
            raise LayupError(f"constitutive matrix has shape {m.shape}, "
                             f"expected {(2 + self.n_terminals,) * 2}")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        if not np.isfinite(m).all():
            raise LayupError("constitutive matrix has non-finite entries")
        if not _is_positive_definite(self.kmm):
            raise LayupError("mechanical stiffness block is not positive definite")
        if self.n_terminals and not _is_positive_definite(self.cq):
            raise LayupError("capacitance block is not positive definite")

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


class TransverseField(NamedTuple):
    """Section-wide transverse strain S22(z) = a + b*z of the NSR closure.

    coefficients[j] = (a, b) for the unit generalized state j, ordered
    (eps, kappa, V_0, ..., V_{T-1}).
    """

    coefficients: np.ndarray

    def for_state(self, state: GeneralizedState) -> tuple:
        u = np.concatenate(([state.eps, state.kappa], state.voltages))
        a, b = u @ self.coefficients
        return float(a), float(b)


class StressProfile(NamedTuple):
    """Layerwise-linear T11(z), T22(z) with sampled grid and T22 resultants.

    t11_coefficients[k] and t22_coefficients[k] hold (constant, slope) of
    layer k, stress in Pa evaluated at the global coordinate z. samples has
    one row (layer, z, T11, T22) per grid point. n2 and m2 are the exact
    transverse resultants per unit beam length, int T22 dz and int z T22 dz.
    """

    z_interfaces: tuple
    t11_coefficients: np.ndarray
    t22_coefficients: np.ndarray
    samples: np.ndarray
    n2: float
    m2: float


# ---------------------------------------------------------------------------
# the per-layer table

class _LayerTable(NamedTuple):
    """Read-only columns of one section, built once per Section.

    The interfaces z, and per layer the material columns, the center zc and
    the moments rows m0, m1, m2. Electroded layer members[i] feeds terminal
    collect[i] and sees E3 = g[i] * V, and pg = poling*g. The electrode rows
    -g*m0, -g*m1, poling and poling*zc, times e31 (or e32), give the T11 (or
    T22) of a unit voltage and the charge of a unit strain and curvature;
    slots sends row r to bin r*T + collect, so one bincount scatters all
    four. k is the NSR stiffness sum Q22*(m0, m1; m1, m2). No sum is a BLAS
    dot, which would break the exact cancellation of mirrored layers.
    """

    q11: np.ndarray
    q12: np.ndarray
    q22: np.ndarray
    e31: np.ndarray
    e32: np.ndarray
    eps33: np.ndarray
    z: np.ndarray
    zc: np.ndarray
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
    layers, terminals = section.layers, section.terminals
    q11, q12, q22, e31, e32, eps33, poling, h = np.fromiter(chain.from_iterable(
        (l.material.Q11, l.material.Q12, l.material.Q22, l.material.e31, l.material.e32,
         l.material.eps33, l.poling, l.thickness) for l in layers),
        float, 8 * len(layers)).reshape(-1, 8).T
    z = np.array(section.z_interfaces)
    members, collect = np.fromiter(chain.from_iterable(
        (i, t) for t, m in enumerate(terminals) for i in m), int).reshape(-1, 2).T
    zc = z[:-1] + 0.5 * h
    m1 = h * zc
    moments = np.array((h, m1, m1 * zc + h ** 3 / 12.0))
    pm = poling[members]
    g = -pm / h[members]
    electrode = np.array((-g * h[members], -g * m1[members], pm, pm * zc[members]))
    slots = (collect + len(terminals) * np.arange(4)[:, None]).ravel()
    k0, k1, k2 = np.add.reduce(q22 * moments, axis=1)
    table = _LayerTable(q11, q12, q22, e31, e32, eps33, z, zc, moments, members, collect, g,
                        pm * g, electrode, slots, np.array(((k0, k1), (k1, k2))))
    for column in table:
        column.flags.writeable = False
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


def nsr_transverse_field(section: Section) -> TransverseField:
    """Solve the 2x2 resultant-annihilation system for all unit states at once."""
    a, b, _, _ = _nsr_field(section._table, section.n_terminals)
    return TransverseField(coefficients=np.column_stack((a, b)))


def _closure_columns(t: _LayerTable, closure: Closure) -> tuple:
    """Q11, e31 and eps33 under the closure; NS condenses them by T22 = 0 layer by layer."""
    if closure is not Closure.NS:
        return t.q11, t.e31, t.eps33
    return (t.q11 - t.q12 ** 2 / t.q22, t.e31 - t.q12 * t.e32 / t.q22,
            t.eps33 + t.e32 ** 2 / t.q22)


def reduce_section(section: Section, closure) -> SectionConstitutive:
    """Assemble the coupled constitutive matrix under the given closure.

    Column j of the matrix is the response (N, M, q) to the unit generalized
    state j. The N and M rows integrate T11 (the actuation route for the
    voltage columns); the q rows collect the mean D3 of the electroded
    layers (the sensing route for the strain columns), so the returned
    matrix is symmetric only by reciprocity, not by construction.
    """
    closure = Closure.coerce(closure)
    t = section._table
    n_terminals = section.n_terminals
    q11, e31, eps33 = _closure_columns(t, closure)
    s0, s1, s2 = np.add.reduce(q11 * t.moments, axis=1)
    v = _scatter(t, e31, n_terminals)
    k = np.zeros((2 + n_terminals, 2 + n_terminals))
    k[0, :2], k[1, :2] = (s0, s1), (s1, s2)
    k[:2, 2:] = v[:2]       # T11 of the unit voltages
    k[2:, :2] = v[2:].T     # charge of the unit strain and curvature
    # voltage j drives only terminal j's layers, so its charge is diagonal
    cq = k[2:, 2:]
    np.fill_diagonal(cq, np.bincount(t.collect, eps33[t.members] * t.pg, minlength=n_terminals))
    if closure is Closure.NSR:
        # the transverse field of each unit state adds its T11 and its D3
        a, b, s12, w = _nsr_field(t, n_terminals)
        k[:2] += a * s12[:2, None] + b * s12[1:, None]
        k[2:] += w[2, :, None] * a + w[3, :, None] * b
    # q = -width * sum(poling * mean D3); mechanical columns carry the sensing
    # sign, voltage columns the charge per volt, so the electrical block is +Cq
    cq *= -1.0
    k *= section.width
    return SectionConstitutive(matrix=k, n_terminals=n_terminals, closure=closure,
                               width=section.width)


def capacitance_per_length(constitutive: SectionConstitutive, condition: str,
                           terminal: int = 0) -> float:
    """Terminal capacitance per unit beam length, F/m.

    'blocked' is the constitutive coefficient Cq[t, t] (frozen generalized
    strains); 'free' releases the section at N = M = 0 and adds the
    mechanical-compliance contribution g^T Kmm^-1 g >= 0.
    """
    if not 0 <= terminal < constitutive.n_terminals:
        raise LayupError(f"terminal {terminal} out of range "
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
    if not isinstance(samples_per_layer, (int, np.integer)) or samples_per_layer < 2:
        raise LayupError(f"samples per layer must be an integer of at least 2, "
                         f"got {samples_per_layer!r}")
    if len(state.voltages) != section.n_terminals:
        raise LayupError(f"state has {len(state.voltages)} voltages, "
                         f"section has {section.n_terminals} terminals")
    t = section._table
    eps, kappa = state.eps, state.kappa
    # E3 of the one imposed state: g times the voltage of the layer's terminal
    e3 = np.zeros(len(t.zc))
    e3[t.members] = t.g * np.array(state.voltages)[t.collect]
    q11, e31, _ = _closure_columns(t, closure)
    s0 = s1 = 0.0
    if closure is Closure.NSR:
        # a + b*z cancels both resultants of the T22 that S22 = 0 leaves
        n2, m2 = _integrals(t, t.q12 * eps - t.e32 * e3, t.q12 * kappa)
        s0, s1 = np.linalg.solve(t.k, -np.array((n2, m2)))
    t11 = np.column_stack((q11 * eps + t.q12 * s0 - e31 * e3, q11 * kappa + t.q12 * s1))
    if closure is Closure.NS:
        # T22 = 0 is the definition of the closure, not a computed value
        t22 = np.zeros_like(t11)
    else:
        t22 = np.column_stack((t.q12 * eps + t.q22 * s0 - t.e32 * e3,
                               t.q12 * kappa + t.q22 * s1))
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
    return StressProfile(z_interfaces=section.z_interfaces, t11_coefficients=t11,
                         t22_coefficients=t22, samples=samples, n2=float(n2), m2=float(m2))


class ClosureComparison(NamedTuple):
    """One closure's headline quantities for the comparison table."""

    closure: Closure
    capacitance: float                  # blocked constitutive capacitance, F/m
    capacitance_free: float             # released at N = M = 0, F/m
    extension_stiffness: float          # A, N
    bending_stiffness_short: float      # D condensed at N = 0, short circuit, N m^2
    bending_voltage_coupling: float     # gk of the first terminal, N m/V
    deviation_pct: float | None = None  # (model - reference) / reference * 100


def compare_closures(section: Section, reference_capacitance: float | None = None) -> tuple:
    """Evaluate all three closures on one section: one ClosureComparison per closure.

    The capacitance column holds the blocked (constitutive) capacitance of
    terminal 0, or 0 with no terminal, which takes no reference; the percent
    deviation from a reference is (model - reference) / reference * 100.
    """
    if reference_capacitance is not None and not section.n_terminals:
        raise LayupError("a reference capacitance needs a terminal (section has none)")
    rows = []
    for closure in Closure:
        k = reduce_section(section, closure)
        if k.n_terminals:
            cap = capacitance_per_length(k, "blocked")
            cap_free = capacitance_per_length(k, "free")
            gk = float(k.gk[0])
        else:
            cap = cap_free = gk = 0.0
        dev = None
        if reference_capacitance is not None:
            dev = (cap - reference_capacitance) / reference_capacitance * 100.0
        rows.append(ClosureComparison(closure, cap, cap_free, k.extension_stiffness,
                                      _bending_stiffness(k, "short"), gk, dev))
    return tuple(rows)


# ---------------------------------------------------------------------------
# layup files

_POLING = {"+z": 1, "-z": -1, "none": 0}
_LAYUP_KEYS = frozenset(("width_mm", "wiring", "layers"))
_LAYER_KEYS = frozenset(("material", "thickness_mm", "poling", "electroded"))


def build_section(layup: dict, materials: dict | None = None) -> Section:
    """Build a Section from a parsed layup description.

    Expected keys: width_mm, wiring ('parallel' | 'independent') and layers,
    a bottom-to-top list of {material, thickness_mm, poling, electroded}.
    Any other key is rejected, naming the nearest known key; material,
    poling and wiring must be strings, width_mm and thickness_mm numbers
    (an int or a float, not a bool) and electroded a bool.
    Material names resolve against the optional materials mapping first and
    then against the built-in records, which are built only if a name is
    missing from the mapping; each distinct name resolves once per call.
    """
    materials = materials or {}
    builtins = None
    planes = {}
    _check_object(layup, "layup", LayupError, _LAYUP_KEYS)
    try:
        width = layup["width_mm"]
        wiring = layup.get("wiring", "parallel")
        entries = layup["layers"]
    except KeyError as exc:
        raise LayupError(f"malformed layup description: missing key {exc}") from exc
    width = _check_number(width, "width_mm", LayupError) * 1e-3
    _check_str(wiring, "wiring", LayupError)
    if not isinstance(entries, (list, tuple)):
        raise LayupError(f"layup field 'layers' must be a list, got {entries!r}")
    if not entries:
        raise LayupError("layup has no layers")
    layers = []
    for entry in entries:
        # one subset test per layer on the accepted path
        if type(entry) is not dict or not _LAYER_KEYS.issuperset(entry):
            _check_object(entry, "layer", LayupError, _LAYER_KEYS)
        try:
            name = entry["material"]
            thickness = _check_number(entry["thickness_mm"], "thickness_mm", LayupError) * 1e-3
            poling_key = entry.get("poling", "none")
            electroded = entry.get("electroded", False)
        except KeyError as exc:
            raise LayupError(f"malformed layer entry: missing key {exc}") from exc
        if type(name) is not str or type(poling_key) is not str:
            _check_str(name, "material", LayupError)
            _check_str(poling_key, "poling", LayupError)
        if not isinstance(electroded, bool):
            raise LayupError(f"layer field 'electroded' must be true or false, "
                             f"got {electroded!r}")
        plane = planes.get(name)
        if plane is None and name not in materials:
            if builtins is None:
                builtins = builtin_materials()
            if name not in builtins:
                raise LayupError(f"unknown material {name!r}")
        if poling_key not in _POLING:
            raise LayupError(f"unknown poling {poling_key!r} (expected +z, -z or none)")
        if plane is None:
            record = materials[name] if name in materials else builtins[name]
            plane = planes[name] = as_plane(record)
        layers.append(Layer(plane, thickness, _POLING[poling_key], electroded))
    return Section(layers=tuple(layers), width=width, wiring=wiring)


def load_layup(path, material_db=None) -> Section:
    """Parse a layup JSON file, resolving materials against an optional database."""
    try:
        layup = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise LayupError(f"malformed layup file {path}: {exc}") from exc
    return build_section(layup, materials=material_db)
