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

Under every closure S22 is linear in z within a layer, so T11, T22 and D3
are layerwise linear in z and linear in the generalized state. The
reduction, the NSR transverse field and the stress recovery all read one
per-layer table: the condensed material columns, the layer moments and the
field E3 = -poling * V / h per generalized state. The reduction evaluates
the table over the 2+T unit states, and stress recovery over the one
imposed state. The moments int 1, int z and int z^2 of a layer of
thickness h centered at zc are written as h, h*zc and h*zc^2 + h^3/12.
Plain differences such as (z1^2 - z0^2)/2 cancel for a thin layer far from
the mid-plane: for a 1e-12 mm skin on a 2 mm core they keep only about
four digits. The centered forms keep full relative precision.

A Section is immutable, so it builds its table once, on first use, and
every reduction, transverse field and stress recovery of that section reads
the same table. The table's arrays are read-only; stress recovery swaps its
one state in with _replace and never writes to the shared arrays.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .materials import PlaneMaterial, as_plane, builtin_materials


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
        if not 0.0 < self.thickness < np.inf:
            raise LayupError(f"layer thickness must be positive and finite, "
                             f"got {self.thickness}")
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
        if not 0.0 < self.width < np.inf:
            raise LayupError(f"width must be positive and finite, got {self.width}")
        if self.wiring not in ("parallel", "independent"):
            raise LayupError(f"unknown wiring {self.wiring!r}")

    @property
    def thickness(self) -> float:
        return sum(l.thickness for l in self.layers)

    @cached_property
    def z_interfaces(self) -> tuple:
        z = [-self.thickness / 2.0]
        for l in self.layers:
            z.append(z[-1] + l.thickness)
        return tuple(z)

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

    def terminal_of(self, layer_index: int):
        for t, members in enumerate(self.terminals):
            if layer_index in members:
                return t
        return None

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
        object.__setattr__(self, "voltages", tuple(float(v) for v in self.voltages))


@dataclass(frozen=True)
class SectionConstitutive:
    """Assembled (2+T)x(2+T) coupled constitutive matrix.

    matrix rows/columns are ordered (eps, kappa, V_0, ..., V_{T-1}) against
    (N, M, q_0, ..., q_{T-1}). The matrix is stored exactly as assembled,
    without symmetrization; its symmetry is the reciprocity statement.
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
        if not np.all(np.isfinite(m)):
            raise LayupError("constitutive matrix has non-finite entries")
        if np.min(np.linalg.eigvalsh(0.5 * (self.kmm + self.kmm.T))) <= 0.0:
            raise LayupError("mechanical stiffness block is not positive definite")
        if self.n_terminals and np.min(np.linalg.eigvalsh(0.5 * (self.cq + self.cq.T))) <= 0.0:
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


@dataclass(frozen=True)
class TransverseField:
    """Section-wide transverse strain S22(z) = a + b*z of the NSR closure.

    coefficients[j] = (a, b) for the unit generalized state j, ordered
    (eps, kappa, V_0, ..., V_{T-1}).
    """

    coefficients: np.ndarray

    def for_state(self, state: GeneralizedState) -> tuple:
        u = np.concatenate(([state.eps, state.kappa], state.voltages))
        a, b = u @ self.coefficients
        return float(a), float(b)


@dataclass(frozen=True)
class StressProfile:
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
    """Struct of arrays over the layers of one section and a set of states.

    Per-layer columns have shape (L, 1) and broadcast against the (L, S)
    fields over S generalized states: the 2+T unit states when reducing, one
    state when recovering stresses. eps and kappa are the (1, S) rows of the
    states' strain and curvature; e3 holds E3 in each layer's poling frame.
    m0, m1, m2 are the exact layer integrals of 1, z and z^2, written around
    the layer center zc. Electroded layer members[i] feeds terminal
    collect[i].
    """

    q11: np.ndarray
    q12: np.ndarray
    q22: np.ndarray
    e31: np.ndarray
    e32: np.ndarray
    eps33: np.ndarray
    poling: np.ndarray
    zc: np.ndarray
    m0: np.ndarray
    m1: np.ndarray
    m2: np.ndarray
    eps: np.ndarray
    kappa: np.ndarray
    e3: np.ndarray
    members: np.ndarray
    collect: np.ndarray


def _layer_table(section: Section) -> _LayerTable:
    """The table of a section over its 2+T unit generalized states."""
    q11, q12, q22, e31, e32, eps33, poling, h, z0 = np.array(
        [(l.material.Q11, l.material.Q12, l.material.Q22, l.material.e31, l.material.e32,
          l.material.eps33, l.poling, l.thickness, z) for l, z in
         zip(section.layers, section.z_interfaces)]).T[:, :, None]
    terminals = section.terminals
    members, collect = np.array([(i, t) for t, m in enumerate(terminals) for i in m],
                                dtype=int).reshape(-1, 2).T
    unit = np.eye(2, 2 + len(terminals))
    e3 = np.zeros((len(h), unit.shape[1]))
    e3[members, 2 + collect] = -poling[members, 0] / h[members, 0]
    zc = z0 + 0.5 * h
    m1 = h * zc
    table = _LayerTable(q11, q12, q22, e31, e32, eps33, poling, zc, h, m1,
                        m1 * zc + h ** 3 / 12.0, unit[:1], unit[1:], e3, members, collect)
    for column in table:
        column.flags.writeable = False
    return table


def _integrals(t: _LayerTable, c0, c1) -> tuple:
    """int f dz and int z*f dz of the layerwise-linear f = c0 + c1*z."""
    return ((c0 * t.m0 + c1 * t.m1).sum(axis=0), (c0 * t.m1 + c1 * t.m2).sum(axis=0))


def _s22(t: _LayerTable, closure: Closure) -> tuple:
    """Coefficients (s0, s1) of S22 = s0 + s1*z per layer and state."""
    if closure is Closure.ND:
        return 0.0, 0.0
    if closure is Closure.NS:
        return (t.e32 * t.e3 - t.q12 * t.eps) / t.q22, -t.q12 * t.kappa / t.q22
    # a + b*z cancels both resultants of the T22 that S22 = 0 leaves
    n2, m2 = _integrals(t, t.q12 * t.eps - t.e32 * t.e3, t.q12 * t.kappa)
    k0, k1, k2 = np.sum(t.q22 * (t.m0, t.m1, t.m2), axis=(1, 2))
    a, b = np.linalg.solve(((k0, k1), (k1, k2)), -np.array((n2, m2)))
    return a, b


def _t11(t: _LayerTable, s0, s1) -> tuple:
    """Coefficients (c0, c1) of T11 = c0 + c1*z per layer and state."""
    return (t.q11 * t.eps + t.q12 * s0 - t.e31 * t.e3, t.q11 * t.kappa + t.q12 * s1)


def nsr_transverse_field(section: Section) -> TransverseField:
    """Solve the 2x2 resultant-annihilation system for all unit states at once."""
    a, b = _s22(section._table, Closure.NSR)
    return TransverseField(coefficients=np.column_stack((a, b)))


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
    s0, s1 = _s22(t, closure)
    n, m = _integrals(t, *_t11(t, s0, s1))
    d3 = t.e31 * (t.eps + t.kappa * t.zc) + t.e32 * (s0 + s1 * t.zc) + t.eps33 * t.e3
    q = np.zeros((len(n) - 2, len(n)))
    np.add.at(q, t.collect, t.poling[t.members] * d3[t.members])
    # q = -width * sum(poling * mean D3); mechanical columns carry the sensing
    # sign, voltage columns the charge per volt, so the electrical block is +Cq
    q[:, 2:] *= -1.0
    return SectionConstitutive(matrix=section.width * np.vstack((n, m, q)),
                               n_terminals=len(q), closure=closure, width=section.width)


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


def recover_stress_profile(section: Section, closure, state: GeneralizedState,
                           samples_per_layer: int = 11) -> StressProfile:
    """Layerwise-linear T11 and T22 fields for an imposed generalized state."""
    closure = Closure.coerce(closure)
    if len(state.voltages) != section.n_terminals:
        raise LayupError(f"state has {len(state.voltages)} voltages, "
                         f"section has {section.n_terminals} terminals")
    t = section._table
    # the one state in place of the unit states: every field has one column
    u = np.array((state.eps, state.kappa) + state.voltages)
    t = t._replace(eps=u[:1, None], kappa=u[1:2, None],
                   e3=(t.e3 * u).sum(axis=1, keepdims=True))
    s0, s1 = _s22(t, closure)
    t11 = np.hstack(_t11(t, s0, s1))
    if closure is Closure.NS:
        # T22 = 0 is the definition of the closure, not a computed value
        t22 = np.zeros_like(t11)
    else:
        t22 = np.hstack((t.q12 * t.eps + t.q22 * s0 - t.e32 * t.e3,
                         t.q12 * t.kappa + t.q22 * s1))
    n2, m2 = _integrals(t, t22[:, :1], t22[:, 1:])

    z = section.z_interfaces
    zq = np.linspace(z[:-1], z[1:], samples_per_layer, axis=1)
    samples = np.column_stack((np.repeat(np.arange(len(zq)), samples_per_layer), zq.ravel(),
                               (t11[:, :1] + t11[:, 1:] * zq).ravel(),
                               (t22[:, :1] + t22[:, 1:] * zq).ravel()))
    return StressProfile(z_interfaces=z, t11_coefficients=t11, t22_coefficients=t22,
                         samples=samples, n2=float(n2[0]), m2=float(m2[0]))


@dataclass(frozen=True)
class ClosureComparison:
    """One closure's headline quantities for the comparison table."""

    closure: Closure
    capacitance: float                  # blocked constitutive capacitance, F/m
    capacitance_free: float             # released at N = M = 0, F/m
    extension_stiffness: float          # A, N
    bending_stiffness_short: float      # D condensed at N = 0, short circuit, N m^2
    bending_voltage_coupling: float     # gk of the first terminal, N m/V
    deviation_pct: float | None = None  # (model - reference) / reference * 100


@dataclass(frozen=True)
class ComparisonTable:
    rows: tuple
    reference_capacitance: float | None = None


def compare_closures(section: Section, reference_capacitance: float | None = None,
                     terminal: int = 0) -> ComparisonTable:
    """Evaluate all three closures on one section.

    The capacitance column holds the blocked (constitutive) capacitance of
    the given terminal; the percent deviation against an optional reference
    uses the declared convention (model - reference) / reference * 100.
    """
    rows = []
    for closure in (Closure.ND, Closure.NS, Closure.NSR):
        k = reduce_section(section, closure)
        if k.n_terminals:
            cap = capacitance_per_length(k, "blocked", terminal)
            cap_free = capacitance_per_length(k, "free", terminal)
            gk = float(k.gk[terminal])
        else:
            cap = cap_free = gk = 0.0
        a = k.extension_stiffness
        d_sc = k.bending_stiffness - k.coupling_stiffness ** 2 / a
        dev = None
        if reference_capacitance is not None:
            dev = (cap - reference_capacitance) / reference_capacitance * 100.0
        rows.append(ClosureComparison(closure=closure, capacitance=cap,
                                      capacitance_free=cap_free, extension_stiffness=a,
                                      bending_stiffness_short=d_sc,
                                      bending_voltage_coupling=gk, deviation_pct=dev))
    return ComparisonTable(rows=tuple(rows), reference_capacitance=reference_capacitance)


# ---------------------------------------------------------------------------
# layup files

_POLING = {"+z": 1, "-z": -1, "none": 0}


def build_section(layup: dict, materials: dict | None = None) -> Section:
    """Build a Section from a parsed layup description.

    Expected keys: width_mm, wiring ('parallel' | 'independent') and layers,
    a bottom-to-top list of {material, thickness_mm, poling, electroded}.
    Material names resolve against the optional materials mapping first and
    then against the built-in records, which are built only if a name is
    missing from the mapping.
    """
    materials = materials or {}
    builtins = None
    try:
        width = float(layup["width_mm"]) * 1e-3
        wiring = layup.get("wiring", "parallel")
        entries = layup["layers"]
    except (KeyError, TypeError) as exc:
        raise LayupError(f"malformed layup description: {exc}") from exc
    if not entries:
        raise LayupError("layup has no layers")
    layers = []
    for entry in entries:
        try:
            name = entry["material"]
            thickness = float(entry["thickness_mm"]) * 1e-3
            poling_key = entry.get("poling", "none")
            electroded = entry.get("electroded", False)
        except (KeyError, TypeError) as exc:
            raise LayupError(f"malformed layer entry: {exc}") from exc
        if not isinstance(electroded, bool):
            raise LayupError(f"layer field 'electroded' must be true or false, "
                             f"got {electroded!r}")
        if name in materials:
            record = materials[name]
        else:
            if builtins is None:
                builtins = builtin_materials()
            if name not in builtins:
                raise LayupError(f"unknown material {name!r}")
            record = builtins[name]
        if poling_key not in _POLING:
            raise LayupError(f"unknown poling {poling_key!r} (expected +z, -z or none)")
        layers.append(Layer(material=as_plane(record), thickness=thickness,
                            poling=_POLING[poling_key], electroded=electroded))
    return Section(layers=tuple(layers), width=width, wiring=wiring)


def load_layup(path, material_db=None) -> Section:
    """Parse a layup JSON file, resolving materials against an optional database."""
    try:
        layup = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise LayupError(f"malformed layup file {path}: {exc}") from exc
    return build_section(layup, materials=material_db)
