"""Material records for piezoelectric and elastic layers.

Conventions used throughout the package:

* Voigt order (11, 22, 33, 23, 13, 12) for all 6-component quantities.
* SI units internally (Pa, C/m^2, F/m, m/V, kg/m^3); display units exist
  only at the CLI boundary.
* Piezoelectric constants are stored for poling along the +3 axis. A layer
  poled along -z reuses the same record; the section assembly applies the
  poling sign.

Two storage forms are supported: the e-form (stiffness cE at constant
field, stress constants e, clamped permittivity epsS) used by the section
reduction, and the d-form (compliance sE, strain constants d, free
permittivity epsT) in which vendor datasheets are published.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

#: Vacuum permittivity, F/m.
EPS0 = 8.8541878128e-12


class MaterialError(ValueError):
    """Invalid material constants or material database content."""


def _as_matrix(value, shape, what):
    m = np.array(value, dtype=float)
    if m.shape != shape:
        raise MaterialError(f"{what} must have shape {shape}, got {m.shape}")
    m.flags.writeable = False
    return m


def _check_symmetric(m, what, rtol=1e-8):
    scale = np.max(np.abs(m))
    if scale > 0 and np.max(np.abs(m - m.T)) > rtol * scale:
        raise MaterialError(f"{what} is not symmetric")


def _check_positive_definite(m, what):
    if np.min(np.linalg.eigvalsh(0.5 * (m + m.T))) <= 0.0:
        raise MaterialError(f"{what} is not positive definite")


@dataclass(frozen=True)
class Material3D:
    """Full 3D constants in e-form (stiffness / stress-constant / clamped)."""

    name: str
    cE: np.ndarray       # 6x6 stiffness at constant field, Pa
    e: np.ndarray        # 3x6 piezoelectric stress constants, C/m^2
    epsS: np.ndarray     # 3x3 permittivity at constant strain, F/m
    density: float       # kg/m^3
    provenance: str = ""

    def __post_init__(self):
        object.__setattr__(self, "cE", _as_matrix(self.cE, (6, 6), f"{self.name}: cE"))
        object.__setattr__(self, "e", _as_matrix(self.e, (3, 6), f"{self.name}: e"))
        object.__setattr__(self, "epsS", _as_matrix(self.epsS, (3, 3), f"{self.name}: epsS"))
        _check_symmetric(self.cE, f"{self.name}: cE")
        _check_positive_definite(self.cE, f"{self.name}: cE")
        _check_symmetric(self.epsS, f"{self.name}: epsS")
        _check_positive_definite(self.epsS, f"{self.name}: epsS")
        if not self.density > 0.0:
            raise MaterialError(f"{self.name}: density must be positive")

    @property
    def is_elastic(self) -> bool:
        return not np.any(self.e)

    @cached_property
    def plane(self) -> PlaneMaterial:
        """The thickness-condensed record, computed on first use."""
        return condense_to_plane(self)


@dataclass(frozen=True)
class MaterialDForm:
    """Full 3D constants in d-form (compliance / strain-constant / free)."""

    name: str
    sE: np.ndarray       # 6x6 compliance at constant field, 1/Pa
    d: np.ndarray        # 3x6 piezoelectric strain constants, m/V
    epsT: np.ndarray     # 3x3 permittivity at constant stress, F/m
    density: float       # kg/m^3
    provenance: str = ""

    def __post_init__(self):
        object.__setattr__(self, "sE", _as_matrix(self.sE, (6, 6), f"{self.name}: sE"))
        object.__setattr__(self, "d", _as_matrix(self.d, (3, 6), f"{self.name}: d"))
        object.__setattr__(self, "epsT", _as_matrix(self.epsT, (3, 3), f"{self.name}: epsT"))
        _check_symmetric(self.sE, f"{self.name}: sE")
        _check_positive_definite(self.sE, f"{self.name}: sE")
        _check_symmetric(self.epsT, f"{self.name}: epsT")
        _check_positive_definite(self.epsT, f"{self.name}: epsT")
        if not self.density > 0.0:
            raise MaterialError(f"{self.name}: density must be positive")

    @cached_property
    def plane(self) -> PlaneMaterial:
        """The e-form record condensed to the plane, computed on first use."""
        return condense_to_plane(convert_d_to_e(self))


@dataclass(frozen=True)
class PlaneMaterial:
    """Thickness-condensed in-plane constants (T33 and shears eliminated).

    The remaining fields are the axial/transverse normal stresses T11, T22
    and the through-thickness electric pair E3, D3. The in-plane stiffness
    [[Q11, Q12], [Q12, Q22]] must be positive definite.
    """

    name: str
    Q11: float           # Pa
    Q12: float           # Pa
    Q22: float           # Pa
    e31: float           # C/m^2
    e32: float           # C/m^2
    eps33: float         # F/m
    density: float       # kg/m^3

    def __post_init__(self):
        q = np.array([[self.Q11, self.Q12], [self.Q12, self.Q22]])
        _check_positive_definite(q, f"{self.name}: in-plane stiffness")
        if not self.eps33 > 0.0:
            raise MaterialError(f"{self.name}: eps33 must be positive")
        if not self.density > 0.0:
            raise MaterialError(f"{self.name}: density must be positive")

    @property
    def has_coupling(self) -> bool:
        return self.e31 != 0.0 or self.e32 != 0.0


# permutation that swaps the material 1 and 2 axes in Voigt order
_SWAP12_6 = (1, 0, 2, 4, 3, 5)
_SWAP12_3 = (1, 0, 2)


def _swap_axes_12(m: np.ndarray) -> np.ndarray:
    rows = _SWAP12_6 if m.shape[0] == 6 else _SWAP12_3
    cols = _SWAP12_6 if m.shape[1] == 6 else _SWAP12_3
    return m[np.ix_(rows, cols)]


def convert_d_to_e(m: MaterialDForm) -> Material3D:
    """Convert a d-form record to e-form: cE = sE^-1, e = d cE, epsS = epsT - d cE d^T."""
    try:
        cE = np.linalg.inv(m.sE)
    except np.linalg.LinAlgError as exc:
        raise MaterialError(f"{m.name}: non-invertible compliance") from exc
    cE = 0.5 * (cE + cE.T)
    e = m.d @ cE
    epsS = m.epsT - m.d @ cE @ m.d.T
    epsS = 0.5 * (epsS + epsS.T)
    # the conversion must commute with a 1<->2 material symmetry; averaging
    # with the axis-swapped result removes the round-off bias of the generic
    # inversion, so transversely isotropic inputs keep c11 = c22, e31 = e32
    # exactly
    if all(np.array_equal(a, _swap_axes_12(a)) for a in (m.sE, m.d, m.epsT)):
        cE = 0.5 * (cE + _swap_axes_12(cE))
        e = 0.5 * (e + _swap_axes_12(e))
        epsS = 0.5 * (epsS + _swap_axes_12(epsS))
    if np.min(np.linalg.eigvalsh(epsS)) <= 0.0:
        raise MaterialError(f"{m.name}: inconsistent constants (epsS not positive definite)")
    return Material3D(name=m.name, cE=cE, e=e, epsS=epsS,
                      density=m.density, provenance=m.provenance)


def condense_to_plane(m: Material3D) -> PlaneMaterial:
    """Eliminate T33 (and the shear components) keeping E3 as independent field.

    Q_ij   = cE_ij - cE_i3 cE_j3 / cE_33          (i, j in {1, 2})
    e3i    = e_3i - e_33 cE_i3 / cE_33
    eps33  = epsS_33 + e_33^2 / cE_33
    """
    c33 = m.cE[2, 2]
    if c33 <= 0.0:
        raise MaterialError(f"{m.name}: degenerate thickness stiffness")
    q = {(i, j): m.cE[i, j] - m.cE[i, 2] * m.cE[j, 2] / c33 for i in (0, 1) for j in (0, 1)}
    e31 = m.e[2, 0] - m.e[2, 2] * m.cE[0, 2] / c33
    e32 = m.e[2, 1] - m.e[2, 2] * m.cE[1, 2] / c33
    eps33 = m.epsS[2, 2] + m.e[2, 2] ** 2 / c33
    return PlaneMaterial(name=m.name, Q11=q[(0, 0)], Q12=q[(0, 1)], Q22=q[(1, 1)],
                         e31=e31, e32=e32, eps33=eps33, density=m.density)


def as_plane(record) -> PlaneMaterial:
    """Condense any supported record type to a PlaneMaterial.

    A Material3D or MaterialDForm record is frozen, so it is condensed (and a
    d-form record converted) once, on first use, and every later call returns
    the same PlaneMaterial.
    """
    if isinstance(record, PlaneMaterial):
        return record
    if isinstance(record, (Material3D, MaterialDForm)):
        return record.plane
    raise MaterialError(f"unsupported material record type {type(record).__name__}")


def isotropic_elastic(name: str, youngs: float, poisson: float, density: float,
                      provenance: str = "") -> Material3D:
    """Build an isotropic elastic e-form record from engineering constants."""
    lam = youngs * poisson / ((1 + poisson) * (1 - 2 * poisson))
    mu = youngs / (2 * (1 + poisson))
    cE = np.diag([2 * mu, 2 * mu, 2 * mu, mu, mu, mu]).astype(float)
    cE[:3, :3] += lam
    return Material3D(name=name, cE=cE, e=np.zeros((3, 6)),
                      epsS=EPS0 * np.eye(3), density=density, provenance=provenance)


def _pzt_5h() -> MaterialDForm:
    # Vendor d31/d33/epsT33/density completed with the standard published
    # PZT-5H compliances, shear constants, d15 and epsT11.
    sE = np.array([
        [16.5e-12, -4.78e-12, -8.45e-12, 0.0, 0.0, 0.0],
        [-4.78e-12, 16.5e-12, -8.45e-12, 0.0, 0.0, 0.0],
        [-8.45e-12, -8.45e-12, 20.7e-12, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 43.5e-12, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 43.5e-12, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, 42.6e-12],
    ])
    d = np.zeros((3, 6))
    d[2, 0] = d[2, 1] = -320e-12
    d[2, 2] = 650e-12
    d[0, 4] = d[1, 3] = 741e-12
    epsT = np.diag([3130.0 * EPS0, 3130.0 * EPS0, 3800.0 * EPS0])
    return MaterialDForm(
        name="PZT-5H", sE=sE, d=d, epsT=epsT, density=7800.0,
        provenance=("Piezo Systems PSI-5H4E datasheet (d31=-320 pm/V, d33=650 pm/V, "
                    "epsT33=3800 eps0, rho=7800 kg/m3) completed with standard "
                    "published PZT-5H sE, d15 and epsT11"),
    )


def _al_6061() -> Material3D:
    return isotropic_elastic("Al-6061", youngs=69e9, poisson=0.33, density=2700.0,
                             provenance="generic Al-6061: E=69 GPa, nu=0.33")


def builtin_materials() -> dict:
    """The records that are always available, even with no database file."""
    return {"PZT-5H": _pzt_5h(), "Al-6061": _al_6061()}


def _record_from_json(entry: dict):
    try:
        name = entry["name"]
        form = entry["form"]
        density = float(entry["density_kg_m3"])
        provenance = entry.get("provenance", "")
        if form == "e":
            return Material3D(name=name, cE=entry["cE_Pa"], e=entry["e_C_per_m2"],
                              epsS=entry["epsS_F_per_m"], density=density,
                              provenance=provenance)
        if form == "d":
            return MaterialDForm(name=name, sE=entry["sE_per_Pa"], d=entry["d_m_per_V"],
                                 epsT=entry["epsT_F_per_m"], density=density,
                                 provenance=provenance)
        raise MaterialError(f"invalid material {name}: unknown form {form!r}")
    except KeyError as exc:
        raise MaterialError(f"malformed database: entry missing key {exc}") from exc
    except MaterialError as exc:
        raise MaterialError(f"invalid material {entry.get('name', '?')}: {exc}") from exc


def load_material_db(path=None) -> dict:
    """Load named material records, merging a JSON database over the built-ins.

    A file entry that redefines a built-in name shadows it (with a warning);
    duplicate names within one file are rejected.
    """
    records = builtin_materials()
    builtin_names = set(records)
    if path is None:
        return records
    text = Path(path).read_text()
    if not text.strip():
        return records
    try:
        doc = json.loads(text)
        entries = doc["materials"]
    except (json.JSONDecodeError, TypeError, KeyError) as exc:
        raise MaterialError(f"malformed database {path}: {exc}") from exc
    seen = set()
    for entry in entries:
        record = _record_from_json(entry)
        if record.name in seen:
            raise MaterialError(f"malformed database {path}: duplicate material {record.name!r}")
        seen.add(record.name)
        if record.name in builtin_names:
            warnings.warn(f"material database {path} shadows built-in {record.name!r}",
                          stacklevel=2)
        records[record.name] = record
    return records
