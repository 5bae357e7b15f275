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

Every matrix and scalar of a record must be finite; a NaN or infinite
constant is rejected, naming the field, before the symmetry and positive
definiteness tests run. Positive definiteness is tested by a Cholesky
factorization of the symmetric part 0.5 * (m + m.T), which fails exactly
when some eigenvalue is not positive (up to round-off). An exactly diagonal
matrix is tested by diagonal > 0 instead: its pivots 0.5 * (d + d) have the
sign of d, for -0.0, subnormals and an overflow to inf too. numpy factors a
NaN or infinite matrix without an error, so the test assumes finite input.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

#: Vacuum permittivity, F/m.
EPS0 = 8.8541878128e-12


class MaterialError(ValueError):
    """Invalid material constants or material database content."""


def _unknown_keys_message(what: str, keys, known) -> str:
    """Name each key not in known, with the nearest known key when there is one."""
    import difflib  # here, on the error path: at module level it slows every CLI start

    parts = []
    for key in sorted(set(keys) - set(known), key=repr):
        near = difflib.get_close_matches(key, sorted(known), n=1) if isinstance(key, str) else []
        parts.append(f"{key!r}" + (f" (did you mean {near[0]!r}?)" if near else ""))
    return f"unknown {what} key{'s' if len(parts) > 1 else ''} {', '.join(parts)}"


# JSON field checks shared by the material database and the layup reader: each
# raises the caller's error type, its message led by the caller's prefix

def _check_object(entry, what, error, known=None, prefix=""):
    """Reject a non-object entry or, when known is given, one with a key not in known."""
    if not isinstance(entry, dict):
        raise error(f"{prefix}{what} must be a JSON object, got {entry!r}")
    if known is not None and entry.keys() - set(known):
        raise error(prefix + _unknown_keys_message(what, entry, known))


def _check_str(value, field, error, prefix=""):
    if type(value) is not str:
        raise error(f"{prefix}field {field!r} must be a string, got {value!r}")


def _check_number(value, field, error, prefix=""):
    """A finite JSON number: an int or a float, not a bool (an int beyond float range fails)."""
    if type(value) not in (int, float) or not abs(value) < 1e308:
        raise error(f"{prefix}field {field!r} must be a finite number, got {value!r}")
    return value


def _as_matrix(value, shape, what):
    m = np.array(value, dtype=float)
    if m.shape != shape:
        raise MaterialError(f"{what} must have shape {shape}, got {m.shape}")
    if not np.isfinite(m).all():
        raise MaterialError(f"{what} has non-finite entries")
    m.flags.writeable = False
    return m


def _check_density(name, density):
    if not 0.0 < density < math.inf:
        raise MaterialError(f"{name}: density must be positive and finite")


def _is_positive_definite(m) -> bool:
    """Whether the symmetric part of a finite square matrix is positive definite.

    np.linalg.cholesky reads only the lower triangle, so the symmetric part
    is factored, not m itself, unless m is exactly diagonal: then diagonal > 0
    is the same test, in O(n^2). A NaN or infinite m factors without an
    error: the caller checks finiteness first.
    """
    d = m.diagonal()
    if np.count_nonzero(m) == np.count_nonzero(d):
        return bool((d > 0).all())
    try:
        np.linalg.cholesky(0.5 * (m + m.T))
    except np.linalg.LinAlgError:
        return False
    return True


def _check_spd(m, what, rtol=1e-8):
    """Reject a finite matrix that is not symmetric (to rtol) or not positive definite."""
    scale = np.max(np.abs(m))
    if scale > 0 and np.max(np.abs(m - m.T)) > rtol * scale:
        raise MaterialError(f"{what} is not symmetric")
    if not _is_positive_definite(m):
        raise MaterialError(f"{what} is not positive definite")


def _check_3d(record, fields):
    """Store a 3D record's matrices read-only, then check them and its density.

    fields: the stiffness or compliance, the piezoelectric, the permittivity.
    """
    for field, shape in zip(fields, ((6, 6), (3, 6), (3, 3))):
        matrix = _as_matrix(getattr(record, field), shape, f"{record.name}: {field}")
        object.__setattr__(record, field, matrix)
    for field in (fields[0], fields[2]):
        _check_spd(getattr(record, field), f"{record.name}: {field}")
    _check_density(record.name, record.density)


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
        _check_3d(self, ("cE", "e", "epsS"))

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
        _check_3d(self, ("sE", "d", "epsT"))

    @cached_property
    def plane(self) -> PlaneMaterial:
        """The e-form record condensed to the plane, computed on first use."""
        return condense_to_plane(convert_d_to_e(self))


@dataclass(frozen=True)
class PlaneMaterial:
    """Thickness-condensed in-plane constants (T33 and shears eliminated).

    The remaining fields are the axial/transverse normal stresses T11, T22
    and the through-thickness electric pair E3, D3. Every constant must be
    finite, and the in-plane stiffness [[Q11, Q12], [Q12, Q22]] must be
    positive definite.
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
        for field in ("Q11", "Q12", "Q22", "e31", "e32", "eps33"):
            if not math.isfinite(getattr(self, field)):
                raise MaterialError(f"{self.name}: {field} must be finite")
        q = np.array([[self.Q11, self.Q12], [self.Q12, self.Q22]])
        _check_spd(q, f"{self.name}: in-plane stiffness")
        if not self.eps33 > 0.0:
            raise MaterialError(f"{self.name}: eps33 must be positive")
        _check_density(self.name, self.density)

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
    if not _is_positive_definite(epsS):
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


# per record form: the record type and its matrix keys, in field order
_FORMS = {"e": (Material3D, ("cE_Pa", "e_C_per_m2", "epsS_F_per_m")),
          "d": (MaterialDForm, ("sE_per_Pa", "d_m_per_V", "epsT_F_per_m"))}
_RECORD_KEYS = ("name", "form", "density_kg_m3", "provenance")


def _record_from_json(entry):
    _check_object(entry, "entry", MaterialError, prefix="malformed database: ")
    name = entry.get("name")
    _check_str(name, "name", MaterialError, prefix="malformed database: entry ")
    form = entry.get("form")
    if type(form) is not str or form not in _FORMS:
        raise MaterialError(f"invalid material {name}: unknown form {form!r}")
    record_type, matrix_keys = _FORMS[form]
    invalid = f"invalid material {name}: "
    _check_object(entry, f"{form}-form record", MaterialError, _RECORD_KEYS + matrix_keys,
                  prefix=invalid)
    try:
        matrices = [entry[key] for key in matrix_keys]
        density = entry["density_kg_m3"]
    except KeyError as exc:
        raise MaterialError(f"malformed database: entry {name!r} missing key {exc}") from exc
    _check_number(density, "density_kg_m3", MaterialError, prefix=invalid)
    try:
        return record_type(name, *matrices, density=float(density),
                           provenance=entry.get("provenance", ""))
    except (TypeError, ValueError, OverflowError) as exc:
        raise MaterialError(f"{invalid}{exc}") from exc


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
    if not isinstance(entries, list):
        raise MaterialError(f"malformed database {path}: 'materials' must be a list")
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
