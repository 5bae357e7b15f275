"""Material records for piezoelectric and elastic layers, in README's Conventions.

Two storage forms are supported: the e-form (stiffness cE at constant
field, stress constants e, clamped permittivity epsS) used by the section
reduction, and the d-form (compliance sE, strain constants d, free
permittivity epsT) in which vendor datasheets are published.
"""

from __future__ import annotations

import json
import math
from functools import cache
from itertools import repeat
from pathlib import Path

import numpy as np

#: Vacuum permittivity, F/m.
EPS0 = 8.8541878128e-12

# the smallest positive and the largest double: [_TINY, hi] is (0, hi] for ints and floats
_TINY, _HUGE = math.ulp(0.0), float.fromhex("0x1.fffffffffffffp+1023")


class MaterialError(ValueError):
    """Invalid material constants or material database content."""


def _is_real(value, lo=-_HUGE, hi=_HUGE) -> bool:
    """Whether value is a number in [lo, hi]: the package's one rule for a caller's number.

    A number is an int, a float, or a numpy integer or floating scalar. A
    bool, an np.bool_, a string (never parsed), a complex, an array (even
    0-d), NaN and a value beyond the double range are not; with the default
    bounds, neither is an infinity.
    """
    if type(value) not in (float, int):    # first: most values are floats, isinstance is slower
        # a numpy value compares as a Python float, so no bound is cast to float32 and
        # overflows, and a long double beyond the double range is inf; the rest is NaN
        value = float(value) if isinstance(value, (np.floating, np.integer)) else math.nan
    return lo <= value <= hi


def _is_count(value, lo, hi=_HUGE) -> bool:
    """Whether value is a count in [lo, hi]: an int or numpy integer that is not a bool.

    A count is a number too, so by default it lies within the double range.
    """
    return (type(value) is int or isinstance(value, np.integer)) and lo <= value <= hi


class _Record:
    """Base of the package's immutable records.

    A record's fields are its __init__ parameters, in order; __init__ checks
    and stores them, after which no attribute can be set or deleted.
    Records compare and hash by the tuple of their fields, within one class.
    """

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]

    @staticmethod
    def _astuple(record) -> tuple:
        """The tuple of record's fields, one field too; called as self._astuple(self)."""
        return tuple(getattr(record, f) for f in record._fields)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    __delattr__ = __setattr__

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._astuple(self) == other._astuple(other)

    def __hash__(self):
        return hash(self._astuple(self))


# JSON objects: _read_fields checks one against a table that maps each allowed
# key to (kind, default), a kind being the types its value may have, or _is_real
# for _NUMBER; a key whose default is _REQUIRED must be present (no kind takes it)

_REQUIRED = object()
_STR, _NUMBER, _BOOL = frozenset((str,)), _is_real, frozenset((bool, np.bool_))
_LIST = frozenset((list, tuple))
_ANY = frozenset((dict, list, str, int, float, bool, type(None)))
_KIND_NAMES = {_STR: "a string", _NUMBER: "a finite number", _BOOL: "true or false",
               _LIST: "a list"}


def _read_fields(entry, fields, what, error, prefix=""):
    """The values of a JSON object's fields, in table order, or error naming the first fault.

    An unknown key is named with the nearest known key.
    """
    if not isinstance(entry, dict):
        raise error(f"{prefix}{what} must be a JSON object, got {entry!r}")
    if not fields.keys() >= entry.keys():
        import difflib  # here, on the error path: at module level it slows every CLI start
        parts = []
        for key in sorted(entry.keys() - fields.keys(), key=repr):
            near = (difflib.get_close_matches(key, sorted(fields), n=1)
                    if isinstance(key, str) else [])
            parts.append(f"{key!r}" + (f" (did you mean {near[0]!r}?)" if near else ""))
        raise error(f"{prefix}unknown {what} key{'s' if len(parts) > 1 else ''} {', '.join(parts)}")
    values = []
    for key, (kind, default) in fields.items():
        value = entry.get(key, default)
        if not (_is_real(value) if kind is _NUMBER else type(value) in kind):
            if value is _REQUIRED:
                raise error(f"{prefix}{what} is missing key {key!r}")
            raise error(f"{prefix}field {key!r} must be {_KIND_NAMES[kind]}, got {value!r}")
        values.append(value)
    return values


def _read_by_column(entries, fields):
    """The columns of JSON objects in table order if _read_fields takes each, else None."""
    if not (all(map(isinstance, entries, repeat(dict)))
            and fields.keys() >= set().union(*entries)):
        return None
    columns = []
    for key, (kind, default) in fields.items():
        column = tuple(map(dict.get, entries, repeat(key), repeat(default)))
        if not (all(map(_is_real, column)) if kind is _NUMBER else set(map(type, column)) <= kind):
            return None
        columns.append(column)
    return columns


def _as_matrix(value, shape, what, error=MaterialError):
    """A read-only float copy of value, of the given shape unless that is None, or error.

    Unless value is a float64 array, as the reduction passes, each entry must
    be a number (see _is_real), tested in row-major order before the cast, and
    the first that is not is named: a string, a bool, a ragged matrix's row. A
    float64 array is only tested finite.
    """
    if isinstance(value, np.ndarray) and value.dtype == np.float64:
        m = np.array(value)
    else:
        try:
            m = np.array(value, dtype=object)
        except ValueError as exc:    # numpy cannot nest arrays of unequal shapes
            raise error(f"{what} must be a matrix of numbers: {exc}") from exc
        for entry in m.flat:
            if not _is_real(entry):
                raise error(f"{what} must be a matrix of numbers, got {entry!r}")
        m = m.astype(float)
    if shape is not None and m.shape != shape:
        raise error(f"{what} must have shape {shape}, got {m.shape}")
    if not np.logical_and.reduce(np.isfinite(m), axis=None):
        raise error(f"{what} has non-finite entries")
    m.flags.writeable = False
    return m


def _check_density(name, density):
    if not _is_real(density, _TINY):
        raise MaterialError(f"{name}: density must be positive and finite")


def _is_positive_definite(m) -> bool:
    """Whether the symmetric part of a finite square matrix is positive definite.

    np.linalg.cholesky reads only the lower triangle, so the symmetric part
    is factored, not m itself; it is 0.5 * m + 0.5 * m.T, which cannot
    overflow. A 2x2 m is factored in Python floats by the steps of LAPACK's
    unblocked Cholesky (dpotf2), which scales the column by the reciprocal
    of the pivot: dividing by sqrt(a) rounds differently and flips some
    nearly singular m. Its first pivot is a and its last starts from d, the
    diagonal of the symmetric part. An exactly diagonal m is tested
    by diagonal > 0, in O(n^2). A NaN or infinite m factors without an
    error: the caller checks finiteness first.
    """
    if m.shape == (2, 2):
        (a, b), (c, d) = m.tolist()
        if not a > 0:
            return False
        l = (0.5 * c + 0.5 * b) * (1.0 / math.sqrt(a))
        return d - l * l > 0
    d = m.diagonal()
    if np.count_nonzero(m) == np.count_nonzero(d):
        return bool(np.logical_and.reduce(d > 0))
    try:
        np.linalg.cholesky(0.5 * m + 0.5 * m.T)
    except np.linalg.LinAlgError:
        return False
    return True


def _check_spd(m, what):
    """Reject a finite matrix that is not symmetric (to 1e-8) or not positive definite."""
    scale = np.max(np.abs(m))
    if scale > 0 and np.max(np.abs(0.5 * m - 0.5 * m.T)) > 0.5e-8 * scale:
        raise MaterialError(f"{what} is not symmetric")
    if not _is_positive_definite(m):
        raise MaterialError(f"{what} is not positive definite")


def _init_3d(record, name, matrices, density, provenance):
    """Check and store a 3D record: stiffness or compliance, piezoelectric, permittivity."""
    fields = record._fields[1:4]
    matrices = [_as_matrix(m, shape, f"{name}: {field}")
                for m, field, shape in zip(matrices, fields, ((6, 6), (3, 6), (3, 3)))]
    for m, field in zip(matrices[::2], fields[::2]):
        _check_spd(m, f"{name}: {field}")
    _check_density(name, density)
    vars(record).update(zip(record._fields, (name, *matrices, float(density), provenance)))


class Material3D(_Record):
    """Full 3D constants in e-form (stiffness / stress-constant / clamped).

    cE: 6x6 at constant field, Pa; e: 3x6, C/m^2; epsS: 3x3 at constant
    strain, F/m; density: kg/m^3. plane, built with the record, is its
    condense_to_plane.
    """

    def __init__(self, name: str, cE, e, epsS, density: float, provenance: str = ""):
        _init_3d(self, name, (cE, e, epsS), density, provenance)
        vars(self).update(plane=condense_to_plane(self))


class MaterialDForm(_Record):
    """Full 3D constants in d-form (compliance / strain-constant / free).

    sE: 6x6 at constant field, 1/Pa; d: 3x6, m/V; epsT: 3x3 at constant
    stress, F/m; density: kg/m^3. plane, built with the record, is the
    plane of its convert_d_to_e.
    """

    def __init__(self, name: str, sE, d, epsT, density: float, provenance: str = ""):
        _init_3d(self, name, (sE, d, epsT), density, provenance)
        vars(self).update(plane=convert_d_to_e(self).plane)


class PlaneMaterial(_Record):
    """Thickness-condensed in-plane constants (T33 and shears eliminated).

    The remaining fields are the axial/transverse normal stresses T11, T22
    and the through-thickness electric pair E3, D3: Q11, Q12, Q22 in Pa,
    e31, e32 in C/m^2, eps33 in F/m, density in kg/m^3. Each constant is a
    number (see _is_real), eps33 and density positive, and the in-plane
    stiffness [[Q11, Q12], [Q12, Q22]] positive definite.
    """

    def __init__(self, name: str, Q11: float, Q12: float, Q22: float, e31: float, e32: float,
                 eps33: float, density: float):
        constants = Q11, Q12, Q22, e31, e32, eps33
        for field, value in zip(self._fields[1:], constants):
            if not _is_real(value):
                raise MaterialError(f"{name}: {field} must be finite")
        Q11, Q12, Q22, e31, e32, eps33 = constants = tuple(map(float, constants))
        _check_spd(np.array([[Q11, Q12], [Q12, Q22]]), f"{name}: in-plane stiffness")
        if not eps33 > 0.0:
            raise MaterialError(f"{name}: eps33 must be positive")
        _check_density(name, density)
        vars(self).update(zip(self._fields, (name, *constants, float(density))))

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
    # constants near the float limits overflow to inf, or to nan in inf - inf and
    # inf * 0, without a warning: the epsS check or Material3D rejects the record
    with np.errstate(over="ignore", invalid="ignore"):
        cE = np.linalg.inv(m.sE)    # sE is symmetric positive definite, so invertible
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
    if not (np.isfinite(epsS).all() and _is_positive_definite(epsS)):
        raise MaterialError(f"{m.name}: inconsistent constants (epsS not positive definite)")
    return Material3D(name=m.name, cE=cE, e=e, epsS=epsS,
                      density=m.density, provenance=m.provenance)


def condense_to_plane(m: Material3D) -> PlaneMaterial:
    """Eliminate T33 (and the shear components) keeping E3 as independent field.

    Q_ij   = cE_ij - cE_i3 (cE_j3 / cE_33)        (i, j in {1, 2}; divided first, so no overflow)
    e3i    = e_3i - e_33 / (cE_33 / cE_i3)        (term 0 if cE_i3 = 0 or the ratio is inf)
    eps33  = epsS_33 + e_33^2 / cE_33             (inf on overflow: PlaneMaterial rejects it)
    """
    c33 = m.cE[2, 2]
    if c33 <= 0.0:
        raise MaterialError(f"{m.name}: degenerate thickness stiffness")
    q = {(i, j): m.cE[i, j] - m.cE[i, 2] * (m.cE[j, 2] / c33) for i in (0, 1) for j in (0, 1)}
    with np.errstate(divide="ignore", over="ignore"):
        e31, e32 = m.e[2, :2] - m.e[2, 2] / (c33 / m.cE[:2, 2])
        eps33 = m.epsS[2, 2] + m.e[2, 2] ** 2 / c33
    return PlaneMaterial(name=m.name, Q11=q[(0, 0)], Q12=q[(0, 1)], Q22=q[(1, 1)],
                         e31=e31, e32=e32, eps33=eps33, density=m.density)


def as_plane(record) -> PlaneMaterial:
    """Condense any supported record type to a PlaneMaterial."""
    if isinstance(record, PlaneMaterial):
        return record
    if isinstance(record, (Material3D, MaterialDForm)):
        return record.plane
    raise MaterialError(f"unsupported material record type {type(record).__name__}")


def isotropic_elastic(name: str, youngs: float, poisson: float, density: float,
                      provenance: str = "") -> Material3D:
    """Build an isotropic elastic e-form record from engineering constants.

    youngs is Young's modulus in Pa, positive and finite; poisson lies
    strictly between -1 and 0.5, where the stiffness is positive definite.
    """
    # the bounds of poisson are the doubles next to -1 and 0.5, which are excluded
    if not (_is_real(youngs, _TINY) and _is_real(poisson, -1 + 2 ** -53, 0.5 - 2 ** -54)):
        raise MaterialError(f"{name}: youngs {youngs!r} or poisson {poisson!r} out of range")
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


_BUILTINS = {"PZT-5H": cache(_pzt_5h), "Al-6061": cache(_al_6061)}


def _resolve(name, records):
    """README's rule: the record of name in records, else the built-in of that name (KeyError)."""
    return records[name] if name in records else _BUILTINS[name]()


def builtin_materials() -> dict:
    """A new dict of the records that are always available, each built once per process (README)."""
    return {name: build() for name, build in _BUILTINS.items()}


# per record form: the record type and the table of its keys, the matrices in field order
_FORMS = {form: (record_type, {"name": (_STR, _REQUIRED), "form": (_STR, _REQUIRED),
                               **dict.fromkeys(matrix_keys, (_ANY, _REQUIRED)),
                               "density_kg_m3": (_NUMBER, _REQUIRED), "provenance": (_STR, "")})
          for form, record_type, matrix_keys in (
              ("e", Material3D, ("cE_Pa", "e_C_per_m2", "epsS_F_per_m")),
              ("d", MaterialDForm, ("sE_per_Pa", "d_m_per_V", "epsT_F_per_m")))}


def _parse_json(text, error, malformed):
    """The document in text; invalid or too deeply nested JSON raises error(malformed + reason)."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise error(f"{malformed}{exc}") from exc


def _record_from_json(entry, prefix):
    if not isinstance(entry, dict):
        raise MaterialError(f"{prefix}record must be a JSON object, got {entry!r}")
    name, form = entry.get("name"), entry.get("form")
    if type(name) is not str:
        raise MaterialError(f"{prefix}field 'name' must be a string, got {name!r}")
    if type(form) is not str or form not in _FORMS:
        raise MaterialError(f"invalid material {name}: unknown form {form!r}")
    record_type, fields = _FORMS[form]
    invalid = f"invalid material {name}: "
    _, _, *matrices, density, provenance = _read_fields(
        entry, fields, f"{form}-form record", MaterialError, invalid)
    matrices = [_as_matrix(matrix, None, f"{invalid}field {key!r}")
                for key, matrix in zip(list(fields)[2:5], matrices)]
    return record_type(name, *matrices, density=float(density), provenance=provenance)


def load_material_db(path=None) -> dict:
    """Load named material records, merging a JSON database (docs/formats.md) over the built-ins.

    Every fault raises MaterialError.
    """
    records = {}
    if path is not None and (text := Path(path).read_text()).strip():
        malformed = f"malformed database {path}: "
        doc = _parse_json(text, MaterialError, malformed)
        entries, = _read_fields(doc, {"materials": (_LIST, _REQUIRED)}, "database",
                                MaterialError, malformed)
        for entry in entries:
            record = _record_from_json(entry, malformed)
            if record.name in records:
                raise MaterialError(f"{malformed}duplicate material {record.name!r}")
            records[record.name] = record
    return {name: _resolve(name, records) for name in _BUILTINS} | records
