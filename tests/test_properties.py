"""Property-based invariants over randomized materials and layups."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from pzbeam import (
    EPS0,
    GeneralizedState,
    LayupError,
    MaterialDForm,
    MaterialError,
    PlaneMaterial,
    Section,
    as_plane,
    build_section,
    builtin_materials,
    capacitance_per_length,
    condense_to_plane,
    convert_d_to_e,
    discretized_oracle,
    load_material_db,
    nsr_transverse_field,
    recover_stress_profile,
    reduce_section,
)
from pzbeam.materials import _is_positive_definite, _read_columns, _read_fields
from pzbeam.section import _LAYER_FIELDS

from conftest import section_of, section_of_layup

CLOSURES = ("nd", "ns", "nsr")


@st.composite
def plane_materials(draw, piezo=True, isotropic=False):
    """isotropic draws Q22 = Q11 and e32 = e31."""
    q11 = draw(st.floats(5e9, 3e11))
    q22 = q11 if isotropic else draw(st.floats(5e9, 3e11))
    ratio = draw(st.floats(-0.9, 0.9))
    q12 = 0.0 if abs(ratio) < 1e-9 else ratio * np.sqrt(q11 * q22)
    if piezo:
        # couplings below 1e-6 C/m^2 are physically zero; keeping them out
        # also keeps matrix entries clear of the subnormal range
        tidy = lambda x: 0.0 if abs(x) < 1e-6 else x
        e31 = tidy(draw(st.floats(-35.0, 35.0)))
        e32 = e31 if isotropic else tidy(draw(st.floats(-35.0, 35.0)))
        eps33 = draw(st.floats(1e-9, 1e-7))
    else:
        e31 = e32 = 0.0
        eps33 = draw(st.floats(1e-11, 1e-8))
    return PlaneMaterial(name="h", Q11=q11, Q12=q12, Q22=q22, e31=e31, e32=e32,
                         eps33=eps33, density=draw(st.floats(1e3, 1e4)))


@st.composite
def sections(draw, min_layers=1, max_layers=6, isotropic=False):
    n = draw(st.integers(min_layers, max_layers))
    layers = []
    n_electroded = 0
    for _ in range(n):
        piezo = draw(st.booleans())
        material = draw(plane_materials(piezo=piezo, isotropic=isotropic))
        thickness = 0.5e-3 * draw(st.floats(0.05, 20.0))
        poling = draw(st.sampled_from((-1, 1))) if piezo else 0
        electroded = piezo and draw(st.booleans())
        n_electroded += electroded
        layers.append((material, thickness, poling, electroded))
    if n_electroded == 0:
        material = draw(plane_materials(piezo=True, isotropic=isotropic))
        layers[0] = (material, layers[0][1], draw(st.sampled_from((-1, 1))), True)
    wiring = draw(st.sampled_from(("parallel", "independent")))
    return section_of(layers, width=draw(st.floats(2e-3, 0.1)), wiring=wiring)


@st.composite
def named_layups(draw, faulty=False):
    """A layup dict over a mapping of named random plane materials, and that mapping.

    faulty layups may break the layer rules: an unpoled coupled or electroded
    layer, or a thickness out of bounds.
    """
    names = [f"m{i}" for i in range(draw(st.integers(1, 3)))]
    planes = {name: draw(plane_materials(piezo=draw(st.booleans()))) for name in names}
    layers = []
    for _ in range(draw(st.integers(1, 8))):
        name = draw(st.sampled_from(names))
        poling = draw(st.sampled_from(("+z", "-z") if planes[name].has_coupling and not faulty
                                      else ("+z", "-z", "none")))
        thickness_mm = st.floats(0.005, 10.0) | st.integers(1, 5)
        if faulty:
            thickness_mm |= st.sampled_from(_EDGE_THICKNESS_MM)
        layer = {"material": name, "thickness_mm": draw(thickness_mm), "poling": poling,
                 "electroded": (faulty or poling != "none") and draw(st.booleans())}
        if poling == "none" and draw(st.booleans()):
            del layer["poling"], layer["electroded"]     # the defaults
        layers.append(layer)
    layup = {"width_mm": draw(st.floats(1.0, 100.0) | st.integers(1, 50)),
             "wiring": draw(st.sampled_from(("parallel", "independent"))), "layers": layers}
    return layup, planes


@settings(max_examples=80, deadline=None)
@given(drawn=named_layups())
def test_build_section_equals_the_section_of_its_columns(drawn):
    layup, planes = drawn
    built = build_section(layup, planes)
    direct = section_of_layup(layup, planes)
    for closure in CLOSURES:
        assert (reduce_section(built, closure).matrix.tobytes()
                == reduce_section(direct, closure).matrix.tobytes())
    for a, b in zip(built._table, direct._table):
        assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes())
    for name in ("thickness", "z_interfaces", "terminals", "mass_per_length"):
        assert getattr(built, name) == getattr(direct, name)
    assert built._columns == direct._columns
    assert built == direct and hash(built) == hash(direct)


@settings(max_examples=300, deadline=None)
@given(drawn=named_layups(faulty=True))
def test_the_constructor_names_the_first_faulty_layer_as_build_section_does(drawn):
    layup, planes = drawn
    try:
        built = build_section(layup, planes)
    except LayupError as fault:
        with pytest.raises(LayupError) as raised:
            section_of_layup(layup, planes)
        assert str(raised.value) == str(fault)
    else:
        assert section_of_layup(layup, planes) == built


# thicknesses in mm whose metres lie on either side of the bounds 1e-30 and 1e30
_EDGE_THICKNESS_MM = (1e-27, 1.0000000000000001e-27, 9.999999999999999e-28, 1e33,
                      1.0000000000000001e33, 9.999999999999999e32, 1e-40, 1e40, 0, 0.0, -0.5)


@st.composite
def faulty_layups(draw):
    """A layup over a named mapping with faults planted now and then: an unknown
    material or poling key, an unpoled coupled or electroded layer, a
    thickness out of bounds, a mapping value that is no record, a wrong type or
    an unknown key; and that mapping."""
    plant = lambda: draw(st.integers(0, 9)) == 3
    materials = {name: draw(plane_materials(piezo=draw(st.booleans())))
                 for name in draw(st.lists(st.sampled_from(("m0", "m1", "PZT-5H")),
                                           min_size=1, max_size=3, unique=True))}
    if plant():
        materials[draw(st.sampled_from(("m1", "PZT-5H")))] = draw(
            st.sampled_from(("not a record", None, 3, {})))
    names = [*materials, "PZT-5H", "Al-6061"]
    layers = []
    for _ in range(draw(st.integers(1, 6))):
        name = draw(st.sampled_from(("Unobtainium", "m2") if plant() else names))
        record = materials.get(name)
        coupled = (record.has_coupling if isinstance(record, PlaneMaterial)
                   else name == "PZT-5H")
        polings = ("+z", "-z", "none") if plant() or not coupled else ("+z", "-z")
        poling = draw(st.sampled_from(("up", "+Z", "") if plant() else polings))
        layer = {"material": name,
                 "thickness_mm": draw(st.sampled_from(_EDGE_THICKNESS_MM) if plant()
                                      else st.floats(0.005, 10.0) | st.integers(1, 5)),
                 "poling": poling,
                 "electroded": (plant() or poling != "none") and draw(st.booleans())}
        if poling == "none" and draw(st.booleans()):
            del layer["poling"]                             # the default
        if plant():
            key = draw(st.sampled_from(sorted(_LAYER_FIELDS)))
            layer[key] = draw(st.sampled_from((1, "1", None, True, ["+z"], math.inf)))
        if plant():
            layer[draw(st.sampled_from(("electrode", "colour")))] = True
        if plant():
            layer = draw(st.sampled_from((name, [layer], None)))
        layers.append(layer)
    layup = {"width_mm": draw(st.floats(1.0, 100.0)),
             "wiring": draw(st.sampled_from(("parallel", "independent"))), "layers": layers}
    return layup, materials


@settings(max_examples=500, deadline=None)
@given(drawn=faulty_layups())
@example(drawn=({"width_mm": 10, "layers": [{"material": "Al-6061", "thickness_mm": 1e-40},
                                            {"material": "X", "thickness_mm": 1.0}]},
                {"X": "not a record"}))
@example(drawn=({"width_mm": 10, "layers": [{"material": "X", "thickness_mm": 1.0,
                                             "poling": "up"}]}, {"X": "not a record"}))
def test_a_layup_fails_as_its_first_layer_that_fails_alone(drawn):
    layup, materials = drawn
    alone = []
    for entry in layup["layers"]:
        try:
            alone.append(build_section({**layup, "layers": [entry]}, materials)._columns)
        except (LayupError, MaterialError) as fault:
            with pytest.raises((LayupError, MaterialError)) as raised:
                build_section(layup, materials)
            assert (raised.type, str(raised.value)) == (type(fault), str(fault))
            return
    assert build_section(layup, materials)._columns == tuple(
        sum(column, ()) for column in zip(*alone))


@settings(max_examples=60, deadline=None)
@given(section=sections(), closure=st.sampled_from(CLOSURES))
def test_full_matrix_symmetry(section, closure):
    m = reduce_section(section, closure).matrix
    assert np.max(np.abs(m - m.T)) <= 1e-12 * np.max(np.abs(m))


@settings(max_examples=30, deadline=None)
@given(section=sections(), closure=st.sampled_from(CLOSURES))
def test_width_linearity(section, closure):
    # doubling is exact in floating point: every entry is linear in width
    doubled = Section(section.materials, section.thicknesses, section.polings,
                      section.electroded, 2.0 * section.width, section.wiring)
    m1 = reduce_section(section, closure).matrix
    m2 = reduce_section(doubled, closure).matrix
    assert np.array_equal(m2, 2.0 * m1)


@settings(max_examples=40, deadline=None)
@given(section=sections(), closure=st.sampled_from(CLOSURES))
def test_free_capacitance_dominates_blocked(section, closure):
    k = reduce_section(section, closure)
    for t in range(k.n_terminals):
        blocked = capacitance_per_length(k, "blocked", t)
        free = capacitance_per_length(k, "free", t)
        assert free >= blocked * (1.0 - 1e-12)
        if np.max(np.abs(k.kme[:, t])) == 0.0:
            assert free == blocked


@settings(max_examples=40, deadline=None)
@given(section=sections())
def test_blocked_capacitance_ordering(section):
    # nested transverse trial spaces order the blocked capacitances
    caps = {c: capacitance_per_length(reduce_section(section, c), "blocked")
            for c in CLOSURES}
    tol = 1e-10 * caps["ns"]
    assert caps["nd"] <= caps["nsr"] + tol
    assert caps["nsr"] <= caps["ns"] + tol


@settings(max_examples=60, deadline=None)
@given(section=sections(max_layers=8, isotropic=True))
def test_in_plane_isotropy_nsr_blocked_equals_nd_free(section):
    # with Q11 = Q22 and e31 = e32 in every layer, the blocked NSR field a + b*z
    # solves the same two resultant equations as the ND strain eps + kappa*z
    # released at N = M = 0, and adds the same charge
    nsr, nd = reduce_section(section, "nsr"), reduce_section(section, "nd")
    for t in range(nsr.n_terminals):
        blocked = capacitance_per_length(nsr, "blocked", t)
        assert blocked == pytest.approx(capacitance_per_length(nd, "free", t), rel=1e-12)


def test_orthotropic_skins_break_the_isotropy_identity():
    pzt = as_plane(builtin_materials()["PZT-5H"])
    al = as_plane(builtin_materials()["Al-6061"])
    skin = PlaneMaterial(name="orthotropic", Q11=pzt.Q11, Q12=pzt.Q12, Q22=pzt.Q22 / 2.0,
                         e31=pzt.e31, e32=pzt.e32 * 0.3, eps33=pzt.eps33, density=pzt.density)
    for material, nsr_blocked in ((pzt, 2.8310), (skin, 2.2146)):
        section = section_of(((material, 0.27e-3, -1, True),
                              (al, 2.0e-3),
                              (material, 0.27e-3, +1, True)), width=17.8e-3)
        blocked = capacitance_per_length(reduce_section(section, "nsr"), "blocked")
        free_nd = capacitance_per_length(reduce_section(section, "nd"), "free")
        assert round(blocked * 1e6, 4) == nsr_blocked
        assert round(free_nd * 1e6, 4) == 2.8310


@settings(max_examples=40, deadline=None)
@given(material=plane_materials(piezo=True), thickness=st.floats(1e-4, 5e-3),
       width=st.floats(2e-3, 0.1), poling=st.sampled_from((-1, 1)))
def test_single_layer_ns_nsr_degeneracy(material, thickness, width, poling):
    section = section_of(((material, thickness, poling, True),), width=width)
    m_ns = reduce_section(section, "ns").matrix
    m_nsr = reduce_section(section, "nsr").matrix
    assert np.max(np.abs(m_ns - m_nsr)) <= 1e-12 * np.max(np.abs(m_ns))


# a subnormal voltage on a stack whose only coupled layer drives T22 through
# e32: the recovered N2 (7.4e-318 N/m) is round-off in the subnormal range,
# far above any bound relative to the subnormal stresses
_SUBNORMAL_STACK = section_of((
    (PlaneMaterial(name="h", Q11=5e9, Q12=0.0, Q22=5e9, e31=0.0, e32=1.0, eps33=1e-9,
                   density=1e3), 0.5e-3, -1, True),
    *[(PlaneMaterial(name="h", Q11=5e9, Q12=0.0, Q22=5e9, e31=0.0, e32=0.0,
                     eps33=1e-11, density=1e3), 0.5e-3)] * 4), width=2e-3)


@settings(max_examples=30, deadline=None)
@given(section=sections(),
       eps=st.floats(-1e-3, 1e-3), kappa=st.floats(-1.0, 1.0),
       volt=st.floats(-200.0, 200.0))
@example(section=_SUBNORMAL_STACK, eps=0.0, kappa=0.0, volt=2.2250738585e-313)
def test_nsr_resultant_annihilation(section, eps, kappa, volt):
    state = GeneralizedState(eps=eps, kappa=kappa,
                             voltages=(volt,) * section.n_terminals)
    profile = recover_stress_profile(section, "nsr", state)
    t22_max = np.max(np.abs(profile.samples[:, 3]))
    # T22 is a difference of terms; where the closure annihilates it
    # entirely (e.g. single homogeneous layers) only the cancellation
    # round-off survives, so certify those against the term magnitudes
    term_scale = 0.0
    u = np.array((state.eps, state.kappa) + state.voltages)
    a, b = u @ nsr_transverse_field(section)
    z = section.z_interfaces
    terminal_of = {i: t for t, members in enumerate(section.terminals) for i in members}
    for i, (p, h, poling) in enumerate(zip(section.materials, section.thicknesses,
                                           section.polings)):
        t = terminal_of.get(i)
        e3 = -poling * (state.voltages[t] if t is not None else 0.0) / h
        zmax = max(abs(z[i]), abs(z[i + 1]))
        s11 = abs(state.eps) + zmax * abs(state.kappa)
        term_scale = max(term_scale, abs(p.Q12) * s11 + p.Q22 * (abs(a) + zmax * abs(b))
                         + abs(p.e32 * e3))
    floor = 1e-12 * term_scale
    if max(t22_max, floor) == 0.0:
        assert profile.n2 == 0.0 and profile.m2 == 0.0
        return
    # below 2.2e-308 the spacing of doubles is fixed at the smallest subnormal,
    # so round-off there is absolute: a strain rounded there errs by up to
    # that spacing, which T22 multiplies by a stiffness, a few times per layer
    q_scale = max(abs(p.Q12) + p.Q22 for p in section.materials)
    floor = max(floor, 8 * len(section.materials) * np.finfo(float).smallest_subnormal * q_scale)
    h = section.thickness
    assert abs(profile.n2) <= max(1e-10 * t22_max, floor) * h
    assert abs(profile.m2) <= max(1e-10 * t22_max, floor) * h ** 2


@settings(max_examples=40, deadline=None)
@given(section=sections(), closure=st.sampled_from(CLOSURES), data=st.data())
def test_stress_profile_integrates_to_reduced_resultants(section, closure, data):
    # the N and M rows of the reduction and the recovered T11 come from the
    # same per-layer coefficients; integrating T11 must give back K @ u
    volts = st.lists(st.floats(-200.0, 200.0), min_size=section.n_terminals,
                     max_size=section.n_terminals)
    state = GeneralizedState(eps=data.draw(st.floats(-1e-3, 1e-3)),
                             kappa=data.draw(st.floats(-1.0, 1.0)),
                             voltages=tuple(data.draw(volts)))
    u = np.concatenate(([state.eps, state.kappa], state.voltages))
    k = reduce_section(section, closure).matrix
    c0, c1 = recover_stress_profile(section, closure, state).t11_coefficients.T
    # exact integrals of c0 + c1*z over each layer, written about its center
    h = np.array(section.thicknesses)
    zc = np.array(section.z_interfaces[:-1]) + h / 2.0
    n_terms = section.width * np.array([c0 * h, c1 * h * zc])
    m_terms = section.width * np.array([c0 * h * zc, c1 * (h * zc ** 2 + h ** 3 / 12.0)])
    for row, terms in ((0, n_terms), (1, m_terms)):
        scale = max(np.sum(np.abs(terms)), np.sum(np.abs(k[row] * u)))
        assert abs(np.sum(terms) - k[row] @ u) <= 1e-12 * scale


@settings(max_examples=20, deadline=None)
@given(section=sections(max_layers=4), closure=st.sampled_from(CLOSURES),
       n=st.integers(1, 8))
def test_oracle_agrees_at_any_resolution(section, closure, n):
    analytic = reduce_section(section, closure).matrix
    oracle = discretized_oracle(section, closure, n).matrix
    assert np.linalg.norm(analytic - oracle) <= 1e-10 * np.linalg.norm(analytic)


@settings(max_examples=20, deadline=None)
@given(scale=st.floats(0.0, 1.0))
def test_dform_coupling_scaling_keeps_condensation_consistent(scale):
    # shrinking the strain constants keeps the record valid and can only
    # lower the condensed permittivity gain over the clamped value
    base = builtin_materials()["PZT-5H"]
    record = MaterialDForm(name="scaled", sE=base.sE, d=scale * np.array(base.d),
                           epsT=base.epsT, density=base.density)
    m = convert_d_to_e(record)
    p = condense_to_plane(m)
    assert p.eps33 >= m.epsS[2, 2]
    assert m.epsS[2, 2] <= base.epsT[2, 2] + 1e-30
    q = np.array([[p.Q11, p.Q12], [p.Q12, p.Q22]])
    assert np.min(np.linalg.eigvalsh(q)) > 0.0


@settings(max_examples=25, deadline=None)
@given(section=sections(), closure=st.sampled_from(CLOSURES))
def test_actuation_sensing_reciprocity(section, closure):
    k = reduce_section(section, closure)
    coupling_scale = max(np.max(np.abs(k.kme)), 1e-30)
    sensing = k.matrix[2:, :2]
    assert np.max(np.abs(sensing - k.kme.T)) <= 1e-12 * max(
        coupling_scale, np.max(np.abs(k.matrix)) * 1e-6)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 50), seed=st.integers(0, 2 ** 32 - 1), shift=st.floats(-1.0, 1.0),
       scale=st.floats(-15.0, 15.0))
def test_positive_definite_helper_agrees_with_eigenvalues(n, seed, shift, scale):
    # a shifted Wishart matrix is definite or indefinite depending on the
    # shift; eigvalsh is the reference, away from its round-off band. A
    # skew-symmetric part is added because the helper must test the
    # symmetric part, as the stored constitutive matrix is unsymmetrized
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    m = 10.0 ** scale * (a @ a.T / n + shift * np.eye(n))
    lowest = np.linalg.eigvalsh(m)[0]
    assume(abs(lowest) > 1e-8 * np.linalg.norm(m))
    skew = rng.standard_normal((n, n))
    skew = 10.0 ** scale * (skew - skew.T)
    assert _is_positive_definite(m + skew) == (lowest > 0.0)


_SMALLEST_NORMAL = 2.2250738585072014e-308
_positive_entries = st.one_of(st.floats(_SMALLEST_NORMAL, 1.7e308),
                              st.floats(5e-324, _SMALLEST_NORMAL, exclude_max=True))
_non_positive_entries = st.one_of(st.sampled_from((0.0, -0.0)), st.floats(-1.7e308, -5e-324))


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 60), data=st.data())
def test_positive_definite_helper_agrees_with_cholesky_on_diagonals(n, data):
    # a finite diagonal matrix, possibly with one non-positive entry and with
    # -0.0 off the diagonal, takes the helper's shortcut; the reference is the
    # factorization it skips, whose pivots overflow to inf near 1.7e308
    d = data.draw(st.lists(_positive_entries, min_size=n, max_size=n))
    if data.draw(st.booleans()):
        d[data.draw(st.integers(0, n - 1))] = data.draw(_non_positive_entries)
    m = np.diag(d)
    for i, j in data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                   max_size=n)):
        if i != j:
            m[i, j] = -0.0
    assert _is_positive_definite(m) == _cholesky_factors(m)


def _cholesky_factors(m) -> bool:
    """Whether np.linalg.cholesky factors the symmetric part of m."""
    try:
        with np.errstate(over="ignore"):
            np.linalg.cholesky(0.5 * (m + m.T))
    except np.linalg.LinAlgError:
        return False
    return True


@st.composite
def _nearly_singular_2x2(draw):
    """[[a, b], [c, d]] whose symmetric off-diagonal is +-sqrt(a*d) within a relative
    1e-17 to 1e-12, with a skew part; one or two entries may be replaced by a
    subnormal or a signed zero, and a may be negative."""
    sign = st.sampled_from((1.0, -1.0))
    a, d = (draw(st.floats(1.0, 10.0)) * 10.0 ** draw(st.integers(-300, 300))
            for _ in range(2))
    rel = draw(sign) * 10.0 ** draw(st.floats(-17.0, -12.0))
    s10 = draw(sign) * math.sqrt(a) * math.sqrt(d) * (1.0 + rel)
    skew = draw(st.sampled_from((0.0, 1e-16, 1e-8, 0.5))) * draw(sign) * s10
    m = [a * draw(st.sampled_from((1.0, 1.0, 1.0, -1.0))), s10 + skew, s10 - skew, d]
    for i in draw(st.lists(st.integers(0, 3), max_size=2)):
        m[i] = draw(st.sampled_from((0.0, -0.0)) | st.floats(-_SMALLEST_NORMAL, _SMALLEST_NORMAL))
    return np.array(m).reshape(2, 2)


@settings(max_examples=1000, deadline=None)
@given(m=_nearly_singular_2x2())
# sqrt(1.875) * (1 / sqrt(1.875)) is 1 - 2^-53, so LAPACK's last pivot is 2^-52
# where sqrt(1.875) / sqrt(1.875) would leave 0
@example(m=np.array([[1.875, math.sqrt(1.875)], [math.sqrt(1.875), 1.0]]))
def test_positive_definite_helper_agrees_with_cholesky_on_2x2(m):
    # the helper factors a 2x2 in closed form; near singularity one rounding
    # decides the answer, so it must round as LAPACK does
    assert _is_positive_definite(m) == _cholesky_factors(m)


_json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(),
    st.sampled_from(("PZT-5H", "Al-6061", "+z", "-z", "none", "parallel", "independent",
                     "0.3", "inf", "nan", "1e400", "")))
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=2),
    max_leaves=4)


@st.composite
def _objects(draw, fields, typo):
    """Objects whose keys mostly hold valid values; now and then a key is
    missing, holds an arbitrary value or is misspelt, or the whole object is
    an arbitrary value. The rare branches key on middle values of each roll,
    since hypothesis often draws the bounds of an integer range."""
    if draw(st.integers(0, 19)) == 7:
        return draw(_json_values)
    obj = {}
    for key, valid in fields.items():
        roll = draw(st.integers(0, 19))
        if roll != 7:
            obj[key] = draw(_json_values if roll == 13 else valid)
    if draw(st.integers(0, 19)) == 7:
        obj[typo] = draw(_json_values)
    return obj


_layers = _objects({
    "material": st.sampled_from(("PZT-5H", "Al-6061")),
    "thickness_mm": st.floats(0.01, 5.0) | st.floats(0.0, 1e308),
    "poling": st.sampled_from(("+z", "-z", "none")),
    "electroded": st.booleans(),
}, typo="electrode")
_layups = _objects({
    "width_mm": st.floats(1.0, 50.0) | st.floats(0.0, 1e308),
    "wiring": st.sampled_from(("parallel", "independent")),
    "layers": st.lists(_layers, min_size=1, max_size=3),
}, typo="width")


@settings(max_examples=300, deadline=None)
@given(layup=_layups)
def test_json_like_layups_reduce_finitely_or_raise_typed_errors(layup):
    try:
        section = build_section(layup)
    except (LayupError, MaterialError):
        return
    for closure in CLOSURES:
        try:
            matrix = reduce_section(section, closure).matrix
        except LayupError:
            continue
        assert np.isfinite(matrix).all()


@settings(max_examples=300, deadline=None)
@given(entries=st.lists(_layers | st.just({"material": "Al-6061", "thickness_mm": 10 ** 400}),
                        min_size=1, max_size=4))
@example(entries=[{"material": "Al-6061", "thickness_mm": 1.0}, "Al-6061"])
def test_column_reader_takes_what_the_field_reader_takes(entries):
    try:
        rows = [_read_fields(entry, _LAYER_FIELDS, "layer", LayupError) for entry in entries]
    except LayupError:
        rows = None
    columns = _read_columns(entries, _LAYER_FIELDS)
    if rows is None:
        assert columns is None
    else:
        assert columns == list(zip(*rows))


# the shipped database: a d-form PZT-5H and an e-form Al-6061 record
_SHIPPED = json.loads((Path(__file__).resolve().parent.parent / "docs" / "materials.json")
                      .read_text())["materials"]
_records = st.one_of(*(_objects({
    **{key: st.just(value) for key, value in record.items()},
    "name": st.sampled_from(("x", "y", record["name"])),
    "form": st.sampled_from(("e", "d")),
    "density_kg_m3": st.integers(1, 10 ** 4) | st.floats(0.0, 1e308),
}, typo="density") for record in _SHIPPED))
_databases = _objects({"materials": st.lists(_records, max_size=2)}, typo="material")


@settings(max_examples=300, deadline=None)
@given(doc=_databases)
def test_json_like_databases_load_or_raise_material_errors(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "fuzzed_materials.json"
    path.write_text(json.dumps(doc))
    try:
        load_material_db(path)
    except MaterialError:
        pass
