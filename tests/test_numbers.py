"""One rule for numbers at the library boundary (materials._is_real, materials._is_count).

Every public entry point that takes a number, or a count, accepts only an
int, a float or a numpy integer or floating scalar (a count: an int or numpy
integer), never a bool, a string, a complex or an array, and raises its own
typed error naming the value otherwise. A choice argument (a closure,
wiring, boundary, circuit or capacitance condition) is a str naming one of
its choices, so no array is compared elementwise. The suite turns warnings
into errors, so every case here also shows that no warning is printed.
"""

import math
import re
from enum import Enum
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pzbeam import (
    Beam,
    BeamError,
    Closure,
    GeneralizedState,
    LayupError,
    Material3D,
    MaterialDForm,
    MaterialError,
    PlaneMaterial,
    Section,
    SectionConstitutive,
    as_plane,
    build_section,
    builtin_materials,
    cantilever_tip_deflection,
    capacitance_per_length,
    discretized_oracle,
    free_actuation_state,
    isotropic_elastic,
    load_layup,
    make_beam,
    modal_frequencies,
    oracle_transverse_multipliers,
    recover_stress_profile,
    reduce_section,
    sensor_charge,
)

from conftest import columns_of

DOCS = Path(__file__).resolve().parent.parent / "docs"
PZT, AL = (builtin_materials()[name] for name in ("PZT-5H", "Al-6061"))
PZT_PLANE, AL_PLANE = as_plane(PZT), as_plane(AL)
SANDWICH = load_layup(DOCS / "sandwich.json")          # one terminal
K = reduce_section(SANDWICH, "nsr")
BEAM = make_beam(SANDWICH, "nsr", 0.1)
TWO_TERMINALS = reduce_section(Section((PZT_PLANE,) * 2, (1e-3,) * 2, (1, -1), (True, True),
                                       0.01, "independent"), "nd")
ZERO = GeneralizedState(voltages=(0.0,))
PLANE_FIELDS = {**{f: getattr(AL_PLANE, f) for f in AL_PLANE._fields}, "name": "x"}

NOT_NUMBERS = ["1", None, True, np.True_, 1j, np.complex128(1.0), math.nan, np.float64(math.nan),
               math.inf, -math.inf, 10 ** 400, np.array([1.0, 2.0]), np.array(1.0)]
NOT_COUNTS = NOT_NUMBERS + [1.0, 2.5, np.float64(3.0)]


def _plane(field):
    return lambda v: PlaneMaterial(**{**PLANE_FIELDS, field: v})


def _shape_or_repr(v):
    # a voltage that is an array of several makes the voltages a table: its shape is named
    return f"got shape (1, {v.size})" if isinstance(v, np.ndarray) and v.ndim else repr(v)


# (entry point and parameter, call with the value, error, expected fragment of the message);
# the fragment is the value's repr, except where a message reachable from a file is kept as
# it is: material constants name their field
REALS = [
    ("Section thickness", lambda v: Section((AL_PLANE,), (v,), (0,), (False,), 0.01),
     LayupError, repr),
    ("Section width", lambda v: Section((AL_PLANE,), (1e-3,), (0,), (False,), v),
     LayupError, repr),
    ("GeneralizedState eps", lambda v: GeneralizedState(eps=v), LayupError, repr),
    ("GeneralizedState kappa", lambda v: GeneralizedState(kappa=v), LayupError, repr),
    ("GeneralizedState voltage", lambda v: GeneralizedState(voltages=[0.0, v]), LayupError, repr),
    *((f"PlaneMaterial {f}", _plane(f), MaterialError, lambda v, f=f: f"x: {f} must be")
      for f in ("Q11", "Q12", "Q22", "e31", "e32", "eps33", "density")),
    ("isotropic_elastic youngs", lambda v: isotropic_elastic("x", v, 0.3, 1.0), MaterialError,
     repr),
    ("isotropic_elastic poisson", lambda v: isotropic_elastic("x", 69e9, v, 1.0), MaterialError,
     repr),
    ("isotropic_elastic density", lambda v: isotropic_elastic("x", 69e9, 0.3, v), MaterialError,
     lambda v: "x: density must be positive and finite"),
    ("MaterialDForm density", lambda v: MaterialDForm("x", PZT.sE, PZT.d, PZT.epsT, v),
     MaterialError, lambda v: "x: density must be positive and finite"),
    ("Beam mass_per_length", lambda v: Beam(K, v, 0.1), BeamError, repr),
    ("Beam length", lambda v: Beam(K, 1.0, v), BeamError, repr),
    ("make_beam length", lambda v: make_beam(SANDWICH, "nd", v), BeamError, repr),
    ("free_actuation_state voltage", lambda v: free_actuation_state(K, [v]), BeamError,
     _shape_or_repr),
    ("cantilever_tip_deflection voltage", lambda v: cantilever_tip_deflection(BEAM, [v]),
     BeamError, _shape_or_repr),
    ("sensor_charge eps", lambda v: sensor_charge(K, eps=v), BeamError, repr),
    ("sensor_charge kappa", lambda v: sensor_charge(K, kappa=v), BeamError, repr),
]
COUNTS = [
    ("Section poling", lambda v: Section((AL_PLANE,), (1e-3,), (v,), (False,), 0.01),
     LayupError, repr),
    ("capacitance_per_length terminal",
     lambda v: capacitance_per_length(TWO_TERMINALS, "blocked", v), LayupError, repr),
    ("recover_stress_profile samples_per_layer",
     lambda v: recover_stress_profile(SANDWICH, "nsr", ZERO, v), LayupError, repr),
    ("modal_frequencies n_modes", lambda v: modal_frequencies(BEAM, "short", v), BeamError, repr),
    ("discretized_oracle n", lambda v: discretized_oracle(SANDWICH, "nd", v), LayupError, repr),
    ("oracle_transverse_multipliers n", lambda v: oracle_transverse_multipliers(SANDWICH, v),
     LayupError, repr),
]


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.tuples(st.sampled_from(REALS), st.sampled_from(NOT_NUMBERS)),
                 st.tuples(st.sampled_from(COUNTS), st.sampled_from(NOT_COUNTS))))
def test_every_numeric_parameter_rejects_junk_with_its_typed_error(case):
    # never a large valid count: every value drawn for a count is invalid
    (_, call, error, named), value = case
    with pytest.raises(error) as raised:
        call(value)
    assert type(raised.value) is error
    assert named(value) in str(raised.value)


def test_valid_values_of_every_kind_are_accepted():
    # an int, a float, a numpy integer and a numpy floating value are numbers alike
    for h in (1e-3, np.float64(1e-3), np.float32(1e-3)):
        Section((AL_PLANE,), (h,), (0,), (False,), 1)
    for n in (3, np.int64(3), np.uint8(3)):
        assert len(modal_frequencies(BEAM, "short", n)) == 3
    state = GeneralizedState(np.float32(1e-4), 1, iter([np.int16(5)]))
    assert state.voltages == (5.0,) and type(state.voltages[0]) is float
    assert free_actuation_state(K, np.array([100.0])) == free_actuation_state(K, 100)
    assert Section((PZT_PLANE,), (1e-3,), (np.int8(-1),), (np.True_,), 0.01).n_terminals == 1


# one case per probe: each raised no typed error, or none at all, before the rule
PROBES = [
    ("np.True_ thickness builds no 1 m layer",
     lambda: Section((AL_PLANE,), (np.True_,), (0,), (False,), 0.01), LayupError,
     "layer thickness must be positive and finite, between 1e-30 and 1e+30 m, got np.True_"),
    ("np.True_ width", lambda: Section((AL_PLANE,), (1e-3,), (0,), (False,), np.True_),
     LayupError, "width must be positive and finite, between 1e-30 and 1e+30 m, got np.True_"),
    ("a string of voltages is not parsed", lambda: GeneralizedState(voltages="12"), LayupError,
     "generalized state must be finite numbers, got "
     "GeneralizedState(eps=0.0, kappa=0.0, voltages=('1', '2'))"),
    ("a bool strain", lambda: GeneralizedState(eps=True), LayupError,
     "generalized state must be finite numbers, got GeneralizedState(eps=True"),
    ("an infinite mass gives no 0 Hz modes", lambda: Beam(K, math.inf, 0.1), BeamError,
     "mass per length must be positive and finite, got inf"),
    ("np.True_ mass", lambda: Beam(K, np.True_, 0.1), BeamError, "got np.True_"),
    ("np.True_ beam length", lambda: Beam(K, 1.0, np.True_), BeamError, "got np.True_"),
    ("a beam with no section law", lambda: Beam(None, 1.0, 0.1), BeamError,
     "constitutive must be a SectionConstitutive, got NoneType"),
    ("a bool terminal is no mask", lambda: capacitance_per_length(TWO_TERMINALS, "blocked", True),
     LayupError, "terminal True out of range (section has 2)"),
    ("a string terminal", lambda: capacitance_per_length(K, "blocked", "0"), LayupError,
     "terminal '0' out of range (section has 1)"),
    ("a float terminal", lambda: capacitance_per_length(K, "blocked", 0.0), LayupError,
     "terminal 0.0 out of range (section has 1)"),
    ("np.True_ poling", lambda: Section((AL_PLANE,), (1e-3,), (np.True_,), (False,), 0.01),
     LayupError, "poling must be -1, 0 or +1, got np.True_"),
    ("a float poling", lambda: Section((AL_PLANE,), (1e-3,), (1.0,), (False,), 0.01), LayupError,
     "poling must be -1, 0 or +1, got 1.0"),
    ("an array poling", lambda: Section((AL_PLANE,), (1e-3,), (np.array([1, 1]),), (False,), 0.01),
     LayupError, "poling must be -1, 0 or +1, got array([1, 1])"),
    ("np.True_ density", lambda: isotropic_elastic("x", 69e9, 0.3, np.True_), MaterialError,
     "x: density must be positive and finite"),
    ("a string stiffness", lambda: _plane("Q11")("1"), MaterialError, "x: Q11 must be finite"),
    ("np.True_ coupling", lambda: _plane("e31")(np.True_), MaterialError,
     "x: e31 must be finite"),
    ("a string modulus", lambda: isotropic_elastic("x", "69e9", 0.3, 1.0), MaterialError,
     "x: youngs '69e9' or poisson 0.3 out of range"),
    ("poisson 0.5", lambda: isotropic_elastic("x", 69e9, 0.5, 1.0), MaterialError,
     "x: youngs 69000000000.0 or poisson 0.5 out of range"),
    ("poisson -1", lambda: isotropic_elastic("x", 69e9, -1, 1.0), MaterialError,
     "x: youngs 69000000000.0 or poisson -1 out of range"),
    ("a string strain", lambda: sensor_charge(K, eps="1"), BeamError,
     "strain and curvature must be finite numbers, got '1', 0.0"),
    ("a bool curvature", lambda: sensor_charge(K, kappa=True), BeamError,
     "strain and curvature must be finite numbers, got 0.0, True"),
    ("a string voltage", lambda: free_actuation_state(K, ["x"]), BeamError,
     "terminal voltages must be finite numbers, got ['x']"),
    ("a NaN voltage, before the solve", lambda: free_actuation_state(K, [math.nan]), BeamError,
     "terminal voltages must be finite numbers, got [nan]"),
    ("an infinite voltage, before the solve", lambda: free_actuation_state(K, [math.inf]),
     BeamError, "terminal voltages must be finite numbers, got [inf]"),
    ("a string tip voltage is not parsed", lambda: cantilever_tip_deflection(BEAM, ["1"]),
     BeamError, "terminal voltages must be finite numbers, got ['1']"),
    ("a sample count beyond the double range",
     lambda: recover_stress_profile(SANDWICH, "nsr", ZERO, 10 ** 400), LayupError,
     "samples per layer must be an integer of at least 2, got 1000"),
    ("a bool mode count", lambda: modal_frequencies(BEAM, "short", True), BeamError,
     "mode count must be an integer of at least 1, got True"),
    ("a mode count beyond the double range", lambda: modal_frequencies(BEAM, "short", 10 ** 400),
     BeamError, "mode count must be an integer of at least 1, got 1000"),
    ("a bool sublayer count", lambda: discretized_oracle(SANDWICH, "nd", True), LayupError,
     "sublayer count must be an integer of at least 1, got True"),
    ("no sublayers", lambda: discretized_oracle(SANDWICH, "nd", 0), LayupError,
     "sublayer count must be an integer of at least 1, got 0"),
    ("a matrix of strings", lambda: SectionConstitutive([["a", "b"], ["c", "d"]]), LayupError,
     "constitutive matrix must be a matrix of numbers, got 'a'"),
    ("a ragged matrix", lambda: SectionConstitutive([[1.0, 2.0], [3.0]]), LayupError,
     "constitutive matrix must be a matrix of numbers, got [1.0, 2.0]"),
    ("arrays of unequal shapes, which numpy cannot nest",
     lambda: SectionConstitutive([np.zeros((2, 2)), np.zeros((2, 3))]), LayupError,
     "constitutive matrix must be a matrix of numbers: "),    # then numpy's reason
    ("a 3D material", lambda: Section((AL,), (1e-3,), (0,), (False,), 0.01), LayupError,
     "a layer needs a PlaneMaterial and a bool electroded flag, got Material3D and False"),
    ("a d-form material", lambda: Section((PZT,), (1e-3,), (1,), (False,), 0.01), LayupError,
     "a layer needs a PlaneMaterial and a bool electroded flag, got MaterialDForm and False"),
    ("a material name", lambda: Section(("Al-6061",), (1e-3,), (0,), (False,), 0.01),
     LayupError, "a layer needs a PlaneMaterial and a bool electroded flag, got str and False"),
    ("a string electroded flag", lambda: Section((PZT_PLANE,), (1e-3,), (1,), ("no",), 0.01),
     LayupError, "a layer needs a PlaneMaterial and a bool electroded flag, "
                 "got PlaneMaterial and 'no'"),
]


@pytest.mark.parametrize("call, error, message", [p[1:] for p in PROBES],
                         ids=[p[0] for p in PROBES])
def test_probe(call, error, message):
    with pytest.raises(error, match=re.escape(message)) as raised:
        call()
    assert type(raised.value) is error


def test_the_first_faulty_layer_is_named_for_every_column():
    # the material and flag columns are checked in the same pass as the others
    rows = [(PZT_PLANE, 1e-3, 1, True)] * 3
    for column, bad in ((0, AL), (1, np.True_), (2, 1.0), (3, "yes")):
        faulty = [list(r) for r in rows]
        faulty[1][column] = bad
        faulty[2][1] = -1.0
        with pytest.raises(LayupError) as raised:
            Section(*zip(*faulty), 0.01)
        assert "-1.0" not in str(raised.value)


def _long_double_matrix(matrix):
    m = np.array(matrix, dtype=np.longdouble)
    m[0, 0] = np.longdouble("1e400")
    return m


@pytest.mark.skipif(np.finfo(np.longdouble).max == np.finfo(np.double).max,
                    reason="np.longdouble is the double on this platform")
@pytest.mark.parametrize("call, error, message", [
    (lambda: SectionConstitutive(_long_double_matrix([[1.0, 0.0], [0.0, 1.0]])), LayupError,
     "constitutive matrix must be a matrix of numbers, got np.longdouble('1e+400')"),
    (lambda: Material3D("x", _long_double_matrix(AL.cE), AL.e, AL.epsS, AL.density),
     MaterialError, "x: cE must be a matrix of numbers, got np.longdouble('1e+400')"),
], ids=["SectionConstitutive", "Material3D"])
def test_a_long_double_beyond_the_double_range_is_rejected_without_a_warning(call, error,
                                                                             message):
    test_probe(call, error, message)    # the entry is named, and no warning is printed


def _entry_at_origin(matrix, value):
    rows = matrix.tolist()
    rows[0][0] = value
    return rows


MATRICES = [
    ("SectionConstitutive", lambda v: SectionConstitutive([[v, 0.0], [0.0, 1.0]]), LayupError,
     "constitutive matrix"),
    ("Material3D cE", lambda v: Material3D("x", _entry_at_origin(AL.cE, v), AL.e, AL.epsS, 1.0),
     MaterialError, "x: cE"),
    ("MaterialDForm sE",
     lambda v: MaterialDForm("x", _entry_at_origin(PZT.sE, v), PZT.d, PZT.epsT, 1.0),
     MaterialError, "x: sE"),
]


@pytest.mark.parametrize("value", NOT_NUMBERS, ids=[repr(v)[:24] for v in NOT_NUMBERS])
@pytest.mark.parametrize("call, error, what", [m[1:] for m in MATRICES],
                         ids=[m[0] for m in MATRICES])
def test_every_matrix_entry_is_a_number_by_the_one_rule(call, error, what, value):
    # no entry is cast first: "1", True, np.True_ and np.array(1.0) are not 1.0
    test_probe(lambda: call(value), error, f"{what} must be a matrix of numbers, got {value!r}")


@pytest.mark.parametrize("number, width, thicknesses", [(np.float64, 10.5, (0.27, 0.5)),
                                                        (np.int64, 10, (1, 2))])
def test_a_layup_dict_takes_the_numbers_a_section_takes(number, width, thicknesses):
    def layup(width, thicknesses, flag, *extra):
        pzt, al = ({"material": "PZT-5H", "thickness_mm": thicknesses[0], "poling": "+z",
                    "electroded": flag}, {"material": "Al-6061", "thickness_mm": thicknesses[1]})
        return {"width_mm": width, "wiring": "independent", "layers": [pzt, al, pzt, *extra]}

    numbers = number(width), tuple(map(number, thicknesses)), np.True_
    python, numpy = build_section(layup(width, thicknesses, True)), build_section(layup(*numbers))
    assert columns_of(numpy) == columns_of(python) and numpy.width == python.width
    for ours, theirs in zip(numpy._table, python._table):
        assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs)
    # the layer-by-layer reader takes them too: the fault named is the unknown material
    with pytest.raises(LayupError, match="^unknown material 'x'$"):
        build_section(layup(*numbers, {"material": "x", "thickness_mm": number(1)}))


@pytest.mark.parametrize("number", [np.float32, np.int64, np.float64, int])
def test_each_number_type_gives_the_bits_of_the_same_floats(number):
    # whole numbers, so that each is an np.int64 too; both sides get the same values, and
    # the cube of the 3e6 m layer is beyond the int64 range
    def outputs(num):
        pzt = as_plane(MaterialDForm("pzt", PZT.sE, PZT.d, PZT.epsT, num(7800)))
        al = PlaneMaterial("al", *map(num, (77 * 10 ** 9, 25 * 10 ** 9, 77 * 10 ** 9, 0, 0, 1,
                                            2700)))
        section = Section((pzt, al, pzt), tuple(map(num, (1, 3 * 10 ** 6, 2))), (1, 0, -1),
                          (True, False, True), num(2), "independent")
        state = GeneralizedState(num(1), num(-1), tuple(map(num, (100, -50))))
        profile = recover_stress_profile(section, "nsr", state)
        beam = make_beam(section, "nsr", num(30))
        arrays = [*(reduce_section(section, c).matrix for c in ("nd", "ns", "nsr")),
                  *profile[:3], *(modal_frequencies(beam, c, 3) for c in ("short", "open"))]
        numbers = (section.mass_per_length, beam.mass_per_length, beam.length, state.eps,
                   state.kappa, profile.n2, profile.m2)
        return [a.tobytes() for a in arrays], [(type(x), x) for x in numbers]

    assert outputs(number) == outputs(lambda v: float(number(v)))


# (entry point and argument, a valid choice, call with the value, error, message head)
CHOICES = [
    ("reduce_section closure", "nd", lambda v: reduce_section(SANDWICH, v), LayupError,
     "unknown closure model "),
    ("Section wiring", "independent",
     lambda v: Section((PZT_PLANE,), (1e-3,), (1,), (True,), 0.01, v), LayupError,
     "unknown wiring "),
    ("capacitance_per_length condition", "free",
     lambda v: capacitance_per_length(K, v), LayupError, "unknown capacitance condition "),
    ("Beam boundary", "simply-supported", lambda v: Beam(K, 1.0, 0.1, v), BeamError,
     "unknown boundary "),
    ("modal_frequencies circuit", "open", lambda v: modal_frequencies(BEAM, v, 2), BeamError,
     "unknown circuit "),
]


@pytest.mark.parametrize("kind", ["array", "array of one", "list", "path"])
@pytest.mark.parametrize("case", CHOICES, ids=[c[0] for c in CHOICES])
def test_a_choice_that_is_not_a_str_raises_the_typed_error(case, kind):
    # `value in choices` compares an array elementwise: two entries raise numpy's bare
    # ValueError and one is taken for the choice; str(Path("nd")) names a closure
    _, choice, call, error, head = case
    value = {"array": np.array([choice, choice]), "array of one": np.array([choice]),
             "list": [choice], "path": Path(choice)}[kind]
    with pytest.raises(error) as raised:
        call(value)
    assert type(raised.value) is error
    assert str(raised.value).startswith(head + repr(value))


class Wiring(str, Enum):
    INDEPENDENT = "independent"


def test_a_str_choice_is_stored_as_a_plain_str():
    for wiring in (np.str_("independent"), Wiring.INDEPENDENT):
        section = Section((PZT_PLANE,) * 2, (1e-3,) * 2, (1, -1), (True, True), 0.01, wiring)
        assert type(section.wiring) is str and section.wiring == "independent"
        assert section.n_terminals == 2
    beam = Beam(K, 1.0, 0.1, np.str_("simply-supported"))
    assert type(beam.boundary) is str and beam.boundary == "simply-supported"
    # a closure is matched without regard to case, a str only
    assert [Closure.coerce(v) for v in ("NSR", np.str_("Ns"), Closure.ND)] == [
        Closure.NSR, Closure.NS, Closure.ND]
    assert capacitance_per_length(K, np.str_("free")) == capacitance_per_length(K, "free")
    assert modal_frequencies(BEAM, np.str_("open"), 2).tobytes() == modal_frequencies(
        BEAM, "open", 2).tobytes()
