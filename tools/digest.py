"""Print a sha256 of pzbeam's outputs per category, and one over all of them.

Run `python tools/digest.py` (no flags) in two checkouts on one machine: equal
totals show that a change leaves every output listed below bit-identical. The
matrices come from the host's LAPACK and BLAS kernels, so digests taken on
different machines need not agree. Standard library, numpy and the pzbeam of
this checkout's src/ only; it runs in a few seconds.

Categories:

* stacks: seeded random stacks of 1-95 PZT-5H / Al-6061 layers, each wired in
  parallel and independently. The bytes of the ND, NS and NSR matrices and of
  the NSR stress profile of a seeded state, each section built with no
  mapping, with builtin_materials() and with load_material_db().
* cli: pzbeam.cli.main in process for every subcommand, output format and
  shipped layup, with and without --materials docs/materials.json, and for
  every value of --model, --bc, --circuit and --condition. The exit code,
  stdout and stderr.
* faults: seeded layups over the built-in names with one planted read, name,
  poling, rule or width fault. The exception's type and message, or the ND
  matrix when the planted value happens to be valid.
* boundary: each numeric parameter of the public entry points called with a
  fixed list of values that are not numbers (or not counts), and with one
  valid value; so is entry [0][0] of a constitutive and a material matrix,
  each number and the electroded flag of a layup dict, and a beam's
  constitutive law. The exception's type and message, whatever its type, or
  the result, plus every warning the call gave.
"""

import contextlib
import hashlib
import io
import math
import os
import random
import struct
import sys
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from pzbeam import (Beam, GeneralizedState, LayupError, Material3D, MaterialDForm,  # noqa: E402
                    MaterialError, PlaneMaterial, Section, SectionConstitutive, as_plane,
                    build_section, builtin_materials, cantilever_tip_deflection,
                    capacitance_per_length, discretized_oracle, free_actuation_state,
                    isotropic_elastic, load_layup, load_material_db, make_beam,
                    modal_frequencies, oracle_transverse_multipliers, recover_stress_profile,
                    reduce_section, sensor_charge)
from pzbeam.cli import main  # noqa: E402

SEED = 25
STACKS = 400
FAULTS = 2000
LAYUPS = ("sandwich", "unimorph", "bimorph")
# (subcommand, its arguments): every value of --model, --bc, --circuit and --condition runs
COMMANDS = [("reduce", []), ("reduce", ["--model", "nd"]), ("reduce", ["--model", "ns"]),
            ("compare", ["--reference-capacitance", "2.86nF/mm"]),
            ("stress", ["--eps", "1e-4", "--kappa", "0.2", "--voltage", "50V"]),
            ("capacitance", ["--condition", "free"]),
            ("capacitance", ["--condition", "blocked", "--model", "ns"]),
            ("beam-static", ["--voltage", "100V"]),
            ("beam-static", ["--voltage", "100V", "--bc", "simply-supported"]),
            ("beam-modal", ["--modes", "3"]),
            ("beam-modal", ["--modes", "3", "--circuit", "open", "--bc", "simply-supported"])]
FORMATS = ("table", "json", "csv")


def _stack(rng, n_layers, wiring):
    layers = []
    for _ in range(n_layers):
        if rng.random() < 0.5:
            layers.append({"material": "PZT-5H", "thickness_mm": rng.uniform(0.05, 0.5),
                           "poling": rng.choice(("+z", "-z")), "electroded": rng.random() < 0.8})
        else:
            layers.append({"material": "Al-6061", "thickness_mm": rng.uniform(0.1, 1.0)})
    return {"width_mm": rng.uniform(5.0, 30.0), "wiring": wiring, "layers": layers}


def stacks(sha):
    rng = random.Random(SEED)
    mappings = (None, builtin_materials(), load_material_db())
    for _ in range(STACKS):
        n_layers = rng.randint(1, 95)
        eps, kappa = rng.uniform(-1e-4, 1e-4), rng.uniform(-0.5, 0.5)
        for wiring in ("parallel", "independent"):
            layup = _stack(rng, n_layers, wiring)
            for materials in mappings:
                section = build_section(layup, materials)
                for closure in ("nd", "ns", "nsr"):
                    sha.update(reduce_section(section, closure).matrix.tobytes())
                voltages = [rng.uniform(-200.0, 200.0) for _ in range(section.n_terminals)]
                profile = recover_stress_profile(section, "nsr",
                                                 GeneralizedState(eps, kappa, voltages))
                for array in profile[:3]:
                    sha.update(array.tobytes())
                sha.update(struct.pack("<2d", profile.n2, profile.m2))


def cli(sha):
    for name in LAYUPS:
        for command, extra in COMMANDS:
            for output in FORMATS:
                for db in ([], ["--materials", "docs/materials.json"]):
                    argv = [command, "--layup", f"docs/{name}.json", "--output", output,
                            *db, *extra]
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = main(argv)
                    sha.update(f"{argv}\0{code}\0{out.getvalue()}\0{err.getvalue()}\0".encode())


def _faulty(rng):
    layup = _stack(rng, rng.randint(1, 12), rng.choice(("parallel", "independent")))
    layer = rng.choice(layup["layers"])
    fault = rng.choice(("read", "name", "poling", "rule", "width"))
    if fault == "read":
        key = rng.choice(("material", "thickness_mm", "poling", "electroded", "colour"))
        layer[key] = rng.choice((None, "1", 1, True, ["+z"], float("inf")))
    elif fault == "name":
        layer["material"] = rng.choice(("Unobtainium", "pzt-5h", ""))
    elif fault == "poling":
        layer["poling"] = rng.choice(("up", "+Z", "", "none"))
    elif fault == "rule":
        layer.update(rng.choice(({"thickness_mm": rng.choice((0, -0.5, 1e-28, 1e-27, 1e33))},
                                 {"material": "PZT-5H", "poling": "none"},
                                 {"poling": "none", "electroded": True})))
    else:
        layup["width_mm"] = rng.choice((0, -1.0, 1e-40, 1e40, "10", True))
    return layup


def faults(sha):
    rng = random.Random(SEED + 1)
    db = load_material_db()
    for _ in range(FAULTS):
        layup = _faulty(rng)
        for materials in (None, db):
            try:
                outcome = reduce_section(build_section(layup, materials), "nd").matrix.tobytes()
            except (LayupError, MaterialError) as fault:
                outcome = f"{type(fault).__name__}: {fault}".encode()
            sha.update(outcome + b"\0")


# every numeric parameter below is called with its valid value, with these values that
# are not numbers and with its own extra values; a count's include FLOATS
NOT_NUMBERS = ("1", None, True, np.True_, 1j, math.nan, math.inf, -math.inf, 10 ** 400,
               np.array([1.0, 2.0]), np.array(1.0), np.float32(math.nan), np.longdouble("1e400"))
FLOATS = (1.0, np.float64(2.0))


def _at_origin(matrix, value):
    """The rows of matrix with entry [0][0] replaced by value."""
    rows = matrix.tolist()
    rows[0][0] = value
    return rows


def _layup(width, thickness, flag):
    """The ND matrix of a one-layer layup dict."""
    layer = {"material": "PZT-5H", "thickness_mm": thickness, "poling": "+z", "electroded": flag}
    return reduce_section(build_section({"width_mm": width, "layers": [layer]}), "nd")


def _parameters():
    """(name, function, valid arguments, index of the parameter, extra values) per parameter."""
    pzt, al = (builtin_materials()[name] for name in ("PZT-5H", "Al-6061"))
    plane = as_plane(al)
    sandwich = load_layup("docs/sandwich.json")
    k = reduce_section(sandwich, "nsr")
    k2 = reduce_section(Section((as_plane(pzt),) * 2, (1e-3,) * 2, (1, -1), (True, True), 0.01,
                                "independent"), "nd")
    beam = make_beam(sandwich, "nsr", 0.1)

    def layer(*columns):
        return Section(*zip(columns), 0.01)

    for i, (name, extra) in enumerate((("material", (al, pzt, "Al-6061")), ("thickness", ()),
                                       ("poling", FLOATS + (0, -1, 2)),
                                       ("electroded", ("no", 1, [])))):
        yield f"Section.{name}", layer, (plane, 1e-3, 1, True), i, extra
    yield "Section.width", Section, ((plane,), (1e-3,), (0,), (False,), 0.01), 4, ()
    yield ("SectionConstitutive.matrix", SectionConstitutive, (k.matrix,), 0,
           ([["a", "b"], ["c", "d"]], [[1.0, 2.0], [3.0]], [[1.0, 0.0], [0.0, 1j]]))
    for name, function, matrix in (
            ("SectionConstitutive.matrix[0][0]", SectionConstitutive, k.matrix),
            ("Material3D.cE[0][0]", lambda m: Material3D("x", m, al.e, al.epsS, 1.0), al.cE),
            ("MaterialDForm.sE[0][0]", lambda m: MaterialDForm("x", m, pzt.d, pzt.epsT, 1.0),
             pzt.sE)):
        yield (name, lambda v, f=function, m=matrix: f(_at_origin(m, v)), (matrix[0, 0],), 0,
               ())
    for i, name in enumerate(("width_mm", "thickness_mm", "electroded")):
        yield (f"build_section.{name}", _layup, (10.0, 0.5, True), i,
               (np.False_, "no", 1) if i == 2 else (np.float64(2.0), np.int64(2)))
    for i, name in enumerate(("eps", "kappa", "voltages")):
        yield (f"GeneralizedState.{name}", GeneralizedState, (0.0, 0.0, [1.0]), i,
               ("12", [None], [1.0, "2"]) if i == 2 else ())
    for i, name in enumerate(plane._fields[1:], 1):
        yield f"PlaneMaterial.{name}", PlaneMaterial, ("x", *plane._astuple(plane)[1:]), i, ()
    for i, name in enumerate(("youngs", "poisson", "density"), 1):
        yield (f"isotropic_elastic.{name}", isotropic_elastic, ("x", 69e9, 0.3, 2700.0), i,
               (0.0, 0.5, -1))
    yield ("MaterialDForm.density", MaterialDForm, ("x", pzt.sE, pzt.d, pzt.epsT, 7800.0), 4,
           (0.0,))
    for i, name in enumerate(("constitutive", "mass_per_length", "length")):
        yield f"Beam.{name}", Beam, (k, 1.0, 0.1), i, (0.0,)
    yield "make_beam.length", make_beam, (sandwich, "nd", 0.1), 2, ()
    for function, subject in ((free_actuation_state, k), (cantilever_tip_deflection, beam)):
        yield (f"{function.__name__}.voltages", function, (subject, [100.0]), 1,
               ("1", ["x"], [math.nan], [math.inf], [[1.0]], [1.0, 2.0]))
    for i, name in enumerate(("eps", "kappa"), 1):
        yield f"sensor_charge.{name}", sensor_charge, (k, 0.0, 0.0), i, ()
    yield ("capacitance_per_length.terminal", capacitance_per_length, (k2, "blocked", 1), 2,
           FLOATS + (2, -1))
    yield ("recover_stress_profile.samples_per_layer", recover_stress_profile,
           (sandwich, "nsr", GeneralizedState(voltages=(0.0,)), 3), 3, FLOATS + (1,))
    yield "modal_frequencies.n_modes", modal_frequencies, (beam, "short", 3), 2, FLOATS
    yield "discretized_oracle.n", discretized_oracle, (sandwich, "nd", 2), 2, FLOATS
    yield ("oracle_transverse_multipliers.n", oracle_transverse_multipliers, (sandwich, 2), 1,
           FLOATS)


def _outcome(function, args) -> bytes:
    """The exception's type and message, whatever its type, or the result; then each warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = function(*args)
            result = getattr(result, "matrix", result)
            outcome = (result.tobytes() if isinstance(result, np.ndarray)
                       else repr(result).encode())
        except Exception as fault:     # an untyped error is an outcome too
            outcome = f"{type(fault).__name__}: {fault}".encode()
    return outcome + b"".join(f"\0{w.category.__name__}: {w.message}".encode() for w in caught)


def boundary(sha):
    for name, function, args, i, extra in _parameters():
        for value in (args[i], *NOT_NUMBERS, *extra):
            outcome = _outcome(function, (*args[:i], value, *args[i + 1:]))
            sha.update(f"{name}\0{value!r}\0".encode() + outcome + b"\0")


def run() -> None:
    os.chdir(ROOT)      # the CLI arguments and their messages name paths relative to it
    total = hashlib.sha256()
    for category in (stacks, cli, faults, boundary):
        sha = hashlib.sha256()
        category(sha)
        total.update(sha.digest())
        print(f"{category.__name__:<9}{sha.hexdigest()}")
    print(f"{'total':<9}{total.hexdigest()}")


if __name__ == "__main__":
    run()
