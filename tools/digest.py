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
  shipped layup, with and without --materials docs/materials.json. The exit
  code, stdout and stderr.
* faults: seeded layups over the built-in names with one planted read, name,
  poling, rule or width fault. The exception's type and message, or the ND
  matrix when the planted value happens to be valid.
"""

import contextlib
import hashlib
import io
import os
import random
import struct
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from pzbeam import (GeneralizedState, LayupError, MaterialError, build_section,  # noqa: E402
                    builtin_materials, load_material_db, recover_stress_profile,
                    reduce_section)
from pzbeam.cli import main  # noqa: E402

SEED = 25
STACKS = 400
FAULTS = 2000
LAYUPS = ("sandwich", "unimorph", "bimorph")
SUBCOMMANDS = {"reduce": [], "compare": ["--reference-capacitance", "2.86nF/mm"],
               "stress": ["--eps", "1e-4", "--kappa", "0.2", "--voltage", "50V"],
               "capacitance": ["--condition", "free"], "beam-static": ["--voltage", "100V"],
               "beam-modal": ["--modes", "3"]}
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
        for command, extra in SUBCOMMANDS.items():
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


def run() -> None:
    os.chdir(ROOT)      # the CLI arguments and their messages name paths relative to it
    total = hashlib.sha256()
    for category in (stacks, cli, faults):
        sha = hashlib.sha256()
        category(sha)
        total.update(sha.digest())
        print(f"{category.__name__:<8}{sha.hexdigest()}")
    print(f"{'total':<8}{total.hexdigest()}")


if __name__ == "__main__":
    run()
