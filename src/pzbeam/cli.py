"""Command-line front end.

Commands: reduce, compare, stress, capacitance, beam-static, beam-modal.
Reports go to stdout (deterministic, no timestamps), diagnostics to stderr.
Exit codes: 0 success, 1 computation error, 2 usage or input error.

Unit suffixes are accepted on the command line only (100mm, 2.86nF/mm,
50V); bare numbers are SI. JSON reports carry SI values with the unit in
the field name, plus a display block in the table units.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .beam import BeamError, cantilever_tip_deflection, coupling_factor, \
    free_actuation_state, make_beam, modal_frequencies
from .materials import MaterialError, load_material_db
from .section import Closure, GeneralizedState, LayupError, capacitance_per_length, \
    compare_closures, load_layup, recover_stress_profile, reduce_section

SCHEMA_VERSION = 1

_LENGTH_UNITS = {"m": 1.0, "cm": 1e-2, "mm": 1e-3, "um": 1e-6}
_VOLTAGE_UNITS = {"V": 1.0, "kV": 1e3, "mV": 1e-3}
_CAP_PER_LENGTH_UNITS = {"F/m": 1.0, "nF/mm": 1e-6, "pF/mm": 1e-9, "nF/m": 1e-9}


def _quantity(units: dict, what: str, positive: bool = False):
    """An argparse type: a finite number (positive if asked) with an optional unit suffix."""
    expected = f"a {'positive ' if positive else ''}finite number"
    if units:
        expected += f" with optional unit {'/'.join(units)}"

    def parse(text: str) -> float:
        s = text.strip()
        for suffix in sorted(units, key=len, reverse=True):
            if s.endswith(suffix):
                number = s[: -len(suffix)].strip()
                break
        else:
            suffix, number = None, s
        try:
            value = float(number) * (units[suffix] if suffix else 1.0)
        except ValueError:
            value = math.nan    # not a number: rejected below with the same message
        if not math.isfinite(value) or (positive and value <= 0.0):
            raise argparse.ArgumentTypeError(f"bad {what} {text!r}: expected {expected}")
        return value

    return parse


_length = _quantity(_LENGTH_UNITS, "length")
_voltage = _quantity(_VOLTAGE_UNITS, "voltage")
_cap_per_length = _quantity(_CAP_PER_LENGTH_UNITS, "capacitance per unit length", positive=True)
_strain = _quantity({}, "strain")
_curvature = _quantity({}, "curvature")


@dataclass
class RunConfig:
    command: str
    layup_path: str
    material_db_path: str | None = None
    closure: str = "nsr"
    output: str = "table"
    voltages: list = field(default_factory=list)
    eps: float = 0.0
    kappa: float = 0.0
    length: float = 0.1
    boundary: str = "cantilever"
    modes: int = 4
    circuit: str = "short"
    condition: str = "blocked"
    terminal: int = 0
    reference_capacitance: float | None = None
    samples_per_layer: int = 11


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pzbeam",
        description="Coupled 1D constitutive models of laminated piezoelectric beams.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, closure=True):
        p.add_argument("--layup", required=True, dest="layup_path",
                       help="layup JSON file (bottom-to-top layer list)")
        p.add_argument("--materials", dest="material_db_path",
                       help="optional material database JSON file")
        p.add_argument("--output", choices=("table", "json", "csv"), default="table")
        if closure:
            p.add_argument("--model", dest="closure", choices=("nd", "ns", "nsr"),
                           default="nsr", help="transverse closure model")

    p = sub.add_parser("reduce", help="assemble the coupled constitutive matrix")
    common(p)

    p = sub.add_parser("compare", help="compare the three closures on one layup")
    common(p, closure=False)
    p.add_argument("--reference-capacitance", type=_cap_per_length,
                   help="measured capacitance per unit length for the deviation row "
                        "(e.g. 2.86nF/mm)")

    p = sub.add_parser("stress", help="recover the layerwise-linear stress profile")
    common(p)
    p.add_argument("--eps", type=_strain, default=0.0, help="axial mid-plane strain")
    p.add_argument("--kappa", type=_curvature, default=0.0, help="curvature, 1/m")
    p.add_argument("--voltage", type=_voltage, action="append", default=[],
                   dest="voltages", help="terminal voltage, repeat per terminal")
    p.add_argument("--points", type=int, default=11, dest="samples_per_layer",
                   help="sample points per layer, at least 2")

    p = sub.add_parser("capacitance", help="terminal capacitance per unit length")
    common(p)
    p.add_argument("--condition", choices=("blocked", "free"), default="blocked")
    p.add_argument("--terminal", type=int, default=0)

    p = sub.add_parser("beam-static", help="free actuation response of a beam")
    common(p)
    p.add_argument("--length", type=_length, default=0.1, help="beam length (e.g. 100mm)")
    p.add_argument("--bc", dest="boundary", choices=("cantilever", "simply-supported"),
                   default="cantilever")
    p.add_argument("--voltage", type=_voltage, action="append", default=[],
                   dest="voltages", help="terminal voltage, repeat per terminal")

    p = sub.add_parser("beam-modal", help="bending natural frequencies")
    common(p)
    p.add_argument("--length", type=_length, default=0.1, help="beam length (e.g. 100mm)")
    p.add_argument("--bc", dest="boundary", choices=("cantilever", "simply-supported"),
                   default="cantilever")
    p.add_argument("--modes", type=int, default=4)
    p.add_argument("--circuit", choices=("short", "open"), default="short")
    return parser


def parse_args(argv) -> RunConfig:
    ns = _build_parser().parse_args(argv)
    fields = {k: v for k, v in vars(ns).items() if v is not None}
    return RunConfig(**fields)


# ---------------------------------------------------------------------------
# report helpers

def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _table(rows, header=None) -> str:
    cells = [[str(c) for c in row] for row in rows]
    if header:
        cells.insert(0, [str(c) for c in header])
    widths = [max(len(r[i]) for r in cells) for i in range(len(cells[0]))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in cells]
    return "\n".join(lines) + "\n"


def _emit_json(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _load(config: RunConfig):
    db = load_material_db(config.material_db_path) if config.material_db_path else None
    return load_layup(config.layup_path, material_db=db)


def _voltages_for(section, config: RunConfig):
    v = list(config.voltages)
    if not v:
        v = [0.0] * section.n_terminals
    if len(v) != section.n_terminals:
        raise LayupError(f"{len(v)} voltages given, section has "
                         f"{section.n_terminals} terminals")
    return v


def _run_reduce(config: RunConfig) -> str:
    section = _load(config)
    k = reduce_section(section, config.closure)
    if config.output == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": "reduce",
            "closure": k.closure.value,
            "width_m": k.width,
            "n_terminals": k.n_terminals,
            "matrix_rows_N_M_q_cols_eps_kappa_V": [list(row) for row in k.matrix],
            "display": {
                "extension_stiffness_N": k.extension_stiffness,
                "coupling_stiffness_N_m": k.coupling_stiffness,
                "bending_stiffness_N_m2": k.bending_stiffness,
                "gm_N_per_V": list(k.gm),
                "gk_N_m_per_V": list(k.gk),
                "blocked_capacitance_nF_per_mm": [k.cq[t, t] * 1e6
                                                  for t in range(k.n_terminals)],
            },
        }
        return _emit_json(payload)
    rows = [("closure", k.closure.value),
            ("terminals", k.n_terminals),
            ("A [N]", _fmt(k.extension_stiffness)),
            ("B [N m]", _fmt(k.coupling_stiffness)),
            ("D [N m^2]", _fmt(k.bending_stiffness))]
    for t in range(k.n_terminals):
        rows.append((f"gm[{t}] [N/V]", _fmt(k.gm[t])))
        rows.append((f"gk[{t}] [N m/V]", _fmt(k.gk[t])))
        rows.append((f"Cq[{t},{t}] [nF/mm]", f"{k.cq[t, t] * 1e6:.4f}"))
    if config.output == "csv":
        return "".join(f"{a},{b}\n" for a, b in rows)
    return _table(rows)


def _run_compare(config: RunConfig) -> str:
    section = _load(config)
    table = compare_closures(section, reference_capacitance=config.reference_capacitance)
    by = {row.closure: row for row in table.rows}
    order = (Closure.ND, Closure.NS, Closure.NSR)
    if config.output == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": "compare",
            "deviation_convention": "(model - reference) / reference * 100",
            "reference_capacitance_F_per_m": table.reference_capacitance,
            "closures": {
                c.value: {
                    "capacitance_per_length_F_per_m": by[c].capacitance,
                    "free_capacitance_F_per_m": by[c].capacitance_free,
                    "extension_stiffness_N": by[c].extension_stiffness,
                    "bending_stiffness_short_N_m2": by[c].bending_stiffness_short,
                    "bending_voltage_coupling_N_m_per_V": by[c].bending_voltage_coupling,
                    "deviation_pct": by[c].deviation_pct,
                } for c in order
            },
        }
        return _emit_json(payload)
    header = ["quantity", "ND", "NS", "NSR"]
    rows = [["capacitance per unit line [nF/mm]"]
            + [f"{by[c].capacitance * 1e6:.4f}" for c in order]]
    if table.reference_capacitance is not None:
        rows.append(["deviation from reference [%]"]
                    + [f"{by[c].deviation_pct:+.2f}" for c in order])
        rows.append(["reference [nF/mm]", f"{table.reference_capacitance * 1e6:.4f}", "", ""])
    rows.append(["free capacitance [nF/mm]"]
                + [f"{by[c].capacitance_free * 1e6:.4f}" for c in order])
    rows.append(["extension stiffness A [N]"]
                + [_fmt(by[c].extension_stiffness) for c in order])
    rows.append(["bending stiffness D, short [N m^2]"]
                + [_fmt(by[c].bending_stiffness_short) for c in order])
    rows.append(["bending coupling gk [N m/V]"]
                + [_fmt(by[c].bending_voltage_coupling) for c in order])
    if config.output == "csv":
        lines = [",".join(header)] + [",".join(str(c) for c in r) for r in rows]
        return "\n".join(lines) + "\n"
    return _table(rows, header=header)


def _run_stress(config: RunConfig) -> str:
    section = _load(config)
    state = GeneralizedState(eps=config.eps, kappa=config.kappa,
                             voltages=tuple(_voltages_for(section, config)))
    profile = recover_stress_profile(section, config.closure, state,
                                     samples_per_layer=config.samples_per_layer)
    if config.output == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": "stress",
            "closure": Closure.coerce(config.closure).value,
            "state": {"eps": state.eps, "kappa_per_m": state.kappa,
                      "voltages_V": list(state.voltages)},
            "t11_coefficients_Pa_Pa_per_m": [list(r) for r in profile.t11_coefficients],
            "t22_coefficients_Pa_Pa_per_m": [list(r) for r in profile.t22_coefficients],
            "samples_layer_z_m_T11_Pa_T22_Pa": [list(r) for r in profile.samples],
            "transverse_resultants": {"N2_N_per_m": profile.n2, "M2_N": profile.m2},
        }
        return _emit_json(payload)
    rows = [(int(layer), _fmt(z), _fmt(t11), _fmt(t22))
            for layer, z, t11, t22 in profile.samples]
    if config.output == "csv":
        lines = ["layer,z_m,T11_Pa,T22_Pa"] + [",".join(str(c) for c in r) for r in rows]
        return "\n".join(lines) + "\n"
    out = _table(rows, header=("layer", "z [m]", "T11 [Pa]", "T22 [Pa]"))
    out += f"N2 [N/m]  {_fmt(profile.n2)}\nM2 [N]    {_fmt(profile.m2)}\n"
    return out


def _run_capacitance(config: RunConfig) -> str:
    section = _load(config)
    k = reduce_section(section, config.closure)
    value = capacitance_per_length(k, config.condition, config.terminal)
    if config.output == "json":
        return _emit_json({
            "schema_version": SCHEMA_VERSION,
            "command": "capacitance",
            "closure": k.closure.value,
            "condition": config.condition,
            "terminal": config.terminal,
            "capacitance_F_per_m": value,
            "display": {"capacitance_nF_per_mm": value * 1e6},
        })
    if config.output == "csv":
        label = f"{config.condition}_capacitance_terminal_{config.terminal}_nF_per_mm"
        return f"{label},{value * 1e6:.6f}\n"
    return (f"{config.condition} capacitance, terminal {config.terminal} [nF/mm]"
            f"  {value * 1e6:.6f}\n")


def _run_beam_static(config: RunConfig) -> str:
    section = _load(config)
    beam = make_beam(section, config.closure, config.length, config.boundary)
    voltages = _voltages_for(section, config)
    state = free_actuation_state(beam.constitutive, voltages)
    rows = [("eps", _fmt(state.eps)), ("kappa [1/m]", _fmt(state.kappa))]
    tip = None
    if config.boundary == "cantilever":
        tip = cantilever_tip_deflection(beam, voltages)
        rows.append(("tip deflection [m]", _fmt(tip)))
    if config.output == "json":
        return _emit_json({
            "schema_version": SCHEMA_VERSION,
            "command": "beam-static",
            "closure": beam.constitutive.closure.value,
            "length_m": beam.length,
            "boundary": beam.boundary,
            "voltages_V": list(voltages),
            "eps": state.eps,
            "kappa_per_m": state.kappa,
            "tip_deflection_m": tip,
        })
    if config.output == "csv":
        return "".join(f"{a.replace(' ', '_')},{b}\n" for a, b in rows)
    return _table(rows)


def _run_beam_modal(config: RunConfig) -> str:
    section = _load(config)
    beam = make_beam(section, config.closure, config.length, config.boundary)
    freqs = modal_frequencies(beam, config.circuit, config.modes)
    k2 = coupling_factor(beam, 1) if section.n_terminals else 0.0
    rows = [(n + 1, f"{f:.4f}", _fmt(k2)) for n, f in enumerate(freqs)]
    if config.output == "json":
        return _emit_json({
            "schema_version": SCHEMA_VERSION,
            "command": "beam-modal",
            "closure": beam.constitutive.closure.value,
            "length_m": beam.length,
            "boundary": beam.boundary,
            "circuit": config.circuit,
            "frequencies_Hz": list(freqs),
            "coupling_factor_k2": k2,
        })
    if config.output == "csv":
        lines = ["mode,frequency_Hz,k2"] + [",".join(str(c) for c in r) for r in rows]
        return "\n".join(lines) + "\n"
    return _table(rows, header=("mode", f"f ({config.circuit}) [Hz]", "k^2"))


_RUNNERS = {
    "reduce": _run_reduce,
    "compare": _run_compare,
    "stress": _run_stress,
    "capacitance": _run_capacitance,
    "beam-static": _run_beam_static,
    "beam-modal": _run_beam_modal,
}


def run(config: RunConfig) -> int:
    sys.stdout.write(_RUNNERS[config.command](config))
    return 0


def main(argv=None) -> int:
    try:
        config = parse_args(argv if argv is not None else sys.argv[1:])
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return run(config)
    except (LayupError, MaterialError, BeamError, FileNotFoundError) as exc:
        print(f"pzbeam: input error: {exc}", file=sys.stderr)
        return 2
    except (np.linalg.LinAlgError, ValueError, ArithmeticError) as exc:
        print(f"pzbeam: computation error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
