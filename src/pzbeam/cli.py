"""Command-line front end; README's Command line section is its contract.

Run as a program (`python -m pzbeam.cli`, the `pzbeam` console script), the
module first turns off the cyclic garbage collector and picks one OpenBLAS
thread (README, Start-up), before argparse, json and numpy load. With the
collector on, those imports collect 34 times, 6-8 ms per call; nothing
needs collecting, since a run leaves about 750 objects in reference cycles
and the process ends by os._exit. The CLI's small solves never use a second
BLAS thread, which costs about 90 ms of CPU to start. It then runs main(),
the atexit handlers and a flush of stdout and stderr, and leaves by
os._exit, skipping the teardown of numpy and every other module (about 20 ms).
"""

from __future__ import annotations

if __name__ == "__main__":    # before the imports: none of them collects, numpy sees the default
    import gc
    import os

    gc.disable()
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import atexit
import contextlib
import io
import json
import os
import sys
from typing import NamedTuple

import numpy as np

from .beam import BOUNDARIES, CIRCUITS, BeamError, coupling_factor, free_actuation_state, \
    make_beam, modal_frequencies
from .materials import _HUGE, _TINY, MaterialError, _is_real, load_material_db
from .section import CONDITIONS, Closure, GeneralizedState, LayupError, \
    capacitance_per_length, compare_closures, load_layup, recover_stress_profile, reduce_section

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
        suffix = next((u for u in sorted(units, key=len, reverse=True) if s.endswith(u)), "")
        try:    # float() ignores the blanks around the number
            value = float(s[:len(s) - len(suffix)]) * units.get(suffix, 1.0)
        except ValueError:
            value = None    # not a number: rejected below with the same message
        if not _is_real(value, _TINY if positive else -_HUGE):
            raise argparse.ArgumentTypeError(f"bad {what} {text!r}: expected {expected}")
        return value

    return parse


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="pzbeam",
        description="Coupled 1D constitutive models of laminated piezoelectric beams.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, handler, closure=True):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        p.add_argument("--layup", required=True, dest="layup_path",
                       help="layup JSON file (bottom-to-top layer list)")
        p.add_argument("--materials", dest="material_db_path",
                       help="optional material database JSON file")
        p.add_argument("--output", choices=_RENDERERS, default="table")
        if closure:
            p.add_argument("--model", dest="closure", choices=[c.value for c in Closure],
                           default="nsr", help="transverse closure model")
        return p

    def signed(p, flag, help, example, **kwargs):    # argparse takes "-1e-4" for an option
        p.add_argument(flag, help=f"{help}; write a negative one as {flag}=-{example}", **kwargs)

    def voltages(p):
        signed(p, "--voltage", "terminal voltage, repeat per terminal", "50V",
               type=_quantity(_VOLTAGE_UNITS, "voltage"), action="append", default=[],
               dest="voltages")

    def beam(name, help, handler):
        p = command(name, help, handler)
        p.add_argument("--length", type=_quantity(_LENGTH_UNITS, "length"), default=0.1,
                       help="beam length (e.g. 100mm)")
        p.add_argument("--bc", dest="boundary", choices=BOUNDARIES, default="cantilever")
        return p

    command("reduce", "assemble the coupled constitutive matrix", _reduce)
    p = command("compare", "compare the three closures on one layup", _compare, closure=False)
    p.add_argument("--reference-capacitance",
                   type=_quantity(_CAP_PER_LENGTH_UNITS, "capacitance per unit length",
                                  positive=True),
                   help="measured capacitance per unit length for the deviation row "
                        "(e.g. 2.86nF/mm)")
    p = command("stress", "recover the layerwise-linear stress profile", _stress)
    signed(p, "--eps", "axial mid-plane strain", "1e-4", type=_quantity({}, "strain"), default=0.0)
    signed(p, "--kappa", "curvature, 1/m", "1e-2", type=_quantity({}, "curvature"), default=0.0)
    voltages(p)
    p.add_argument("--points", type=int, default=11, dest="samples_per_layer",
                   help="sample points per layer, at least 2")
    p = command("capacitance", "terminal capacitance per unit length", _capacitance)
    p.add_argument("--condition", choices=CONDITIONS, default="blocked")
    p.add_argument("--terminal", type=int, default=0)
    voltages(beam("beam-static", "free actuation response of a beam", _beam_static))
    p = beam("beam-modal", "bending natural frequencies", _beam_modal)
    p.add_argument("--modes", type=int, default=4)
    p.add_argument("--circuit", choices=CIRCUITS, default="short")
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# reports: each subcommand builds one Report, one renderer per format prints it

class Report(NamedTuple):
    """What a subcommand prints, in every output format.

    rows start with the header row, if the report has one; a float cell
    prints through _fmt, any other cell as str(). The table prints
    rows, then footer; CSV prints csv_rows, which default to rows and differ
    where CSV wants other labels; JSON prints schema_version, command, the
    settings of _ECHOED that the command takes, then payload.
    """

    rows: list
    payload: dict
    csv_rows: list | None = None
    footer: str = ""


def _fmt(cell, spec: str = ".6g") -> str:
    """A float cell in the format spec, 6 significant digits by default; no nan or inf."""
    if not isinstance(cell, float):
        return str(cell)
    if not _is_real(cell):
        raise ArithmeticError(f"non-finite result {cell}")
    return format(cell, spec)


def _render_table(args, report: Report) -> str:
    cells = [[_fmt(c) for c in row] for row in report.rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(cells[0]))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in cells]
    return "\n".join(lines) + "\n" + report.footer


def _render_csv(args, report: Report) -> str:
    """RFC 4180: a cell holding a comma or a quote is quoted, its quotes doubled."""
    import csv  # here, on the CSV path: at module level it slows every CLI start

    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(
        [_fmt(c) for c in row] for row in report.csv_rows or report.rows)
    return out.getvalue()


# the settings a JSON report echoes after its command, in this order: (argparse dest, JSON key)
_ECHOED = (("closure", "closure"), ("length", "length_m"), ("boundary", "boundary"),
           ("circuit", "circuit"), ("condition", "condition"), ("terminal", "terminal"))


def _render_json(args, report: Report) -> str:
    doc = {"schema_version": SCHEMA_VERSION, "command": args.command,
           **{key: getattr(args, dest) for dest, key in _ECHOED if hasattr(args, dest)},
           **report.payload}
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


_RENDERERS = {"table": _render_table, "json": _render_json, "csv": _render_csv}


def _reduce(section, args) -> Report:
    k = reduce_section(section, args.closure)
    rows = [("closure", args.closure),
            ("terminals", k.n_terminals),
            ("A [N]", k.extension_stiffness),
            ("B [N m]", k.coupling_stiffness),
            ("D [N m^2]", k.bending_stiffness)]
    for t in range(k.n_terminals):
        rows.append((f"gm[{t}] [N/V]", k.gm[t]))
        rows.append((f"gk[{t}] [N m/V]", k.gk[t]))
        rows.append((f"Cq[{t},{t}] [nF/mm]", _fmt(k.cq[t, t] * 1e6, ".4f")))
    return Report(rows, {
        "width_m": section.width,
        "n_terminals": k.n_terminals,
        "matrix_rows_N_M_q_cols_eps_kappa_V": k.matrix.tolist(),
        "display": {
            "extension_stiffness_N": k.extension_stiffness,
            "coupling_stiffness_N_m": k.coupling_stiffness,
            "bending_stiffness_N_m2": k.bending_stiffness,
            "gm_N_per_V": k.gm.tolist(),
            "gk_N_m_per_V": k.gk.tolist(),
            "blocked_capacitance_nF_per_mm": [k.cq[t, t] * 1e6 for t in range(k.n_terminals)],
        },
    })


def _compare(section, args) -> Report:
    ref = args.reference_capacitance
    if ref is not None and not section.n_terminals:
        raise LayupError("a reference capacitance needs a terminal (section has none)")
    by = compare_closures(section)    # ND, NS, NSR
    dev = [None if ref is None else (r.capacitance - ref) / ref * 100.0 for r in by]
    rows = [("quantity", "ND", "NS", "NSR"),
            ["capacitance per unit line [nF/mm]"] + [_fmt(r.capacitance * 1e6, ".4f") for r in by]]
    if ref is not None:
        rows.append(["deviation from reference [%]"] + [_fmt(d, "+.2f") for d in dev])
        rows.append(["reference [nF/mm]", _fmt(ref * 1e6, ".4f"), "", ""])
    rows.append(["free capacitance [nF/mm]"]
                + [_fmt(r.capacitance_free * 1e6, ".4f") for r in by])
    rows.append(["extension stiffness A [N]"] + [r.extension_stiffness for r in by])
    rows.append(["bending stiffness D, short [N m^2]"] + [r.bending_stiffness_short for r in by])
    rows.append(["bending coupling gk [N m/V]"] + [r.bending_voltage_coupling for r in by])
    return Report(rows, {
        "deviation_convention": "(model - reference) / reference * 100",
        "reference_capacitance_F_per_m": ref,
        "closures": {
            r.closure.value: {
                "capacitance_per_length_F_per_m": r.capacitance,
                "free_capacitance_F_per_m": r.capacitance_free,
                "extension_stiffness_N": r.extension_stiffness,
                "bending_stiffness_short_N_m2": r.bending_stiffness_short,
                "bending_voltage_coupling_N_m_per_V": r.bending_voltage_coupling,
                "deviation_pct": d,
            } for r, d in zip(by, dev)
        },
    })


def _stress(section, args) -> Report:
    state = GeneralizedState(eps=args.eps, kappa=args.kappa,
                             voltages=tuple(args.voltages or [0.0] * section.n_terminals))
    profile = recover_stress_profile(section, args.closure, state,
                                     samples_per_layer=args.samples_per_layer)
    samples = profile.samples.tolist()
    rows = [(int(layer), z, t11, t22) for layer, z, t11, t22 in samples]
    return Report(
        [("layer", "z [m]", "T11 [Pa]", "T22 [Pa]")] + rows,
        csv_rows=[("layer", "z_m", "T11_Pa", "T22_Pa")] + rows,
        footer=f"N2 [N/m]  {_fmt(profile.n2)}\nM2 [N]    {_fmt(profile.m2)}\n",
        payload={
            "state": {"eps": state.eps, "kappa_per_m": state.kappa,
                      "voltages_V": list(state.voltages)},
            "t11_coefficients_Pa_Pa_per_m": profile.t11_coefficients.tolist(),
            "t22_coefficients_Pa_Pa_per_m": profile.t22_coefficients.tolist(),
            "samples_layer_z_m_T11_Pa_T22_Pa": samples,
            "transverse_resultants": {"N2_N_per_m": profile.n2, "M2_N": profile.m2},
        })


def _capacitance(section, args) -> Report:
    k = reduce_section(section, args.closure)
    value = capacitance_per_length(k, args.condition, args.terminal)
    cell = _fmt(value * 1e6, ".6f")
    return Report(
        [(f"{args.condition} capacitance, terminal {args.terminal} [nF/mm]", cell)],
        csv_rows=[(f"{args.condition}_capacitance_terminal_{args.terminal}_nF_per_mm", cell)],
        payload={
            "capacitance_F_per_m": value,
            "display": {"capacitance_nF_per_mm": value * 1e6},
        })


def _beam_static(section, args) -> Report:
    beam = make_beam(section, args.closure, args.length, args.boundary)
    voltages = args.voltages or [0.0] * section.n_terminals
    state = free_actuation_state(beam.constitutive, voltages)
    rows = [("eps", state.eps), ("kappa [1/m]", state.kappa)]
    tip = None
    if args.boundary == "cantilever":
        tip = state.kappa * beam.length ** 2 / 2.0    # as cantilever_tip_deflection, one solve
        rows.append(("tip deflection [m]", tip))
    return Report(rows, csv_rows=[(a.replace(" ", "_"), b) for a, b in rows], payload={
        "voltages_V": list(voltages),
        "eps": state.eps,
        "kappa_per_m": state.kappa,
        "tip_deflection_m": tip,
    })


def _beam_modal(section, args) -> Report:
    beam = make_beam(section, args.closure, args.length, args.boundary)
    freqs = modal_frequencies(beam, args.circuit, args.modes)
    k2 = coupling_factor(beam.constitutive)
    rows = [(n + 1, _fmt(f, ".4f"), k2) for n, f in enumerate(freqs)]
    return Report(
        [("mode", f"f ({args.circuit}) [Hz]", "k^2")] + rows,
        csv_rows=[("mode", "frequency_Hz", "k2")] + rows,
        payload={
            "frequencies_Hz": freqs.tolist(),
            "coupling_factor_k2": k2,
        })


def _write_stdout(text: str) -> None:
    """Write text to stdout and flush it.

    Under PYTHONUNBUFFERED the text layer writes to the raw file, whose
    write may take only part of the bytes (a pipe whose reader left), and
    drops the rest without an error. There the text goes through a buffered
    text layer of its own on the same file descriptor: it encodes as stdout's
    would (a BOM only where stdout would write one), its buffer retries a short
    write until all is taken or a write fails, and closing it leaves the
    descriptor open.
    """
    out = sys.stdout
    if isinstance(getattr(out, "buffer", None), io.RawIOBase):
        out.flush()
        with io.TextIOWrapper(io.BufferedWriter(io.FileIO(out.fileno(), "w", closefd=False)),
                              out.encoding, out.errors) as buffered:
            buffered.write(text)
    else:
        out.write(text)
        out.flush()


def run(args: argparse.Namespace) -> int:
    with np.errstate(over="raise", invalid="raise"):    # underflow to 0 is fine
        section = load_layup(args.layup_path, material_db=load_material_db(args.material_db_path))
        report = args.handler(section, args)
    text = _RENDERERS[args.output](args, report)
    try:    # reported here: main() takes any other OSError for an unreadable input
        _write_stdout(text)
    except (AttributeError, OSError) as exc:    # stdout None (closed), a full disk, a broken pipe
        print(f"pzbeam: output error: {exc if sys.stdout else 'no stdout'}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return run(args)
    except (LayupError, MaterialError, BeamError, OSError, UnicodeDecodeError) as exc:
        print(f"pzbeam: input error: {exc}", file=sys.stderr)
        return 2
    except (np.linalg.LinAlgError, ValueError, ArithmeticError, MemoryError) as exc:
        print(f"pzbeam: computation error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    code = main()
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        with contextlib.suppress(AttributeError, OSError):    # None, or failed and reported
            stream.flush()
    os._exit(code)
