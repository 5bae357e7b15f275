"""CLI parsing, reports, determinism and exit codes."""

import contextlib
import csv
import errno
import io
import json
import os
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import pzbeam.cli
from pzbeam import BeamError, LayupError, capacitance_per_length, load_layup, make_beam, \
    modal_frequencies, reduce_section
from pzbeam.beam import CIRCUITS
from pzbeam.section import CONDITIONS
from pzbeam.cli import main, parse_args

DOCS = Path(__file__).resolve().parent.parent / "docs"
SANDWICH = str(DOCS / "sandwich.json")
# table and CSV stdout of each subcommand on the shipped layups, with and without
# --materials; paths in argv are relative to the repository root
GOLDEN = json.loads((Path(__file__).parent / "golden" / "cli_table_csv.json").read_text())
COMMANDS = ("reduce", "compare", "stress", "capacitance", "beam-static", "beam-modal")
NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_json(text: str):
    """json.loads that rejects the NaN, Infinity and -Infinity tokens."""
    def reject(token):
        raise ValueError(f"non-finite JSON token {token}")

    return json.loads(text, parse_constant=reject)


class TestParseArgs:
    def test_compare_with_reference(self):
        cfg = parse_args(["compare", "--layup", "sandwich.json",
                          "--reference-capacitance", "2.86nF/mm"])
        assert cfg.command == "compare"
        assert cfg.layup_path == "sandwich.json"
        assert cfg.reference_capacitance == pytest.approx(2.86e-6)

    def test_reduce_json(self):
        cfg = parse_args(["reduce", "--layup", "x.json", "--model", "nsr",
                          "--output", "json"])
        assert (cfg.command, cfg.closure, cfg.output) == ("reduce", "nsr", "json")

    def test_beam_modal(self):
        cfg = parse_args(["beam-modal", "--layup", "x.json", "--length", "100mm",
                          "--bc", "cantilever", "--modes", "4", "--circuit", "open"])
        assert cfg.length == pytest.approx(0.1)
        assert cfg.modes == 4 and cfg.circuit == "open"

    def test_unit_suffixes(self):
        assert parse_args(["beam-modal", "--layup", "x", "--length", "2.5cm"]).length \
            == pytest.approx(0.025)
        cfg = parse_args(["beam-static", "--layup", "x", "--voltage", "1.5kV"])
        assert cfg.voltages == [1500.0]
        bare = parse_args(["beam-modal", "--layup", "x", "--length", "0.3"])
        assert bare.length == pytest.approx(0.3)

    def test_negative_voltage_needs_equals_sign(self, capsys):
        assert parse_args(["stress", "--layup", "x", "--voltage=-50V"]).voltages == [-50.0]
        # argparse reads "-50V" after a space as an option, not as the value
        code, out, err = run_cli(capsys, "stress", "--layup", SANDWICH, "--voltage", "-50V")
        assert code == 2 and not out
        assert "expected one argument" in err

    def test_signed_flags_say_how_to_write_a_negative_value(self, capsys):
        code, out, _ = run_cli(capsys, "stress", "--help")
        assert code == 0
        assert "--eps=-" in out and "--kappa=-" in out and "--voltage=-" in out
        cfg = parse_args(["stress", "--layup", "x", "--eps=-1e-4", "--kappa=-1e-2"])
        assert (cfg.eps, cfg.kappa) == (-1e-4, -1e-2)

    def test_circuit_choices_are_the_library_circuits(self, capsys, sandwich):
        code, out, _ = run_cli(capsys, "beam-modal", "--help")
        assert code == 0
        assert f"--circuit {{{','.join(CIRCUITS)}}}" in out
        beam = make_beam(sandwich, "nsr", 0.1)
        for circuit in CIRCUITS:
            assert parse_args(["beam-modal", "--layup", "x", "--circuit", circuit]).circuit \
                == circuit
            assert modal_frequencies(beam, circuit, 2).shape == (2,)
        with pytest.raises(BeamError) as exc:
            modal_frequencies(beam, "closed", 2)
        assert str(exc.value) == "unknown circuit 'closed', expected 'short' or 'open'"
        code, _, err = run_cli(capsys, "beam-modal", "--layup", SANDWICH, "--circuit", "closed")
        assert code == 2 and "invalid choice: 'closed'" in err

    def test_condition_choices_are_the_library_conditions(self, capsys, sandwich):
        code, out, _ = run_cli(capsys, "capacitance", "--help")
        assert code == 0
        assert f"--condition {{{','.join(CONDITIONS)}}}" in out
        k = reduce_section(sandwich, "nsr")
        for condition in CONDITIONS:
            assert parse_args(["capacitance", "--layup", "x", "--condition", condition]) \
                .condition == condition
            assert capacitance_per_length(k, condition) > 0.0
        with pytest.raises(LayupError) as exc:
            capacitance_per_length(k, "open")
        assert type(exc.value) is LayupError
        assert str(exc.value) == "unknown capacitance condition 'open'"
        # the terminal is checked before the condition
        with pytest.raises(LayupError, match="^terminal 5 out of range"):
            capacitance_per_length(k, "open", 5)


class TestExitCodes:
    def test_usage_error_unknown_flag(self, capsys):
        code, _, _ = run_cli(capsys, "reduce", "--layup", SANDWICH, "--frobnicate")
        assert code == 2

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "reduce", "--layup", "/no/such/file.json")
        assert code == 2
        assert "input error" in err

    def test_bad_unit_suffix(self, capsys):
        code, _, err = run_cli(capsys, "beam-modal", "--layup", SANDWICH,
                               "--length", "100parsec")
        assert code == 2
        assert "bad length" in err

    def test_unknown_material_in_layup(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"width_mm": 10, "layers": [
            {"material": "missing", "thickness_mm": 1.0}]}))
        code, _, err = run_cli(capsys, "reduce", "--layup", str(bad))
        assert code == 2
        assert "unknown material" in err

    def test_overflowing_material_is_one_line_input_error(self, capsys, tmp_path):
        # d x 1e200 overflows in the d-to-e conversion, and sE x 1e-280 with d x 1e40
        # makes inf - inf and inf * 0 there: no RuntimeWarning, only the error
        for scales in ({"d_m_per_V": 1e200}, {"sE_per_Pa": 1e-280, "d_m_per_V": 1e40}):
            db = json.loads((DOCS / "materials.json").read_text())
            pzt = next(m for m in db["materials"] if m["form"] == "d")
            for key, factor in scales.items():
                pzt[key] = [[v * factor for v in row] for row in pzt[key]]
            path = tmp_path / "db.json"
            path.write_text(json.dumps({"materials": [pzt]}))
            code, out, err = run_cli(capsys, "compare", "--layup", SANDWICH,
                                     "--materials", str(path))
            assert (code, out) == (2, "")
            assert err == ("pzbeam: input error: PZT-5H: inconsistent constants "
                           "(epsS not positive definite)\n")

    @pytest.mark.parametrize("model", ["nd", "nsr"])
    def test_overflowing_layer_table_is_one_line_computation_error(self, capsys, tmp_path,
                                                                   model):
        # Q22 = 1e300 times the h^3/12 of a 1e29 m layer overflows as the section is built
        stiff = {"name": "Stiff", "form": "e",
                 "cE_Pa": np.diag([1e11, 1e300, 1e11, 1e10, 1e10, 1e10]).tolist(),
                 "e_C_per_m2": np.zeros((3, 6)).tolist(),
                 "epsS_F_per_m": np.diag([1e-11] * 3).tolist(), "density_kg_m3": 1000.0}
        db, layup = tmp_path / "db.json", tmp_path / "layup.json"
        db.write_text(json.dumps({"materials": [stiff]}))
        layup.write_text(json.dumps({"width_mm": 10.0, "layers": [
            {"material": "Stiff", "thickness_mm": 1e32}]}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "reduce", "--layup", str(layup),
                                     "--materials", str(db), "--model", model)
        assert (code, out, caught) == (1, "", [])
        assert err == "pzbeam: computation error: overflow encountered in multiply\n"

    def test_computation_error(self, capsys, monkeypatch):
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(pzbeam.cli, "reduce_section", singular)
        code, _, err = run_cli(capsys, "reduce", "--layup", SANDWICH)
        assert code == 1
        assert "computation error" in err

    def test_reference_without_terminal_is_input_error(self, capsys, tmp_path):
        layup = tmp_path / "al.json"
        layup.write_text(json.dumps({"width_mm": 10.0, "layers": [
            {"material": "Al-6061", "thickness_mm": 1.0}]}))
        code, out, err = run_cli(capsys, "compare", "--layup", str(layup),
                                 "--reference-capacitance=2.86nF/mm")
        assert code == 2 and not out
        assert "input error" in err and "reference capacitance" in err

    def test_zero_modes_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "beam-modal", "--layup", SANDWICH, "--modes=0")
        assert code == 2
        assert "input error" in err and "mode" in err

    def test_negative_length_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "beam-modal", "--layup", SANDWICH, "--length=-1")
        assert code == 2
        assert "input error" in err and "length" in err

    @pytest.mark.parametrize("length", ["1e-90", "1e300"])
    def test_length_out_of_bounds_is_input_error(self, capsys, length):
        code, out, err = run_cli(capsys, "beam-modal", "--layup", SANDWICH, f"--length={length}")
        assert code == 2 and not out
        assert "input error" in err and "length" in err

    @pytest.mark.parametrize("layup", ["sandwich", "unimorph", "bimorph"])
    @pytest.mark.parametrize("length", ["1e-30", "1e30"])
    def test_length_bounds_give_finite_output(self, capsys, layup, length):
        for argv in (("beam-modal", "--modes=8", "--circuit=open"),
                     ("beam-static", "--voltage=200V")):
            for fmt in ("table", "json"):
                code, out, _ = run_cli(capsys, argv[0], "--layup", str(DOCS / f"{layup}.json"),
                                       f"--length={length}", "--output", fmt, *argv[1:])
                assert code == 0 and not NON_FINITE.search(out)
                if fmt == "json":
                    strict_json(out)

    @pytest.mark.parametrize("flag", ["--layup", "--materials"])
    @pytest.mark.parametrize("kind", ["directory", "non-utf8", "truncated", "deeply-nested"])
    def test_unreadable_file_is_input_error(self, capsys, tmp_path, flag, kind):
        path = tmp_path
        if kind == "non-utf8":
            path = tmp_path / "latin1.json"
            path.write_bytes(b'{"width_mm": 17.8, "wiring": "parallel \xff"}')
        elif kind != "directory":
            path = tmp_path / "bad.json"
            path.write_text("{" if kind == "truncated" else "[" * 100000 + "]" * 100000)
        argv = ["--layup", str(path)]
        if flag == "--materials":
            argv = ["--layup", SANDWICH, flag, str(path)]
        code, out, err = run_cli(capsys, "reduce", *argv)
        assert code == 2 and not out
        assert "input error" in err
        if kind in ("truncated", "deeply-nested"):
            assert ("malformed layup file" if flag == "--layup" else "malformed database") in err

    def test_empty_materials_path_is_input_error(self, capsys):
        # an empty path names no file; it is not the same as leaving the flag out
        code, out, err = run_cli(capsys, "capacitance", "--layup", SANDWICH, "--materials=")
        assert code == 2 and not out
        assert "input error" in err

    @pytest.mark.parametrize("argv", [
        ("stress", "--voltage=1e305V", "--points=2"),
        ("stress", "--voltage=1e305V", "--points=2", "--output", "json"),
        ("beam-static", "--voltage=1e305V", "--length=1e30"),
        ("beam-static", "--voltage=1e305V", "--length=1e30", "--output", "json"),
        ("beam-static", "--voltage=1e305V", "--length=1e30", "--output", "csv"),
        ("compare", "--reference-capacitance=1e-320"),
        ("compare", "--reference-capacitance=1e-320", "--output", "json"),
        # too large to allocate: 2**50 elements fail at once under any
        # overcommit policy, so no memory is touched
        ("beam-modal", f"--modes={2 ** 50}"), ("stress", f"--points={2 ** 50}")])
    def test_non_finite_result_is_computation_error(self, capsys, argv):
        code, out, err = run_cli(capsys, argv[0], "--layup", SANDWICH, *argv[1:])
        assert code == 1 and not out
        assert "computation error" in err

    @pytest.mark.parametrize("key, value", [("width_mm", "inf"), ("thickness_mm", "inf"),
                                            ("electroded", "false"), ("material", ["PZT-5H"]),
                                            ("poling", 1), ("wiring", ["parallel"]),
                                            ("electrode", True), ("width", 17.8),
                                            ("thickness_mm", True), ("thickness_mm", "0.27"),
                                            ("width_mm", "17.8"), ("width_mm", None),
                                            pytest.param("thickness_mm", 10 ** 400,
                                                         id="thickness_mm-huge-int")])
    def test_bad_layup_value_is_input_error(self, capsys, tmp_path, key, value):
        layup = json.loads(Path(SANDWICH).read_text())
        if key in ("width_mm", "wiring", "width"):
            layup[key] = value
        else:
            layup["layers"][0][key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(layup))
        code, out, err = run_cli(capsys, "capacitance", "--layup", str(bad))
        assert code == 2 and not out
        assert "input error" in err and key.split("_")[0] in err

    def test_non_finite_material_constant_is_input_error(self, capsys, tmp_path):
        shipped = json.loads((DOCS / "materials.json").read_text())["materials"]
        al = dict(next(m for m in shipped if m["name"] == "Al-6061"), name="Al-overflow")
        al["cE_Pa"][0][0] = "BIG"
        path = tmp_path / "db.json"
        path.write_text(json.dumps({"materials": [al]}).replace('"BIG"', "1e400"))
        code, out, err = run_cli(capsys, "reduce", "--layup", SANDWICH,
                                 "--materials", str(path))
        assert code == 2 and not out
        assert "input error" in err and "cE" in err

    def test_huge_antisymmetric_stiffness_is_input_error(self, capsys, tmp_path):
        # cE[0, 1] - cE[1, 0] would overflow: still "not symmetric", not a computation error
        shipped = json.loads((DOCS / "materials.json").read_text())["materials"]
        al = dict(next(m for m in shipped if m["name"] == "Al-6061"), name="X")
        al["cE_Pa"][0][1], al["cE_Pa"][1][0] = 1.7e308, -1.7e308
        path = tmp_path / "db.json"
        path.write_text(json.dumps({"materials": [al]}))
        code, out, err = run_cli(capsys, "reduce", "--layup", SANDWICH,
                                 "--materials", str(path))
        assert (code, out) == (2, "")
        assert err == "pzbeam: input error: X: cE is not symmetric\n"

    @pytest.mark.parametrize("argv, what", [
        (("stress", "--eps", "nan"), "strain"), (("stress", "--kappa=inf"), "curvature"),
        (("stress", "--voltage=nanV"), "voltage"), (("beam-static", "--voltage=infV"), "voltage"),
        (("beam-static", "--voltage=1e306kV"), "voltage"), (("beam-modal", "--length=inf"), "length"),
        (("compare", "--reference-capacitance=nan"), "capacitance"),
        (("compare", "--reference-capacitance=0"), "capacitance"),
        (("compare", "--reference-capacitance=-2.86nF/mm"), "capacitance")])
    def test_non_finite_or_non_positive_number_is_usage_error(self, capsys, argv, what):
        code, out, err = run_cli(capsys, argv[0], "--layup", SANDWICH, *argv[1:])
        assert code == 2 and not out
        assert f"bad {what}" in err

    @pytest.mark.parametrize("points", ["0", "1", "-1"])
    def test_too_few_points_is_input_error(self, capsys, points):
        code, out, err = run_cli(capsys, "stress", "--layup", SANDWICH, f"--points={points}")
        assert code == 2 and not out
        assert "input error" in err and "samples per layer" in err

    def test_success(self, capsys):
        code, out, _ = run_cli(capsys, "reduce", "--layup", SANDWICH)
        assert code == 0 and out

    def test_help(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "reduce" in out and "compare" in out and "beam-modal" in out

    @pytest.mark.parametrize("method", ["write", "flush"])
    def test_failing_stdout_is_output_error(self, capsys, monkeypatch, method):
        def full(*args):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        stdout = io.StringIO()
        setattr(stdout, method, full)
        monkeypatch.setattr(sys, "stdout", stdout)
        code, _, err = run_cli(capsys, "reduce", "--layup", SANDWICH)
        assert code == 1
        assert err == "pzbeam: output error: [Errno 28] No space left on device\n"

    def test_missing_stdout_is_output_error(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdout", None)    # a process started with stdout closed
        code, _, err = run_cli(capsys, "reduce", "--layup", SANDWICH)
        assert code == 1
        assert err == "pzbeam: output error: no stdout\n"


class TestReports:
    def test_compare_reproduces_benchmark_values(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--layup", SANDWICH,
                               "--reference-capacitance", "2.86nF/mm")
        assert code == 0
        assert "2.1322" in out and "3.6180" in out and "2.8310" in out
        assert "capacitance per unit line" in out
        assert "-1.02" in out   # NSR deviation under the declared convention

    def test_deviation_convention(self, capsys):
        _, out, _ = run_cli(capsys, "compare", "--layup", SANDWICH, "--output", "json",
                            "--reference-capacitance=2.86nF/mm")
        doc = strict_json(out)
        ref = doc["reference_capacitance_F_per_m"]
        assert doc["deviation_convention"] == "(model - reference) / reference * 100"
        for row in doc["closures"].values():
            cap = row["capacitance_per_length_F_per_m"]
            assert row["deviation_pct"] == pytest.approx((cap - ref) / ref * 100.0, rel=1e-12)
        # the published comparison arithmetic under this convention
        assert (2.81 - 2.86) / 2.86 * 100.0 == pytest.approx(-1.7483, abs=1e-4)

    def test_no_reference_no_deviation(self, capsys):
        _, out, _ = run_cli(capsys, "compare", "--layup", SANDWICH, "--output", "json")
        doc = strict_json(out)
        assert doc["reference_capacitance_F_per_m"] is None
        assert all(row["deviation_pct"] is None for row in doc["closures"].values())

    def test_reduce_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "reduce", "--layup", SANDWICH, "--model", "nsr")
        _, second, _ = run_cli(capsys, "reduce", "--layup", SANDWICH, "--model", "nsr")
        assert first == second

    def test_compare_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "compare", "--layup", SANDWICH)
        _, second, _ = run_cli(capsys, "compare", "--layup", SANDWICH)
        assert first == second

    def test_reduce_json_roundtrip_bit_exact(self, capsys):
        _, out, _ = run_cli(capsys, "reduce", "--layup", SANDWICH, "--model", "nsr",
                            "--output", "json")
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        reread = np.array(doc["matrix_rows_N_M_q_cols_eps_kappa_V"])
        k = reduce_section(load_layup(SANDWICH), "nsr")
        assert np.array_equal(reread, k.matrix)

    def test_stress_ns_zero_transverse_column(self, capsys):
        _, out, _ = run_cli(capsys, "stress", "--layup", SANDWICH, "--model", "ns",
                            "--voltage", "100V", "--output", "csv")
        lines = out.strip().splitlines()
        assert lines[0] == "layer,z_m,T11_Pa,T22_Pa"
        assert all(float(line.rsplit(",", 1)[1]) == 0.0 for line in lines[1:])

    def test_stress_sample_count(self, capsys):
        _, out, _ = run_cli(capsys, "stress", "--layup", SANDWICH, "--model", "nsr",
                            "--voltage", "10V", "--points", "5", "--output", "csv")
        assert len(out.strip().splitlines()) == 1 + 3 * 5

    def test_capacitance_report(self, capsys):
        _, out, _ = run_cli(capsys, "capacitance", "--layup", SANDWICH, "--model", "nsr",
                            "--condition", "free")
        assert "free capacitance" in out
        assert "3.198221" in out

    def test_beam_static_report(self, capsys):
        _, out, _ = run_cli(capsys, "beam-static", "--layup", str(DOCS / "unimorph.json"),
                            "--length", "60mm", "--voltage", "100V", "--output", "json")
        doc = json.loads(out)
        assert doc["kappa_per_m"] == pytest.approx(-0.0868524496997991, rel=1e-10)
        assert doc["tip_deflection_m"] == pytest.approx(
            doc["kappa_per_m"] * 0.06 ** 2 / 2, rel=1e-12)

    def test_cantilever_beam_static_solves_once(self, capsys, count_calls):
        # ND reduces without a solve: the one solve is the free actuation state
        calls = count_calls(np.linalg, "solve")
        code, out, _ = run_cli(capsys, "beam-static", "--layup", str(DOCS / "unimorph.json"),
                               "--model", "nd", "--voltage", "100V")
        assert code == 0 and "tip deflection" in out
        assert len(calls) == 1

    def test_beam_modal_json(self, capsys):
        _, out, _ = run_cli(capsys, "beam-modal", "--layup", SANDWICH, "--length", "100mm",
                            "--modes", "2", "--circuit", "short", "--output", "json")
        doc = json.loads(out)
        assert doc["frequencies_Hz"][0] == pytest.approx(169.70182829403092, rel=1e-10)
        assert doc["coupling_factor_k2"] == pytest.approx(0.12972668315608715, rel=1e-9)

    def test_beam_modal_exact_fourth_mode(self, capsys):
        # the pi*(n - 1/2) asymptote gives 5835.4131
        code, out, _ = run_cli(capsys, "beam-modal", "--layup", SANDWICH)
        assert code == 0
        assert out.splitlines()[4].split()[:2] == ["4", "5835.3774"]

    def test_json_units_in_field_names(self, capsys):
        for args in (["reduce", "--layup", SANDWICH, "--output", "json"],
                     ["capacitance", "--layup", SANDWICH, "--output", "json"],
                     ["beam-modal", "--layup", SANDWICH, "--output", "json"]):
            _, out, _ = run_cli(capsys, *args)
            doc = json.loads(out)
            numeric = [k for k, v in doc.items() if isinstance(v, (int, float)) and
                       k not in ("schema_version", "n_terminals", "eps", "terminal")]
            for key in numeric:
                assert any(tag in key for tag in ("_m", "_N", "_F", "_Hz", "_V", "_pct",
                                                  "_k2", "version")), key

    def test_materials_flag(self, capsys, tmp_path):
        db = tmp_path / "db.json"
        db.write_text(json.dumps({"materials": []}))
        code, out, _ = run_cli(capsys, "reduce", "--layup", SANDWICH,
                               "--materials", str(db))
        assert code == 0

    def test_shipped_materials_print_nothing(self, capsys):
        code, _, err = run_cli(capsys, "capacitance", "--layup", SANDWICH,
                               "--materials", str(DOCS / "materials.json"))
        assert code == 0 and err == ""


class TestReportShape:
    @pytest.mark.parametrize("run", GOLDEN, ids=lambda run: "-".join(
        [run["argv"][0], Path(run["argv"][2]).stem, run["argv"][4]]
        + (["db"] if "--materials" in run["argv"] else [])))
    def test_golden_stdout(self, capsys, monkeypatch, run):
        monkeypatch.chdir(DOCS.parent)
        code, out, _ = run_cli(capsys, *run["argv"])
        assert code == 0
        assert out == run["stdout"]

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_every_format(self, capsys, command, fmt):
        extra = ["--reference-capacitance=2.86nF/mm"] if command == "compare" else []
        code, out, _ = run_cli(capsys, command, "--layup", SANDWICH, "--output", fmt, *extra)
        assert code == 0 and out.endswith("\n")
        if fmt == "json":
            doc = json.loads(out)
            assert list(doc)[:2] == ["schema_version", "command"]
            assert doc["command"] == command
        elif fmt == "csv":
            # a label holding a comma is quoted, so every row keeps the width
            widths = {len(row) for row in csv.reader(io.StringIO(out))}
            assert len(widths) == 1
            if command in ("reduce", "capacitance", "beam-static"):
                assert widths == {2}

    # each command's echoed settings in the report head: (argv, [(JSON key, value)])
    @pytest.mark.parametrize("command, argv, echoed", [
        ("reduce", ["--model", "nd"], [("closure", "nd")]),
        ("compare", [], []),
        ("stress", ["--model", "ns"], [("closure", "ns")]),
        ("capacitance", ["--model", "nd", "--condition", "free", "--terminal", "0"],
         [("closure", "nd"), ("condition", "free"), ("terminal", 0)]),
        ("beam-static", ["--length", "60mm", "--bc", "simply-supported"],
         [("closure", "nsr"), ("length_m", 0.06), ("boundary", "simply-supported")]),
        ("beam-modal", ["--model", "ns", "--length", "60mm", "--circuit", "open"],
         [("closure", "ns"), ("length_m", 0.06), ("boundary", "cantilever"),
          ("circuit", "open")]),
    ])
    def test_json_head_echoes_the_settings_in_order(self, capsys, command, argv, echoed):
        code, out, _ = run_cli(capsys, command, "--layup", SANDWICH, "--output", "json", *argv)
        assert code == 0
        doc = strict_json(out)
        head = list(doc.items())[:2 + len(echoed)]
        assert head == [("schema_version", 1), ("command", command), *echoed]
        settings_keys = {"closure", "length_m", "boundary", "circuit", "condition", "terminal"}
        assert not settings_keys & set(list(doc)[2 + len(echoed):])
        if command.startswith("beam"):
            assert '"length_m": 0.06,' in out

    def test_beam_modal_without_terminals_prints_zero_k2(self, capsys, tmp_path):
        layup = tmp_path / "al.json"
        layup.write_text(json.dumps({"width_mm": 10.0, "layers": [
            {"material": "Al-6061", "thickness_mm": 1.0}]}))
        code, out, _ = run_cli(capsys, "beam-modal", "--layup", str(layup), "--modes", "2")
        assert code == 0
        assert [line.split()[-1] for line in out.splitlines()] == ["k^2", "0", "0"]
        code, out, _ = run_cli(capsys, "beam-modal", "--layup", str(layup), "--output", "json")
        assert code == 0
        assert json.loads(out)["coupling_factor_k2"] == 0.0


# finite extremes, subnormal to 1e308, of either sign
_EXTREME = st.one_of(st.floats(5e-324, 1e308), st.floats(-1e308, -5e-324),
                     st.sampled_from([0.0, 5e-324, 1e-30, 1e30, 1e305, 1e308, -1e308]))
_FLAGS = {"stress": ("--eps", "--kappa", "--voltage"), "beam-static": ("--voltage", "--length"),
          "beam-modal": ("--length",), "compare": ("--reference-capacitance",)}


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(sorted(_FLAGS)),
       layup=st.sampled_from(["sandwich", "unimorph", "bimorph"]),
       fmt=st.sampled_from(["table", "csv", "json"]),
       values=st.lists(st.none() | _EXTREME, min_size=3, max_size=3))
@example(command="stress", layup="sandwich", fmt="json", values=[None, None, 1e305])
@example(command="beam-static", layup="sandwich", fmt="table", values=[1e305, 1e30, None])
@example(command="compare", layup="sandwich", fmt="table", values=[1e-320, None, None])
def test_cli_never_prints_non_finite(command, layup, fmt, values):
    """Every exit is 0, 1 or 2, and exit 0 prints only finite numbers."""
    argv = [command, "--layup", str(DOCS / f"{layup}.json"), "--output", fmt]
    argv += [f"{flag}={value!r}" for flag, value in zip(_FLAGS[command], values)
             if value is not None]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 0:
        assert not NON_FINITE.search(out.getvalue())
        if fmt == "json":
            strict_json(out.getvalue())
