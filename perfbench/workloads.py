"""The operations each workload times, and the checks on their outputs.

Importing this module imports numpy and pzbeam, so the caller imports it
inside the timed set-up. Checks run after the timed loop; each returns an
error string or None.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import selectors
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass

import numpy as np

import pzbeam.cli
from pzbeam import (GeneralizedState, build_section, discretized_oracle, load_layup,
                    load_material_db, recover_stress_profile, reduce_section)

import reference
from inputs import CLOSURES, MATERIALS_FILE, SHIPPED_LAYUPS

# the test suite's bounds: relative Frobenius distance to the oracle, and
# round-off for the asymmetry of the stored (unsymmetrized) matrix
ORACLE_BOUND = 1e-8
RECIPROCITY_BOUND = 1e-12
RESULTANT_BOUND = 1e-10
ORACLE_SUBLAYERS = 1
PAPER_CAPACITANCE_NF_MM = {"nd": "2.13", "ns": "3.62", "nsr": "2.83"}
CHILD_TIMEOUT_S = 60.0
_NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


def _distance(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(a))


class OracleLog:
    """Largest scaled deviation from discretized_oracle seen by the checks."""

    def __init__(self):
        self.checks = 0
        self.max_dev = 0.0

    def compare(self, section, closure, value, part=np.s_[:, :]) -> str | None:
        """Check value against that part of the oracle's constitutive matrix."""
        oracle = discretized_oracle(section, closure, ORACLE_SUBLAYERS).matrix[part]
        dev = _distance(np.asarray(value), oracle)
        self.checks += 1
        self.max_dev = max(self.max_dev, dev)
        if not dev <= ORACLE_BOUND:
            return f"{closure}: deviation from oracle {dev:.3e} > {ORACLE_BOUND:g}"
        return None


def _reciprocity(closure, matrix) -> str | None:
    asym = _distance(matrix, matrix.T)
    if not asym <= RECIPROCITY_BOUND:
        return f"{closure}: reciprocity asymmetry {asym:.3e} > {RECIPROCITY_BOUND:g}"
    return None


def _first_error(*errors):
    return next((e for e in errors if e), None)


@dataclass
class DeepOut:
    section: object
    matrices: dict
    profile: object


class DeepStack:
    """One multilayer stack per op: three reductions and NSR stress recovery."""

    def __init__(self, materials):
        self.materials = materials
        self.oracle = OracleLog()
        self.gauge = reference.KernelGauge()

    def op(self, inp) -> DeepOut:
        section = build_section(inp["layup"], self.materials)
        matrices = {c: reduce_section(section, c).matrix for c in CLOSURES}
        state = GeneralizedState(eps=inp["eps"], kappa=inp["kappa"],
                                 voltages=tuple(inp["voltages"]))
        profile = recover_stress_profile(section, "nsr", state)
        return DeepOut(section, matrices, profile)

    def check(self, inp, out: DeepOut) -> str | None:
        for closure, matrix in out.matrices.items():
            error = _first_error(_reciprocity(closure, matrix),
                                 self.oracle.compare(out.section, closure, matrix))
            if error:
                return error
        p = out.profile
        t22_max = float(np.max(np.abs(p.samples[:, 3])))
        h = out.section.thickness
        if (abs(p.n2) > RESULTANT_BOUND * t22_max * h
                or abs(p.m2) > RESULTANT_BOUND * t22_max * h ** 2):
            return f"NSR resultants not annihilated: N2={p.n2!r}, M2={p.m2!r}"
        return None


@dataclass
class CliOut:
    returncode: int
    stdout: bytes
    stderr: bytes
    rss_kb: int = 0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.abspath("src"),
                                                      env.get("PYTHONPATH")]))
    return env


def run_child(argv, env, timeout=CHILD_TIMEOUT_S) -> CliOut:
    """Run one child to completion and return its output and peak RSS.

    The pipes are drained here rather than by Popen.communicate, which
    would reap the child and lose its resource usage.
    """
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    chunks = {proc.stdout: [], proc.stderr: []}
    deadline = time.monotonic() + timeout
    try:
        with selectors.DefaultSelector() as sel:
            for pipe in chunks:
                sel.register(pipe, selectors.EVENT_READ)
            while sel.get_map():
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(f"{' '.join(argv)} ran longer than {timeout} s")
                for key, _ in sel.select(remaining):
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        sel.unregister(key.fileobj)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
        proc.stderr.close()
    return CliOut(proc.returncode, b"".join(chunks[proc.stdout]),
                  b"".join(chunks[proc.stderr]), usage.ru_maxrss)


def _parse_compare_capacitances(fmt: str, text: str) -> dict:
    """The printed ND / NS / NSR blocked capacitances, nF/mm."""
    if fmt == "json":
        closures = json.loads(text)["closures"]
        return {c: closures[c]["capacitance_per_length_F_per_m"] * 1e6 for c in CLOSURES}
    label = "capacitance per unit line [nF/mm]"
    line = next(l for l in text.splitlines() if l.startswith(label))
    cells = line[len(label):].replace(",", " ").split()
    return {c: float(v) for c, v in zip(CLOSURES, cells)}


class CliBatch:
    """One CLI call per op, as a child process or in process (traced runs)."""

    repeat_check = True

    def __init__(self, in_process: bool):
        self.in_process = in_process
        self.env = child_env()
        self.oracle = OracleLog()
        self.gauge = reference.ImportGauge(self.env)
        with warnings.catch_warnings():
            # the file restates the built-ins, which warns
            warnings.simplefilter("ignore")
            db = load_material_db(MATERIALS_FILE)
        self.sections = {}
        for name in SHIPPED_LAYUPS:
            path = f"docs/{name}.json"
            self.sections[name, False] = load_layup(path)
            self.sections[name, True] = load_layup(path, material_db=db)

    def op(self, inp) -> CliOut:
        if not self.in_process:
            return run_child([sys.executable, "-m", "pzbeam.cli", *inp["argv"]], self.env)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = pzbeam.cli.main(list(inp["argv"]))
        return CliOut(code, out.getvalue().encode(), err.getvalue().encode())

    @staticmethod
    def same(a: CliOut, b: CliOut) -> bool:
        return a.returncode == b.returncode and a.stdout == b.stdout

    def check(self, inp, out: CliOut) -> str | None:
        if out.returncode != 0:
            return f"exit {out.returncode}: {out.stderr.decode(errors='replace').strip()}"
        text = out.stdout.decode()
        if not text.strip() or _NON_FINITE.search(text):
            return f"empty or non-finite output: {text[:200]!r}"
        subcommand, fmt = inp["subcommand"], inp["format"]
        section = self.sections[inp["layup_name"], inp["with_db"]]
        if subcommand == "compare":
            caps = _parse_compare_capacitances(fmt, text)
            # the trial families of the closures are nested, which orders them
            if not caps["nd"] <= caps["nsr"] <= caps["ns"]:
                return f"capacitance order broken: {caps} nF/mm"
            got = {c: f"{v:.2f}" for c, v in caps.items()}
            if inp["layup_name"] == "sandwich" and got != PAPER_CAPACITANCE_NF_MM:
                return f"paper sandwich gives {got} nF/mm"
            if fmt == "json":     # full precision: the blocked capacitance of each closure
                return _first_error(*(self.oracle.compare(section, c, caps[c] * 1e-6, (2, 2))
                                      for c in CLOSURES))
        if subcommand == "reduce" and fmt == "json":
            payload = json.loads(text)
            matrix = np.array(payload["matrix_rows_N_M_q_cols_eps_kappa_V"])
            return _first_error(_reciprocity(payload["closure"], matrix),
                                self.oracle.compare(section, payload["closure"], matrix))
        return None


def setup(workload: str, plan, in_process_cli: bool = False):
    """Load the materials and layups and run one untimed warm-up op."""
    wl = CliBatch(in_process_cli) if workload == "cli-batch" else DeepStack(load_material_db())
    out = wl.op(plan.warmup)
    if getattr(out, "returncode", 0) != 0:
        raise RuntimeError(f"warm-up CLI call failed: {out.stderr.decode(errors='replace')}")
    return wl
