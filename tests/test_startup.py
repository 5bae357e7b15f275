"""What a CLI start loads, and the one-thread BLAS default of the CLI process.

Each check runs in a fresh interpreter, since the test process has long
imported everything. The pzbeam CLI process sets OPENBLAS_NUM_THREADS to 1
before numpy loads unless it is already set; importing pzbeam.cli or calling
main() in process must leave the environment alone.
"""

import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import pzbeam

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAYUPS = [ROOT / "docs" / f"{name}.json" for name in ("bimorph", "sandwich", "unimorph")]

# installed as sitecustomize: records OPENBLAS_NUM_THREADS at the moment numpy
# is first imported, and writes it to blas.json when the interpreter exits
_PROBE = """
import atexit, json, os, sys

_seen = []


class _NumpyImportProbe:
    @staticmethod
    def find_spec(name, path=None, target=None):
        if name == "numpy" and not _seen:
            _seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
        return None


sys.meta_path.insert(0, _NumpyImportProbe)
atexit.register(lambda: open(os.path.join(os.path.dirname(__file__), "blas.json"), "w")
                .write(json.dumps(_seen)))
"""


def _env(blas=None, path=()):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join([*map(str, path), str(SRC)])
    if blas is not None:
        env["OPENBLAS_NUM_THREADS"] = blas
    return env


def _python(args, env):
    out = subprocess.run([sys.executable, *args], env=env, cwd=ROOT, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout


def _run_code(code):
    """The JSON that code, run in a fresh interpreter, prints."""
    return json.loads(_python(["-c", textwrap.dedent(code)], _env()))


def test_import_pzbeam_loads_no_numpy():
    loaded = _run_code("""
        import json, sys
        import pzbeam
        print(json.dumps(sorted(m for m in sys.modules if m.startswith(("numpy", "pzbeam.")))))
    """)
    assert loaded == []


def test_cli_import_loads_no_dataclasses_and_no_oracle():
    added = _run_code("""
        import json, sys
        import numpy
        before = set(sys.modules)
        import pzbeam.cli
        print(json.dumps(sorted(set(sys.modules) - before)))
    """)
    assert "pzbeam.cli" in added
    assert "dataclasses" not in added and "pzbeam.oracle" not in added
    # imported where they are used: unknown-key hints and the CSV renderer
    assert "difflib" not in added and "csv" not in added


def test_every_export_resolves():
    for name in pzbeam.__all__:
        assert getattr(pzbeam, name) is getattr(
            sys.modules[f"pzbeam.{pzbeam._MODULE_OF[name]}"], name)
    namespace = {}
    exec("from pzbeam import *", namespace)
    assert set(pzbeam.__all__) <= set(namespace)
    assert set(pzbeam.__all__) <= set(dir(pzbeam))
    with pytest.raises(AttributeError, match="no attribute 'not_exported'"):
        pzbeam.not_exported


def _blas_at_numpy_import(tmp_path, blas, args):
    """OPENBLAS_NUM_THREADS as numpy saw it, in a child run with args."""
    (tmp_path / "sitecustomize.py").write_text(_PROBE)
    _python(args, _env(blas, path=[tmp_path]))
    return json.loads((tmp_path / "blas.json").read_text())


CLI_ARGS = ["reduce", "--layup", "docs/sandwich.json"]


@pytest.mark.parametrize("blas, expected", [(None, "1"), ("2", "2")])
def test_cli_process_defaults_to_one_blas_thread(tmp_path, blas, expected):
    assert _blas_at_numpy_import(tmp_path, blas, ["-m", "pzbeam.cli", *CLI_ARGS]) == [expected]


def test_console_script_is_the_same_process(tmp_path):
    pyproject = (ROOT / "pyproject.toml").read_text()
    module, function = re.search(r'^pzbeam = "([\w.]+):(\w+)"$', pyproject, re.M).groups()
    code = (f"import sys; sys.argv = ['pzbeam', *{CLI_ARGS!r}]; "
            f"import {module}; {module}.{function}()")
    assert _blas_at_numpy_import(tmp_path, None, ["-c", code]) == ["1"]


def test_importing_and_calling_main_leave_the_environment_alone():
    changed = _run_code(f"""
        import contextlib, io, json, os
        before = dict(os.environ)
        import pzbeam.cli
        with contextlib.redirect_stdout(io.StringIO()):
            assert pzbeam.cli.main({CLI_ARGS!r}) == 0
        print(json.dumps(sorted(set(os.environ.items()) ^ set(before.items()))))
    """)
    assert changed == []


@pytest.mark.parametrize("layup", LAYUPS, ids=lambda p: p.stem)
def test_stdout_does_not_depend_on_blas_threads(layup):
    for args in (["reduce", "--output", "json"], ["compare", "--output", "json"]):
        argv = ["-m", "pzbeam.cli", *args, "--layup", str(layup)]
        assert _python(argv, _env()) == _python(argv, _env("2"))
