"""What a CLI start loads, how the CLI process ends, its one-thread BLAS default
and its disabled cyclic garbage collector.

Each check runs in a fresh interpreter, since the test process has long
imported everything. The pzbeam CLI process turns the collector off and sets
OPENBLAS_NUM_THREADS to 1 (unless it is already set) before numpy loads;
importing pzbeam.cli or calling main() in process must leave the environment
and the collector alone. The process leaves by os._exit after its atexit
handlers and a flush, so it must print exactly what main() prints in process
and end cleanly when stdout fails, buffered or not.
"""

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import pzbeam
from pzbeam.cli import main

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAYUPS = [ROOT / "docs" / f"{name}.json" for name in ("bimorph", "sandwich", "unimorph")]
SANDWICH = str(ROOT / "docs" / "sandwich.json")

# installed as sitecustomize: records OPENBLAS_NUM_THREADS and whether the
# cyclic collector is on at the moment numpy is first imported, and writes them
# to numpy_import.json when the interpreter exits
_PROBE = """
import atexit, gc, json, os, sys

_seen = []


class _NumpyImportProbe:
    @staticmethod
    def find_spec(name, path=None, target=None):
        if name == "numpy" and not _seen:
            _seen.append({"OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
                          "gc_enabled": gc.isenabled()})
        return None


sys.meta_path.insert(0, _NumpyImportProbe)
atexit.register(lambda: open(os.path.join(os.path.dirname(__file__), "numpy_import.json"), "w")
                .write(json.dumps(_seen)))
"""


def _env(blas=None, path=(), drop=()):
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", *drop)}
    env["PYTHONPATH"] = os.pathsep.join([*map(str, path), str(SRC)])
    if blas is not None:
        env["OPENBLAS_NUM_THREADS"] = blas
    return env


def _stdout_env(unbuffered):
    """_env with buffered stdout, or unbuffered as under PYTHONUNBUFFERED=1."""
    env = _env(drop=["PYTHONUNBUFFERED"])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def _child(args, env, stdout=subprocess.PIPE):
    return subprocess.run([sys.executable, *args], env=env, cwd=ROOT, stdout=stdout,
                          stderr=subprocess.PIPE, timeout=120)


def _python(args, env):
    out = _child(args, env)
    assert out.returncode == 0, out.stderr.decode()
    return out.stdout.decode()


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


def _at_numpy_import(tmp_path, blas, args):
    """OPENBLAS_NUM_THREADS and gc.isenabled() as numpy's import saw them, in a child run."""
    (tmp_path / "sitecustomize.py").write_text(_PROBE)
    _python(args, _env(blas, path=[tmp_path]))
    seen, = json.loads((tmp_path / "numpy_import.json").read_text())
    return seen


CLI_ARGS = ["reduce", "--layup", "docs/sandwich.json"]


@pytest.mark.parametrize("blas, expected", [(None, "1"), ("2", "2")])
def test_cli_process_defaults_to_one_blas_thread(tmp_path, blas, expected):
    seen = _at_numpy_import(tmp_path, blas, ["-m", "pzbeam.cli", *CLI_ARGS])
    assert seen["OPENBLAS_NUM_THREADS"] == expected


def _console_script(argv):
    """python arguments that run the pyproject console script with argv."""
    pyproject = (ROOT / "pyproject.toml").read_text()
    module, function = re.search(r'^pzbeam = "([\w.]+):(\w+)"$', pyproject, re.M).groups()
    return ["-c", f"import sys; sys.argv = ['pzbeam', *{argv!r}]; "
                  f"import {module}; {module}.{function}()"]


def test_console_script_is_the_same_process(tmp_path):
    seen = _at_numpy_import(tmp_path, None, _console_script(CLI_ARGS))
    assert seen["OPENBLAS_NUM_THREADS"] == "1"


@pytest.mark.parametrize("args", [["-m", "pzbeam.cli", *CLI_ARGS], _console_script(CLI_ARGS)],
                         ids=["module", "console-script"])
def test_cli_process_imports_numpy_with_the_collector_off(tmp_path, args):
    assert _at_numpy_import(tmp_path, None, args)["gc_enabled"] is False


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


def test_importing_and_calling_main_leave_the_collector_on():
    enabled = _run_code(f"""
        import contextlib, gc, io, json
        import pzbeam.cli
        after_import = gc.isenabled()
        with contextlib.redirect_stdout(io.StringIO()):
            assert pzbeam.cli.main({CLI_ARGS!r}) == 0
        print(json.dumps([after_import, gc.isenabled()]))
    """)
    assert enabled == [True, True]


@pytest.mark.parametrize("layup", LAYUPS, ids=lambda p: p.stem)
def test_stdout_does_not_depend_on_blas_threads(layup):
    for args in (["reduce", "--output", "json"], ["compare", "--output", "json"]):
        argv = ["-m", "pzbeam.cli", *args, "--layup", str(layup)]
        assert _python(argv, _env()) == _python(argv, _env("2"))


def _in_process(argv):
    """main(argv) run here: exit code, stdout bytes, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue().encode(), err.getvalue()


_ARGVS = [[command, "--layup", SANDWICH, "--output", fmt]
          for command in ("reduce", "compare", "stress", "capacitance", "beam-static",
                          "beam-modal")
          for fmt in ("table", "json", "csv")]
_ARGVS += [["stress", "--layup", SANDWICH, "--voltage=1e305V"],    # computation error: 1
           ["reduce", "--layup", str(ROOT / "no" / "such.json")]]    # input error: 2


@pytest.mark.parametrize("argv", _ARGVS, ids=lambda argv: "-".join(argv[:1] + argv[3:]))
def test_cli_process_prints_what_main_returns(argv):
    child = _child(["-m", "pzbeam.cli", *argv], _env())
    assert (child.returncode, child.stdout, child.stderr.decode()) == _in_process(argv)


def test_large_buffered_output_arrives_whole_through_a_pipe():
    argv = ["stress", "--layup", SANDWICH, "--points", "20000", "--output", "csv"]
    child = _child(["-m", "pzbeam.cli", *argv], _env(drop=["PYTHONUNBUFFERED"]))
    code, stdout, _ = _in_process(argv)
    assert len(stdout) > 1 << 20 and child.returncode == code == 0
    assert hashlib.sha256(child.stdout).digest() == hashlib.sha256(stdout).digest()


# installed as sitecustomize: prints a line from an atexit handler
_ATEXIT_HOOK = """
import atexit

atexit.register(lambda: print("atexit handler ran"))
"""


_REDUCE = ["reduce", "--layup", SANDWICH]


@pytest.mark.parametrize("args", [["-m", "pzbeam.cli", *_REDUCE], _console_script(_REDUCE)],
                         ids=["module", "console-script"])
def test_cli_process_runs_atexit_handlers_then_flushes(tmp_path, args):
    (tmp_path / "sitecustomize.py").write_text(_ATEXIT_HOOK)
    stdout = _python(args, _env(path=[tmp_path], drop=["PYTHONUNBUFFERED"]))
    assert stdout.encode() == _in_process(_REDUCE)[1] + b"atexit handler ran\n"


_OUTPUT_ERROR = "pzbeam: output error: {}\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_full_disk_is_one_line_output_error(unbuffered):
    with open("/dev/full", "wb") as full:
        child = _child(["-m", "pzbeam.cli", *CLI_ARGS], _stdout_env(unbuffered), stdout=full)
    assert child.returncode == 1
    assert child.stderr.decode() == _OUTPUT_ERROR.format("[Errno 28] No space left on device")


def test_closed_stdout_is_one_line_output_error():
    child = subprocess.run(["sh", "-c", 'exec "$0" "$@" >&-', sys.executable, "-m", "pzbeam.cli",
                            *CLI_ARGS], env=_env(), cwd=ROOT, stderr=subprocess.PIPE, timeout=120)
    assert child.returncode == 1
    assert child.stderr.decode() == _OUTPUT_ERROR.format("no stdout")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_broken_pipe_is_one_line_output_error(unbuffered):
    # 2 MB: far more than a pipe holds, so the write is still going when the reader
    # leaves; unbuffered, that write returns short before the next one fails
    argv = ["-m", "pzbeam.cli", "stress", "--layup", SANDWICH, "--points", "20000"]
    with subprocess.Popen([sys.executable, *argv], env=_stdout_env(unbuffered), cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child:
        assert child.stdout.read(10)
        child.stdout.close()
        stderr = child.stderr.read().decode()
    assert child.returncode == 1
    assert stderr == _OUTPUT_ERROR.format("[Errno 32] Broken pipe")
