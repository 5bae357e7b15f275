"""pzbeam benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a pzbeam source tree; pzbeam is imported from ./src.
One caller runs the workload's ops closed loop for S seconds, checks every
output afterwards and prints, as the last stdout line, a JSON object with
the end-to-end metrics (--trace 0) or the per-layer metrics of a separate
traced run (--trace 1). End-to-end times are rescaled to a nominal host
speed, gauged by a fixed workload timed after every op (reference.py).
The line before it is a JSON report of the run: environment, failures,
the same figures in plain wall time and per-bucket timings. The same
report, and with --trace 1 every span, is also written under
perfbench/out/.

Workloads (why each exists is in BENCHMARK.json):
  deep-stack  one 16-95 layer stack: three reductions and a stress profile
  cli-batch   one `python -m pzbeam.cli` child process
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import inputs
import reference

ROOT = Path.cwd()
OUT_DIR = ROOT / "perfbench" / "out"
REQUIRED_FILES = ("src/pzbeam/__init__.py", "docs/sandwich.json", "docs/unimorph.json",
                  "docs/bimorph.json", inputs.MATERIALS_FILE)
MIN_OPS = 100               # the loop runs past the deadline until it has this many
SEGMENT_S = 1.0             # a traced run alternates untraced and traced segments this long
SETUP_SAMPLES = 7           # this process plus six fresh child processes
STARTUP_REPEATS = 7
STARTUP_COMMANDS = {"start": "pass", "import_numpy": "import numpy",
                    "import_pzbeam": "import pzbeam"}
END_TO_END_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only time the set-up, in this fresh process, and print it")
    return p.parse_args(argv)


def check_tree():
    missing = [f for f in REQUIRED_FILES if not (ROOT / f).is_file()]
    if missing:
        sys.exit(f"perfbench: not a pzbeam source tree ({ROOT}): missing {', '.join(missing)}")
    sys.path.insert(0, str(ROOT / "src"))


def timed_setup(args, plan):
    """Seconds from workload start to the first timed op, and the workload."""
    t0 = time.perf_counter()
    import workloads    # imports numpy and pzbeam
    wl = workloads.setup(args.workload, plan, in_process_cli=bool(args.trace))
    elapsed = time.perf_counter() - t0
    origin = Path(sys.modules["pzbeam"].__file__).resolve()
    if ROOT / "src" not in origin.parents:
        sys.exit(f"perfbench: imported pzbeam from {origin}, not from {ROOT / 'src'}")
    return elapsed, wl


@dataclass
class Phase:
    """The ops of one timed loop."""

    keys: list = field(default_factory=list)
    durations: list = field(default_factory=list)
    gauge_s: list = field(default_factory=list)    # the host-speed gauge after each op
    errors: dict = field(default_factory=dict)     # op index -> message
    wall: float = 0.0
    peak_child_kb: int = 0


def timed_loop(wl, plan, seconds, first, phase, tracer=None, min_ops=MIN_OPS,
               block=0, gauge=False) -> int:
    """Run whole blocks of ops, from the given block on, into phase until the
    deadline has passed and phase holds min_ops; return the next block.

    first maps an input key to the output of its first run; later runs of a
    CLI input must reproduce it byte for byte. With gauge, the workload's
    host-speed gauge is timed after every op.
    """
    clock = time.perf_counter
    repeat_check = getattr(wl, "repeat_check", False)
    start = clock()
    deadline = start + seconds
    while len(phase.keys) < min_ops or clock() < deadline:
        for key in plan.blocks[block % len(plan.blocks)]:
            i = len(phase.keys)
            if tracer:
                tracer.op = i
            t0 = clock()
            try:
                out = wl.op(plan.inputs[key])
            except Exception as exc:   # a failed op is counted, the run goes on
                out = None
                phase.errors[i] = f"{type(exc).__name__}: {exc}"
            phase.durations.append(clock() - t0)
            phase.keys.append(key)
            if gauge:
                phase.gauge_s.append(wl.gauge.time())
            if out is None:
                continue
            phase.peak_child_kb = max(phase.peak_child_kb, getattr(out, "rss_kb", 0))
            if key not in first:
                first[key] = out
            elif repeat_check and not wl.same(first[key], out):
                phase.errors[i] = "output differs from an earlier run of the same input"
        block += 1
    phase.wall += clock() - start
    if tracer:
        tracer.op = -1
    return block


def traced_loop(wl, plan, seconds, first, tracer, callers) -> tuple:
    """Alternate untraced and traced segments of about SEGMENT_S each.

    Both halves then meet the same drifts in the machine's speed, so their
    throughput ratio is the tracing overhead. Returns (untraced, traced).
    """
    untraced, traced = Phase(), Phase()
    block = 0
    while (untraced.wall + traced.wall < seconds or len(untraced.keys) < MIN_OPS
           or len(traced.keys) < MIN_OPS):
        block = timed_loop(wl, plan, SEGMENT_S, first, untraced, min_ops=0, block=block)
        tracer.install(*callers)
        try:
            block = timed_loop(wl, plan, SEGMENT_S, first, traced, tracer, min_ops=0,
                               block=block)
        finally:
            tracer.uninstall()
    return untraced, traced


def check_outputs(wl, plan, first, phases) -> dict:
    """Check each distinct input's first output; return key -> error.

    Inputs the timed loop did not reach are run here first, so that every
    run ends up holding the outputs of the whole pool, whatever its speed.
    """
    bad = {}
    for key, inp in enumerate(plan.inputs):
        if key not in first:
            try:
                first[key] = wl.op(inp)
            except Exception as exc:   # as in the timed loop
                bad[key] = f"{type(exc).__name__}: {exc}"
    for key, out in first.items():
        try:
            error = wl.check(plan.inputs[key], out)
        except Exception as exc:   # a check that cannot run is a failed check
            error = f"check raised {type(exc).__name__}: {exc}"
        if error:
            bad[key] = error
    if getattr(wl, "repeat_check", False):
        runs = {}
        for phase in phases:
            for key in phase.keys:
                runs[key] = runs.get(key, 0) + 1
        for key, out in first.items():
            if runs.get(key, 0) > 1 or key in bad:
                continue
            try:
                again = wl.op(plan.inputs[key])
            except Exception as exc:   # as in the timed loop
                bad[key] = f"second run raised {type(exc).__name__}: {exc}"
                continue
            if not wl.same(out, again):
                bad[key] = "output differs between two runs of the same input"
    return bad


def count_failures(phases, bad) -> tuple:
    attempted = failed = 0
    for phase in phases:
        attempted += len(phase.keys)
        failed += sum(1 for i, key in enumerate(phase.keys) if i in phase.errors or key in bad)
    return attempted, failed


def failure_samples(phases, bad, plan, limit=5):
    samples = [f"input {k} ({plan.inputs[k].get('argv', plan.inputs[k]['bucket'])}): {e}"
               for k, e in bad.items()]
    samples += [e for phase in phases for e in phase.errors.values()]
    return samples[:limit]


def setup_samples(args, env, run_child, setup_s) -> tuple:
    """Set-up seconds of this process and of fresh child processes, as
    measured and rescaled.

    A set-up is a fresh interpreter importing numpy and pzbeam, so every
    workload rescales it by the import gauge, timed after this process's
    set-up and between the children's; each child's uses the timings
    before and after it.
    """
    gauge = reference.ImportGauge(env)
    gauge_s = [gauge.time()]
    wall = [setup_s]
    for _ in range(SETUP_SAMPLES - 1):
        out = run_child([sys.executable, __file__, "--workload", args.workload,
                         "--seed", str(args.seed), "--setup-probe"], env)
        if out.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {out.stderr.decode(errors='replace')}")
        wall.append(float(out.stdout.decode().split()[-1]))
        gauge_s.append(gauge.time())
    windows = [gauge_s[:1]] + [gauge_s[k - 1:k + 1] for k in range(1, len(wall))]
    return [t * gauge.nominal_s / statistics.median(g) for t, g in zip(wall, windows)], wall


def harrell_davis(values, p: float) -> float:
    """The Harrell-Davis estimate of quantile p: a mean of the order
    statistics weighted by a beta distribution, steadier than any one of
    them when neighbouring values differ by more than their noise."""
    import numpy as np
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    grid = np.linspace(0.0, 1.0, 20001)
    with np.errstate(divide="ignore"):
        log_pdf = (a - 1.0) * np.log(grid) + (b - 1.0) * np.log1p(-grid)
    log_pdf[~np.isfinite(log_pdf)] = -np.inf     # the two end points get no weight
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate(([0.0], np.cumsum(pdf[1:] + pdf[:-1])))
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf / cdf[-1]))
    return float(weights @ x)


def end_to_end(phase, gauge) -> tuple:
    """The rescaled op-time figures, and the same figures in wall time.

    Each op's wall time is scaled by the host speed around it; each input's
    op time is the low median over its runs, so that one run slowed by the
    host inside the op, where the gauge cannot see it, does not set it. The
    percentiles and throughput are taken over the inputs of the pool, so
    that every run weighs the same mix of inputs whatever the seed or the
    point where the deadline fell.
    """
    factors = reference.scale_factors(gauge, phase.gauge_s)
    by_input, wall_by_input = {}, {}
    for key, d, f in zip(phase.keys, phase.durations, factors):
        by_input.setdefault(key, []).append(d * f)
        wall_by_input.setdefault(key, []).append(d)
    out = {}
    for tag, groups in (("", by_input), ("wall_", wall_by_input)):
        op_s = [statistics.median_low(v) for v in groups.values()]
        out[tag] = {"ops_per_s": len(op_s) / sum(op_s),
                    "op_p50_ms": harrell_davis(op_s, 0.5) * 1e3,
                    "op_p90_ms": harrell_davis(op_s, 0.9) * 1e3}
    out["wall_"]["host_speed"] = statistics.median(factors)
    return out[""], out["wall_"]


def startup_split(env, run_child) -> dict:
    """Child-process medians: interpreter start, then each import on top."""
    samples = {name: [] for name in STARTUP_COMMANDS}
    for _ in range(STARTUP_REPEATS):
        for name, code in STARTUP_COMMANDS.items():
            t0 = time.perf_counter()
            out = run_child([sys.executable, "-c", code], env)
            samples[name].append(time.perf_counter() - t0)
            if out.returncode != 0:
                raise RuntimeError(f"python -c {code!r} failed: "
                                   f"{out.stderr.decode(errors='replace')}")
    med = {name: statistics.median(v) * 1e3 for name, v in samples.items()}
    return {"cli.start_ms": med["start"],
            "cli.import_numpy_ms": med["import_numpy"] - med["start"],
            "cli.import_pzbeam_ms": med["import_pzbeam"] - med["import_numpy"]}


def op_times_by_bucket(plan, phase) -> list:
    groups = {}
    for key, d in zip(phase.keys, phase.durations):
        inp = plan.inputs[key]
        groups.setdefault((inp["bucket"], inp["wiring"]), []).append(d)
    return [{"bucket": b, "wiring": w, "ops": len(v), "op_p50_ms": statistics.median(v) * 1e3}
            for (b, w), v in sorted(groups.items())]


def environment(args) -> dict:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu_model = next((l.split(":", 1)[1].strip() for l in f
                              if l.startswith("model name")), cpu_model)
    except OSError:
        pass
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pzbeam").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model, "python": sys.version.split()[0],
            "numpy": sys.modules["numpy"].__version__, "git_commit": commit,
            "src_sha256": digest.hexdigest(), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def main(argv=None) -> int:
    args = parse_args(argv)
    check_tree()
    plan = inputs.make_plan(args.workload, args.seed, ROOT)
    setup_s, wl = timed_setup(args, plan)
    if args.setup_probe:
        print(repr(setup_s))
        return 0
    import workloads
    env = workloads.child_env()
    first = {}
    report = {"env": environment(args)}
    if args.trace == 0:
        setups, setups_wall = setup_samples(args, env, workloads.run_child, setup_s)
        wl.gauge.time()    # its first run is cold
        phase = Phase()
        timed_loop(wl, plan, args.seconds, first, phase, gauge=True)
        phases = [phase]
        bad = check_outputs(wl, plan, first, phases)
        if args.workload == "cli-batch":
            peak_rss_mb = phase.peak_child_kb / 1024.0
        else:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted, failed = count_failures(phases, bad)
        values, wall = end_to_end(phase, wl.gauge)
        values["setup_s"], wall["setup_s"] = map(statistics.median, (setups, setups_wall))
        values.update(peak_rss_mb=peak_rss_mb, ok_ratio=1.0 - failed / attempted)
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
        report.update(wall_figures=wall, setup_samples_s=setups_wall, wall_s=phase.wall,
                      inputs_timed=len(set(phase.keys)),
                      op_ms_by_bucket=op_times_by_bucket(plan, phase))
    else:
        from tracing import Tracer, per_layer_metrics
        tracer = Tracer()
        untraced, traced = traced_loop(wl, plan, args.seconds, first, tracer, [workloads])
        phases = [untraced, traced]
        tracer.install(workloads)
        try:
            bad = check_outputs(wl, plan, first, phases)
        finally:
            tracer.uninstall()
        attempted, failed = count_failures(phases, bad)
        metrics, scaling = per_layer_metrics(tracer, plan, traced, untraced, wl.oracle)
        metrics.update({k: (v, "ms") for k, v in startup_split(env, workloads.run_child).items()})
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        spans_file = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.tsv"
        tracer.write_tsv(spans_file)
        report.update(scaling, spans_file=str(spans_file.relative_to(ROOT)),
                      traced_ops=len(traced.keys), untraced_ops=len(untraced.keys))
    report.update(attempted=attempted, failed=failed,
                  failures=failure_samples(phases, bad, plan))
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    report_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_file.write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(report))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
