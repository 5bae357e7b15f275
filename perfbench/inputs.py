"""Seeded inputs for the workloads.

Standard library only: the inputs are made before the timed set-up starts,
so that numpy and pzbeam are first imported inside it.

A plan is a pool of distinct inputs, a list of blocks (lists of pool indices)
that the timed loop cycles through, and one warm-up input. The loop checks
its deadline only between blocks, so every block is built to hold the same
mix of costly and cheap inputs; that keeps the throughput and percentiles of
a run independent of where the deadline falls and of the seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("deep-stack", "cli-batch")
SHIPPED_LAYUPS = ("sandwich", "unimorph", "bimorph")
MATERIALS_FILE = "docs/materials.json"

# deep-stack layer-count buckets; each block holds, per bucket, two
# independently wired stacks and one parallel-wired stack. The layer counts
# and the material order are the same for every seed, so every run times the
# same mix of costs; the seed draws thicknesses, polings, widths and states.
DEEP_BUCKETS = ((16, 31), (32, 47), (48, 63), (64, 79), (80, 95))
DEEP_SLOTS = ("independent", "independent", "parallel")
DEEP_BLOCKS = 7             # 105 stacks: 21 per bucket, spread over its 16 counts
CLI_SUBCOMMANDS = ("reduce", "compare", "stress", "capacitance", "beam-static",
                   "beam-modal")
CLI_FORMATS = ("table", "json", "csv")
CLOSURES = ("nd", "ns", "nsr")


@dataclass
class Plan:
    inputs: list
    blocks: list
    warmup: dict


def _layer(material, thickness_mm, poling="none", electroded=False):
    return {"material": material, "thickness_mm": thickness_mm, "poling": poling,
            "electroded": electroded}


def _pzt(thickness_mm, poling):
    return _layer("PZT-5H", thickness_mm, poling, True)


def _deep_stack(rng, n_layers, wiring, bucket, first_piezo):
    layers = []
    for i in range(n_layers):
        if (i % 2 == 0) == first_piezo:
            layers.append(_pzt(rng.uniform(0.05, 0.5), rng.choice(("+z", "-z"))))
        else:
            layers.append(_layer("Al-6061", rng.uniform(0.1, 1.0)))
    n_terminals = sum(l["electroded"] for l in layers) if wiring == "independent" else 1
    return {"layup": {"width_mm": rng.uniform(5.0, 30.0), "wiring": wiring, "layers": layers},
            "layers": n_layers, "wiring": wiring, "bucket": bucket,
            "eps": rng.uniform(-1e-4, 1e-4), "kappa": rng.uniform(-0.5, 0.5),
            "voltages": [rng.uniform(-200.0, 200.0) for _ in range(n_terminals)]}


def _deep(rng):
    inputs, blocks = [], []
    slots_per_bucket = DEEP_BLOCKS * len(DEEP_SLOTS)
    for b in range(DEEP_BLOCKS):
        block = []
        for lo, hi in DEEP_BUCKETS:
            for s, wiring in enumerate(DEEP_SLOTS):
                slot = b * len(DEEP_SLOTS) + s
                n_layers = lo + slot * (hi - lo + 1) // slots_per_bucket
                block.append(len(inputs))
                inputs.append(_deep_stack(rng, n_layers, wiring, f"{lo}-{hi}", slot % 2 == 0))
        rng.shuffle(block)
        blocks.append(block)
    return Plan(inputs, blocks,
                _deep_stack(rng, DEEP_BUCKETS[0][0], "parallel", "warmup", True))


def _cli_args(rng, subcommand, layup, closure):
    # "--flag=value" keeps a negative value from reading as an option
    model = [f"--model={closure}"]
    length = [f"--length={rng.uniform(30.0, 150.0):.1f}mm"]
    voltage = [f"--voltage={rng.uniform(-200.0, 200.0):.1f}V"]
    if subcommand == "reduce":
        return model
    if subcommand == "compare":
        ref = 2.86 if layup == "sandwich" else rng.uniform(1.0, 6.0)
        return [f"--reference-capacitance={ref:.3f}nF/mm"]
    if subcommand == "stress":
        return model + voltage + [f"--kappa={rng.uniform(-0.5, 0.5):.4f}",
                                  f"--points={rng.randint(3, 21)}"]
    if subcommand == "capacitance":
        return model + [f"--condition={rng.choice(('blocked', 'free'))}"]
    if subcommand == "beam-static":
        return model + length + voltage
    return model + length + [f"--modes={rng.randint(1, 8)}",
                             f"--circuit={rng.choice(('short', 'open'))}"]


def _cli(rng, root: Path):
    layer_counts = {name: len(json.loads((root / f"docs/{name}.json").read_text())["layers"])
                    for name in SHIPPED_LAYUPS}
    inputs = []
    by_subcommand = {}
    for subcommand in CLI_SUBCOMMANDS:
        combos = []
        shift = rng.randrange(len(CLOSURES))
        for i, layup in enumerate(SHIPPED_LAYUPS):
            with_db = rng.randrange(len(CLI_FORMATS))   # one format per layup reads the file
            for f, fmt in enumerate(CLI_FORMATS):
                # a latin square: every closure once per layup and once per format
                closure = CLOSURES[(i + f + shift) % len(CLOSURES)]
                argv = [subcommand, "--layup", f"docs/{layup}.json", "--output", fmt]
                argv += _cli_args(rng, subcommand, layup, closure)
                if f == with_db:
                    argv += ["--materials", MATERIALS_FILE]
                combos.append(len(inputs))
                inputs.append({"argv": argv, "subcommand": subcommand, "format": fmt,
                               "layup_name": layup, "with_db": f == with_db,
                               "layers": layer_counts[layup], "wiring": "parallel",
                               "bucket": layup})
        rng.shuffle(combos)
        by_subcommand[subcommand] = combos
    # block j runs the j-th combination of every subcommand
    blocks = []
    for j in range(len(SHIPPED_LAYUPS) * len(CLI_FORMATS)):
        block = [by_subcommand[s][j] for s in CLI_SUBCOMMANDS]
        rng.shuffle(block)
        blocks.append(block)
    warmup = {"argv": ["compare", "--layup", "docs/sandwich.json"], "subcommand": "compare",
              "format": "table", "layup_name": "sandwich", "with_db": False,
              "layers": layer_counts["sandwich"], "wiring": "parallel", "bucket": "warmup"}
    return Plan(inputs, blocks, warmup)


def make_plan(workload: str, seed: int, root: Path) -> Plan:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "deep-stack":
        return _deep(rng)
    return _cli(rng, root)
