"""Gauges of how fast the host runs right now, and the rescaling by them.

The benchmark's hosts are shared: the same op takes up to twice as long
for seconds to minutes at a time, whatever the program does, because other
tenants contend for the machine. Timing a fixed gauge next to every op
gives the host's speed at that moment; the benchmark multiplies each op's
wall time by the gauge's nominal time over its measured time, reporting
times rescaled to a host on which the gauge takes its nominal time, as a
benchmark suite scores against a reference machine. A gauge uses nothing of pzbeam, so a change to pzbeam moves the
ops and not the gauge.

Each workload has the gauge that its ops' noise follows: for in-process
ops, a kernel shaped like a section reduction; for CLI child processes, a
fresh interpreter importing numpy, which is where their time varies. Set-up
times, which are those of fresh interpreters too, use the latter.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

WINDOW = 1              # gauge timings on each side of an op that set its speed


class _Layer:
    __slots__ = ("thickness", "stiffness", "electroded")

    def __init__(self, i):
        self.thickness = 0.1 + (i * 37 % 11) / 10.0
        self.stiffness = 1.0 + (i * 13 % 7) / 7.0
        self.electroded = i % 2 == 0


class _Stack:
    def __init__(self, n):
        self.layers = [_Layer(i) for i in range(n)]

    @property
    def terminals(self):
        return tuple((i,) for i, l in enumerate(self.layers) if l.electroded)

    def terminal_of(self, index):
        for t, members in enumerate(self.terminals):
            if index in members:
                return t
        return None


_STACK = _Stack(24)


def kernel(rounds: int = 3) -> float:
    """Assemble a small coupled matrix the way section reductions do."""
    import numpy as np

    stack = _STACK
    total = 0.0
    for _ in range(rounds):
        n_t = len(stack.terminals)
        full = np.zeros((n_t + 2, n_t + 2))
        for j in range(n_t + 2):
            acc = 0.0
            q = np.zeros(n_t)
            z0 = -1.0
            for i, layer in enumerate(stack.layers):
                z1 = z0 + layer.thickness
                m0, m1, m2 = z1 - z0, (z1 * z1 - z0 * z0) / 2.0, (z1 ** 3 - z0 ** 3) / 3.0
                acc += layer.stiffness * (m0 + 0.5 * m1 + 0.25 * m2)
                t = stack.terminal_of(i)
                if t is not None:
                    q[t] -= layer.stiffness * m1 / m0
                z0 = z1
            full[0, j] = acc
            full[2:, j] = q
        total += float(np.linalg.solve(full[:2, :2] + 3.0 * np.eye(2), full[:2, 0]).sum())
    return total


class KernelGauge:
    """The kernel above, then four sums over an 8 MB buffer; 6 to 11 ms on a
    core of a shared 2 GHz Xeon host.

    On that host the Python kernel alone sped up more than the largest
    stacks did when the host's speed rose; with the memory sweep its speed
    follows theirs more closely. numpy is imported and the buffer made on
    the first call, so that importing this module leaves the benchmark's
    timed set-up to import numpy.
    """

    nominal_s = 0.007

    def __init__(self):
        self.buffer = None

    def time(self) -> float:
        if self.buffer is None:
            import numpy as np
            self.buffer = np.ones(1 << 20)
        t0 = time.perf_counter()
        kernel()
        for _ in range(4):
            self.buffer.sum()
        return time.perf_counter() - t0


class ImportGauge:
    """A fresh `python -c "import numpy"`; 0.15 to 0.3 s on the same host."""

    nominal_s = 0.2

    def __init__(self, env):
        self.env = env

    def time(self) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy"], env=self.env, check=True,
                       stdout=subprocess.DEVNULL)
        return time.perf_counter() - t0


def scale_factors(gauge, timings: list) -> list:
    """The gauge's nominal time over its time around each op.

    timings[i] is the gauge timing taken just after op i; op i's factor
    uses the median of the WINDOW timings on each side of it.
    """
    return [gauge.nominal_s / statistics.median(timings[max(0, i - WINDOW):i + WINDOW])
            for i in range(len(timings))]
