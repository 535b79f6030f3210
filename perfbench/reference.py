"""Reference kernel: measures how fast the machine runs while a command runs.

The benchmark host is shared, and its speed swings by up to 2x over
seconds, often in the middle of a command. So the benchmark samples the
speed during every timed command: an interval timer interrupts the command
every PERIOD_S and runs a short fixed numpy kernel, and one more run goes
right before and right after. The kernel's own time is taken out of the
command's wall time. Each command's time is then reported scaled to the
speed at which the kernel takes NOMINAL_S:

    scaled = (wall - kernel time inside) * mean(NOMINAL_S / kernel time)

The mean of the ratios is the time-average of the machine's speed, which
is the right weight when the speed changes within the command. The kernel
does not use mfnet, so no change to the program moves it. It mixes the two
kinds of work mfnet does: gathers, einsums, scatters and softmaxes over a
50x100 grid's edges, and many tiny numpy calls whose cost is interpreter
dispatch. Raw times are kept in the report next to the scaled ones.
"""
from __future__ import annotations

import signal
import time
from contextlib import contextmanager

import numpy as np

# The kernel's time on a 2-core Intel Xeon KVM guest (Python 3.11, numpy
# 2.4, one BLAS thread) when it runs at full speed. Any constant would do;
# this one keeps scaled times close to raw times on that machine.
NOMINAL_S = 0.0115
PERIOD_S = 0.25  # kernel runs at most this often inside a command: ~5% of its time

N_SITES, N_EDGES, K = 5000, 9850, 2


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.q = rng.random((N_SITES, K))
        self.read = rng.integers(0, N_SITES, N_EDGES)
        self.pos = rng.integers(0, N_SITES // 2, N_EDGES)
        self.tables = rng.random((N_EDGES, K, K))
        self.one = np.zeros(4, dtype=np.int64)
        self.samples: list = []  # (start, seconds) of every kernel run
        self.on_sample = None    # called with the seconds of each run
        self._in_alarm = False

    def _kernel(self) -> float:
        acc = 0.0
        for _ in range(12):
            msg = np.einsum("ekl,el->ek", self.tables, self.q[self.read])
            a = np.zeros((N_SITES // 2, K))
            np.add.at(a, self.pos, msg)
            z = np.exp(a - a.max(axis=1, keepdims=True))
            acc += float((z / z.sum(axis=1, keepdims=True))[0, 0])
        out = np.zeros((1, K))
        for i in range(600):
            msg = np.einsum("ekl,el->ek", self.tables[:4], self.q[self.read[i % 100 : i % 100 + 4]])
            np.add.at(out, self.one, msg)
        return acc + float(out[0, 0])

    def run(self) -> float:
        """Run the kernel once; returns and records its wall seconds."""
        t0 = time.perf_counter()
        self._kernel()
        took = time.perf_counter() - t0
        self.samples.append((t0, took))
        if self.on_sample is not None:
            self.on_sample(took)
        return took

    def _on_alarm(self, *_):
        # A slow kernel run could outlast the period; never nest runs.
        if not self._in_alarm:
            self._in_alarm = True
            try:
                self.run()
            finally:
                self._in_alarm = False

    @contextmanager
    def _sampling(self):
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def timed(self, fn):
        """(fn(), raw seconds, scaled seconds) of one call."""
        first = len(self.samples)
        self.run()
        with self._sampling():
            t0 = time.perf_counter()
            result = fn()
            wall = time.perf_counter() - t0
        self.run()
        runs = self.samples[first:]
        raw = wall - sum(took for start, took in runs if t0 <= start < t0 + wall)
        ratios = [NOMINAL_S / took for _, took in runs]
        return result, raw, raw * sum(ratios) / len(ratios)
