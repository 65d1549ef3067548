"""Wall times scaled to a reference machine speed.

The shared 2-core machine this benchmark was built on changes speed by up to
60% within minutes, through load from other jobs that cannot be seen from
inside it.  CPU time follows wall time through these swings, so they are
slower execution, not waiting.  Raw medians of two sets of runs made minutes
apart then differ by more than any useful bound.

So before each timed operation the clock runs a fixed kernel with no
heatkern code in it, and the operation's wall time is scaled by REF_S over
the median of the five kernel times around it.  At reference speed the
scale is 1 and the figures are plain seconds.  The "warm" kernel does the
kinds of work the in-process workloads do: Python dict loops around small
complex numpy products, and dense and batched LAPACK eigensolvers.  The
"cold" kernel is a fresh `python -c "import numpy"` process, for workloads
made of cold processes, whose time is mostly file reads and unmarshalling.
Over eight seeds scaling cut the quartile spread of a pass from 11-15% to
5-7%.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

# kernel seconds at reference speed: quiet-machine medians where the
# benchmark was built (2 cores, OpenBLAS pinned to one thread)
REF_S = {"warm": 0.02, "cold": 0.15}
WINDOW = 5


class RefClock:
    """kind "warm" times an in-process numpy kernel; kind "cold" times a
    fresh `python -c "import numpy"` process, for workloads made of cold
    processes."""

    def __init__(self, kind):
        self.kind = kind
        self.samples = []
        if kind == "warm":
            import numpy as np

            self.np = np
            rng = np.random.default_rng(0)
            a = rng.standard_normal((96, 96))
            self.sym = a + a.T
            b = rng.standard_normal((2000, 3, 3))
            self.batch = b + b.transpose(0, 2, 1)
            self.block = np.eye(2, dtype=complex)
        self._kernel()

    def _kernel(self):
        if self.kind == "cold":
            subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                           env=dict(os.environ), capture_output=True)
            return
        acc = {}
        for i in range(3000):
            key = (i % 7, i % 5, i % 3)
            prod = self.block @ self.block
            acc[key] = prod if key not in acc else acc[key] + prod
        for _ in range(8):
            self.np.linalg.eigvalsh(self.sym)
        for _ in range(2):
            self.np.linalg.eigh(self.batch)

    def tick(self):
        """Time the kernel once; returns the index of the sample."""
        t0 = time.perf_counter()
        self._kernel()
        self.samples.append(time.perf_counter() - t0)
        return len(self.samples) - 1

    def scale(self, i):
        """REF_S over the median of the WINDOW kernel samples centred on sample i."""
        lo = min(max(0, i - WINDOW // 2), max(0, len(self.samples) - WINDOW))
        return REF_S[self.kind] / statistics.median(self.samples[lo:lo + WINDOW])
