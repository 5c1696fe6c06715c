"""Host-speed reference for the benchmark's timings.

On a shared host the speed of one core drifts, and it drifts differently
for Python-bound and for bulk-array code: the 2-vCPU Xeon (Sapphire
Rapids) KVM guest this was built on ran the same `fast_routes` round in
0.19 s in one process and 0.30 s in the next. So every run also times two
fixed loops that call no library code, interleaved with its queries:

- `calls`: small-array numpy calls from Python, as in curve evaluation and
  the quadrature engine's per-panel bookkeeping;
- `bulk`: complex pair-grid arithmetic on 256-point sides, as in the
  kernels.

A run's timings are multiplied by a speed scale, nominal over measured loop
time, with the two loops weighted by the workload's share of kernel time.
"""

import statistics
import time

import numpy as np

# median loop times on an idle vCPU of the host above
CALLS_NOMINAL_S = 0.05
BULK_NOMINAL_S = 0.05


class Speed:
    """Loop timings of one run."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = rng.normal(size=(16, 3))
        self._big = rng.normal(size=(256, 3)) + 1j * rng.normal(size=(256, 3))
        self.calls = []
        self.bulk = []

    def sample(self):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(4000):
            acc += float(np.sum(np.cos(self._small * (i + 1.0)) @ self._small.T))
        t1 = time.perf_counter()
        for _ in range(8):
            r = self._big[:, None, :] - self._big[None, :, :]
            n2 = np.sum(r.real ** 2 + r.imag ** 2, axis=-1)
            acc += float(np.sum(np.conj(r[..., 0] * r[..., 1]) / (n2 * n2 + 1.0)).real)
        t2 = time.perf_counter()
        self.calls.append(t1 - t0)
        self.bulk.append(t2 - t1)
        return acc

    def scale(self, bulk_share):
        """Nominal over measured speed, bulk loop weighted by bulk_share."""
        calls = CALLS_NOMINAL_S / statistics.median(self.calls)
        bulk = BULK_NOMINAL_S / statistics.median(self.bulk)
        return (1.0 - bulk_share) * calls + bulk_share * bulk
