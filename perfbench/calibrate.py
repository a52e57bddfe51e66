"""Host-speed calibration for the wall-time metrics.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent over minutes as other tenants load the caches and memory
bus. That drift moves the median pass time of a whole run, so two runs of
the same code can disagree by more than any useful bound.

The calibration kernel is a fixed piece of numpy work shaped like a
phaselab pass: sign-twisted FFTs along each axis of a 16x32x32x32 complex array
(the character sums of ``grids``), then magnitudes, a weight, powers and
axis reductions (a mixed norm), and a little Python glue. It shares no code
with phaselab, so a change to the program does not change it. The runner
times it right before every pass; a pass is reported as its wall time
divided by the mean of the kernel times on either side of it, multiplied by
:data:`REFERENCE_S`, the kernel's time on a quiet host. The result is in
seconds at the reference host speed: on a quiet host it equals wall time,
and on a loaded one the slowdown the kernel sees is divided out.
"""

from __future__ import annotations

import time

import numpy as np

#: kernel seconds on a quiet host (2-core Intel Xeon, numpy with one BLAS
#: thread); a constant, so normalised figures compare across commits
REFERENCE_S = 0.05

SHAPE = (16, 32, 32, 32)
P = 1.5
GLUE = 2000


class Calibrator:
    """The kernel's fixed input and the check that it still computes the same."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20211025)
        self.values = rng.standard_normal(SHAPE) + 1j * rng.standard_normal(SHAPE)
        self.signs = [((-1.0) ** np.arange(n)).reshape([n if k == ax else 1 for k in range(len(SHAPE))])
                      for ax, n in enumerate(SHAPE)]
        grid = np.linspace(-1.0, 1.0, SHAPE[-1])
        self.weight = (1.0 + grid[:, None] ** 2 + grid[None, :] ** 2) ** 0.5
        self.expected = None

    def _work(self) -> float:
        out = self.values
        for ax in range(len(SHAPE)):
            out = np.fft.fft(out * self.signs[ax], axis=ax) * self.signs[ax]
        mags = np.abs(out) * self.weight
        inner = (mags ** P).sum(axis=(0, 1)) ** (1.0 / P)
        value = float(np.sqrt((inner ** 2).sum()))
        acc = 0
        for k in range(GLUE):
            acc += k % 7
        return value + acc

    def kernel(self) -> float:
        """Run the kernel once; returns its wall time in seconds."""
        t0 = time.perf_counter()
        value = self._work()
        seconds = time.perf_counter() - t0
        if self.expected is None:
            self.expected = value
        elif value != self.expected:
            raise RuntimeError(f"calibration kernel gave {value!r}, earlier {self.expected!r}")
        return seconds


def normalise(pass_s: float, kernel_before_s: float, kernel_after_s: float) -> float:
    """A pass time at the reference host speed, from the kernel runs on either side."""
    return REFERENCE_S * pass_s / (0.5 * (kernel_before_s + kernel_after_s))
