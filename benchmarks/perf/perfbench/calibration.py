"""Host-speed calibration: a fixed kernel timed between repeats.

The sandbox this benchmark runs on drifts between speed states ~10-20 %
apart that last minutes (neighbours, turbo, steal) and move *every*
timing together — dataset synthesis, the simulator, process spawn.  Two
sets of runs of the same code that straddle such a shift disagree by
more than any useful bound (README, "Measured A/A").

So each end-to-end timing is reported **at reference host speed**: the
kernel below runs before and after every repeat, and the repeat's rates
are multiplied (its times divided) by ``kernel seconds / REFERENCE_SECONDS``.
A host that is momentarily 10 % slow takes 10 % longer over the kernel
too, and the factor cancels it.  The kernel lives here, in the benchmark:
no product change can move it.  Raw values are kept in every result file.

The kernel mixes what the workloads are made of — small float32 matmuls,
element-wise ops, and plain interpreter work (dict stores, a list
comprehension, float boxing) — so that it slows down when they do.
"""

from __future__ import annotations

import time

import numpy as np

#: kernel seconds on the reference host state (this repo's 2-core sandbox,
#: median over a 25-minute recording); normalized values equal raw ones there
REFERENCE_SECONDS = 0.150

ITERATIONS = 5000

_RNG = np.random.default_rng(0)
_SQUARE = _RNG.standard_normal((64, 64)).astype(np.float32)
_WIDE = _RNG.standard_normal((64, 192)).astype(np.float32)


def kernel() -> float:
    """Run the fixed work once; returns the seconds it took."""
    start = time.perf_counter()
    scratch = {}
    total = 0.0
    for i in range(ITERATIONS):
        hidden = np.tanh(_SQUARE @ _SQUARE) * 0.5 + _SQUARE
        column = (_WIDE.T @ hidden).sum(axis=0)
        scratch[i & 63] = (i, float(column[0]))
        total += hidden[0, 0]
        _ = [x * 2 for x in range(50)]
    return time.perf_counter() - start
