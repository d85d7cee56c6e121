"""Host-speed calibration: a fixed numpy loop, timed during every operation.

On a shared machine the same operation can take 1.6 times longer from one
second to the next, because the host switches between speeds every few
seconds. ``Calibrator`` times a fixed loop of small-matrix work (the kind the
solver does: coordinate flattening and a Hermitian eigendecomposition), which
calls nothing in qqc, right before and after each operation and every
``PERIOD`` seconds during it, from a SIGALRM handler. An operation's
reference time is its wall time, less the time spent in the handler, scaled
by ``REFERENCE_LOOP_S`` over the mean loop time around and during it: the
time the operation would have taken with the loop at its reference speed.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

PERIOD = 0.25
# The loop's time on the reference machine, one BLAS thread, in its fast state.
REFERENCE_LOOP_S = 0.003

_rng = np.random.default_rng(12345)
_MATS = []
for _d in (4, 8, 8, 16):
    _a = _rng.standard_normal((_d, _d)) + 1j * _rng.standard_normal((_d, _d))
    _MATS.append(_a + _a.conj().T)


def loop_seconds() -> float:
    """Wall time of one pass of the fixed calibration loop."""
    start = time.perf_counter()
    for _ in range(8):
        for h in _MATS:
            iu = np.triu_indices(h.shape[0], 1)
            np.concatenate([np.diag(h).real, math.sqrt(2) * h[iu].real, math.sqrt(2) * h[iu].imag])
            w, v = np.linalg.eigh(h)
            (v * np.clip(w, 0.0, None)) @ v.conj().T
    return time.perf_counter() - start


class Calibrator:
    """Samples the loop around and during operations and times them."""

    def __init__(self):
        self._samples: list[float] = []
        self._spent = 0.0
        self._start = 0.0

    def _tick(self, signum, frame) -> None:
        took = loop_seconds()
        self._samples.append(took)
        self._spent += took

    def __enter__(self) -> "Calibrator":
        signal.signal(signal.SIGALRM, self._tick)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def begin(self) -> None:
        """Sample once, then every PERIOD seconds until ``end``."""
        self._samples = [loop_seconds()]
        self._spent = 0.0
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        self._start = time.perf_counter()

    def end(self) -> tuple[float, float]:
        """Stop sampling; return the operation's wall time and reference time."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - self._start
        spent = self._spent
        self._samples.append(loop_seconds())
        speed = REFERENCE_LOOP_S / (sum(self._samples) / len(self._samples))
        return wall, (wall - spent) * speed
