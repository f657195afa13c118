"""Host-speed calibration: a fixed kernel timed all through a measurement.

The measuring host is a small VM on a shared machine, and its speed drifts
by up to about 1.6x in episodes of seconds to minutes.  A run of a minute
can sit wholly in a slow or a fast episode, so medians of raw wall time
differ between runs by more than any useful regression bound.

``Sampler`` runs a fixed pure-Python kernel (``calibration_round``) from a
SIGALRM handler every few milliseconds while the engine works, in the same
thread, and records how long each round took.  The rounds see the host
as the engine sees it at that moment.  A time divided by the mean round
time of the same interval and multiplied by ``REFERENCE_ROUND_S`` is the
time the work would have taken on a host that runs one round in
``REFERENCE_ROUND_S``: host drift cancels, a change to the engine does not,
because the kernel uses none of the engine's code.

The kernel and the constants are part of the benchmark's definition; a
change to any of them changes every normalized figure.
"""

from __future__ import annotations

import signal
import statistics
import time

#: Seconds between the end of one calibration round and the next, during
#: a pass and during a set-up (which lasts only about 0.1 s).
INTERVAL_S = 0.05
SETUP_INTERVAL_S = 0.01

#: Round time the normalized figures are expressed at: about what one round
#: takes on the measuring host (2-vCPU Xeon, Python 3.11) in a fast episode.
REFERENCE_ROUND_S = 0.005

# Operands of the kernel, built once at import: a schoolbook product of two
# integer polynomials with 200-bit coefficients (the shape of the engine's
# multiplies) and a few products of ~30k-bit integers.
_BITS = 200
_A = [(7 ** k * 1000003) % (1 << _BITS) - (1 << (_BITS - 1))
      for k in range(100)]
_B = [(11 ** k * 999331) % (1 << _BITS) - (1 << (_BITS - 1))
      for k in range(80)]
_X = 3 ** 20000
_Y = 7 ** 15000


def calibration_round() -> int:
    """One round of the fixed kernel; returns a checksum so it is not idle."""
    out = [0] * (len(_A) + len(_B) - 1)
    for i, a in enumerate(_A):
        for j, b in enumerate(_B):
            out[i + j] += a * b
    total = out[len(out) // 2] & 0xFFFF
    for _ in range(3):
        total += (_X * _Y) % 1000003
    return total


def timed_round() -> float:
    start = time.perf_counter()
    calibration_round()
    return time.perf_counter() - start


def normalize(work_s: float, rounds: list) -> float:
    """``work_s`` rescaled to a host that runs a round in
    ``REFERENCE_ROUND_S``, from the rounds timed over the same interval."""
    return work_s * REFERENCE_ROUND_S / statistics.fmean(rounds)


class Sampler:
    """Times calibration rounds from SIGALRM while the ``with`` body runs.

    The timer is one-shot and re-armed at the end of each round, so rounds
    never nest and take about the same share of the interval however slow
    the host is.  ``rounds`` holds each round's duration and ``busy_s`` the
    time the rounds took out of the body, which the caller subtracts from
    the body's wall time.  A body too short for any round gets one round
    after it, so ``rounds`` is never empty.
    """

    def __init__(self, interval_s: float = INTERVAL_S) -> None:
        self.interval_s = interval_s
        self.rounds: list = []
        self.busy_s = 0.0
        self._armed = False

    def _on_alarm(self, signum, frame) -> None:
        if not self._armed:
            return
        took = timed_round()
        self.rounds.append(took)
        self.busy_s += took
        signal.setitimer(signal.ITIMER_REAL, self.interval_s)

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        self._armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.rounds:
            self.rounds.append(timed_round())
