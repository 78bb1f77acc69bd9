"""The host's speed, read from a fixed reference computation between ops.

The shared host changes speed by up to 2x within seconds, and CPU time
swings with wall time, so a slow phase slows every op of a run together.
calibrate() times a fixed mix of interpreter work and big-integer
arithmetic (the two kinds of work icotile does), with the collector off
so that the program's heap cannot change its cost.  Timings are reported
as reference seconds: wall seconds times REFERENCE_S over the host's
calibration time around the op, that is, the time the op would take on
a host where one calibration takes REFERENCE_S.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

REFERENCE_S = 0.0035  # about the median calibration on a 2 GHz Xeon vCPU of a shared host
CALIBRATE_EVERY_S = 0.1  # ops shorter than this share their calibrations
WINDOW = 3  # calibrations on each side of an op that set its scale
_BIG_A, _BIG_B = 3 ** 20000, 7 ** 12000


def _reference_work() -> int:
    acc, table, seen = 0, {}, []
    for i in range(4000):
        table[i & 127] = acc
        acc = (acc * 31 + table.get((i * 7) & 127, i)) % 1000003
        seen.append(acc)
    seen.sort()
    x, y = _BIG_A, _BIG_B
    for k in range(200):
        x, y = x + 2 * y + k, y + x
    return acc ^ (x & 0xFFFF)


def calibrate(reps: int = 3) -> float:
    """Fastest of `reps` back-to-back runs of the reference work, in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(reps):
            t0 = perf_counter()
            _reference_work()
            best = min(best, perf_counter() - t0)
        return best
    finally:
        if enabled:
            gc.enable()


def calibrate_in_child(python: str, cwd, env) -> float:
    """calibrate() in a fresh process, which the host may place on another
    vCPU than this one, as it does the processes a CLI op starts."""
    from workloads import run_child  # workloads imports nothing from here

    child = run_child([python, "-I", "-S", __file__], cwd, env)  # no site: start-up in ~30 ms
    if child.code != 0:
        raise RuntimeError(f"calibration child exited {child.code}: {child.err[-2000:]}")
    return float(child.out)


class HostSpeed:
    """Calibrations taken between ops, at most one per CALIBRATE_EVERY_S.

    Call tick() before each op and keep what it returns; call close() after
    the last op.  scaled(marks, walls) then gives the ops' reference seconds.
    """

    def __init__(self, calibrate=calibrate):
        self.calibrate = calibrate
        self.samples: list[float] = []
        self._last = float("-inf")

    def _sample(self) -> None:
        self.samples.append(self.calibrate())
        self._last = perf_counter()

    def tick(self) -> int:
        if perf_counter() - self._last >= CALIBRATE_EVERY_S:
            self._sample()
        return len(self.samples)

    def close(self) -> None:
        self._sample()

    def scaled(self, marks: list[int], walls: list[float]) -> list[float]:
        """Each op's wall seconds in reference seconds.  An op is scaled by the
        median of the WINDOW calibrations before it and the WINDOW after it,
        which follows the host's phases while a single noisy calibration
        cannot move one op past its neighbours and bend a percentile."""
        s = self.samples
        return [w * REFERENCE_S / statistics.median(s[max(0, k - WINDOW):k + WINDOW])
                for k, w in zip(marks, walls)]


if __name__ == "__main__":
    print(calibrate())
