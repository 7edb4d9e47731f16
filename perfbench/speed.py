"""Machine-speed calibration for a shared, unevenly loaded host.

On a host shared with other tenants, the same Python work can take 1.5 to 2
times as long from one minute to the next, and the process's CPU time grows
with its wall time, so the slowdown is not time spent descheduled.  While an
iteration is timed, a timer signal runs a few calls of a fixed pure-Python
kernel every ``INTERVAL`` seconds.  Their time is taken out of the
iteration's time, and their speed scales the rest to the kernel's reference
speed:

    scaled time = (measured time - sampling time) * REFERENCE_CALL_S / call time

where the call time is the sampled time per kernel call.  Sampling throughout the iteration follows the machine's speed much more
closely than timing the kernel before and after it.

The kernel uses no code of ``legendre_pairs``, so a change to the program
cannot move it.  Its mix resembles the search's inner loop: unranking a
19-subset with binomials, building a {-1,+1} tuple from sets and dicts,
complex multiply-adds over roots of unity, strided reads of a list and
string joins.
"""

from __future__ import annotations

import cmath
import math
import signal
import time

LENGTH = 117
ROOTS = tuple(cmath.exp(2j * math.pi * k / LENGTH) for k in range(LENGTH))
ORBITS = {x: tuple(sorted({(x * h) % LENGTH for h in (1, 16, 22)})) for x in range(1, LENGTH)}
SPACE = math.comb(38, 19)
RANKS = tuple((7919 * k * k + 104729 * k) % SPACE for k in range(64))
TABLE = tuple(range(20_000))
REFERENCE_CALL_S = 85e-6  # seconds per sampled kernel call at the reference speed


def kernel(rank: int) -> str:
    chosen = []
    x = 1
    for i in range(19):
        while rank >= math.comb(38 - x, 18 - i):
            rank -= math.comb(38 - x, 18 - i)
            x += 1
        chosen.append(x)
        x += 1
    covered: set[int] = set()
    for c in chosen:
        covered.update(ORBITS[3 * c])
    entries = tuple(1 if p % LENGTH in covered else -1 for p in range(1, LENGTH + 1))
    total = 0.0
    for s in (1 + chosen[0], 2 + chosen[-1]):
        acc = 0j
        for i in range(LENGTH):
            acc += entries[i] * ROOTS[(s * i) % LENGTH]
        total += acc.real * acc.real + acc.imag * acc.imag
    total += sum(TABLE[chosen[1]::400])
    return format(int(total) % 16, "x") + "".join("+" if e == 1 else "-" for e in entries)


class Sampler:
    """Times ``CALLS`` kernel calls on every SIGALRM while it is started."""

    INTERVAL = 0.05
    CALLS = 20
    MIN_CALLS = 200  # topped up after the timed region when it was short

    def __init__(self) -> None:
        self.spent = 0.0
        self.calls = 0

    def sample(self, *_signal) -> None:
        t0 = time.perf_counter()
        for k in range(self.CALLS):
            kernel(RANKS[(self.calls + k) % len(RANKS)])
        self.spent += time.perf_counter() - t0
        self.calls += self.CALLS

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self) -> float:
        """Factor that converts measured seconds to reference-speed seconds."""
        while self.calls < self.MIN_CALLS:
            self.sample()
        return REFERENCE_CALL_S / (self.spent / self.calls)


def timed(fn, *args):
    """Call ``fn(*args)`` under a sampler.

    Returns the result, the elapsed seconds without the sampling, and the
    factor that scales them to reference-speed seconds.
    """
    sampler = Sampler()
    sampler.start()
    t0 = time.perf_counter()
    try:
        result = fn(*args)
    finally:
        sampler.stop()
    elapsed = time.perf_counter() - t0 - sampler.spent
    return result, elapsed, sampler.factor()
