"""Host speed probe: scales measured times to a quiet reference host.

The benchmark runs on shared machines whose speed swings by 20..100 % for
seconds to minutes at a time, as other tenants load the same cores; CPU time
swings with it, so it is no escape.  ``calibrate`` times two fixed probes,
an interpreter loop and big-integer multiplication and formatting (the two
kinds of work the CLI's requests do), and says how many times slower than
on the reference host they ran.  Taken right before and right after a
request, it tells how fast the host ran meanwhile, and ``scaled`` turns the
request's time into the time it would take on the reference host.  The
program under test never runs the probes, so a change to the program moves
the scaled times exactly as it moves the raw ones.

The probes allocate next to nothing, so they do not raise peak RSS, and this
module imports nothing but ``time``, so the set-up starts can use it without
loading anything the CLI would otherwise import itself.
"""

from __future__ import annotations

import time

# Probe times on an unloaded core of the 2.1 GHz Xeon the goldens were made
# on.  They only set the unit: comparisons between commits do not depend on
# them.
LOOP_NOMINAL_S = 1.15e-3
BIGINT_NOMINAL_S = 1.0e-3

_BIG = [7 ** (3000 + k) for k in range(8)]


def _loop() -> None:
    total = 0
    for i in range(20_000):
        total += i * i % 7


def _bigint() -> None:
    bits = 0
    for a in _BIG * 4:
        bits ^= (a * a) >> 5000
    str(_BIG[0])


def _timed(probe) -> float:
    start = time.perf_counter()
    probe()
    return time.perf_counter() - start


def calibrate() -> float:
    """How many times slower than the reference host this host runs now:
    the geometric mean over the probes."""
    return (_timed(_loop) / LOOP_NOMINAL_S
            * _timed(_bigint) / BIGINT_NOMINAL_S) ** 0.5


def scaled(elapsed: float, before: float, after: float) -> float:
    """``elapsed`` at reference speed, given the slowness ``calibrate``
    measured right before and right after it."""
    return elapsed * 2 / (before + after)
