"""Machine-speed calibration for the benchmark's timings.

On a shared host the same code runs at different speeds from one moment
to the next, by up to 1.7x on a 2-vCPU virtual machine, for seconds to
minutes at a time.  The drift shows in CPU time as much as in wall time,
so neither can be read directly.  ``SpeedMeter`` measures it from inside
the timed process: a timer signal interrupts the work every ``PERIOD_S``
and runs a short fixed calibration chunk, and each stretch of work
between two samples is rescaled by how long the chunk took at its two
ends.  The result, "reference seconds", is the time the work would have
taken at the speed at which one chunk takes ``REF_CHUNK_S``.  The time
spent in the chunks themselves is left out of both the raw and the
rescaled time.

The chunk mixes the kinds of work the package does, none of it the
package's own code: a loop of small-integer arithmetic, random reads
from a table larger than a core's private caches, products of dict-based
polynomials and exact fractions as instances of a small class.  In
trials the mix followed the package's slow-downs better than any one of
them alone.  Cycle collection is off while a chunk runs, so a
chunk never pays for a collection over the measured program's heap.
"""

import gc
import signal
import time
from math import gcd

# The reference speed: one chunk takes this long.
REF_CHUNK_S = 0.0025
PERIOD_S = 0.2


# 4 MiB.  Every benchmark process holds it, so peak RSS carries it too.
_TABLE = bytearray(range(256)) * (1 << 14)


def _integers(n=1500):
    x, acc = 1, 0
    for i in range(n):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        acc ^= (x >> (i & 7)) + i
    return acc


def _memory(n=1500):
    x, acc = 12345, 0
    table, mask = _TABLE, len(_TABLE) - 1
    for _ in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        acc += table[x & mask]
    return acc


def _polynomials(n=20):
    p = {0: 3, 1: -2, 2: 5, 3: 1, 4: -7}
    q = {-1: 1, 0: 2, 2: 7, 3: -3}
    total = 0
    for _ in range(n):
        r = {}
        for i, a in p.items():
            for j, b in q.items():
                c = r.get(i + j, 0) + a * b
                if c:
                    r[i + j] = c
                else:
                    r.pop(i + j, None)
        total += len(r) + r[min(r)]
        p = {k: v % 1000003 for k, v in r.items() if k < 6}
    return total


class _Fraction:
    __slots__ = ("num", "den")

    def __init__(self, num, den):
        g = gcd(num, den)
        self.num, self.den = num // g, den // g

    def __add__(self, other):
        return _Fraction(self.num * other.den + other.num * self.den, self.den * other.den)

    def __mul__(self, other):
        return _Fraction(self.num * other.num, self.den * other.den)


def _fractions(n=300):
    a, b, acc = _Fraction(3, 7), _Fraction(5, 11), _Fraction(0, 1)
    for i in range(n):
        acc = acc + a * b
        a = _Fraction(b.num + i, a.den + 1)
        b = _Fraction(acc.num % 10007 + 1, acc.den % 10009 + 1)
    return acc.num


def _chunk():
    return _integers() + _memory() + _polynomials() + _fractions()


def chunk_seconds():
    """Time of one calibration chunk now: the faster of two, so that one
    preemption does not read as a slow machine."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = None
        for _ in range(2):
            t0 = time.perf_counter()
            _chunk()
            t = time.perf_counter() - t0
            best = t if best is None else min(best, t)
    finally:
        if enabled:
            gc.enable()
    return best


class SpeedMeter:
    """Raw and reference-speed time of the work between ``start`` and
    ``stop``, sampling the machine's speed every ``PERIOD_S``."""

    def __init__(self):
        self.raw_s = 0.0
        self.ref_s = 0.0
        self._mark = None
        self._last = None

    def _tick(self):
        t0 = time.perf_counter()
        c = chunk_seconds()
        if self._last is not None:
            span = t0 - self._mark
            self.raw_s += span
            self.ref_s += span * REF_CHUNK_S * (1.0 / self._last + 1.0 / c) / 2.0
        self._last = c
        self._mark = time.perf_counter()

    def start(self):
        self.raw_s = self.ref_s = 0.0
        self._last = None
        self._tick()
        signal.signal(signal.SIGALRM, lambda signum, frame: self._tick())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        """Stop measuring; returns (raw seconds, reference seconds)."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick()
        return self.raw_s, self.ref_s


def measure(fn):
    """Run ``fn()`` under a fresh meter; returns (result, raw s, ref s)."""
    meter = SpeedMeter()
    meter.start()
    try:
        result = fn()
    finally:
        raw, ref = meter.stop()
    return result, raw, ref
