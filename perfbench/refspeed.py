"""Speed of the machine right now, from a fixed reference computation.

On a shared virtual machine the host gives the guest more or less CPU over
minutes: on a 2-vCPU x86-64 VM every operation, the reference below included,
ran up to 40 % slower in one run than in the next.  The reference is a fixed mix of numpy
transcendental arithmetic on a cache-sized array and plain Python bytecode,
the two kinds of user-mode work the library does, and uses none of its code.
Timing it next to each operation gives the factor ``NOMINAL_S / reference
time``.  Multiplying an operation's user-mode CPU time by that factor gives
what that part would take at nominal speed; kernel time (page faults of large
temporaries) is kept as measured, because it does not follow the reference.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

NOMINAL_S = 0.0075  # the reference's duration on a quiet 2-vCPU x86-64 VM
_X = np.linspace(-10.0, 10.0, 20000)


def _reference() -> float:
    t0 = perf_counter()
    acc = 0.0
    for i in range(10):
        acc += float(np.sum(np.exp(1j * _X * (i + 1) * 1e-3)).real)
    s = 0
    for i in range(50000):
        s += i * i
    return perf_counter() - t0


def speed() -> float:
    """``NOMINAL_S`` over the best of two reference timings."""
    return NOMINAL_S / min(_reference(), _reference())
