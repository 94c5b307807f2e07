"""The machine's current speed, from a fixed reference kernel.

The benchmark runs on a shared machine whose speed swings by up to half
between one minute and the next, each core on its own.  A pure-Python
kernel that shares no code or data with modpoints, timed on the same core
right before and right after an operation, reads that speed.  Scaling the
operation's wall time by ``REFERENCE_MS / kernel ms`` gives its time at the
reference speed, the speed at which the kernel takes ``REFERENCE_MS``: the
swing cancels, and a change in modpoints still moves the scaled time in
proportion, since the program cannot make the kernel faster or slower.

The kernel does the same kind of work as the program: it multiplies two
polynomials held as dicts of exponent tuples and closes a permutation group
of tuples under its generators.  The garbage collector is off while it
runs, so objects the program keeps alive in the same process do not change
its time.
"""

from __future__ import annotations

import gc
import time

# About the kernel's median time, on one core, on the 2-core machine the
# benchmark was written on; it sets the scale of every reported time.
REFERENCE_MS = 34.0
ROUNDS = 8


def _kernel() -> int:
    p = {(i, j): (i * 7 + j * 3) % 11 - 5 for i in range(10) for j in range(10)}
    product: dict = {}
    for (a, b), u in p.items():
        for (c, d), v in p.items():
            key = (a + c, b + d)
            product[key] = product.get(key, 0) + u * v
    generators = ((1, 0, 2, 3, 4, 5), (1, 2, 3, 4, 5, 0))
    seen = {tuple(range(6))}
    frontier = list(seen)
    while frontier:
        grown = []
        for g in frontier:
            for h in generators:
                composed = tuple(g[i] for i in h)
                if composed not in seen:
                    seen.add(composed)
                    grown.append(composed)
        frontier = grown
    return len(product) + len(seen)


def kernel_ms() -> float:
    """Wall time of one run of the reference kernel, in ms."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(ROUNDS):
            _kernel()
        return (time.perf_counter() - start) * 1e3
    finally:
        if enabled:
            gc.enable()


def at_reference_speed(seconds: float, before_ms: float, after_ms: float) -> float:
    """``seconds`` of wall time, scaled to the reference speed by the kernel
    times measured just before and just after it."""
    return seconds * 2 * REFERENCE_MS / (before_ms + after_ms)
