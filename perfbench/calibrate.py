"""Host-speed probes: cancel drift in the speed of the machine itself.

On shared hosts the interpreter's speed drifts by up to half within
tens of seconds (CPU frequency, neighbours on sibling hardware
threads), which swamps any change in the program.  The benchmark
therefore runs a fixed probe next to the workload and divides every
time it reports by the probe's slowdown against a reference, so
reported times are milliseconds/seconds *at the reference speed*:

* :func:`slowdown` — pure computation mixing the kinds of work the
  encoder does (int bit operations, dicts, small objects, sorting, set
  algebra over cubes); probed between segments of in-process ops;
* :func:`startup_slowdown` — a bare interpreter start; probed around
  the spawn-bound work (serve and batch segments, cold starts), whose
  cost the computation probe tracks only loosely.

The probes are part of the benchmark and must never change between the
runs being compared.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

#: probe duration (seconds) that defines a slowdown of 1.0
REFERENCE_S = 2.0e-3

#: interpreter start-up (seconds) that defines a start-up slowdown of 1.0
STARTUP_REFERENCE_S = 0.09


def _dicts() -> int:
    counts: dict = {}
    acc = 0
    for i in range(3000):
        k = (i * 2654435761) & 0x3FF
        counts[k] = counts.get(k, 0) + 1
        acc ^= ((k << 3) ^ (i >> 1)) & 0xFFFFF
    return acc + len(sorted(counts.items()))


class _Node:
    __slots__ = ("a", "b", "kids")

    def __init__(self, a: int, b: int) -> None:
        self.a, self.b, self.kids = a, b, []

    def weight(self) -> int:
        return (self.a ^ self.b) & 0xFF


def _objects() -> int:
    nodes = [_Node(i * 7919 & 0xFFFF, i * 104729 & 0xFFFF)
             for i in range(600)]
    for i, node in enumerate(nodes[1:], 1):
        nodes[(i * 31) % i].kids.append(node)
    total, stack = 0, [nodes[0]]
    while stack:
        node = stack.pop()
        total += node.weight()
        stack.extend(node.kids)
    ordered = sorted(nodes, key=lambda n: (n.a, n.b))
    big = 1
    for node in ordered[:200]:
        big = (big << 5) ^ node.a
    return total + big.bit_length()


def _cubes() -> int:
    """Prime implicants of a fixed 7-input function by merging cubes."""
    terms = {((m * 37) % 128, 0) for m in range(0, 120, 3)}
    primes: set = set()
    while terms:
        merged, used = set(), set()
        ordered = sorted(terms)
        for i, (v1, m1) in enumerate(ordered):
            for v2, m2 in ordered[i + 1:]:
                d = v1 ^ v2
                if m1 == m2 and d & (d - 1) == 0:
                    merged.add((v1 & ~d, m1 | d))
                    used.update(((v1, m1), (v2, m2)))
        primes |= terms - used
        terms = merged
    return len(primes)


def slowdown(reps: int = 5) -> float:
    """Median probe time over *reps* runs, relative to the reference."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        _dicts()
        _objects()
        _cubes()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / REFERENCE_S


def startup_slowdown(reps: int = 3) -> float:
    """Median start-up of a bare interpreter, relative to the reference."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-I", "-c",
                        "import asyncio, json, multiprocessing, random"],
                       check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / STARTUP_REFERENCE_S
