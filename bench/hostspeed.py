"""Host speed, measured by a fixed reference kernel beside the program.

The benchmark's host is a virtual machine sharing its cores: the same
pass over the same items runs up to 1.9x slower in some minutes than in
others, in one process, with CPU time tracking wall time (no steal
time).  Medians within a 30-second run cannot remove a slow period that
lasts the whole run, so the end-to-end timings are scaled by the host's
speed at the moment they were taken.

`kernel()` is a small pure-Python job built from the same operations the
library spends its time in: dicts keyed by tuples of strings, sets and
frozensets, sorting tuples, attribute access on slotted objects and
parent-pointer walks.  It lives in the benchmark, so a change to the
program cannot make it faster or slower.  A `Speedometer` samples it
between items; an item's time is scaled by REF_S over the mean of the
samples just before and just after it.  The result is the time the
item would take on the host at the speed where the kernel takes REF_S
(about the fastest speed seen on a 2-vCPU Intel Xeon virtual machine),
in seconds like the raw time.
"""

from __future__ import annotations

import time

# Kernel time that defines the reference speed.
REF_S = 0.0004
# A sample is taken after the first item that ends this long after the
# previous sample (and before the first and after the last item).
SAMPLE_EVERY_S = 0.05
# A sample is the median of this many kernel runs, so that one run slowed
# by an interrupt does not scale a whole stretch of items.  An untimed run
# goes first: the first run after an item is about 20% slower, by how
# much of the item's data it has to push out of the caches, which would
# tie the sample to the program's footprint.
RUNS_PER_SAMPLE = 3

_KEYS = [("n%d" % (i % 211), i % 7) for i in range(240)]


class _Node:
    __slots__ = ("parent", "level")

    def __init__(self, parent, level):
        self.parent = parent
        self.level = level


def _depth(node):
    d = 0
    while node.parent is not None:
        node = node.parent
        d += 1
    return d


def kernel():
    table = {}
    for r in range(6):
        for key in _KEYS:
            table[key] = table.get(key, 0) + r
    picked = sorted({(key[0], v) for key, v in table.items() if v % 3})
    nodes = {0: _Node(None, 0)}
    for i in range(1, 400):
        nodes[i] = _Node(nodes[(i * 7) % i if i > 1 else 0], i % 5)
    depth = sum(_depth(n) + (n.level < 3) for n in nodes.values())
    return len(picked) + depth + len(frozenset(
        (i, n.level) for i, n in nodes.items()))


def kernel_s(clock=time.perf_counter):
    t0 = clock()
    kernel()
    return clock() - t0


class Speedometer:
    """Kernel samples taken between timed operations.

    `scaled(seconds, before, after)` turns a raw duration into reference
    seconds, given the kernel samples taken just before and after it.
    The samples and the raw durations are kept for the run's detail
    file."""

    def __init__(self):
        self.samples = []
        self.raw_item_s = []
        self.raw_setup_s = []

    def sample(self):
        kernel()
        s = sorted(kernel_s() for _ in range(RUNS_PER_SAMPLE))
        self.samples.append(s[len(s) // 2])
        return self.samples[-1]

    @staticmethod
    def scaled(seconds, before, after):
        return seconds * REF_S * 2 / (before + after)
