"""The benchmark's reference loop.

    python3 refloop.py COUNTER_FILE

Repeats one fixed unit of work forever at the lowest priority (nice 19).
The client pins it to the CPU the CLI children run on, so the kernel gives
it a thin, regular share of that CPU while a child runs: about one slice of
a few milliseconds every couple of hundred.  After each unit it stores the
number of units done and its own CPU time in COUNTER_FILE (16 bytes,
little-endian int64 and float64).  The client reads the counter before and
after each child; the CPU time per unit in between is the speed that CPU
ran at while the child ran, sampled all through the child's run.

The unit imports nothing from the program, so a change to the program
cannot change it.
"""

from __future__ import annotations

import mmap
import os
import struct
import sys
import time

import numpy as np

COUNTER = struct.Struct("<qd")
_ROW = np.arange(64, dtype=np.uint8)


def unit() -> None:
    """About a millisecond of Python integer and dict work and small-array
    numpy calls, the mix the CLI's engine and oracle run."""
    acc = 0
    table = {}
    for i in range(2000):
        acc ^= (i * 2654435761) & 0xFFFF
        table[i & 1023] = acc
    for i in range(100):
        block = (_ROW ^ (i & 255)).reshape(8, 8).T.copy()
        acc += int(block[0, 0])


def read(counter: mmap.mmap) -> tuple[int, float]:
    """(units, CPU seconds) as last stored.  A read that races a store may
    pair one unit's count with its neighbour's time, an error of one unit
    in the hundreds a call spans."""
    return COUNTER.unpack(counter[: COUNTER.size])


def main(argv: list[str]) -> int:
    os.nice(19)
    with open(argv[0], "r+b") as fh:
        counter = mmap.mmap(fh.fileno(), COUNTER.size)
    units = 0
    while True:
        unit()
        units += 1
        counter[: COUNTER.size] = COUNTER.pack(units, time.process_time())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
