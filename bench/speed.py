"""Machine-speed probe for a measured process.

On a shared machine the same Python code runs up to half slower for
seconds to minutes at a time, and neither repeats nor minima remove
that.  The probe takes a SIGPROF every 10 ms of CPU time and times a
fixed chunk of interpreter work in the handler, in the process being
measured, at the moment it is measured.  A time is reported as

    (wall - time spent in the probe) * REF_S / mean chunk time,

that is, as the seconds it would take at the speed where the chunk
takes REF_S.  REF_S is a constant of the benchmark, so two commits are
compared on the same scale; raw walls are printed alongside.
"""

from __future__ import annotations

import signal
from time import perf_counter

REF_S = 7.0e-5  # about the chunk's median time on a 2.1 GHz x86-64 VM, CPython 3.11
INTERVAL_S = 0.01
RECENT = 16  # samples behind a per-call estimate: about 0.16 s of CPU


def _chunk() -> int:
    acc = 0
    seen = {}
    for i in range(300):
        x = (i * 2654435761) & 0xFFFF
        acc ^= x.bit_count() << (i & 7)
        seen[x & 63] = acc
    return acc


class Probe:
    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0  # seconds inside the handler

    def _tick(self, signum, frame) -> None:
        t = perf_counter()
        _chunk()
        dt = perf_counter() - t
        self.samples.append(dt)
        self.spent += perf_counter() - t

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)

    def factor(self, recent: bool = False) -> float:
        """REF_S over the mean chunk time: of the last few samples, or all."""
        window = self.samples[-RECENT:] if recent else self.samples
        if not window:
            return 1.0
        return REF_S * len(window) / sum(window)
