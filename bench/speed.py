"""Machine-speed probe and the normalisation of timed work by it.

Shared machines change speed by tens of percent from one second to the next
(other tenants, frequency scaling), which swamps the differences the
benchmark exists to show. The probe is a fixed loop of the kinds of work the
program does: small numpy calls, interpreter-level list and dict work, CSV
and float parsing, JSON, a memory copy. It belongs to the benchmark, so no
program change can alter it, and it runs between timed operations, never
inside or beside them (a probe running concurrently on the other CPU slowed
the program by a fifth or more). Each timed segment is scaled by the mean of
the probes taken just before and just after it: seconds * REF_S / probe
seconds, the time it would have taken on a machine where the probe takes
REF_S. On a shared 2-vCPU virtual machine this cut the spread of replay
throughput over five seeds from 39% to 4%. Raw wall-clock figures are
reported alongside.
"""

from __future__ import annotations

import csv
import io
import json
import time

import numpy as np

REF_S = 0.005          # probe time taken as the reference machine speed
PROBE_EVERY_S = 0.05   # at most this much timed work between two probes

_SMALL = np.arange(64.0)
_LARGE = np.arange(65536.0)   # 512 KB


_CSV = "".join(f"s0,a{k % 7},vehicle,{k},{k * 0.37!r},{k * -1.91!r},0.0\n" for k in range(150))


def probe() -> float:
    """Seconds one fixed calibration loop takes right now."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(80):
        x = np.roll(_SMALL, 1) * 0.5 + _SMALL
        acc += float(np.hypot(x, _SMALL).max())
        rows = [(j, str(j + i), j * 0.5) for j in range(40)]
        index = {key: value for _, key, value in sorted(rows, key=lambda r: r[1])}
        acc += sum(index.values())
    for _ in range(2):
        parsed = [(r[1], int(r[3]), float(r[4]), float(r[5])) for r in csv.reader(io.StringIO(_CSV))]
        acc += len(json.loads(json.dumps({"rows": parsed}))["rows"])
    acc += float(_LARGE.copy().sum())
    return time.perf_counter() - t0


def segment_factors(n_segments: int, probes: list[tuple[int, float]]) -> np.ndarray:
    """Speed factor (probe seconds / REF_S) of each timed segment.

    ``probes`` holds (index of the segment the probe preceded, seconds); the
    first probe precedes segment 0 and one follows the last segment.
    """
    at = np.array([p[0] for p in probes])
    seconds = np.array([p[1] for p in probes])
    after = np.searchsorted(at, np.arange(n_segments), side="right")
    return (seconds[after - 1] + seconds[np.minimum(after, len(at) - 1)]) / (2.0 * REF_S)
