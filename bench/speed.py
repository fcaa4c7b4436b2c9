"""Machine-speed calibration, so run-to-run drift of a shared host cancels out.

On a CPU shared with other tenants the same Python work can take 50% longer
a minute later.  Every timed unit of work (a pass, a cold command, a set-up)
is therefore bracketed by short samples of one fixed calibration loop, and
its time is reported in *reference seconds*: wall seconds scaled by
``REFERENCE_S`` over the mean of the samples just before and just after it.  That is the time the work
would take on a host where one sample takes ``REFERENCE_S``.  The loop does
what forumlens spends most of its time on (JSON parsing, regex tokenization,
Counter updates) and calls no forumlens code, so no program change can move
it.  Raw wall times stay in each run's ``report.json``.
"""

from __future__ import annotations

import json
import re
import statistics
from collections import Counter
from time import perf_counter

# One sample's wall time on the reference host (a shared 2-vCPU Intel Xeon
# host, where the baseline was measured).
REFERENCE_S = 0.050

# About 800 KB of thread-shaped JSON: the sample's working set spills out of
# the private caches, as forumlens's parsing does, so it slows down under the
# same cache and memory contention that the commands see.
_DOC = json.dumps([
    {"thread_id": f"t{i}", "posts": [
        {"author_id": f"u{i * 7 % 997}", "text": f"week {i % 12} quiz due friday see the notes on lecture {j}"}
        for j in range(6)
    ]}
    for i in range(1500)
])
_TOKEN = re.compile(r"[^\W_]+")


def sample() -> float:
    """Seconds one pass of the calibration loop takes now."""
    start = perf_counter()
    counts: Counter = Counter()
    for thread in json.loads(_DOC):
        for post in thread["posts"]:
            counts.update(_TOKEN.findall(post["text"].lower()))
    return perf_counter() - start


def factor(before: float, after: float) -> float:
    """Reference seconds per wall second for work between two samples."""
    return REFERENCE_S / ((before + after) / 2)


def pass_factor(samples: list[float]) -> float:
    """Reference seconds per wall second over a whole pass."""
    return REFERENCE_S / statistics.median(samples)
