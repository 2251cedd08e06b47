"""Summary statistics and the simulated-statistics digest."""

import hashlib
import math

# A tail percentile is reported only when this many samples lie beyond it.
MIN_BEYOND = 10


def median(values):
    values = sorted(values)
    n = len(values)
    if n == 0:
        raise ValueError("median of no samples")
    mid = n // 2
    return values[mid] if n % 2 else (values[mid - 1] + values[mid]) / 2.0


def percentile(samples, q):
    """The q-th percentile (nearest rank) of samples, as
    ``(value, beyond, n)`` where ``beyond`` counts the samples strictly
    above the rank. Returns ``None`` unless at least MIN_BEYOND samples
    lie beyond it, so a tail figure always rests on a stated count."""
    values = sorted(samples)
    n = len(values)
    if n == 0:
        return None
    rank = max(1, math.ceil(q / 100.0 * n))
    beyond = n - rank
    if beyond < MIN_BEYOND:
        return None
    return values[rank - 1], beyond, n


def digest(results):
    """SHA-256 over every cell's simulated statistics, in cell order, so
    two commits can be compared exactly. ``results`` maps cell index to
    the record the farm (or the in-process runner) produced."""
    h = hashlib.sha256()
    for i in sorted(results):
        h.update(sim_key(results[i]).encode())
        h.update(b"\n")
    return h.hexdigest()


def sim_key(r):
    """The part of a cell's result that a speed-only change must leave
    bit-identical: its simulated statistics, or its failure class."""
    if r["state"] == "done":
        return "done comm=%d time=%r messages=%d retx=%d" % (
            r["comm"], float(r["time"]), r["messages"], r["retransmissions"])
    return "failed code=%d" % r["code"]
