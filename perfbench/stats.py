"""Summary statistics and the comparison rule of the repository benchmark.

Pure functions over lists of numbers, shared by run.py (one run's summary)
and compare.py (spread of a set of runs, verdict between two sets).
"""

import math
import statistics

# A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10

# Host-speed correction (README.md, "Host-speed correction"): a repetition's
# host time t, with the host probe taking p seconds around it, reads as
# t * PROBE_REF_S / p, its time on a host where the probe takes PROBE_REF_S
# (the probe's median on the machine the README's figures come from).
PROBE_REF_S = 0.0125


def median(values):
    return statistics.median(values)


def quartiles(values):
    """First quartile, median and third quartile, as
    statistics.quantiles(values, n=4) gives them (one value: itself)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf


def host_corrected(times, probes):
    """Host times corrected to the probe's reference speed, pairwise."""
    return [t * PROBE_REF_S / p for t, p in zip(times, probes, strict=True)]


def tail(values):
    """The highest percentile that has at least TAIL_BEYOND samples beyond
    it, by nearest rank: (percentile, value), or None with too few samples.

    With n samples the value at rank k (1-based, ascending) is the
    100*k/n-th percentile and has n-k samples beyond it, so the highest
    such percentile is at rank n - TAIL_BEYOND.
    """
    n = len(values)
    k = n - TAIL_BEYOND
    if k < 1:
        return None
    return 100.0 * k / n, sorted(values)[k - 1]


def verdict(parent, change, better, bound):
    """Verdict on one end-to-end metric between two sets of runs.

    parent and change are per-run values, paired by position (same seed);
    better is "lower" or "higher"; bound is the share of the parent's
    median by which the change may be worse. Returns (verdict, wins,
    pairs) where verdict is one of better, worse, unchanged, unresolved:
      - better: the change wins at least nine tenths of the pairs (ties
        count for neither) and the medians differ by more than the
        parent's interquartile distance;
      - unresolved: either side's spread is wider than the bound; but
        unchanged (not worse, and no gain either) when every change run
        reads better than every parent run;
      - worse: the change's median is worse by more than the bound;
      - unchanged: otherwise.
    """
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p1, pm, p3 = quartiles(parent)
    cm = median(change)
    gain = sign * (cm - pm)
    if pairs and wins >= 0.9 * len(pairs) and gain > p3 - p1:
        return "better", wins, len(pairs)
    if max(spread(parent), spread(change)) > bound:
        all_better = all(sign * (c - p) > 0 for c in change for p in parent)
        return ("unchanged" if all_better else "unresolved"), wins, len(pairs)
    worse_by = -gain / abs(pm) if pm else (math.inf if gain < 0 else 0.0)
    return ("worse" if worse_by > bound else "unchanged"), wins, len(pairs)
