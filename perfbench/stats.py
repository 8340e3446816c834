"""Statistics helpers of the repository benchmark.

Pure functions over lists of numbers; run.py turns the measurement
process's raw samples into metrics with them.  test_stats.py holds their
unit tests.
"""

import math
import statistics
from fractions import Fraction

# A percentile is reported only when at least this many samples lie
# beyond it: p90 needs 100 samples, p99 needs 1000.
TAIL_SAMPLES = 10


def rank(n, q):
    """1-based nearest rank of the q-th percentile (0 < q <= 100) among
    n samples, computed exactly (99.9 is 999/10, not a binary float)."""
    return min(n, max(1, math.ceil(Fraction(str(q)) * n / 100)))


def percentile(samples, q):
    """Nearest-rank q-th percentile of a non-empty list."""
    if not samples:
        raise ValueError("percentile of no samples")
    return sorted(samples)[rank(len(samples), q) - 1]


def beyond(n, q):
    """Number of the n samples ranked above the q-th percentile."""
    return n - rank(n, q)


def reportable(n, q):
    """Whether the q-th percentile of n samples has at least
    TAIL_SAMPLES samples beyond it."""
    return n > 0 and beyond(n, q) >= TAIL_SAMPLES


def highest_reportable(n, candidates=(50, 90, 99, 99.9)):
    """The highest candidate percentile that n samples support, or None."""
    ok = [q for q in candidates if reportable(n, q)]
    return max(ok) if ok else None


def geomean(values):
    """Geometric mean of positive, finite values: exp of the mean log,
    the way the paper's Figure 8 averages per-program ratios."""
    if not values:
        raise ValueError("geometric mean of no values")
    for v in values:
        if not (v > 0 and math.isfinite(v)):
            raise ValueError("geometric mean needs positive finite values, got %r" % v)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def failed_ratio(attempted, failed=0, refused=0, gave_up=0):
    """Failed operations over attempted ones.  An operation counts once,
    in the first category it fell into: it failed (raised, failed
    verification, or returned a wrong artifact), it was refused by
    admission control and not retried, or the client gave up on it."""
    if attempted <= 0:
        raise ValueError("failed_ratio needs at least one attempted operation")
    bad = failed + refused + gave_up
    if bad < 0 or bad > attempted:
        raise ValueError("failed + refused + gave_up must lie in [0, attempted]")
    return bad / attempted


def speed_factor(probes, reference):
    """How fast the host ran relative to the reference host: the
    reference probe time over the median probe time of the run.  Times
    of the run scale by it, rates by its inverse."""
    if not probes:
        raise ValueError("no probe")
    if reference <= 0 or min(probes) <= 0:
        raise ValueError("probe times must be positive")
    return reference / statistics.median(probes)
