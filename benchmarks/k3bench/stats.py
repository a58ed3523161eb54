"""The tail statistic shared by every workload."""

import statistics


def tail(values):
    """(value, percentile, n): the highest percentile with ten samples beyond it.

    That is the 11th-largest sample.  With fewer than 21 samples it would
    fall below the median, so the median is reported instead.
    """
    xs = sorted(values)
    n = len(xs)
    if n < 21:
        return statistics.median(xs), 50.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n

