"""Interleaved speedup measurement shared by the smoke gates.

A speedup read from one measurement of each engine tier moves with
whatever else the machine does between the two.  Measuring the tiers
alternately several times and keeping the median pair means one slow
moment costs one pair, not the gate's verdict.
"""

#: Alternating (faster tier, slower tier) measurements per gated row.
PAIRS = 3


def median_pair(measure_fast, measure_slow, pairs=PAIRS):
    """Run *measure_fast* then *measure_slow*, *pairs* times in turn.

    Each callable returns a rate (rounds/sec).  Returns the ``(fast,
    slow)`` rates of the pair whose ``fast / slow`` ratio is the median,
    so a row's rates and its speedup come from the same pair.
    """
    runs = []
    for _ in range(pairs):
        fast = measure_fast()
        runs.append((fast, measure_slow()))
    runs.sort(key=lambda pair: pair[0] / pair[1])
    return runs[len(runs) // 2]
