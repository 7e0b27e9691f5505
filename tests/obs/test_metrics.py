"""Bounded-reservoir histogram behind the service's latency percentiles."""

from repro.obs import Histogram


def test_histogram_reservoir_is_bounded():
    hist = Histogram("repro_seconds", reservoir_size=64)
    for value in range(10_000):
        hist.observe(float(value))
    assert hist.count == 10_000                  # exact
    assert hist.sum == sum(range(10_000))        # exact
    assert len(hist._samples) == 64              # bounded memory
    assert hist._min == 0.0 and hist._max == 9999.0
    # the reservoir is a uniform sample: percentiles land in the right
    # region even though they are estimates
    assert 2_000 < hist.percentile(0.5) < 8_000


def test_histogram_percentiles_exact_below_reservoir():
    hist = Histogram("repro_small", reservoir_size=512)
    for value in (1.0, 2.0, 3.0, 4.0):
        hist.observe(value)
    assert hist.percentile(0.0) == 1.0
    assert hist.percentile(1.0) == 4.0
    assert hist.percentile(0.5) == 3.0           # nearest rank, round(1.5)=2
    assert Histogram("repro_empty").percentile(0.5) == 0.0

