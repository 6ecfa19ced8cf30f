"""Tests of the speed scaling: probe time is taken out of a measured time,
and the rest is scaled by the probes in and around it.

    python3 -m pytest -q bench/test_speed.py
"""

import pytest

import speed
from speed import REFERENCE_S, Sampler, trimmed_mean


def sampler(points):
    s = Sampler()
    for at, took in points:
        s.at.append(at)
        s.took.append(took)
    return s


def test_trimmed_mean_drops_the_ends():
    assert trimmed_mean([1.0] * 9 + [100.0]) == 1.0
    assert trimmed_mean([1.0, 2.0, 3.0]) == 2.0


def test_scaled_takes_out_probe_time_and_scales():
    # probes every 0.1 s taking twice the reference time: the host runs at
    # half speed, so 2 s of work less 0.2 s of probing reads as 0.9 s
    s = sampler([(i / 10, 2 * REFERENCE_S) for i in range(40)])
    assert s.scaled(1.0, 3.0) == pytest.approx((2.0 - 21 * 2 * REFERENCE_S) / 2)


def test_short_span_uses_the_window_around_it():
    # slow probes near t = 1, quick ones elsewhere; a 0.01 s span at t = 1
    # takes its speed from the second around it
    pts = [(i / 10, (2 if 5 <= i <= 15 else 1) * REFERENCE_S) for i in range(40)]
    assert Sampler.scale(sampler(pts), 1.0, 1.01) == pytest.approx(0.5)
    assert Sampler.scale(sampler(pts), 3.0, 3.01) == pytest.approx(1.0)


def test_sampler_probes_while_active():
    with Sampler() as s:
        total = 0
        while len(s.took) < 3:
            total += sum(range(1000))
    n = len(s.took)
    total += sum(range(10**5))
    assert len(s.took) == n
    assert all(0 < t < 1 for t in s.took)
    assert speed.probe() > 0
