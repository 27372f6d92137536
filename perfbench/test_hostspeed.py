"""Tests of the host-speed scale.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import pytest

import hostspeed
from hostspeed import NOMINAL_S, SIDE


def test_steady_host_scales_every_job_alike():
    ref = NOMINAL_S / 2
    assert hostspeed.scales([ref] * 11) == pytest.approx([2.0] * 10)


def test_scale_uses_the_references_around_each_job():
    # Jobs 0..5 ran at the nominal speed, jobs 6.. at half of it.
    refs = [NOMINAL_S] * 6 + [2 * NOMINAL_S] * 7
    got = hostspeed.scales(refs)
    assert len(got) == len(refs) - 1
    assert got[0] == pytest.approx(1.0)
    assert got[-1] == pytest.approx(0.5)
    # The job just before the change sees SIDE references on each side,
    # SIDE - 1 of them after it at the slow speed.
    k = 5
    window = refs[k - SIDE + 1:k + SIDE + 1]
    assert got[k] == pytest.approx(NOMINAL_S * len(window) / sum(window))


def test_reference_is_fixed_work():
    assert hostspeed.reference() == hostspeed.EXPECTED
    assert hostspeed.time_reference(3) > 0
