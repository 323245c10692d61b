"""Analytical race-model tests (Equations 1 and 2)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import PAPER_KERNEL_SIZE, PAPER_S_BOUND
from repro.core.race import (
    RaceParameters,
    evasion_succeeds,
    max_safe_area_size,
    s_bound,
    scan_budget,
    unprotected_fraction,
)
from repro.errors import ConfigurationError


def test_paper_s_bound():
    assert s_bound(RaceParameters()) == PAPER_S_BOUND == 1_218_351


def test_paper_unprotected_fraction():
    fraction = unprotected_fraction(RaceParameters())
    assert abs(fraction - 0.8978) < 0.001  # the paper rounds to ~90%


def test_scan_budget_is_the_eq2_numerator():
    p = RaceParameters()
    budget = scan_budget(p.tns_sched, p.tns_threshold, p.tns_recover, p.ts_switch)
    assert budget == p.tns_delay + p.tns_recover - p.ts_switch
    assert s_bound(p) == int(budget / p.ts_1byte + 0.5)


def test_evasion_boundary_consistent_with_bound():
    p = RaceParameters()
    bound = s_bound(p)
    assert not evasion_succeeds(p, bound - 1)
    assert evasion_succeeds(p, bound + 1)


def test_max_safe_area_size_matches_bound_formula():
    p = RaceParameters()
    assert max_safe_area_size(p) == s_bound(p)


def test_paper_areas_fit_the_bound():
    from repro.config import PAPER_LARGEST_AREA

    assert PAPER_LARGEST_AREA < max_safe_area_size(RaceParameters())


def test_tns_delay_composition():
    p = RaceParameters(tns_sched=1e-4, tns_threshold=2e-3)
    assert p.tns_delay == pytest.approx(2.1e-3)


def test_with_override():
    p = RaceParameters().with_(tns_recover=1e-2)
    assert p.tns_recover == 1e-2
    assert RaceParameters().tns_recover != 1e-2  # frozen original


def test_invalid_parameters_rejected():
    with pytest.raises(ConfigurationError):
        RaceParameters(ts_1byte=0.0)
    with pytest.raises(ConfigurationError):
        RaceParameters(tns_recover=-1.0)
    with pytest.raises(ConfigurationError):
        RaceParameters(kernel_size=0)


def test_impossible_defence_raises():
    # A switch slower than the whole attacker pipeline leaves no safe size.
    p = RaceParameters(ts_switch=1.0, tns_sched=0.0, tns_threshold=0.0,
                       tns_recover=0.0)
    with pytest.raises(ConfigurationError):
        max_safe_area_size(p)


@settings(max_examples=60, deadline=None)
@given(
    recover=st.floats(min_value=1e-4, max_value=1e-1),
    extra=st.floats(min_value=1e-6, max_value=1e-2),
)
def test_s_bound_monotone_in_recovery_time(recover, extra):
    """A slower attacker leaves more of the kernel protected."""
    base = RaceParameters(tns_recover=recover)
    slower = RaceParameters(tns_recover=recover + extra)
    assert s_bound(slower) >= s_bound(base)


@settings(max_examples=60, deadline=None)
@given(per_byte=st.floats(min_value=1e-10, max_value=1e-7))
def test_unprotected_fraction_bounds(per_byte):
    p = RaceParameters(ts_1byte=per_byte)
    fraction = unprotected_fraction(p)
    assert 0.0 <= fraction <= 1.0


def test_faster_scanner_protects_more():
    fast = RaceParameters(ts_1byte=6.67e-9)
    slow = RaceParameters(ts_1byte=1.07e-8)
    assert unprotected_fraction(fast) < unprotected_fraction(slow)
