"""Property-based invariants of the STA oracle (hypothesis).

Physical monotonicity laws any sign-off engine must satisfy:
longer wires are never faster, more load is never faster, tighter
clocks never increase slack, and Elmore delay decomposes additively
along paths.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pdk.clocks import ClockSpec
from repro.pdk.liberty import default_library
from repro.pdk.technology import default_technology
from repro.testing.oracles import compute_net_timing
from repro.steiner.tree import SteinerTree

TECH = default_technology()
LIB = default_library()

LENGTH = st.floats(min_value=0.5, max_value=60.0, allow_nan=False)
CAP = st.floats(min_value=0.001, max_value=0.05, allow_nan=False)


def two_pin_tree(length: float) -> SteinerTree:
    return SteinerTree(
        net_index=0,
        pin_ids=[0, 1],
        pin_xy=np.array([[0.0, 0.0], [length, 0.0]]),
        steiner_xy=np.zeros((0, 2)),
        edges=[(0, 1)],
    )


class TestElmoreMonotonicity:
    @settings(max_examples=30, deadline=None)
    @given(LENGTH, LENGTH, CAP)
    def test_longer_wire_never_faster(self, l1, l2, cap):
        lo, hi = sorted((l1, l2))
        d_lo = compute_net_timing(two_pin_tree(lo), {1: cap}, TECH).sink_delay[1]
        d_hi = compute_net_timing(two_pin_tree(hi), {1: cap}, TECH).sink_delay[1]
        assert d_hi >= d_lo - 1e-15

    @settings(max_examples=30, deadline=None)
    @given(LENGTH, CAP, CAP)
    def test_more_load_never_faster(self, length, c1, c2):
        lo, hi = sorted((c1, c2))
        d_lo = compute_net_timing(two_pin_tree(length), {1: lo}, TECH).sink_delay[1]
        d_hi = compute_net_timing(two_pin_tree(length), {1: hi}, TECH).sink_delay[1]
        assert d_hi >= d_lo - 1e-15

    @settings(max_examples=30, deadline=None)
    @given(LENGTH, CAP)
    def test_total_cap_is_wire_plus_pins(self, length, cap):
        nt = compute_net_timing(two_pin_tree(length), {1: cap}, TECH)
        _, c_wire = TECH.wire_rc(2, length)
        assert abs(nt.total_cap - (c_wire + cap)) < 1e-12

    @settings(max_examples=20, deadline=None)
    @given(LENGTH, LENGTH, CAP)
    def test_elmore_superadditive_in_segments(self, l1, l2, cap):
        """delay(l1+l2 as one wire) >= delay contributions measured
        separately — concatenation can't be faster than its pieces."""
        combined = compute_net_timing(two_pin_tree(l1 + l2), {1: cap}, TECH).sink_delay[1]
        piece = compute_net_timing(two_pin_tree(l1), {1: cap}, TECH).sink_delay[1]
        assert combined >= piece - 1e-15


class TestNldmMonotonicity:
    @settings(max_examples=30, deadline=None)
    @given(
        st.floats(min_value=0.01, max_value=2.5),
        st.floats(min_value=0.001, max_value=0.4),
        st.floats(min_value=0.001, max_value=0.4),
    )
    def test_cell_delay_monotone_in_load(self, slew, load_a, load_b):
        arc = LIB["NAND2_X1"].arcs[0]
        lo, hi = sorted((load_a, load_b))
        assert arc.delay.lookup(slew, hi) >= arc.delay.lookup(slew, lo) - 1e-15

    @settings(max_examples=30, deadline=None)
    @given(
        st.floats(min_value=0.01, max_value=2.5),
        st.floats(min_value=0.01, max_value=2.5),
        st.floats(min_value=0.001, max_value=0.4),
    )
    def test_cell_delay_monotone_in_slew(self, slew_a, slew_b, load):
        arc = LIB["INV_X1"].arcs[0]
        lo, hi = sorted((slew_a, slew_b))
        assert arc.delay.lookup(hi, load) >= arc.delay.lookup(lo, load) - 1e-15


class TestClockMonotonicity:
    @settings(max_examples=20, deadline=None)
    @given(
        st.floats(min_value=0.2, max_value=5.0),
        st.floats(min_value=0.2, max_value=5.0),
    )
    def test_tighter_clock_tighter_required(self, p1, p2):
        lo, hi = sorted((p1, p2))
        setup = LIB["DFF_X1"].setup_time
        r_lo = ClockSpec(period=lo).required_at_register(setup)
        r_hi = ClockSpec(period=hi).required_at_register(setup)
        assert r_hi >= r_lo
