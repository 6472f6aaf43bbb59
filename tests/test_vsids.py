from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from satkit.solver import heuristics
from satkit.solver.heuristics import VsidsHeuristic


def vsids_for(n, activities=None, bump=1.0):
    h = VsidsHeuristic(n)
    h.bump = bump
    if activities:
        for var, a in activities.items():
            h.activity[var] = a
    return h


def state(values, saved_phase=None):
    """The two solver fields VSIDS reads; ``saved_phase`` is indexed by
    variable (slot 0 unused) and defaults to all False."""
    if saved_phase is None:
        saved_phase = [False] * (len(values) + 1)
    return SimpleNamespace(values=values, saved_phase=saved_phase)


class TestPick:
    def test_unique_argmax(self):
        h = vsids_for(2, {1: 0.0, 2: 5.0})
        assert h.decide(state([0, 0])) == -2

    def test_all_zero_ties_to_lowest_index(self):
        h = vsids_for(4)
        assert h.decide(state([0, 0, 0, 0])) == -1

    def test_assigned_variables_skipped(self):
        h = vsids_for(3, {1: 9.0, 2: 1.0})
        assert h.decide(state([1, 0, 0])) == -2

    def test_polarity_from_saved_phase(self):
        h = vsids_for(2, {2: 3.0})
        assert h.decide(state([0, 0])) == -2  # initial phase
        assert h.decide(state([0, 0], [False, False, True])) == 2

    def test_no_unassigned_raises(self):
        h = vsids_for(1)
        with pytest.raises(ValueError):
            h.decide(state([-1]))


class TestOnConflict:
    def test_bump_then_decay_arithmetic(self):
        h = vsids_for(3, bump=1.0)
        h.on_conflict(None, [-3])
        assert h.activity[3] == 1.0
        assert h.bump == pytest.approx(1.0 / 0.95)

    def test_bumped_variable_becomes_argmax(self):
        h = vsids_for(4)
        h.on_conflict(None, [2, -4])
        h.on_conflict(None, [4])
        assert h.decide(state([0, 0, 0, 0])) == -4  # two bumps, the second one larger

    def test_no_conflicts_means_all_zero(self):
        h = vsids_for(5)
        assert h.activity == [0.0] * 6

    def test_rescale_preserves_argmax_order(self, monkeypatch):
        monkeypatch.setattr(heuristics, "VSIDS_RESCALE_LIMIT", 10.0)
        h = vsids_for(3, {1: 2.0, 2: 5.0, 3: 1.0}, bump=8.0)
        h.on_conflict(None, [3])  # activity[3] = 9 -> no rescale
        order_before = sorted(range(1, 4), key=lambda v: -h.activity[v])
        h.on_conflict(None, [3])  # exceeds 10 -> rescale
        order_after = sorted(range(1, 4), key=lambda v: -h.activity[v])
        assert order_before == order_after
        assert max(h.activity) <= 10.0

    @given(
        st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=6),
        st.integers(min_value=1, max_value=30),
    )
    def test_activities_stay_finite(self, learned_vars, rounds):
        import math

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(heuristics, "VSIDS_RESCALE_LIMIT", 1e6)
            h = vsids_for(6)
            for _ in range(rounds):
                h.on_conflict(None, learned_vars)
        assert all(math.isfinite(a) for a in h.activity)
        assert math.isfinite(h.bump)
