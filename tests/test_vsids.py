import pytest
from hypothesis import given
from hypothesis import strategies as st

from satkit.solver.heuristics import VsidsScores, vsids_on_conflict, vsids_pick


def scores_for(n, activities=None, bump=1.0, decay=0.95):
    s = VsidsScores.for_num_vars(n)
    s.bump = bump
    s.decay = decay
    if activities:
        for var, a in activities.items():
            s.activity[var] = a
    return s


class TestPick:
    def test_unique_argmax(self):
        s = scores_for(2, {1: 0.0, 2: 5.0})
        assert vsids_pick(s, [0, 0]) == -2

    def test_all_zero_ties_to_lowest_index(self):
        s = scores_for(4)
        assert vsids_pick(s, [0, 0, 0, 0]) == -1

    def test_assigned_variables_skipped(self):
        s = scores_for(3, {1: 9.0, 2: 1.0})
        assert vsids_pick(s, [1, 0, 0]) == -2

    def test_polarity_from_saved_phase(self):
        s = scores_for(2, {2: 3.0})
        assert vsids_pick(s, [0, 0]) == -2  # initial phase
        assert vsids_pick(s, [0, 0], [False, False, True]) == 2

    def test_no_unassigned_raises(self):
        s = scores_for(1)
        with pytest.raises(ValueError):
            vsids_pick(s, [-1])


class TestOnConflict:
    def test_bump_then_decay_arithmetic(self):
        s = scores_for(3, bump=1.0, decay=0.95)
        vsids_on_conflict(s, [-3])
        assert s.activity[3] == 1.0
        assert s.bump == pytest.approx(1.0 / 0.95)

    def test_bumped_variable_becomes_argmax(self):
        s = scores_for(4)
        vsids_on_conflict(s, [2, -4])
        vsids_on_conflict(s, [4])
        assert vsids_pick(s, [0, 0, 0, 0]) == -4  # two bumps, the second one larger

    def test_no_conflicts_means_all_zero(self):
        s = scores_for(5)
        assert s.activity == [0.0] * 6

    def test_duplicate_variables_bumped_once(self):
        s = scores_for(2)
        vsids_on_conflict(s, [1, -1])
        assert s.activity[1] == 1.0

    def test_rescale_preserves_argmax_order(self):
        s = scores_for(3, {1: 2.0, 2: 5.0, 3: 1.0})
        s.rescale_threshold = 10.0
        s.bump = 8.0
        vsids_on_conflict(s, [3])  # activity[3] = 9 -> no rescale
        order_before = sorted(range(1, 4), key=lambda v: -s.activity[v])
        vsids_on_conflict(s, [3])  # exceeds 10 -> rescale
        order_after = sorted(range(1, 4), key=lambda v: -s.activity[v])
        assert order_before == order_after
        assert max(s.activity) <= 10.0

    @given(
        st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=6),
        st.integers(min_value=1, max_value=30),
    )
    def test_activities_stay_finite(self, learned_vars, rounds):
        import math

        s = scores_for(6)
        s.rescale_threshold = 1e6
        for _ in range(rounds):
            vsids_on_conflict(s, learned_vars)
        assert all(math.isfinite(a) for a in s.activity)
        assert math.isfinite(s.bump)
