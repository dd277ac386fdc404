"""Order statistics used by the campaign summary tables."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from subthz_chan import SummaryRow, nearest_rank, summarize

#: values whose ties, rounding or range an ordering or a mean could get wrong
PINNED = [-0.0, 5e-05, 0.00015, 1e300, 5e-324, 123.45675]


class TestNearestRank:
    def test_hand_cases(self):
        vals = [1.0, 2.0, 3.0, 4.0]
        assert nearest_rank(vals, 0.5) == 2.0
        assert nearest_rank(vals, 0.9) == 4.0
        assert nearest_rank(vals, 1.0) == 4.0
        assert nearest_rank(vals, 0.25) == 1.0
        # rank never drops below 1 even for tiny fractions
        assert nearest_rank(vals, 1e-9) == 1.0

    def test_single_value(self):
        assert nearest_rank([7.5], 0.5) == 7.5
        assert nearest_rank([7.5], 0.9) == 7.5

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            nearest_rank([], 0.5)
        with pytest.raises(ValueError):
            nearest_rank([1.0], 0.0)
        with pytest.raises(ValueError):
            nearest_rank([1.0], 1.5)

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50),
        st.floats(0.01, 1.0),
    )
    def test_picks_an_element(self, vals, fraction):
        ordered = sorted(vals)
        assert nearest_rank(ordered, fraction) in ordered


class TestSummarize:
    def test_three_values(self):
        row = summarize([66.0, 0.7, 10.4])
        assert row == SummaryRow(
            n=3, min=0.7, max=66.0, mean=(66.0 + 0.7 + 10.4) / 3, median=10.4, p90=66.0
        )

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            summarize([])

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60))
    def test_matches_sort_based_oracle_exactly(self, vals):
        row = summarize(vals)
        ordered = sorted(vals)
        n = len(vals)
        assert row.n == n
        assert row.min == ordered[0]
        assert row.max == ordered[-1]
        # mean accumulates in input order, exactly as the oracle does
        assert row.mean == sum(vals) / n
        assert row.median == ordered[max(1, math.ceil(0.5 * n)) - 1]
        assert row.p90 == ordered[max(1, math.ceil(0.9 * n)) - 1]

    @given(st.lists(st.one_of(st.sampled_from(PINNED + [0.0]), st.floats(allow_nan=False)), min_size=1, max_size=60))
    @example(PINNED)
    @example([0.0, -0.0, 0.0, -0.0, 5e-324])
    @example([-0.0, 0.0])
    @example([0.0, -0.0])
    @example([1e300] * 9 + [-0.0])
    def test_matches_sorted_oracle_bit_for_bit(self, vals):
        """``sorted`` keeps equal values in input order, -0.0 and 0.0 included, and so must ``summarize``."""
        ordered = sorted(vals)
        n = len(vals)
        expected = (
            float(n), ordered[0], ordered[-1], sum(vals) / n,
            ordered[max(1, math.ceil(0.5 * n)) - 1], ordered[max(1, math.ceil(0.9 * n)) - 1],
        )
        for row in (summarize(vals), summarize(np.array(vals))):
            assert [type(v) for v in row.__dict__.values()] == [int] + [float] * 5
            got = (float(row.n), row.min, row.max, row.mean, row.median, row.p90)
            assert list(map(float.hex, got)) == list(map(float.hex, expected))
