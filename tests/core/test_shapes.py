"""Field bounds in repro.core.shapes: finite, exclusive and unique."""

import pytest

from repro.core.shapes import NUMBER, Shape, problems

INF = float("inf")
NAN = float("nan")


class TestBounds:
    @pytest.mark.parametrize("bounds", [
        {"minimum": 0}, {"maximum": 1}, {"above": 0}, {"below": 1},
    ])
    @pytest.mark.parametrize("value", [NAN, INF, -INF])
    def test_non_finite_numbers_fail_every_bound(self, bounds, value):
        assert problems(value, Shape(NUMBER, **bounds), "x") == [
            f"x: is not finite ({value!r})"
        ]

    def test_unbounded_number_takes_any_float(self):
        assert problems(NAN, Shape(NUMBER)) == []

    @pytest.mark.parametrize("value, found", [
        (0.0, "x: is not positive (0.0)"),
        (0.5, None),
        (1.0, "x: is not below 1 (1.0)"),
    ])
    def test_exclusive_bounds_refuse_their_limit(self, value, found):
        shape = Shape(NUMBER, above=0, below=1)
        assert problems(value, shape, "x") == ([found] if found else [])

    def test_integers_beyond_float_range_are_finite(self):
        assert problems(10**400, Shape(int, minimum=1)) == []


class TestUniqueItems:
    def test_each_repeated_item_is_named_once(self):
        shape = Shape(list, unique=True)
        assert problems([3, 4, 3, 3, 4], shape, "seeds") == [
            "seeds: has duplicate items [3, 4]"
        ]

    def test_unhashable_items_compare_by_value(self):
        shape = Shape(list, unique=True)
        assert problems([["1", "64"], ["1", "64"]], shape, "pairs") == [
            "pairs: has duplicate items [['1', '64']]"
        ]
        assert problems([["1", "64"], ["64", "1"]], shape) == []
