from __future__ import annotations

import pytest

from fovlink.shape import (
    FOUR_NUMBERS,
    NON_EMPTY_STR,
    NULL,
    NUMBER,
    Fields,
    ListOf,
    Nullable,
    describe,
    problems,
)

VEHICLES = ListOf(
    Fields(
        {"id": NON_EMPTY_STR, "role": frozenset({"ego", "remote"}), "box": Nullable(FOUR_NUMBERS)},
        {"rate": NUMBER},
    )
)


def test_a_fitting_value_has_no_problems():
    value = [
        {"id": "a", "role": "ego", "box": None},
        {"id": "b", "role": "remote", "box": [0, 0.5, 1, 1], "rate": 2.5},
    ]
    assert problems(value, VEHICLES) == []


def test_every_problem_is_named_by_path_in_table_order():
    value = [
        {"id": "", "role": "pilot", "box": [0, 1], "rate": True, "extra": 1},
        {"role": None, "box": None},
        "car",
    ]
    assert problems(value, VEHICLES) == [
        ("[0].id", "must be a non-empty string"),
        ("[0].role", "is an unknown role 'pilot'"),
        ("[0].box", "must be four numbers"),
        ("[0].rate", "has type bool"),
        ("[0].extra", "is not a known field"),
        ("[1].id", "is missing"),
        ("[1].role", "is an unknown role None"),
        ("[2]", "must be an object"),
    ]


@pytest.mark.parametrize(
    "value, shape, found",
    [
        (True, NUMBER, [("", "has type bool")]),
        (1, (float, NULL), [("", "has type int")]),
        ({"a": 1, "b": 2}, Fields({"a": (int,)}, others=True), []),
        ({"a": {"b": [1, "x"]}}, Fields({"a": Fields({"b": ListOf((int,))})}), [("a.b[1]", "has type str")]),
        ({"a": []}, Fields({"a": ListOf((int,))}), []),
        ({"a": {}}, Fields({"a": ListOf((int,))}), [("a", "must be a list")]),
        (5, Nullable((str,)), [("", "has type int")]),
        (None, Nullable((str,)), []),
    ],
)
def test_forms(value, shape, found):
    assert problems(value, shape) == found


def test_describe():
    assert describe("payload.box", "must be an object") == "field 'payload.box' must be an object"
    assert describe("", "must be an object") == "must be an object"
