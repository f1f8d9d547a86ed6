"""docs/schemas.md against the shape tables its input formats are read by.

The key column of the manifest, scenario and result-record tables must
name the keys of ``dataset.MANIFEST_SHAPE``, ``v2v._SCENARIO_SHAPE`` and
``report._RECORD_SHAPE`` in their order, a nested key as ``parent.key``
or, inside a list, ``parent[i].key``. A row's type says "optional" exactly
when its keys are optional, and "or null" exactly when they may be null.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from fovlink.dataset import MANIFEST_SHAPE
from fovlink.report import _RECORD_SHAPE
from fovlink.shape import NULL, Fields, ListOf, Nullable
from fovlink.v2v import _SCENARIO_SHAPE

SCHEMAS = Path(__file__).resolve().parents[1] / "docs" / "schemas.md"


def _documented(heading: str) -> list[tuple[str, bool, bool]]:
    """(key, optional, nullable) of each key in the first table under the section ``heading``."""
    lines = SCHEMAS.read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(f"## {heading}"))
    header = next(i for i in range(start, len(lines)) if lines[i].startswith("|"))
    keys = []
    for line in lines[header + 2:]:
        if not line.startswith("|"):
            break
        # "\|" is a bar inside a cell
        name_cell, type_cell, _ = (cell.strip() for cell in re.split(r"(?<!\\)\|", line)[1:-1])
        keys += [(name, "optional" in type_cell, "or null" in type_cell) for name in re.findall(r"`([^`]+)`", name_cell)]
    return keys


def _declared(shape: Fields, prefix: str = "") -> list[tuple[str, bool, bool]]:
    """(key, optional, nullable) of each key of ``shape``, each nested object's keys after its own."""
    keys = []
    for name, sub in shape.fields.items():
        nullable = type(sub) is Nullable or type(sub) is tuple and NULL in sub
        keys.append((prefix + name, name in shape.optional, nullable))
        inner = sub.shape if type(sub) is Nullable else sub
        if type(inner) is ListOf and type(inner.item) is Fields:
            keys += _declared(inner.item, f"{prefix}{name}[i].")
        elif type(inner) is Fields:
            keys += _declared(inner, f"{prefix}{name}.")
    return keys


@pytest.mark.parametrize(
    "heading, shape",
    [("Scene manifest", MANIFEST_SHAPE), ("Scenario config", _SCENARIO_SHAPE), ("Result records", _RECORD_SHAPE)],
)
def test_a_schema_table_names_its_shapes_keys_in_order(heading, shape):
    assert _documented(heading) == _declared(shape)
