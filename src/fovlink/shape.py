"""Declarative shapes of decoded JSON and the one checker that walks them.

The manifest, the scenario file, result records, the V2V link metadata
and V2V messages each have one shape table beside the code that reads
them. A shape is a tuple of types (compared with ``type()``, so a bool is
never a number), a frozenset of allowed strings, ``Fields``, ``ListOf``,
``Nullable`` or a named ``Rule``. ``problems`` returns the ``(field path,
reason)`` pairs that each reader raises its own error from; a value that
fits costs no path strings.

``load_json`` is every reader's ``json.loads``: an integer of more digits
than Python converts, or nesting too deep to decode, fails as a syntax
error does. A number that a reader turns into a float must fit one
(``fits_float``): an integer of 309 digits overflows it. ``file_lines``
reads every line-delimited file: the manifest, records and V2V transcript.
"""

from __future__ import annotations

import json
import os
import re
import sys
from typing import Any, Callable, Iterator

NULL = type(None)
NUMBER = (int, float)

# the one writer of result records, V2V messages and the link metadata:
# compact separators, non-ASCII kept; built once rather than per json.dumps
COMPACT_JSON = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False)

_ABSENT = object()
# float() of an integer this large or larger overflows: it rounds to 2.0 ** 1024
_FLOAT_LIMIT = 2**1024 - 2**970


class Fields:
    """An object with these required and optional keys, and others only if ``others``."""

    def __init__(self, required: dict, optional: dict | None = None, others: bool = False) -> None:
        self.fields = {**required, **(optional or {})}
        # (name, shape, type of shape, nullable) with Nullable unwrapped, so
        # that the walk decides the commonest fits without a call
        self.entries = tuple(
            (name, sub.shape, type(sub.shape), True)
            if type(sub) is Nullable
            else (name, sub, type(sub), False)
            for name, sub in self.fields.items()
        )
        self.optional = frozenset(optional or ())
        self.others = others


# plain classes, not dataclasses: each dataclass adds about a millisecond
# to the import of fovlink.cli
class ListOf:
    def __init__(self, item: Any) -> None:
        self.item = item


class Nullable:
    def __init__(self, shape: Any) -> None:
        self.shape = shape


class Rule:
    def __init__(self, reason: str, test: Callable[[Any], bool]) -> None:
        self.reason = reason  # what a valid value must be
        self.test = test


def utf8_encodable(text: str) -> bool:
    """Whether UTF-8 can encode ``text``; a lone surrogate, which the JSON
    escape ``"\\ud800"`` decodes to, cannot be."""
    if text.isascii():
        return True
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def load_json(doc: str | bytes, **options) -> Any:
    """``json.loads``, except that an integer of more digits than Python converts
    (``sys.get_int_max_str_digits``) raises ``JSONDecodeError`` at the integer,
    and nesting deeper than the decoder recurses raises it at the start, as a
    syntax error does, not a plain ``ValueError`` or a ``RecursionError``."""
    try:
        return json.loads(doc, **options)
    except json.JSONDecodeError:
        raise
    except (ValueError, RecursionError) as e:
        text = doc.decode(json.detect_encoding(doc), "surrogatepass") if isinstance(doc, bytes) else doc
        if isinstance(e, RecursionError):
            raise json.JSONDecodeError("nesting too deep", text, 0) from None
        limit = sys.get_int_max_str_digits()
        # the text before the integer is valid JSON, so each string there is one whole match
        for token in re.finditer(rf'"(?:[^"\\]|\\.)*"|-?[0-9]{{{limit + 1},}}(?![0-9.eE])', text):
            if token[0][0] != '"':
                raise json.JSONDecodeError(f"integer of more than {limit} digits", text, token.start()) from e
        raise


def file_lines(path: str | os.PathLike[str]) -> Iterator[tuple[int, str]]:
    """``(line number, text without its newline)`` of each non-blank line of a UTF-8 file, read one at a time.

    Lines end at ``\\n``, ``\\r\\n`` or a lone ``\\r``. Bytes that are not UTF-8 raise ``UnicodeDecodeError``
    at their position in the whole file, once the lines of the blocks of a few KB before them are yielded.
    """
    try:
        with open(path, encoding="utf-8") as f:
            for line_no, line in enumerate(f, start=1):
                if line.strip():
                    yield line_no, line.removesuffix("\n")
    except UnicodeDecodeError:
        # the reader's error counts from the start of its block: decoding the whole file counts from its start
        with open(path, "rb") as f:
            f.read().decode("utf-8")
        raise


def fits_float(value: Any) -> bool:
    """Whether ``value`` is a number, not a bool, that ``float()`` converts without overflow."""
    return type(value) is float or type(value) is int and -_FLOAT_LIMIT < value < _FLOAT_LIMIT


NON_EMPTY_STR = Rule("must be a non-empty string", lambda v: type(v) is str and v != "")
# the strings of an input a run writes back out, or opens as a path; an
# ASCII string skips the call, since a manifest holds thousands of them
TEXT = Rule("must be a string UTF-8 can encode", lambda v: type(v) is str and (v.isascii() or utf8_encodable(v)))
NON_EMPTY_TEXT = Rule(
    "must be a non-empty string UTF-8 can encode",
    lambda v: type(v) is str and v != "" and (v.isascii() or utf8_encodable(v)),
)
NON_NEGATIVE_INT = Rule("must be a non-negative integer", lambda v: type(v) is int and v >= 0)
FLOAT = Rule("must be a number that fits a float", fits_float)
FOUR_NUMBERS = Rule(
    "must be four numbers",
    lambda v: type(v) is list and len(v) == 4 and all(type(x) in NUMBER for x in v),
)


def problems(value: Any, shape: Any) -> list[tuple[str, str]]:
    """Every ``(field path, reason)`` where ``value`` breaks ``shape``, in table order."""
    found: list[tuple[str, str]] = []
    _walk(value, shape, "", "", found)
    return found


def describe(path: str, reason: str) -> str:
    """One problem as text, e.g. ``field 'payload.box' must be an object``."""
    return f"field {path!r} {reason}" if path else reason


def _join(path: str, key: str | int) -> str:
    if type(key) is int:
        return f"{path}[{key}]"
    return f"{path}.{key}" if path else key


def _walk(value, shape, path: str, key, found: list) -> None:
    kind = type(shape)
    if kind is Fields:
        if type(value) is not dict:
            found.append((_join(path, key), "must be an object"))
            return
        here = _join(path, key)
        absent = 0
        for name, sub, sub_kind, nullable in shape.entries:
            item = value.get(name, _ABSENT)
            if sub_kind is tuple and type(item) in sub or nullable and item is None:
                continue
            if item is _ABSENT:
                absent += 1
                if name not in shape.optional:
                    found.append((_join(here, name), "is missing"))
            elif sub_kind is frozenset:
                if type(item) is not str or item not in sub:
                    _walk(item, sub, here, name, found)
            elif sub_kind is not Rule or not sub.test(item):
                _walk(item, sub, here, name, found)
        if not shape.others and len(value) != len(shape.fields) - absent:
            found += [(_join(here, k), "is not a known field") for k in value if k not in shape.fields]
    elif kind is tuple:
        if type(value) not in shape:
            found.append((_join(path, key), f"has type {type(value).__name__}"))
    elif kind is frozenset:
        if type(value) is not str or value not in shape:
            noun = key if key and type(key) is str else "value"
            found.append((_join(path, key), f"is an unknown {noun} {value!r}"))
    elif kind is Rule:
        if not shape.test(value):
            found.append((_join(path, key), shape.reason))
    elif kind is Nullable:
        if value is not None:
            _walk(value, shape.shape, path, key, found)
    elif type(value) is not list:  # ListOf
        found.append((_join(path, key), "must be a list"))
    else:
        here = _join(path, key)
        for index, item in enumerate(value):
            _walk(item, shape.item, here, index, found)
