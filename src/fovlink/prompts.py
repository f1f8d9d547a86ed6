"""Registry of the fixed perception prompts.

The five registered texts are the exact wordings evaluated by the
harness; they must never drift, so tests pin their SHA-256 digests. BIN
asks the yes/no presence question, BIN_REFINED adds the
false-positive-avoidance emphasis, and P1-P3 are the three coordinate
prompt variants compared in the prompt study.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import FovlinkError


class UnknownPromptId(FovlinkError):
    """Requested prompt_id is not registered."""


class ExpectedFormat(str, Enum):
    YES_NO = "yes_no"
    COORDINATE_TEMPLATE = "coordinate_template"


@dataclass(frozen=True, slots=True)
class PromptSpec:
    prompt_id: str
    text: str
    expected_format: ExpectedFormat

    def digest(self) -> str:
        import hashlib

        return hashlib.sha256(self.text.encode("utf-8")).hexdigest()


_BIN_TEXT = 'Is there a human pedestrian in this image? Answer only either "yes" or "no".'

_BIN_REFINED_TEXT = (
    'Is there a human pedestrian in this image? Answer only either "yes" or "no". '
    "It is very important for you to say 'no' if there is no pedestrian close by."
)

_P1_TEXT = (
    "Given the reference system where (0,0) is the top-left corner and (1,1) is the "
    "bottom-right corner of the image, provide the coordinates (X,Y), (X',Y') "
    "representing the precise location of a person in the image. Ensure the "
    "coordinates accurately delineate the complete area occupied by the person. "
    "Return coordinates ONLY using this template: (X,Y), (X',Y')"
)

_P2_TEXT = (
    "In the image, identify the person's location using a coordinate system where "
    "(0,0) is the top-left corner and (1,1) is the bottom-right corner. Provide the "
    "coordinates (X,Y), (X',Y') that encapsulate the entire area occupied by the "
    "person. Use this format only: (X,Y), (X',Y')"
)

_P3_TEXT = (
    "Using (0,0) is the top-left corner and (1,1) is the bottom-right corner, "
    "provide the coordinates (X,Y), (X',Y') of the location of a person in the "
    "image. The coordinates should contain the complete area occupied by the "
    "person. Return coordinates ONLY using the template: (X,Y), (X',Y')"
)

PROMPTS: dict[str, PromptSpec] = {
    spec.prompt_id: spec
    for spec in (
        PromptSpec("BIN", _BIN_TEXT, ExpectedFormat.YES_NO),
        PromptSpec("BIN_REFINED", _BIN_REFINED_TEXT, ExpectedFormat.YES_NO),
        PromptSpec("P1", _P1_TEXT, ExpectedFormat.COORDINATE_TEMPLATE),
        PromptSpec("P2", _P2_TEXT, ExpectedFormat.COORDINATE_TEMPLATE),
        PromptSpec("P3", _P3_TEXT, ExpectedFormat.COORDINATE_TEMPLATE),
    )
}


def get_prompt(prompt_id: str) -> PromptSpec:
    try:
        return PROMPTS[prompt_id]
    except KeyError:
        raise UnknownPromptId(f"unknown prompt_id {prompt_id!r}") from None
