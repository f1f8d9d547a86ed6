"""Looking-around-the-corner dialogue between vehicles.

Instead of streaming camera frames, the ego vehicle sends a perception
query to each nearby remote vehicle; the remote runs the query against
its own camera frame through its onboard vision model and answers with a
small structured message (presence, optional box, optional description).
The transcript accounts bytes per message and compares the dialogue cost
against streaming the raw frames over the same link.

Message schema v1: canonical single-line JSON, UTF-8, keys in the order
of one declaration (``_ENVELOPE`` and ``_PAYLOADS``). Canonical encoding
keeps byte sizes reproducible, so the bandwidth comparison is auditable
byte-for-byte. Timestamps are integer milliseconds; run_dialogue assigns
them from a simulated clock driven by analytic transmission delays, never
wall-clock.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

from .dataset import SceneSet
from .errors import FovlinkError
from .experiments import query_detection
from .gateway import Gateway, QueryParams
from .geometry import NonFiniteInput, NormalizedBBox
from .parsing import DetectionKind, FailureKind, ParsedDetection
# bench/spans.py traces the parsers under these names
from .parsing import detect_bbox, detect_binary  # noqa: F401
from .prompts import get_prompt
from .shape import NON_EMPTY_STR, NON_NEGATIVE_INT, NULL, NUMBER, Fields, ListOf, Nullable, describe, problems

PROTOCOL_VERSION = "1"


class ProtocolError(FovlinkError):
    """Base class for interchange-format errors."""


class UnsupportedVersion(ProtocolError):
    pass


class MalformedMessage(ProtocolError):
    def __init__(self, fld: str, reason: str) -> None:
        super().__init__(describe(fld, reason))
        self.field = fld


class ScenarioError(FovlinkError):
    """Scenario config file is invalid or inconsistent."""


class Role(str, Enum):
    EGO = "ego"
    REMOTE = "remote"


class MsgType(str, Enum):
    QUERY = "query"
    RESPONSE = "response"
    ERROR = "error"


@dataclass(frozen=True, slots=True)
class VehicleAgent:
    vehicle_id: str
    role: Role
    current_frame: str | None = None

    def __post_init__(self) -> None:
        if self.role is Role.REMOTE and self.current_frame is None:
            raise ValueError(f"remote vehicle {self.vehicle_id!r} must have a current_frame")


@dataclass(frozen=True, slots=True)
class LinkModel:
    rate: float  # bits per second
    overhead: float = 0.0  # fraction of the link consumed by protocol overhead

    def __post_init__(self) -> None:
        if not 0 < self.rate < math.inf:
            raise ValueError(f"link rate must be finite and positive, got {self.rate!r}")
        if not 0.0 <= self.overhead < 1.0:
            raise ValueError("overhead must be in [0,1)")


@dataclass(frozen=True, slots=True)
class QueryPayload:
    prompt_id: str
    prompt_text: str


@dataclass(frozen=True, slots=True)
class ResponsePayload:
    presence: bool
    box: NormalizedBBox | None = None
    description: str | None = None
    failure_kind: FailureKind | None = None


@dataclass(frozen=True, slots=True)
class ErrorPayload:
    fault: str


@dataclass(frozen=True, slots=True)
class V2VMessage:
    msg_type: MsgType
    sender_id: str
    recipient_id: str
    correlation_id: str
    timestamp: int  # milliseconds
    payload: QueryPayload | ResponsePayload | ErrorPayload
    version: str = PROTOCOL_VERSION


def transmission_time(payload_bytes: float, link: LinkModel) -> float:
    """Seconds to push ``payload_bytes`` through the link.

    Overhead reduces effective throughput: bits / (rate * (1-overhead)).
    Exactly linear in the payload, so transcript totals decompose.
    """
    if payload_bytes < 0:
        raise ValueError("payload size must be >= 0")
    return payload_bytes * 8 / (link.rate * (1.0 - link.overhead))


_ENVELOPE = {
    "version": (str,),
    "msg_type": frozenset(t.value for t in MsgType),
    "sender_id": (str,),
    "recipient_id": (str,),
    "correlation_id": (str,),
    "timestamp": NON_NEGATIVE_INT,
}
_BOX_SHAPE = Fields({"x": NUMBER, "y": NUMBER, "x2": NUMBER, "y2": NUMBER, "clamped": (bool,)})
# msg_type -> (payload class, payload shape): with _ENVELOPE, the one
# declaration of the message format. The encoder writes the envelope keys,
# then "payload" with the shape's keys, in this order; each shape names
# exactly its class's fields, in the class's order.
_PAYLOADS = {
    MsgType.QUERY: (QueryPayload, Fields({"prompt_id": (str,), "prompt_text": (str,)})),
    MsgType.RESPONSE: (
        ResponsePayload,
        Fields(
            {
                "presence": (bool,),
                "box": Nullable(_BOX_SHAPE),
                "description": (str, NULL),
                "failure_kind": Nullable(frozenset(kind.value for kind in FailureKind)),
            }
        ),
    ),
    MsgType.ERROR: (ErrorPayload, Fields({"fault": (str,)})),
}
_MESSAGE_SHAPES = {
    msg_type.value: Fields({**_ENVELOPE, "payload": shape}) for msg_type, (_, shape) in _PAYLOADS.items()
}


def encode_message(msg: V2VMessage) -> bytes:
    """Canonical UTF-8 encoding: compact JSON with fixed key order.

    Raises ``MalformedMessage`` when the payload is not the class its
    ``msg_type`` declares, since no reader could decode those bytes.
    """
    cls, shape = _PAYLOADS[msg.msg_type]
    if type(msg.payload) is not cls:
        raise MalformedMessage(
            "payload", f"must be a {cls.__name__} in a {msg.msg_type.value}, not a {type(msg.payload).__name__}"
        )
    record = {name: getattr(msg, name) for name in _ENVELOPE}
    record["payload"] = payload = {name: getattr(msg.payload, name) for name in shape.fields}
    box = payload.get("box")
    if box is not None:
        payload["box"] = {name: getattr(box, name) for name in _BOX_SHAPE.fields}
    return json.dumps(record, separators=(",", ":"), ensure_ascii=False).encode("utf-8")


def decode_message(data: bytes) -> V2VMessage:
    try:
        record = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise MalformedMessage("", f"not valid JSON: {e}") from e
    if type(record) is not dict:
        raise MalformedMessage("", "message must be an object")
    version, msg_type = record.get("version"), record.get("msg_type")
    if type(version) is str and version != PROTOCOL_VERSION:
        raise UnsupportedVersion(f"unsupported protocol version {version!r}")
    # an unknown msg_type fails the check of any of the shapes
    shape = _MESSAGE_SHAPES.get(msg_type if type(msg_type) is str else "", _MESSAGE_SHAPES["error"])
    found = problems(record, shape)
    if found:
        raise MalformedMessage(*found[0])
    record["msg_type"] = msg_type = MsgType(msg_type)
    payload = record["payload"]
    if payload.get("box") is not None:
        try:
            payload["box"] = NormalizedBBox(**payload["box"])
        except (ValueError, NonFiniteInput) as e:
            raise MalformedMessage("payload.box", str(e)) from e
    if payload.get("failure_kind") is not None:
        payload["failure_kind"] = FailureKind(payload["failure_kind"])
    record["payload"] = _PAYLOADS[msg_type][0](**payload)
    return V2VMessage(**record)


@dataclass(frozen=True)
class DialogueTranscript:
    messages: tuple[V2VMessage, ...]
    sizes: tuple[int, ...]
    link: LinkModel
    stream_bytes: int

    def __post_init__(self) -> None:
        if len(self.messages) != len(self.sizes):
            raise ValueError("one size per message required")
        pending: set[str] = set()
        for msg in self.messages:
            if msg.msg_type is MsgType.QUERY:
                pending.add(msg.correlation_id)
            elif msg.correlation_id not in pending:
                raise ValueError(
                    f"response correlation_id {msg.correlation_id!r} has no prior query"
                )

    @property
    def dialogue_bytes(self) -> int:
        return sum(self.sizes)

    @property
    def dialogue_time(self) -> float:
        return transmission_time(self.dialogue_bytes, self.link)

    @property
    def stream_time(self) -> float:
        return transmission_time(self.stream_bytes, self.link)

    @property
    def ratio(self) -> float | None:
        """dialogue_bytes / stream_bytes, None when nothing would be streamed."""
        return self.dialogue_bytes / self.stream_bytes if self.stream_bytes > 0 else None

    def comparison(self) -> DialogueTranscript:
        """The transcript itself, which carries every figure of the comparison."""
        return self


def compare_transport(
    image_sizes: list[int], transcript: DialogueTranscript, link: LinkModel
) -> DialogueTranscript:
    """Dialogue cost versus streaming the given raw images over ``link``."""
    return replace(transcript, link=link, stream_bytes=sum(image_sizes))


def _response_payload(detection: ParsedDetection) -> ResponsePayload:
    # Presence policy mirrors the safety-first binary rule: only an explicit
    # no-pedestrian reply reports absence; partial or ambiguous replies keep
    # presence true with the excerpt attached for the ego to judge.
    if detection.kind is DetectionKind.VERDICT:
        return ResponsePayload(presence=bool(detection.verdict))
    if detection.kind is DetectionKind.LOCATED:
        return ResponsePayload(presence=True, box=detection.box)
    failure = detection.failure_kind
    assert failure is not None
    return ResponsePayload(
        presence=failure is not FailureKind.NO_PEDESTRIAN_DETECTED,
        description=detection.raw_excerpt,
        failure_kind=failure,
    )


def run_dialogue(
    ego: VehicleAgent,
    remotes: list[VehicleAgent] | tuple[VehicleAgent, ...],
    scenes: SceneSet,
    prompt_id: str,
    gateway: Gateway,
    link: LinkModel,
    params: QueryParams,
) -> DialogueTranscript:
    """One query/response round between the ego and each remote vehicle.

    Remotes are served in vehicle_id order; each response (or error, for
    a faulted remote) immediately follows its query in the transcript.
    Message timestamps come from a simulated clock that advances by the
    analytic transmission delay of each message plus the model latency,
    so transcripts are deterministic. The stream comparison counts the
    raw bytes of every remote's current frame.
    """
    if ego.role is not Role.EGO:
        raise ValueError(f"vehicle {ego.vehicle_id!r} is not the ego")
    prompt = get_prompt(prompt_id)

    messages: list[V2VMessage] = []
    sizes: list[int] = []
    stream_bytes = 0
    clock = 0.0  # simulated seconds since dialogue start

    def push(msg_type: MsgType, sender: str, recipient: str, correlation_id: str, payload) -> None:
        nonlocal clock
        msg = V2VMessage(msg_type, sender, recipient, correlation_id, int(clock * 1000), payload)
        size = len(encode_message(msg))
        messages.append(msg)
        sizes.append(size)
        clock += transmission_time(size, link)

    for index, remote in enumerate(sorted(remotes, key=lambda r: r.vehicle_id)):
        if remote.role is not Role.REMOTE:
            raise ValueError(f"vehicle {remote.vehicle_id!r} is not a remote")
        scene = scenes.by_id.get(remote.current_frame or "")
        if scene is None:
            raise ScenarioError(
                f"remote {remote.vehicle_id!r} frame {remote.current_frame!r} not in scene set"
            )
        correlation_id = f"q{index:04d}"
        query = QueryPayload(prompt_id=prompt.prompt_id, prompt_text=prompt.text)
        push(MsgType.QUERY, ego.vehicle_id, remote.vehicle_id, correlation_id, query)

        image = scene.image_path.read_bytes()
        stream_bytes += len(image)
        result = query_detection(image, scene.scene_id, prompt, 0, gateway, params)
        clock += result.latency
        if result.fault is None:
            msg_type, payload = MsgType.RESPONSE, _response_payload(result.detection)
        else:
            msg_type, payload = MsgType.ERROR, ErrorPayload(fault=result.fault)
        push(msg_type, remote.vehicle_id, ego.vehicle_id, correlation_id, payload)

    return DialogueTranscript(
        messages=tuple(messages), sizes=tuple(sizes), link=link, stream_bytes=stream_bytes
    )


# the scenario file of the v2v command; keys beyond these are ignored
_SCENARIO_SHAPE = Fields(
    {
        "vehicles": ListOf(
            Fields(
                {"vehicle_id": NON_EMPTY_STR, "role": frozenset(role.value for role in Role)},
                {"scene_id": (str, NULL)},
                others=True,
            )
        ),
        "link": Fields({"rate_bps": NUMBER}, {"overhead": NUMBER}, others=True),
        "prompt_id": (str,),
    },
    others=True,
)


def load_scenario(path: str | Path) -> tuple[VehicleAgent, tuple[VehicleAgent, ...], LinkModel, str]:
    """Read a scenario config of ``_SCENARIO_SHAPE`` with exactly one ego vehicle."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError as e:
        raise ScenarioError(f"scenario file not found: {path}") from e
    except json.JSONDecodeError as e:
        raise ScenarioError(f"scenario is not valid JSON: {e}") from e
    found = problems(raw, _SCENARIO_SHAPE)
    if found:
        raise ScenarioError(f"scenario: {describe(*found[0])}")

    try:
        vehicles = [
            VehicleAgent(
                vehicle_id=entry["vehicle_id"], role=Role(entry["role"]), current_frame=entry.get("scene_id")
            )
            for entry in raw["vehicles"]
        ]
        link = LinkModel(
            rate=float(raw["link"]["rate_bps"]), overhead=float(raw["link"].get("overhead", 0.0))
        )
    except ValueError as e:
        raise ScenarioError(str(e)) from e
    egos = [v for v in vehicles if v.role is Role.EGO]
    if len(egos) != 1:
        raise ScenarioError(f"scenario needs exactly one ego vehicle, found {len(egos)}")
    remotes = tuple(v for v in vehicles if v.role is Role.REMOTE)
    return egos[0], remotes, link, raw["prompt_id"]
