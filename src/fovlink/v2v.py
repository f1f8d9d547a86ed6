"""Looking-around-the-corner dialogue between vehicles.

Instead of streaming camera frames, the ego vehicle sends a perception
query to each nearby remote vehicle; the remote runs the query against
its own camera frame through its onboard vision model and answers with a
small structured message (presence, optional box, optional description).
The transcript accounts bytes per message and compares the dialogue cost
against streaming the raw frames over the same link.

Message schema v1: canonical single-line JSON, UTF-8, fixed key order
(version, msg_type, sender_id, recipient_id, correlation_id, timestamp,
payload). Canonical encoding keeps byte sizes reproducible, so the
bandwidth comparison is auditable byte-for-byte. Timestamps are integer
milliseconds; run_dialogue assigns them from a simulated clock driven by
analytic transmission delays, never wall-clock.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path

from .dataset import SceneSet
from .errors import FovlinkError
from .experiments import query_detection
from .gateway import Gateway, QueryParams
from .geometry import NormalizedBBox
from .parsing import DetectionKind, FailureKind, ParsedDetection
# bench/spans.py traces the parsers under these names
from .parsing import detect_bbox, detect_binary  # noqa: F401
from .prompts import get_prompt

PROTOCOL_VERSION = "1"


class ProtocolError(FovlinkError):
    """Base class for interchange-format errors."""


class UnsupportedVersion(ProtocolError):
    pass


class MalformedMessage(ProtocolError):
    def __init__(self, fld: str, reason: str) -> None:
        super().__init__(f"field {fld!r}: {reason}")
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
        if self.rate <= 0:
            raise ValueError("link rate must be positive")
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


def _payload_dict(payload: QueryPayload | ResponsePayload | ErrorPayload) -> dict:
    if isinstance(payload, QueryPayload):
        return {"prompt_id": payload.prompt_id, "prompt_text": payload.prompt_text}
    if isinstance(payload, ResponsePayload):
        box = None
        if payload.box is not None:
            box = {
                "x": payload.box.x,
                "y": payload.box.y,
                "x2": payload.box.x2,
                "y2": payload.box.y2,
                "clamped": payload.box.clamped,
            }
        return {
            "presence": payload.presence,
            "box": box,
            "description": payload.description,
            "failure_kind": payload.failure_kind.value if payload.failure_kind else None,
        }
    return {"fault": payload.fault}


def encode_message(msg: V2VMessage) -> bytes:
    """Canonical UTF-8 encoding: compact JSON with fixed key order."""
    record = {
        "version": msg.version,
        "msg_type": msg.msg_type.value,
        "sender_id": msg.sender_id,
        "recipient_id": msg.recipient_id,
        "correlation_id": msg.correlation_id,
        "timestamp": msg.timestamp,
        "payload": _payload_dict(msg.payload),
    }
    return json.dumps(record, separators=(",", ":"), ensure_ascii=False).encode("utf-8")


def _require_str(record: dict, fld: str) -> str:
    if fld not in record:
        raise MalformedMessage(fld, "missing")
    value = record[fld]
    if not isinstance(value, str):
        raise MalformedMessage(fld, f"wrong type {type(value).__name__}")
    return value


def _decode_box(raw: object) -> NormalizedBBox | None:
    if raw is None:
        return None
    if not isinstance(raw, dict) or set(raw) != {"x", "y", "x2", "y2", "clamped"}:
        raise MalformedMessage("payload.box", "must have keys x, y, x2, y2, clamped")
    for k in ("x", "y", "x2", "y2"):
        if not isinstance(raw[k], (int, float)) or isinstance(raw[k], bool):
            raise MalformedMessage("payload.box", f"{k} must be numeric")
    if not isinstance(raw["clamped"], bool):
        raise MalformedMessage("payload.box", "clamped must be boolean")
    try:
        return NormalizedBBox(
            float(raw["x"]), float(raw["y"]), float(raw["x2"]), float(raw["y2"]),
            clamped=raw["clamped"],
        )
    except ValueError as e:
        raise MalformedMessage("payload.box", str(e)) from e


def _decode_payload(msg_type: MsgType, raw: object):
    if not isinstance(raw, dict):
        raise MalformedMessage("payload", "must be an object")
    if msg_type is MsgType.QUERY:
        if set(raw) != {"prompt_id", "prompt_text"}:
            raise MalformedMessage("payload", "query payload needs prompt_id, prompt_text")
        if not isinstance(raw["prompt_id"], str) or not isinstance(raw["prompt_text"], str):
            raise MalformedMessage("payload", "prompt fields must be strings")
        return QueryPayload(prompt_id=raw["prompt_id"], prompt_text=raw["prompt_text"])
    if msg_type is MsgType.RESPONSE:
        if set(raw) != {"presence", "box", "description", "failure_kind"}:
            raise MalformedMessage(
                "payload", "response payload needs presence, box, description, failure_kind"
            )
        if not isinstance(raw["presence"], bool):
            raise MalformedMessage("payload.presence", "must be boolean")
        if raw["description"] is not None and not isinstance(raw["description"], str):
            raise MalformedMessage("payload.description", "must be string or null")
        failure_kind = None
        if raw["failure_kind"] is not None:
            try:
                failure_kind = FailureKind(raw["failure_kind"])
            except ValueError:
                raise MalformedMessage(
                    "payload.failure_kind", f"unknown kind {raw['failure_kind']!r}"
                ) from None
        return ResponsePayload(
            presence=raw["presence"],
            box=_decode_box(raw["box"]),
            description=raw["description"],
            failure_kind=failure_kind,
        )
    if set(raw) != {"fault"} or not isinstance(raw["fault"], str):
        raise MalformedMessage("payload", "error payload needs a string fault")
    return ErrorPayload(fault=raw["fault"])


def decode_message(data: bytes) -> V2VMessage:
    try:
        record = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise MalformedMessage("", f"not valid JSON: {e}") from e
    if not isinstance(record, dict):
        raise MalformedMessage("", "message must be an object")
    version = _require_str(record, "version")
    if version != PROTOCOL_VERSION:
        raise UnsupportedVersion(f"unsupported protocol version {version!r}")
    raw_type = _require_str(record, "msg_type")
    try:
        msg_type = MsgType(raw_type)
    except ValueError:
        raise MalformedMessage("msg_type", f"unknown type {raw_type!r}") from None
    sender_id = _require_str(record, "sender_id")
    recipient_id = _require_str(record, "recipient_id")
    correlation_id = _require_str(record, "correlation_id")
    timestamp = record.get("timestamp")
    if not isinstance(timestamp, int) or isinstance(timestamp, bool) or timestamp < 0:
        raise MalformedMessage("timestamp", "must be a non-negative integer")
    if "payload" not in record:
        raise MalformedMessage("payload", "missing")
    payload = _decode_payload(msg_type, record["payload"])
    extra = set(record) - {
        "version", "msg_type", "sender_id", "recipient_id",
        "correlation_id", "timestamp", "payload",
    }
    if extra:
        raise MalformedMessage(sorted(extra)[0], "unknown field")
    return V2VMessage(
        msg_type=msg_type,
        sender_id=sender_id,
        recipient_id=recipient_id,
        correlation_id=correlation_id,
        timestamp=timestamp,
        payload=payload,
        version=version,
    )


@dataclass(frozen=True, slots=True)
class TransportComparison:
    stream_bytes: int
    stream_time: float
    dialogue_bytes: int
    dialogue_time: float
    ratio: float | None  # dialogue_bytes / stream_bytes, None when undefined


@dataclass(frozen=True)
class DialogueTranscript:
    messages: tuple[V2VMessage, ...]
    sizes: tuple[int, ...]
    link: LinkModel
    stream_bytes: int
    dialogue_bytes: int = field(init=False)
    dialogue_time: float = field(init=False)
    stream_time: float = field(init=False)

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
        object.__setattr__(self, "dialogue_bytes", sum(self.sizes))
        object.__setattr__(
            self, "dialogue_time", transmission_time(self.dialogue_bytes, self.link)
        )
        object.__setattr__(
            self, "stream_time", transmission_time(self.stream_bytes, self.link)
        )

    def comparison(self) -> TransportComparison:
        ratio = self.dialogue_bytes / self.stream_bytes if self.stream_bytes > 0 else None
        return TransportComparison(
            stream_bytes=self.stream_bytes,
            stream_time=self.stream_time,
            dialogue_bytes=self.dialogue_bytes,
            dialogue_time=self.dialogue_time,
            ratio=ratio,
        )


def compare_transport(
    image_sizes: list[int], transcript: DialogueTranscript, link: LinkModel
) -> TransportComparison:
    """Dialogue cost versus streaming the given raw images over ``link``."""
    return replace(transcript, link=link, stream_bytes=sum(image_sizes)).comparison()


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
    params: QueryParams | None = None,
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
    params = params or QueryParams()
    prompt = get_prompt(prompt_id)

    messages: list[V2VMessage] = []
    sizes: list[int] = []
    stream_bytes = 0
    clock = 0.0  # simulated seconds since dialogue start

    def push(msg: V2VMessage) -> None:
        nonlocal clock
        encoded = encode_message(msg)
        messages.append(msg)
        sizes.append(len(encoded))
        clock += transmission_time(len(encoded), link)

    for index, remote in enumerate(sorted(remotes, key=lambda r: r.vehicle_id)):
        if remote.role is not Role.REMOTE:
            raise ValueError(f"vehicle {remote.vehicle_id!r} is not a remote")
        scene = scenes.by_id.get(remote.current_frame or "")
        if scene is None:
            raise ScenarioError(
                f"remote {remote.vehicle_id!r} frame {remote.current_frame!r} not in scene set"
            )
        correlation_id = f"q{index:04d}"
        push(
            V2VMessage(
                msg_type=MsgType.QUERY,
                sender_id=ego.vehicle_id,
                recipient_id=remote.vehicle_id,
                correlation_id=correlation_id,
                timestamp=int(clock * 1000),
                payload=QueryPayload(prompt_id=prompt.prompt_id, prompt_text=prompt.text),
            )
        )

        image = scene.image_path.read_bytes()
        stream_bytes += len(image)
        result = query_detection(image, scene.scene_id, prompt, 0, gateway, params)
        clock += result.latency
        if result.fault is None:
            msg_type, payload = MsgType.RESPONSE, _response_payload(result.detection)
        else:
            msg_type, payload = MsgType.ERROR, ErrorPayload(fault=result.fault)
        push(
            V2VMessage(
                msg_type=msg_type,
                sender_id=remote.vehicle_id,
                recipient_id=ego.vehicle_id,
                correlation_id=correlation_id,
                timestamp=int(clock * 1000),
                payload=payload,
            )
        )

    return DialogueTranscript(
        messages=tuple(messages), sizes=tuple(sizes), link=link, stream_bytes=stream_bytes
    )


def load_scenario(path: str | Path) -> tuple[VehicleAgent, tuple[VehicleAgent, ...], LinkModel, str]:
    """Read a scenario config: vehicles, link parameters and the prompt.

    Schema: {"vehicles": [{"vehicle_id", "role", "scene_id"?}, ...],
    "link": {"rate_bps", "overhead"}, "prompt_id": str} with exactly one
    ego vehicle.
    """
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError as e:
        raise ScenarioError(f"scenario file not found: {path}") from e
    except json.JSONDecodeError as e:
        raise ScenarioError(f"scenario is not valid JSON: {e}") from e
    if not isinstance(raw, dict):
        raise ScenarioError("scenario must be a JSON object")
    for key in ("vehicles", "link", "prompt_id"):
        if key not in raw:
            raise ScenarioError(f"scenario missing key {key!r}")

    vehicles: list[VehicleAgent] = []
    if not isinstance(raw["vehicles"], list) or not raw["vehicles"]:
        raise ScenarioError("scenario needs a non-empty vehicles list")
    for i, entry in enumerate(raw["vehicles"]):
        if not isinstance(entry, dict):
            raise ScenarioError(f"vehicles[{i}] must be an object")
        try:
            role = Role(entry.get("role"))
        except ValueError:
            raise ScenarioError(f"vehicles[{i}] has unknown role {entry.get('role')!r}") from None
        vehicle_id = entry.get("vehicle_id")
        if not isinstance(vehicle_id, str) or not vehicle_id:
            raise ScenarioError(f"vehicles[{i}] needs a vehicle_id")
        try:
            vehicles.append(
                VehicleAgent(vehicle_id=vehicle_id, role=role, current_frame=entry.get("scene_id"))
            )
        except ValueError as e:
            raise ScenarioError(str(e)) from e

    egos = [v for v in vehicles if v.role is Role.EGO]
    if len(egos) != 1:
        raise ScenarioError(f"scenario needs exactly one ego vehicle, found {len(egos)}")
    remotes = tuple(v for v in vehicles if v.role is Role.REMOTE)

    link_raw = raw["link"]
    if not isinstance(link_raw, dict) or "rate_bps" not in link_raw:
        raise ScenarioError("scenario link needs rate_bps")
    try:
        link = LinkModel(
            rate=float(link_raw["rate_bps"]), overhead=float(link_raw.get("overhead", 0.0))
        )
    except (TypeError, ValueError) as e:
        raise ScenarioError(f"invalid link parameters: {e}") from e

    prompt_id = raw["prompt_id"]
    if not isinstance(prompt_id, str):
        raise ScenarioError("prompt_id must be a string")
    return egos[0], remotes, link, prompt_id
