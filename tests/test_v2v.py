from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fovlink.dataset import load_manifest
from fovlink.gateway import Gateway, MockBackend, QueryParams
from fovlink.geometry import NormalizedBBox, canonicalize_bbox
from fovlink.parsing import FailureKind
from fovlink.v2v import (
    DialogueTranscript,
    ErrorPayload,
    LinkModel,
    MalformedMessage,
    MsgType,
    ProtocolError,
    QueryPayload,
    ResponsePayload,
    Role,
    ScenarioError,
    UnsupportedVersion,
    V2VMessage,
    VehicleAgent,
    compare_transport,
    decode_message,
    encode_message,
    load_scenario,
    run_dialogue,
    transmission_time,
)
from fovlink.v2v import _BOX_SHAPE, _PAYLOADS

from conftest import script_key

VANET_LINK = LinkModel(rate=1_000_000, overhead=0.10)
IMAGE_218_6_KB = 218.6 * 1024

PARAMS = QueryParams(backoff_base=0.0)


class TestTransmissionTime:
    def test_reference_image_takes_about_two_seconds(self):
        assert transmission_time(IMAGE_218_6_KB, VANET_LINK) == pytest.approx(1.98, abs=0.05)

    def test_zero_bytes(self):
        assert transmission_time(0, VANET_LINK) == 0.0

    def test_exact_division(self):
        assert transmission_time(1024, LinkModel(rate=8192)) == 1.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            transmission_time(-1, VANET_LINK)

    @given(st.integers(0, 10**9), st.integers(0, 10**9))
    def test_linear_on_dyadic_rate(self, a, b):
        # a power-of-two effective rate makes the division exact, so the
        # linearity t(a+b) = t(a) + t(b) holds with no rounding at all
        link = LinkModel(rate=2**20)
        assert transmission_time(a + b, link) == transmission_time(a, link) + transmission_time(
            b, link
        )

    def test_overhead_validation(self):
        with pytest.raises(ValueError):
            LinkModel(rate=1000, overhead=1.0)
        with pytest.raises(ValueError):
            LinkModel(rate=0)


def make_response_message(box: NormalizedBBox | None = None) -> V2VMessage:
    return V2VMessage(
        msg_type=MsgType.RESPONSE,
        sender_id="vehicle_a",
        recipient_id="ego",
        correlation_id="q0000",
        timestamp=12,
        payload=ResponsePayload(presence=True, box=box),
    )


class TestCodec:
    def test_response_round_trip(self):
        msg = make_response_message(NormalizedBBox(0.2, 0.3, 0.6, 0.8))
        assert decode_message(encode_message(msg)) == msg

    def test_unsupported_version(self):
        raw = json.loads(encode_message(make_response_message()))
        raw["version"] = "999"
        with pytest.raises(UnsupportedVersion):
            decode_message(json.dumps(raw).encode())

    def test_canonical_encoding_is_golden(self):
        msg = V2VMessage(
            msg_type=MsgType.QUERY,
            sender_id="ego",
            recipient_id="vehicle_a",
            correlation_id="q0000",
            timestamp=0,
            payload=QueryPayload(prompt_id="BIN", prompt_text="hello?"),
        )
        expected = (
            '{"version":"1","msg_type":"query","sender_id":"ego",'
            '"recipient_id":"vehicle_a","correlation_id":"q0000","timestamp":0,'
            '"payload":{"prompt_id":"BIN","prompt_text":"hello?"}}'
        ).encode("utf-8")
        assert encode_message(msg) == expected
        # byte length measured once from the canonical encoder and pinned
        assert len(encode_message(msg)) == 171

    @pytest.mark.parametrize(
        "msg, expected",
        [
            pytest.param(
                V2VMessage(
                    msg_type=MsgType.RESPONSE,
                    sender_id="vehicle_a",
                    recipient_id="ego",
                    correlation_id="q0001",
                    timestamp=1987,
                    payload=ResponsePayload(
                        presence=True, box=canonicalize_bbox((0.5, 1.5), (-0.1, 0.25))
                    ),
                ),
                '{"version":"1","msg_type":"response","sender_id":"vehicle_a",'
                '"recipient_id":"ego","correlation_id":"q0001","timestamp":1987,'
                '"payload":{"presence":true,"box":{"x":0.0,"y":0.25,"x2":0.5,"y2":1.0,'
                '"clamped":true},"description":null,"failure_kind":null}}',
                id="response-clamped-box",
            ),
            pytest.param(
                V2VMessage(
                    msg_type=MsgType.RESPONSE,
                    sender_id="vehicle_b",
                    recipient_id="ego",
                    correlation_id="q0002",
                    timestamp=2041,
                    payload=ResponsePayload(
                        presence=True,
                        description='A person by the café, "left"',
                        failure_kind=FailureKind.AMBIGUOUS_DESCRIPTION,
                    ),
                ),
                '{"version":"1","msg_type":"response","sender_id":"vehicle_b",'
                '"recipient_id":"ego","correlation_id":"q0002","timestamp":2041,'
                '"payload":{"presence":true,"box":null,'
                '"description":"A person by the café, \\"left\\"",'
                '"failure_kind":"AmbiguousDescription"}}',
                id="response-failure-kind",
            ),
            pytest.param(
                V2VMessage(
                    msg_type=MsgType.ERROR,
                    sender_id="vehicle_c",
                    recipient_id="ego",
                    correlation_id="q0003",
                    timestamp=3000,
                    payload=ErrorPayload(fault="Timeout: timeout after 3 attempts: timed out"),
                ),
                '{"version":"1","msg_type":"error","sender_id":"vehicle_c",'
                '"recipient_id":"ego","correlation_id":"q0003","timestamp":3000,'
                '"payload":{"fault":"Timeout: timeout after 3 attempts: timed out"}}',
                id="error",
            ),
        ],
    )
    def test_response_and_error_encodings_are_golden(self, msg, expected):
        # bytes pinned from the dataclasses.asdict encoder that preceded the field walk
        assert encode_message(msg) == expected.encode("utf-8")
        assert decode_message(encode_message(msg)) == msg

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda r: r.pop("sender_id"),
            lambda r: r.update(timestamp=-5),
            lambda r: r.update(timestamp="later"),
            lambda r: r.update(msg_type="gossip"),
            lambda r: r.update(surprise=1),
            lambda r: r.update(payload={"presence": True}),
            lambda r: r.update(payload={"presence": "yes", "box": None, "description": None, "failure_kind": None}),
        ],
    )
    def test_malformed_messages(self, mutate):
        raw = json.loads(encode_message(make_response_message()))
        mutate(raw)
        with pytest.raises(MalformedMessage):
            decode_message(json.dumps(raw).encode())

    def test_malformed_box(self):
        raw = json.loads(encode_message(make_response_message(NormalizedBBox(0, 0, 1, 1))))
        raw["payload"]["box"]["x"] = 2.0
        with pytest.raises(MalformedMessage):
            decode_message(json.dumps(raw).encode())

    def test_bad_bytes(self):
        with pytest.raises(MalformedMessage):
            decode_message(b"\xff\xfe not a message")

    def test_non_finite_box_coordinate_is_malformed(self):
        raw = json.loads(encode_message(make_response_message(NormalizedBBox(0, 0, 1, 1))))
        raw["payload"]["box"]["x2"] = float("nan")
        with pytest.raises(MalformedMessage) as exc:
            decode_message(json.dumps(raw).encode())
        assert exc.value.field == "payload.box"

    @pytest.mark.parametrize(
        "msg_type, payload",
        [
            (MsgType.QUERY, ErrorPayload(fault="x")),
            (MsgType.RESPONSE, QueryPayload(prompt_id="P1", prompt_text="where?")),
            (MsgType.ERROR, ResponsePayload(presence=True)),
        ],
    )
    def test_payload_of_another_type_is_refused(self, msg_type, payload):
        # such bytes would name one msg_type and carry another type's keys,
        # which no reader accepts
        msg = V2VMessage(msg_type, "ego", "vehicle_a", "q0000", 0, payload)
        with pytest.raises(MalformedMessage) as exc:
            encode_message(msg)
        assert exc.value.field == "payload"
        assert type(payload).__name__ in str(exc.value)


_SCHEMAS_MD = Path(__file__).resolve().parents[1] / "docs" / "schemas.md"


class TestDeclaration:
    """The one declaration of the message format agrees with the classes and the docs."""

    @pytest.mark.parametrize("msg_type", list(MsgType))
    def test_payload_keys_are_the_class_fields_in_order(self, msg_type):
        # a field missing from the declaration would never reach the wire
        cls, shape = _PAYLOADS[msg_type]
        assert [f.name for f in fields(cls)] == list(shape.fields)

    def test_box_keys_are_the_box_fields_in_order(self):
        assert [f.name for f in fields(NormalizedBBox)] == list(_BOX_SHAPE.fields)

    def test_every_declared_key_is_documented(self):
        section = _SCHEMAS_MD.read_text(encoding="utf-8").split("## V2V message schema", 1)[1]
        keys = [k for _, shape in _PAYLOADS.values() for k in shape.fields] + list(_BOX_SHAPE.fields)
        assert [k for k in keys if f"`{k}`" not in section] == []


identifiers = st.text(min_size=1, max_size=12)
unit_floats = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
boxes = st.builds(
    canonicalize_bbox, st.tuples(unit_floats, unit_floats), st.tuples(unit_floats, unit_floats)
)
payloads = st.one_of(
    st.builds(QueryPayload, prompt_id=identifiers, prompt_text=st.text(max_size=80)),
    st.builds(
        ResponsePayload,
        presence=st.booleans(),
        box=st.none() | boxes,
        description=st.none() | st.text(max_size=60),
        failure_kind=st.none() | st.sampled_from(list(FailureKind)),
    ),
    st.builds(ErrorPayload, fault=st.text(max_size=60)),
)

_PAYLOAD_TYPES = {
    QueryPayload: MsgType.QUERY,
    ResponsePayload: MsgType.RESPONSE,
    ErrorPayload: MsgType.ERROR,
}


@st.composite
def messages(draw):
    payload = draw(payloads)
    return V2VMessage(
        msg_type=_PAYLOAD_TYPES[type(payload)],
        sender_id=draw(identifiers),
        recipient_id=draw(identifiers),
        correlation_id=draw(identifiers),
        timestamp=draw(st.integers(0, 2**48)),
        payload=payload,
    )


@given(messages())
def test_codec_round_trip_property(msg):
    assert decode_message(encode_message(msg)) == msg


# JSON types each message field may hold (docs/schemas.md); a swap picks a
# value of any other type
_MESSAGE_FIELD_TYPES = {
    "version": {"str"},
    "msg_type": {"str"},
    "sender_id": {"str"},
    "recipient_id": {"str"},
    "correlation_id": {"str"},
    "timestamp": {"int"},
    "payload": {"dict"},
    "prompt_id": {"str"},
    "prompt_text": {"str"},
    "presence": {"bool"},
    "box": {"dict", "null"},
    "description": {"str", "null"},
    "failure_kind": {"str", "null"},
    "fault": {"str"},
    "x": {"int", "float"},
    "y": {"int", "float"},
    "x2": {"int", "float"},
    "y2": {"int", "float"},
    "clamped": {"bool"},
}
_SWAP_VALUES = {"str": "x", "int": 7, "float": 0.5, "bool": True, "null": None, "list": [0.5], "dict": {"k": 1}}


def _field_paths(record: dict, prefix: tuple = ()) -> list[tuple[str, ...]]:
    paths = []
    for key, value in record.items():
        paths.append((*prefix, key))
        if isinstance(value, dict):
            paths += _field_paths(value, (*prefix, key))
    return paths


@settings(max_examples=150, deadline=None)
@given(messages())
def test_damaged_message_raises_only_protocol_error(msg):
    canonical = encode_message(msg)
    for path in _field_paths(json.loads(canonical)):
        swaps = sorted(set(_SWAP_VALUES) - _MESSAGE_FIELD_TYPES[path[-1]])
        for mutation in ("delete", "nan", *swaps):
            record = json.loads(canonical)
            parent = record
            for key in path[:-1]:
                parent = parent[key]
            if mutation == "delete":
                del parent[path[-1]]
            else:
                parent[path[-1]] = float("nan") if mutation == "nan" else _SWAP_VALUES[mutation]
            with pytest.raises(ProtocolError):
                decode_message(json.dumps(record, ensure_ascii=False).encode("utf-8"))


@pytest.fixture
def dialogue_setup(small_manifest):
    scenes = load_manifest(small_manifest)
    ego = VehicleAgent("ego", Role.EGO)
    remotes = [
        VehicleAgent("vehicle_a", Role.REMOTE, current_frame="pos_a"),
        VehicleAgent("vehicle_b", Role.REMOTE, current_frame="pos_b"),
    ]
    script = {
        script_key("pos_a", "P1", 0): {"text": "(0.4,0.4), (0.6,0.8)"},
        script_key("pos_b", "P1", 0): {"text": "yes"},
    }
    return scenes, ego, remotes, script


class TestRunDialogue:
    def test_two_remote_fixture(self, dialogue_setup):
        scenes, ego, remotes, script = dialogue_setup
        transcript = run_dialogue(
            ego, remotes, scenes, "P1", Gateway(MockBackend(script)), VANET_LINK, PARAMS
        )
        kinds = [m.msg_type for m in transcript.messages]
        assert kinds == [MsgType.QUERY, MsgType.RESPONSE, MsgType.QUERY, MsgType.RESPONSE]
        assert [m.recipient_id for m in transcript.messages] == [
            "vehicle_a", "ego", "vehicle_b", "ego",
        ]
        assert [m.correlation_id for m in transcript.messages] == [
            "q0000", "q0000", "q0001", "q0001",
        ]

        located = transcript.messages[1].payload
        assert located.presence and located.box == NormalizedBBox(0.4, 0.4, 0.6, 0.8)
        unlocated = transcript.messages[3].payload
        assert unlocated.presence
        assert unlocated.failure_kind is FailureKind.AMBIGUOUS_DESCRIPTION

        assert transcript.dialogue_bytes == sum(
            len(encode_message(m)) for m in transcript.messages
        )
        image_bytes = sum(
            len(scenes.by_id[r.current_frame].image_path.read_bytes()) for r in remotes
        )
        assert transcript.stream_bytes == image_bytes
        assert transcript.dialogue_bytes < 0.05 * IMAGE_218_6_KB

    def test_remote_order_is_by_vehicle_id(self, dialogue_setup):
        scenes, ego, remotes, script = dialogue_setup
        transcript = run_dialogue(
            ego, list(reversed(remotes)), scenes, "P1", Gateway(MockBackend(script)), VANET_LINK, PARAMS
        )
        assert [m.recipient_id for m in transcript.messages[::2]] == ["vehicle_a", "vehicle_b"]

    def test_zero_remotes(self, dialogue_setup):
        scenes, ego, _, _ = dialogue_setup
        transcript = run_dialogue(ego, [], scenes, "P1", Gateway(MockBackend({})), VANET_LINK, PARAMS)
        assert transcript.messages == ()
        assert transcript.dialogue_bytes == 0
        assert transcript.dialogue_time == 0.0
        assert transcript.comparison().ratio is None

    def test_faulted_remote_becomes_error_message(self, dialogue_setup):
        scenes, ego, remotes, script = dialogue_setup
        script[script_key("pos_a", "P1", 0)] = {"fault": "timeout"}
        transcript = run_dialogue(
            ego, remotes, scenes, "P1", Gateway(MockBackend(script)), VANET_LINK, PARAMS
        )
        kinds = [m.msg_type for m in transcript.messages]
        assert kinds == [MsgType.QUERY, MsgType.ERROR, MsgType.QUERY, MsgType.RESPONSE]
        assert "Timeout" in transcript.messages[1].payload.fault

    def test_unknown_frame_rejected(self, dialogue_setup):
        scenes, ego, _, script = dialogue_setup
        stranger = VehicleAgent("vehicle_x", Role.REMOTE, current_frame="nowhere")
        with pytest.raises(ScenarioError):
            run_dialogue(ego, [stranger], scenes, "P1", Gateway(MockBackend(script)), VANET_LINK, PARAMS)

    def test_timestamps_monotone(self, dialogue_setup):
        scenes, ego, remotes, script = dialogue_setup
        transcript = run_dialogue(
            ego, remotes, scenes, "P1", Gateway(MockBackend(script)), VANET_LINK, PARAMS
        )
        stamps = [m.timestamp for m in transcript.messages]
        assert stamps == sorted(stamps)
        assert stamps[0] == 0

    def test_compare_transport_matches_hand_sum(self, dialogue_setup):
        scenes, ego, remotes, script = dialogue_setup
        transcript = run_dialogue(
            ego, remotes, scenes, "P1", Gateway(MockBackend(script)), VANET_LINK, PARAMS
        )
        sizes = [1000, 2000]
        comparison = compare_transport(sizes, transcript, VANET_LINK)
        assert comparison.stream_bytes == 3000
        assert comparison.ratio == transcript.dialogue_bytes / 3000
        assert comparison.stream_time == transmission_time(3000, VANET_LINK)

    def test_equal_totals_give_ratio_one(self, dialogue_setup):
        scenes, ego, remotes, script = dialogue_setup
        transcript = run_dialogue(
            ego, remotes, scenes, "P1", Gateway(MockBackend(script)), VANET_LINK, PARAMS
        )
        comparison = compare_transport([transcript.dialogue_bytes], transcript, VANET_LINK)
        assert comparison.ratio == 1.0


class TestTranscriptInvariants:
    def test_response_without_query_rejected(self):
        with pytest.raises(ValueError):
            DialogueTranscript(
                messages=(make_response_message(),),
                sizes=(10,),
                link=VANET_LINK,
                stream_bytes=0,
            )

    def test_totals_match_transmission_time(self, dialogue_setup):
        scenes, ego, remotes, script = dialogue_setup
        transcript = run_dialogue(
            ego, remotes, scenes, "P1", Gateway(MockBackend(script)), VANET_LINK, PARAMS
        )
        assert transcript.dialogue_time == transmission_time(
            transcript.dialogue_bytes, VANET_LINK
        )
        assert transcript.stream_time == transmission_time(transcript.stream_bytes, VANET_LINK)


class TestScenarioFile:
    def _write(self, tmp_path, payload) -> str:
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return path

    def test_load_valid_scenario(self, tmp_path):
        path = self._write(
            tmp_path,
            {
                "vehicles": [
                    {"vehicle_id": "ego", "role": "ego"},
                    {"vehicle_id": "vehicle_a", "role": "remote", "scene_id": "pos_a"},
                ],
                "link": {"rate_bps": 1_000_000, "overhead": 0.1},
                "prompt_id": "P1",
            },
        )
        ego, remotes, link, prompt_id = load_scenario(path)
        assert ego.vehicle_id == "ego"
        assert [r.current_frame for r in remotes] == ["pos_a"]
        assert link == LinkModel(rate=1_000_000, overhead=0.1)
        assert prompt_id == "P1"

    @pytest.mark.parametrize(
        "payload",
        [
            {"vehicles": [], "link": {"rate_bps": 1}, "prompt_id": "P1"},
            {"link": {"rate_bps": 1}, "prompt_id": "P1"},
            {
                "vehicles": [{"vehicle_id": "a", "role": "pilot"}],
                "link": {"rate_bps": 1},
                "prompt_id": "P1",
            },
            {
                "vehicles": [{"vehicle_id": "a", "role": "remote"}],
                "link": {"rate_bps": 1},
                "prompt_id": "P1",
            },
            {
                "vehicles": [
                    {"vehicle_id": "a", "role": "ego"},
                    {"vehicle_id": "b", "role": "ego"},
                ],
                "link": {"rate_bps": 1},
                "prompt_id": "P1",
            },
            {
                "vehicles": [{"vehicle_id": "a", "role": "ego"}],
                "link": {"rate_bps": True},
                "prompt_id": "P1",
            },
            {
                "vehicles": [{"vehicle_id": "a", "role": "ego"}],
                "link": {"rate_bps": 1, "overhead": "0.1"},
                "prompt_id": "P1",
            },
            {
                "vehicles": [
                    {"vehicle_id": "a", "role": "ego"},
                    {"vehicle_id": "b", "role": "remote", "scene_id": ["pos_a"]},
                ],
                "link": {"rate_bps": 1},
                "prompt_id": "P1",
            },
        ],
    )
    def test_invalid_scenarios(self, tmp_path, payload):
        with pytest.raises(ScenarioError):
            load_scenario(self._write(tmp_path, payload))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError):
            load_scenario(tmp_path / "nope.json")
