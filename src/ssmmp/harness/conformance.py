"""Golden wire conformance: one canonical message per (type, sub_type).

Each variant has a stored byte file; the serializer must reproduce it
exactly and the parser must invert it. Field values are fixed illustrative
ones (addresses fd00::a1/fd00::a2, ports m=41000, k=20010, l=20555).
"""

from __future__ import annotations

from pathlib import Path

from .. import wire
from ..wire import Message, MessageType as MT

_SAMPLE_VALUES = {
    "agent_network_address": "fd00::a1",
    "service_repository": "(A; B)",
    "service_name": "A",
    "service_instance_id": 1,
    "socket_configuration": "((S2, 20000))",
    "plug_configuration": "((P6, service-4); (P7, service-3))",
    "source_service_name": "A",
    "source_service_instance_id": 1,
    "source_service_instance_network_address": "fd00::a1",
    "source_plug_name": "P",
    "source_plug_port": 41000,
    "dest_service_name": "B",
    "dest_service_instance_network_address": "fd00::a2",
    "dest_service_instance_id": 2,
    "dest_socket_name": "S",
    "dest_socket_port": 20010,
    "dest_socket_new_port": 20555,
    "status": 200,
}

_SAMPLE_IDS = {
    MT.INITIATION_REQUEST: 7,
    MT.INITIATION_RESPONSE: 7,
    MT.GRACEFUL_SHUTDOWN_RESPONSE: 9,
}


def golden_messages() -> list[tuple[str, Message]]:
    """(file stem, message) for every template variant, sorted by stem."""
    out = []
    for (msg_type, sub_type) in wire.TEMPLATES:
        stem = msg_type.value
        if sub_type is not None:
            stem += f"__{sub_type.value}"
        mid = _SAMPLE_IDS.get(msg_type, 3)
        values = {name: _SAMPLE_VALUES[name]
                  for name in wire.TEMPLATES[(msg_type, sub_type)]}
        if msg_type is MT.EXECUTION_REQUEST:
            values["service_name"] = "service-1"
        out.append((stem, wire.make_message(msg_type, mid, sub_type, **values)))
    return sorted(out)


def write_golden_files(directory: str | Path) -> int:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    count = 0
    for stem, msg in golden_messages():
        (directory / f"{stem}.msg").write_bytes(wire.serialize_message(msg))
        count += 1
    return count


def check_conformance(directory: str | Path) -> list[tuple[str, bool, str]]:
    """Per-variant verdicts: serializer output equals the stored bytes and
    parsing the stored bytes reproduces the message."""
    directory = Path(directory)
    results = []
    for stem, msg in golden_messages():
        path = directory / f"{stem}.msg"
        if not path.exists():
            results.append((stem, False, "golden file missing"))
            continue
        stored = path.read_bytes()
        produced = wire.serialize_message(msg)
        if produced != stored:
            results.append((stem, False, "serializer output differs"))
            continue
        try:
            parsed = wire.parse_message(stored)
        except wire.MessageError as e:
            results.append((stem, False, f"stored bytes do not parse: {e}"))
            continue
        if parsed != msg:
            results.append((stem, False, "parse does not invert serialize"))
            continue
        results.append((stem, True, ""))
    known = {stem for stem, _ in golden_messages()}
    for path in sorted(directory.glob("*.msg")):
        if path.stem not in known:
            results.append((path.stem, False, "unknown golden file"))
    return results
