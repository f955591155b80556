"""Independent recognizer for the wire grammar, used as a fuzzing oracle.

Deliberately not built on ssmmp.wire: its own template table and a regex
per value shape. Decides only accept/reject for a byte string.
"""

import re

_TOKEN = r"[A-Za-z0-9_.-]+"
_INT = r"[1-9][0-9]{0,18}"
_PORT = r"(0|[1-9][0-9]{0,4})"
_STATUS = r"[1-5][0-9]{2}"
_IPV4 = r"[0-9]{1,3}(\.[0-9]{1,3}){3}"
_IPV6 = rf"[0-9A-Fa-f:]+(:{_IPV4})?"
_ADDR = rf"({_IPV4}|{_IPV6})"
_NAME_LIST = rf"\((({_TOKEN})(; {_TOKEN})*)?\)"
_SOCKET_PAIR = r"\(" + _TOKEN + r", [0-9]{1,5}\)"
_PLUG_PAIR = rf"\({_TOKEN}, {_TOKEN}\)"
_SOCKET_LIST = rf"\((({_SOCKET_PAIR})(; {_SOCKET_PAIR})*)?\)"
_PLUG_LIST = rf"\((({_PLUG_PAIR})(; {_PLUG_PAIR})*)?\)"

VALUE_RE = {
    "id": _INT,
    "port": _PORT,
    "status": _STATUS,
    "addr": _ADDR,
    "token": _TOKEN,
    "names": _NAME_LIST,
    "sockets_cfg": _SOCKET_LIST,
    "plugs_cfg": _PLUG_LIST,
}

SRC_CLOSE = [
    ("source_service_name", "token"),
    ("source_service_instance_network_address", "addr"),
    ("source_service_instance_id", "id"),
    ("source_plug_name", "token"),
    ("source_plug_port", "port"),
    ("dest_service_name", "token"),
    ("dest_service_instance_network_address", "addr"),
    ("dest_socket_name", "token"),
    ("dest_socket_port", "port"),
    ("dest_socket_new_port", "port"),
]

DST_CLOSE = [
    ("source_service_instance_network_address", "addr"),
    ("source_plug_name", "token"),
    ("source_plug_port", "port"),
    ("dest_service_name", "token"),
    ("dest_service_instance_network_address", "addr"),
    ("dest_service_instance_id", "id"),
    ("dest_socket_name", "token"),
    ("dest_socket_port", "port"),
    ("dest_socket_new_port", "port"),
]

STATUS_ONLY = [("status", "status")]
NAME_AND_ID = [("service_name", "token"), ("service_instance_id", "id")]

GRAMMAR = {
    ("initiation_request", None): [
        ("agent_network_address", "addr"),
        ("service_repository", "names"),
    ],
    ("initiation_response", None): STATUS_ONLY,
    ("execution_request", None): [
        ("agent_network_address", "addr"),
        ("service_name", "token"),
        ("service_instance_id", "id"),
        ("socket_configuration", "sockets_cfg"),
        ("plug_configuration", "plugs_cfg"),
    ],
    ("execution_response", None): STATUS_ONLY,
    ("session_request", "service_to_agent"): [
        ("source_service_name", "token"),
        ("source_service_instance_id", "id"),
        ("source_plug_name", "token"),
        ("dest_service_name", "token"),
        ("dest_socket_name", "token"),
    ],
    ("session_request", "agent_to_Manager"): [
        ("agent_network_address", "addr"),
        ("source_service_name", "token"),
        ("source_service_instance_id", "id"),
        ("source_plug_name", "token"),
        ("dest_service_name", "token"),
        ("dest_socket_name", "token"),
    ],
    ("session_response", "Manager_to_agent"): [
        ("status", "status"),
        ("dest_service_instance_network_address", "addr"),
        ("dest_socket_port", "port"),
    ],
    ("session_response", "agent_to_service"): [
        ("status", "status"),
        ("dest_service_instance_network_address", "addr"),
        ("dest_socket_port", "port"),
    ],
    ("session_ack", "service_to_agent"): [
        ("status", "status"),
        ("source_plug_port", "port"),
        ("dest_socket_new_port", "port"),
    ],
    ("session_ack", "agent_to_Manager"): [
        ("status", "status"),
        ("source_plug_port", "port"),
        ("dest_socket_new_port", "port"),
    ],
    ("source_service_session_close_info", "source_service_to_agent"): SRC_CLOSE,
    ("source_service_session_close_info", "agent_to_Manager"): SRC_CLOSE,
    ("dest_service_session_close_info", "dest_service_to_agent"): DST_CLOSE,
    ("dest_service_session_close_info", "agent_to_Manager"): DST_CLOSE,
    ("source_service_session_close_request", "Manager_to_agent"): SRC_CLOSE,
    ("source_service_session_close_request", "agent_to_source_service"): SRC_CLOSE,
    ("source_service_session_close_response", "source_service_to_agent"): STATUS_ONLY,
    ("source_service_session_close_response", "agent_to_Manager"): STATUS_ONLY,
    ("dest_service_session_close_request", "Manager_to_agent"): DST_CLOSE,
    ("dest_service_session_close_request", "agent_to_dest_service"): DST_CLOSE,
    ("dest_service_session_close_response", "dest_service_to_agent"): STATUS_ONLY,
    ("dest_service_session_close_response", "agent_to_Manager"): STATUS_ONLY,
    ("graceful_shutdown_request", "Manager_to_agent"): NAME_AND_ID,
    ("graceful_shutdown_request", "agent_to_service_instance"): NAME_AND_ID,
    ("graceful_shutdown_response", "service_instance_to_agent"): STATUS_ONLY,
    ("graceful_shutdown_response", "agent_to_Manager"): STATUS_ONLY,
    ("hard_shutdown_request", "Manager_to_agent"): NAME_AND_ID,
    ("hard_shutdown_response", "agent_to_Manager"): STATUS_ONLY,
    ("health_control_request", "agent_to_service_instance"): NAME_AND_ID,
    ("health_control_response", "service_instance_to_agent"):
        NAME_AND_ID + STATUS_ONLY,
    ("health_control_response", "agent_to_Manager"): NAME_AND_ID + STATUS_ONLY,
}

_TYPES_WITHOUT_SUB = {t for (t, s) in GRAMMAR if s is None}
_TYPES_WITH_SUB = {t for (t, s) in GRAMMAR if s is not None}


def _ipv4_ok(value: str) -> bool:
    parts = value.split(".")
    return all((p == "0" or not p.startswith("0")) and int(p) <= 255
               for p in parts)


def _ipv6_ok(value: str) -> bool:
    if value.count("::") > 1 or ":::" in value:
        return False
    tail_groups = 0
    if "." in value:
        head, _, tail = value.rpartition(":")
        if not _ipv4_ok(tail) or not re.fullmatch(_IPV4, tail):
            return False
        value = head + ":" if head.endswith(":") else head
        tail_groups = 2
        if value in (":", ""):
            return False
    if value == "::":
        return True
    compressed = "::" in value
    if value.startswith(":") and not value.startswith("::"):
        return False
    if value.endswith(":") and not value.endswith("::"):
        return False
    groups = [g for g in value.replace("::", ":").split(":") if g]
    if not all(len(g) <= 4 for g in groups):
        return False
    total = len(groups) + tail_groups
    if compressed:
        return total <= 7
    return total == 8


def _value_ok(kind: str, value: str) -> bool:
    if not re.fullmatch(VALUE_RE[kind], value):
        return False
    if kind == "port":
        return 1 <= int(value) <= 65535
    if kind == "sockets_cfg":
        ports = re.findall(r", ([0-9]{1,5})\)", value)
        return all(1 <= int(p) <= 65535 for p in ports)
    if kind == "addr":
        if ":" in value:
            return _ipv6_ok(value)
        return _ipv4_ok(value)
    return True


def accepts(data: bytes) -> bool:
    """True iff data is one well-formed framed message."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return False
    if not text.endswith("\n\n"):
        return False
    body = text[:-2]
    lines = body.split("\n")
    if len(lines) < 2:
        return False
    parsed = []
    for line in lines:
        m = re.fullmatch(rf"({_TOKEN}): (.*)", line)
        if not m:
            return False
        parsed.append((m.group(1), m.group(2)))
    if parsed[0][0] != "type" or parsed[1][0] != "message_id":
        return False
    msg_type = parsed[0][1]
    if not re.fullmatch(_INT, parsed[1][1]):
        return False
    rest = parsed[2:]
    sub = None
    if msg_type in _TYPES_WITH_SUB:
        if not rest or rest[0][0] != "sub_type":
            return False
        sub = rest[0][1]
        rest = rest[1:]
    elif msg_type in _TYPES_WITHOUT_SUB:
        pass
    else:
        return False
    template = GRAMMAR.get((msg_type, sub))
    if template is None:
        return False
    if [name for name, _ in rest] != [name for name, _ in template]:
        return False
    kinds = dict(template)
    return all(_value_ok(kinds[name], value) for name, value in rest)
