"""SSMMP wire format: typed messages, templates, and the line codec.

A message is a sequence of ``name: contents`` lines. The first line carries
the message type, the second the message identifier; a route tag line
(``sub_type``) follows for the types that have one. The remaining lines are
fixed per (type, sub_type) template: same names, same order, nothing extra.

Framing: LF line endings, UTF-8, one empty line terminates a message. Shared
request/response/ack chains reuse one message_id; identifiers are generated
per originator by a monotonic counter starting at 1.

Each template is compiled at import into its field names paired with one
check per field, built from FIELD_KINDS. A message is checked against its
template once when it is built (`make_message`) and once when it is
received (`parse_message`); both mark it `checked`, and so does an agent's
relay of a checked message. `serialize_message` checks only a message built
by hand, whose `checked` is false. `parse_message` finds the template from
the wire text of the type and sub_type lines and checks the fields in one
pass; only a rejected message is diagnosed line by line, to name its fault.
"""

from __future__ import annotations

import functools
import ipaddress
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple, NoReturn, Sequence


class MessageType(Enum):
    INITIATION_REQUEST = "initiation_request"
    INITIATION_RESPONSE = "initiation_response"
    EXECUTION_REQUEST = "execution_request"
    EXECUTION_RESPONSE = "execution_response"
    SESSION_REQUEST = "session_request"
    SESSION_RESPONSE = "session_response"
    SESSION_ACK = "session_ack"
    SOURCE_SESSION_CLOSE_INFO = "source_service_session_close_info"
    DEST_SESSION_CLOSE_INFO = "dest_service_session_close_info"
    SOURCE_SESSION_CLOSE_REQUEST = "source_service_session_close_request"
    SOURCE_SESSION_CLOSE_RESPONSE = "source_service_session_close_response"
    DEST_SESSION_CLOSE_REQUEST = "dest_service_session_close_request"
    DEST_SESSION_CLOSE_RESPONSE = "dest_service_session_close_response"
    GRACEFUL_SHUTDOWN_REQUEST = "graceful_shutdown_request"
    GRACEFUL_SHUTDOWN_RESPONSE = "graceful_shutdown_response"
    HARD_SHUTDOWN_REQUEST = "hard_shutdown_request"
    HARD_SHUTDOWN_RESPONSE = "hard_shutdown_response"
    HEALTH_CONTROL_REQUEST = "health_control_request"
    HEALTH_CONTROL_RESPONSE = "health_control_response"


class SubType(Enum):
    SERVICE_TO_AGENT = "service_to_agent"
    AGENT_TO_MANAGER = "agent_to_Manager"
    MANAGER_TO_AGENT = "Manager_to_agent"
    AGENT_TO_SERVICE = "agent_to_service"
    SOURCE_SERVICE_TO_AGENT = "source_service_to_agent"
    DEST_SERVICE_TO_AGENT = "dest_service_to_agent"
    AGENT_TO_SOURCE_SERVICE = "agent_to_source_service"
    AGENT_TO_DEST_SERVICE = "agent_to_dest_service"
    AGENT_TO_SERVICE_INSTANCE = "agent_to_service_instance"
    SERVICE_INSTANCE_TO_AGENT = "service_instance_to_agent"


_MSG_TYPES = {t.value: t for t in MessageType}
_SUB_TYPES = {s.value: s for s in SubType}


class StatusClass(Enum):
    INFORMATIONAL = 1
    SUCCESSFUL = 2
    REDIRECTION = 3
    REQUESTER_ERROR = 4
    RESPONDENT_ERROR = 5


def status_class(code: int) -> StatusClass:
    """Class of a three-digit status code; raises ValueError outside 100-599."""
    if not 100 <= code <= 599:
        raise ValueError(f"status code out of range: {code}")
    return StatusClass(code // 100)


def is_success(code: int) -> bool:
    return 200 <= code <= 299


# Code assignments used by the actors (the protocol adopts HTTP classes,
# concrete values are this implementation's convention).
OK = 200
EXECUTED = 201
MALFORMED = 400
NOT_FOUND = 404
NO_BYTECODE = 406
CONFLICT = 409
ALREADY_CLOSED = 410
OVERLOADED = 429
INTERNAL_ERROR = 500
UNREACHABLE = 503
TIMEOUT = 504


# ---------------------------------------------------------------------------
# Field syntax

TOKEN_RE = re.compile(r"[A-Za-z0-9_.-]+\Z")

# line name -> value kind
FIELD_KINDS = {
    "agent_network_address": "address",
    "source_service_instance_network_address": "address",
    "dest_service_instance_network_address": "address",
    "service_repository": "name_list",
    "service_name": "token",
    "source_service_name": "token",
    "dest_service_name": "token",
    "service_instance_id": "id",
    "source_service_instance_id": "id",
    "dest_service_instance_id": "id",
    "socket_configuration": "socket_config",
    "plug_configuration": "plug_config",
    "source_plug_name": "token",
    "dest_socket_name": "token",
    "source_plug_port": "port",
    "dest_socket_port": "port",
    "dest_socket_new_port": "port",
    "status": "status",
}

_SOURCE_CLOSE_FIELDS = (
    "source_service_name",
    "source_service_instance_network_address",
    "source_service_instance_id",
    "source_plug_name",
    "source_plug_port",
    "dest_service_name",
    "dest_service_instance_network_address",
    "dest_socket_name",
    "dest_socket_port",
    "dest_socket_new_port",
)

_DEST_CLOSE_FIELDS = (
    "source_service_instance_network_address",
    "source_plug_name",
    "source_plug_port",
    "dest_service_name",
    "dest_service_instance_network_address",
    "dest_service_instance_id",
    "dest_socket_name",
    "dest_socket_port",
    "dest_socket_new_port",
)

# (msg_type, sub_type) -> ordered field names after the type/id/sub_type lines
TEMPLATES: dict[tuple[MessageType, SubType | None], tuple[str, ...]] = {
    (MessageType.INITIATION_REQUEST, None): (
        "agent_network_address",
        "service_repository",
    ),
    (MessageType.INITIATION_RESPONSE, None): ("status",),
    (MessageType.EXECUTION_REQUEST, None): (
        "agent_network_address",
        "service_name",
        "service_instance_id",
        "socket_configuration",
        "plug_configuration",
    ),
    (MessageType.EXECUTION_RESPONSE, None): ("status",),
    (MessageType.SESSION_REQUEST, SubType.SERVICE_TO_AGENT): (
        "source_service_name",
        "source_service_instance_id",
        "source_plug_name",
        "dest_service_name",
        "dest_socket_name",
    ),
    (MessageType.SESSION_REQUEST, SubType.AGENT_TO_MANAGER): (
        "agent_network_address",
        "source_service_name",
        "source_service_instance_id",
        "source_plug_name",
        "dest_service_name",
        "dest_socket_name",
    ),
    (MessageType.SESSION_RESPONSE, SubType.MANAGER_TO_AGENT): (
        "status",
        "dest_service_instance_network_address",
        "dest_socket_port",
    ),
    (MessageType.SESSION_RESPONSE, SubType.AGENT_TO_SERVICE): (
        "status",
        "dest_service_instance_network_address",
        "dest_socket_port",
    ),
    (MessageType.SESSION_ACK, SubType.SERVICE_TO_AGENT): (
        "status",
        "source_plug_port",
        "dest_socket_new_port",
    ),
    (MessageType.SESSION_ACK, SubType.AGENT_TO_MANAGER): (
        "status",
        "source_plug_port",
        "dest_socket_new_port",
    ),
    (MessageType.SOURCE_SESSION_CLOSE_INFO, SubType.SOURCE_SERVICE_TO_AGENT):
        _SOURCE_CLOSE_FIELDS,
    (MessageType.SOURCE_SESSION_CLOSE_INFO, SubType.AGENT_TO_MANAGER):
        _SOURCE_CLOSE_FIELDS,
    (MessageType.DEST_SESSION_CLOSE_INFO, SubType.DEST_SERVICE_TO_AGENT):
        _DEST_CLOSE_FIELDS,
    (MessageType.DEST_SESSION_CLOSE_INFO, SubType.AGENT_TO_MANAGER):
        _DEST_CLOSE_FIELDS,
    (MessageType.SOURCE_SESSION_CLOSE_REQUEST, SubType.MANAGER_TO_AGENT):
        _SOURCE_CLOSE_FIELDS,
    (MessageType.SOURCE_SESSION_CLOSE_REQUEST, SubType.AGENT_TO_SOURCE_SERVICE):
        _SOURCE_CLOSE_FIELDS,
    (MessageType.SOURCE_SESSION_CLOSE_RESPONSE, SubType.SOURCE_SERVICE_TO_AGENT):
        ("status",),
    (MessageType.SOURCE_SESSION_CLOSE_RESPONSE, SubType.AGENT_TO_MANAGER):
        ("status",),
    (MessageType.DEST_SESSION_CLOSE_REQUEST, SubType.MANAGER_TO_AGENT):
        _DEST_CLOSE_FIELDS,
    (MessageType.DEST_SESSION_CLOSE_REQUEST, SubType.AGENT_TO_DEST_SERVICE):
        _DEST_CLOSE_FIELDS,
    (MessageType.DEST_SESSION_CLOSE_RESPONSE, SubType.DEST_SERVICE_TO_AGENT):
        ("status",),
    (MessageType.DEST_SESSION_CLOSE_RESPONSE, SubType.AGENT_TO_MANAGER):
        ("status",),
    (MessageType.GRACEFUL_SHUTDOWN_REQUEST, SubType.MANAGER_TO_AGENT): (
        "service_name",
        "service_instance_id",
    ),
    (MessageType.GRACEFUL_SHUTDOWN_REQUEST, SubType.AGENT_TO_SERVICE_INSTANCE): (
        "service_name",
        "service_instance_id",
    ),
    (MessageType.GRACEFUL_SHUTDOWN_RESPONSE, SubType.SERVICE_INSTANCE_TO_AGENT):
        ("status",),
    (MessageType.GRACEFUL_SHUTDOWN_RESPONSE, SubType.AGENT_TO_MANAGER):
        ("status",),
    (MessageType.HARD_SHUTDOWN_REQUEST, SubType.MANAGER_TO_AGENT): (
        "service_name",
        "service_instance_id",
    ),
    (MessageType.HARD_SHUTDOWN_RESPONSE, SubType.AGENT_TO_MANAGER): ("status",),
    (MessageType.HEALTH_CONTROL_REQUEST, SubType.AGENT_TO_SERVICE_INSTANCE): (
        "service_name",
        "service_instance_id",
    ),
    (MessageType.HEALTH_CONTROL_RESPONSE, SubType.SERVICE_INSTANCE_TO_AGENT): (
        "service_name",
        "service_instance_id",
        "status",
    ),
    (MessageType.HEALTH_CONTROL_RESPONSE, SubType.AGENT_TO_MANAGER): (
        "service_name",
        "service_instance_id",
        "status",
    ),
}

SUB_TYPES_OF: dict[MessageType, tuple[SubType | None, ...]] = {}
for (_t, _s) in TEMPLATES:
    SUB_TYPES_OF.setdefault(_t, ())
    SUB_TYPES_OF[_t] += (_s,)


# ---------------------------------------------------------------------------
# Errors

class MessageError(Exception):
    """Base for wire-level failures."""


class WireSyntaxError(MessageError):
    """Bytes do not form well-shaped lines, or a field value fails its syntax."""


class UnknownTypeError(MessageError):
    """Unknown message type, or a sub_type not legal for the type."""


class TemplateMismatchError(MessageError):
    """Line names, order, or count deviate from the template."""


class InvalidMessage(MessageError):
    """A Message value failed validation on the serialize side."""

    def __init__(self, issues: list[ValidationIssue]):
        self.issues = issues
        super().__init__("; ".join(str(i) for i in issues))


@dataclass(frozen=True)
class ValidationIssue:
    code: str  # UnknownType | TemplateMismatch | FieldSyntax | FieldRange
    detail: str

    def __str__(self) -> str:
        return f"{self.code}: {self.detail}"


# ---------------------------------------------------------------------------
# Message value

@dataclass(frozen=True)
class Message:
    """One protocol unit; immutable and safe to share.

    `checked` is true only for a message that was checked against its
    template when it was built or received; it takes no part in `==`,
    `hash` or `repr`.
    """

    msg_type: MessageType
    message_id: int
    sub_type: SubType | None = None
    fields: tuple[tuple[str, str], ...] = ()
    checked: bool = field(default=False, compare=False, repr=False)

    def get(self, name: str) -> str:
        for k, v in self.fields:
            if k == name:
                return v
        raise KeyError(name)

    def get_int(self, name: str) -> int:
        return int(self.get(name))

    @property
    def status(self) -> int:
        return self.get_int("status")

    def field_names(self) -> tuple[str, ...]:
        return tuple(k for k, _ in self.fields)


def make_message(
    msg_type: MessageType,
    message_id: int,
    sub_type: SubType | None = None,
    **values: object,
) -> Message:
    """Build a message with fields ordered by the template.

    Integer values are formatted; list fields must already be formatted text
    (use format_name_list / format_pair_list). Raises InvalidMessage on any
    missing/extra value or template violation; the message returned is
    `checked`.
    """
    compiled = _COMPILED.get((msg_type, sub_type))
    if compiled is None:
        raise InvalidMessage([ValidationIssue(
            "UnknownType", f"no template for ({msg_type.value}, {sub_type})")])
    fields = []
    issues = []
    for name, check in compiled.checks:
        if name not in values:
            raise InvalidMessage([ValidationIssue(
                "TemplateMismatch", f"missing field {name}")])
        text = str(values.pop(name))
        issue = check(text)
        if issue is not None:
            issues.append(issue)
        fields.append((name, text))
    if values:
        raise InvalidMessage([ValidationIssue(
            "TemplateMismatch", f"extra fields {sorted(values)}")])
    if message_id < 1:
        issues.insert(0, ValidationIssue("FieldRange", "message_id must be positive"))
    if issues:
        raise InvalidMessage(issues)
    return Message(msg_type, message_id, sub_type, tuple(fields), checked=True)


# ---------------------------------------------------------------------------
# List formats:  (a; b; c)  and  ((x, y); (z, w))

_PAIR_RE = re.compile(r"\(([A-Za-z0-9_.-]+), ([A-Za-z0-9_.-]+)\)\Z")


def format_name_list(names: Sequence[str]) -> str:
    for n in names:
        if not TOKEN_RE.match(n):
            raise WireSyntaxError(f"illegal token {n!r}")
    return "(" + "; ".join(names) + ")"


def parse_name_list(text: str) -> list[str]:
    if not (text.startswith("(") and text.endswith(")")):
        raise WireSyntaxError(f"list not parenthesized: {text!r}")
    inner = text[1:-1]
    if inner == "":
        return []
    names = inner.split("; ")
    for n in names:
        if not TOKEN_RE.match(n):
            raise WireSyntaxError(f"illegal token {n!r} in list {text!r}")
    return names


def format_pair_list(pairs: Sequence[tuple[str, object]]) -> str:
    parts = []
    for a, b in pairs:
        if not TOKEN_RE.match(a) or not TOKEN_RE.match(str(b)):
            raise WireSyntaxError(f"illegal pair ({a!r}, {b!r})")
        parts.append(f"({a}, {b})")
    return "(" + "; ".join(parts) + ")"


def parse_pair_list(text: str) -> list[tuple[str, str]]:
    if not (text.startswith("(") and text.endswith(")")):
        raise WireSyntaxError(f"pair list not parenthesized: {text!r}")
    inner = text[1:-1]
    if inner == "":
        return []
    pairs = []
    for part in inner.split("; "):
        m = _PAIR_RE.match(part)
        if not m:
            raise WireSyntaxError(f"malformed pair {part!r} in {text!r}")
        pairs.append((m.group(1), m.group(2)))
    return pairs


def parse_socket_config(text: str) -> list[tuple[str, int]]:
    out = []
    for name, port in parse_pair_list(text):
        if not port.isdigit() or not 1 <= int(port) <= 65535:
            raise WireSyntaxError(f"port out of range in pair ({name}, {port})")
        out.append((name, int(port)))
    return out


def parse_plug_config(text: str) -> list[tuple[str, str]]:
    return parse_pair_list(text)


# ---------------------------------------------------------------------------
# Validation: one check per field name, built at import from FIELD_KINDS

_CANONICAL_INT_RE = re.compile(r"(0|[1-9][0-9]*)\Z")
_POSITIVE_INT_RE = re.compile(r"[1-9][0-9]*\Z")
_STATUS_RE = re.compile(r"[0-9]{3}\Z")

# A field check returns the value's issue, or None when the value is good.
FieldCheck = Callable[[str], ValidationIssue | None]


@functools.lru_cache(maxsize=4096)
def _is_address(value: str) -> bool:
    """Whether `value` is an IP address; a cluster's addresses are few and
    recur in nearly every message."""
    try:
        ipaddress.ip_address(value)
    except ValueError:
        return False
    return True


def _token_check(name: str) -> FieldCheck:
    def check(value: str) -> ValidationIssue | None:
        if not TOKEN_RE.match(value):
            return ValidationIssue("FieldSyntax", f"{name}: bad token {value!r}")
        return None
    return check


def _id_check(name: str) -> FieldCheck:
    def check(value: str) -> ValidationIssue | None:
        if not _CANONICAL_INT_RE.match(value):
            return ValidationIssue("FieldSyntax", f"{name}: not an integer {value!r}")
        if int(value) < 1:
            return ValidationIssue("FieldRange", f"{name}: must be positive")
        return None
    return check


def _port_check(name: str) -> FieldCheck:
    def check(value: str) -> ValidationIssue | None:
        if not _CANONICAL_INT_RE.match(value):
            return ValidationIssue("FieldSyntax", f"{name}: not an integer {value!r}")
        if not 1 <= int(value) <= 65535:
            return ValidationIssue("FieldRange", f"{name}: port {value} out of 1-65535")
        return None
    return check


def _status_check(name: str) -> FieldCheck:
    def check(value: str) -> ValidationIssue | None:
        if not _STATUS_RE.match(value):
            return ValidationIssue("FieldSyntax", f"{name}: not a 3-digit code {value!r}")
        if not 100 <= int(value) <= 599:
            return ValidationIssue("FieldRange", f"{name}: code {value} out of 100-599")
        return None
    return check


def _address_check(name: str) -> FieldCheck:
    def check(value: str) -> ValidationIssue | None:
        if not _is_address(value):
            return ValidationIssue("FieldSyntax", f"{name}: bad address {value!r}")
        return None
    return check


def _list_check(parse: Callable[[str], object]) -> Callable[[str], FieldCheck]:
    def make(name: str) -> FieldCheck:
        def check(value: str) -> ValidationIssue | None:
            try:
                parse(value)
            except WireSyntaxError as e:
                return ValidationIssue("FieldSyntax", f"{name}: {e}")
            return None
        return check
    return make


_CHECK_OF_KIND: dict[str, Callable[[str], FieldCheck]] = {
    "token": _token_check,
    "id": _id_check,
    "port": _port_check,
    "status": _status_check,
    "address": _address_check,
    "name_list": _list_check(parse_name_list),
    "socket_config": _list_check(parse_socket_config),
    "plug_config": _list_check(parse_plug_config),
}

# line name -> the check of its value
FIELD_CHECKS: dict[str, FieldCheck] = {
    name: _CHECK_OF_KIND[kind](name) for name, kind in FIELD_KINDS.items()}


class _Compiled(NamedTuple):
    """A template with each field name paired with its check."""

    msg_type: MessageType
    sub_type: SubType | None
    checks: tuple[tuple[str, FieldCheck], ...]


_COMPILED: dict[tuple[MessageType, SubType | None], _Compiled] = {
    (t, s): _Compiled(t, s, tuple((name, FIELD_CHECKS[name]) for name in names))
    for (t, s), names in TEMPLATES.items()}

# (type line text, sub_type line text or None) -> compiled template
_BY_WIRE_TEXT: dict[tuple[str, str | None], _Compiled] = {
    (t.value, s.value if s else None): c for (t, s), c in _COMPILED.items()}


def validate_message(m: Message) -> list[ValidationIssue]:
    """Template and field-level checks; returns all issues, never raises."""
    issues: list[ValidationIssue] = []
    template = TEMPLATES.get((m.msg_type, m.sub_type))
    if template is None:
        issues.append(ValidationIssue(
            "UnknownType",
            f"({m.msg_type.value}, {m.sub_type.value if m.sub_type else None}) "
            "is not a known template"))
        return issues
    if m.message_id < 1:
        issues.append(ValidationIssue("FieldRange", "message_id must be positive"))
    names = m.field_names()
    if names != template:
        if sorted(names) == sorted(template):
            issues.append(ValidationIssue(
                "TemplateMismatch", f"field order {names} != template {template}"))
        else:
            missing = [n for n in template if n not in names]
            extra = [n for n in names if n not in template]
            dup = [n for n in set(names) if names.count(n) > 1]
            detail = []
            if missing:
                detail.append(f"missing {missing}")
            if extra:
                detail.append(f"extra {extra}")
            if dup:
                detail.append(f"duplicate {dup}")
            issues.append(ValidationIssue("TemplateMismatch", ", ".join(detail)))
    for name, value in m.fields:
        check = FIELD_CHECKS.get(name)
        if check is None:
            continue  # already reported as extra
        issue = check(value)
        if issue:
            issues.append(issue)
    return issues


# ---------------------------------------------------------------------------
# Codec

def serialize_message(m: Message) -> bytes:
    """Lines + one empty terminator line, LF-separated, UTF-8.

    A message that is not `checked` is validated first and raises
    InvalidMessage on any issue.
    """
    if not m.checked:
        issues = validate_message(m)
        if issues:
            raise InvalidMessage(issues)
    lines = [f"type: {m.msg_type.value}", f"message_id: {m.message_id}"]
    if m.sub_type is not None:
        lines.append(f"sub_type: {m.sub_type.value}")
    lines += [f"{k}: {v}" for k, v in m.fields]
    return ("\n".join(lines) + "\n\n").encode("utf-8")


# Every line name a template uses; each is a token.
_LINE_NAMES = frozenset(("type", "message_id", "sub_type", *FIELD_KINDS))


def _split_lines(data: bytes) -> list[tuple[str, str]]:
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise WireSyntaxError(f"not UTF-8: {e}") from None
    if not text:
        raise WireSyntaxError("empty input")
    if not text.endswith("\n\n"):
        raise WireSyntaxError("message not terminated by an empty line")
    body = text[:-2]
    if body == "":
        raise WireSyntaxError("message has no lines")
    parsed = []
    for raw in body.split("\n"):
        # A name is a token, so it holds no ": " and ends at the first one.
        name, sep, value = raw.partition(": ")
        if not sep or (name not in _LINE_NAMES and not TOKEN_RE.match(name)):
            raise WireSyntaxError(f"malformed line {raw!r}")
        parsed.append((name, value))
    return parsed


def parse_message(data: bytes) -> Message:
    """Parse one framed message; inverse of serialize_message.

    Raises WireSyntaxError, UnknownTypeError, or TemplateMismatchError;
    never anything else. The message returned is `checked`.
    """
    lines = _split_lines(data)
    n = len(lines)
    if n > 2 and lines[2][0] == "sub_type":
        compiled = _BY_WIRE_TEXT.get((lines[0][1], lines[2][1]))
        start = 3
    else:
        compiled = _BY_WIRE_TEXT.get((lines[0][1], None))
        start = 2
    if (compiled is not None and n - start == len(compiled.checks)
            and lines[0][0] == "type" and lines[1][0] == "message_id"
            and _POSITIVE_INT_RE.match(lines[1][1])):
        fields = lines[start:]
        for (name, value), (want, check) in zip(fields, compiled.checks):
            if name != want or check(value) is not None:
                break
        else:
            return Message(compiled.msg_type, int(lines[1][1]),
                           compiled.sub_type, tuple(fields), checked=True)
    _reject(lines)


def _reject(lines: list[tuple[str, str]]) -> NoReturn:
    """Raise the error that names the first fault of lines that
    parse_message did not accept."""
    name, value = lines[0]
    if name != "type":
        raise TemplateMismatchError(f"first line must be type, got {name!r}")
    msg_type = _MSG_TYPES.get(value)
    if msg_type is None:
        raise UnknownTypeError(f"unknown message type {value!r}")
    if len(lines) < 2:
        raise TemplateMismatchError("missing message_id line")
    name, value = lines[1]
    if name != "message_id":
        raise TemplateMismatchError(f"second line must be message_id, got {name!r}")
    if not _POSITIVE_INT_RE.match(value):
        raise WireSyntaxError(f"message_id not a positive integer: {value!r}")
    message_id = int(value)

    sub_type: SubType | None = None
    rest = lines[2:]
    if None not in SUB_TYPES_OF[msg_type]:
        if not rest or rest[0][0] != "sub_type":
            raise TemplateMismatchError(f"{msg_type.value} requires a sub_type line")
        sub_type = _SUB_TYPES.get(rest[0][1])
        if sub_type is None or (msg_type, sub_type) not in TEMPLATES:
            raise UnknownTypeError(
                f"sub_type {rest[0][1]!r} not legal for {msg_type.value}")
        rest = rest[1:]
    elif rest and rest[0][0] == "sub_type":
        raise TemplateMismatchError(f"{msg_type.value} takes no sub_type")

    # The header is good, so the fault the fast path met is in the fields.
    first = validate_message(
        Message(msg_type, message_id, sub_type, tuple(rest)))[0]
    if first.code == "TemplateMismatch":
        raise TemplateMismatchError(str(first))
    if first.code == "UnknownType":
        raise UnknownTypeError(str(first))
    raise WireSyntaxError(str(first))


class MessageReader:
    """Incremental framing over a byte stream: feed chunks, get messages."""

    def __init__(self) -> None:
        self._buf = b""

    def feed(self, data: bytes) -> list[Message]:
        """The messages completed by `data`. A frame that fails to parse
        raises, and is dropped with the messages completed before it; the
        frames after it stay buffered."""
        buf = self._buf + data
        out = []
        start = 0
        try:
            while True:
                idx = buf.find(b"\n\n", start)
                if idx < 0:
                    break
                frame = buf[start:idx + 2]
                start = idx + 2
                out.append(parse_message(frame))
        finally:
            self._buf = buf[start:]
        return out


class IdCounter:
    """Per-originator monotonic message_id source, starting at 1."""

    def __init__(self) -> None:
        self._next = 1

    def next(self) -> int:
        n = self._next
        self._next += 1
        return n


def message_summary(m: Message) -> str:
    """One-line rendering used in traces and reports."""
    parts = [f"type: {m.msg_type.value}", f"message_id: {m.message_id}"]
    if m.sub_type is not None:
        parts.append(f"sub_type: {m.sub_type.value}")
    parts.extend(f"{k}: {v}" for k, v in m.fields)
    return " | ".join(parts)


def parse_summary(line: str) -> Message:
    """Inverse of message_summary (used by the trace CLI)."""
    data = (line.replace(" | ", "\n") + "\n\n").encode("utf-8")
    return parse_message(data)
