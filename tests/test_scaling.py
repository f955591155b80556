"""Scaling gates: the work of one operation, counted at two sizes.

A simulated run does the same work for the same inputs, so the number of
Python lines that one operation executes (`sys.settrace` line events, which
also count each iteration inside a comprehension) shows a cost that grows
with live state, where a wall-time check would drown in the host's noise.
This is empirical complexity measurement, as in trend-prof (Goldsmith,
Aiken and Wilkerson, FSE 2007)."""

import statistics
import sys

from conftest import FIXTURES

from ssmmp import wire
from ssmmp.cluster import Cluster, NodeDef
from ssmmp.graph import parse_graph_file
from ssmmp.harness.conformance import golden_messages
from ssmmp.manager import InstanceState, Manager, SessionState
from ssmmp.transport import SimNetwork

MAX_GROWTH = 1.2
SAMPLES = 5  # opens counted at each size; a tick may land in one of them


class _OverLimit(Exception):
    pass


def _count_lines(fn, limit: float | None = None) -> int:
    """The line events of `fn()`. Past `limit` of them, `fn` is stopped,
    so that a gate decides a quadratic path without running it through."""
    lines = 0

    def local(frame, event, arg):
        nonlocal lines
        if event == "line":
            lines += 1
            if limit is not None and lines > limit:
                raise _OverLimit
        return local

    sys.settrace(lambda frame, event, arg: local)
    try:
        fn()
    except _OverLimit:
        pass
    finally:
        sys.settrace(None)
    return lines


class _Rig:
    """fig1_full with A and B on one node, A.1 booted: opens of its plug P
    to B are the operation."""

    def __init__(self):
        graph = parse_graph_file((FIXTURES / "fig1_full.graph").read_text())
        self.net = SimNetwork(seed=1)
        self.cluster = Cluster(self.net, [graph], "fd00::1",
                               [NodeDef("fd00::a1", ["A", "B"])])
        self.manager = self.cluster.manager
        self.cluster.start()
        self._run_until(lambda: all(a.registered
                                    for a in self.cluster.agents.values()))
        self.manager.start_app()
        self._run_until(lambda: self.manager.running_instances("A"))
        self.source = self.cluster.runtime("A", 1)
        self.held: list = []

    def _run_until(self, done) -> None:
        for _ in range(20_000):
            if done():
                return
            self.net.step()
        raise AssertionError("the simulator did not get there")

    def open(self):
        before = len(self.manager.sessions)
        got: list = []
        self.source.open_session(
            "P", on_established=lambda _rt, handle: got.append(handle))
        self._run_until(lambda: got and len(self.manager.sessions) > before)
        return got[0]

    def hold(self, n: int) -> None:
        while len(self.held) < n:
            self.held.append(self.open())

    def lines_per_open(self) -> float:
        """The median lines of SAMPLES opens, each closed again untraced, so
        the number of held sessions stays as it was."""
        counts = []
        for _ in range(SAMPLES):
            got = []
            counts.append(_count_lines(lambda: got.append(self.open())))
            record = self.manager.sessions[-1]
            self.source.close_session(got[0])
            self._run_until(lambda: record.state is SessionState.CLOSED)
        return statistics.median(counts)

    def pair(self) -> None:
        """Open P and close it again."""
        handle = self.open()
        record = self.manager.sessions[-1]
        self.source.close_session(handle)
        self._run_until(lambda: record.state is SessionState.CLOSED)

    def lines_per_pair(self) -> float:
        return statistics.median(_count_lines(self.pair)
                                 for _ in range(SAMPLES))

    def cycle(self, service: str, n: int) -> None:
        """Exec one more `service` and shut it down gracefully, n times."""
        for _ in range(n):
            self.manager.execute_instance(service)
            record = list(self.manager.instances.values())[-1]
            self._run_until(lambda: record.state is InstanceState.RUNNING)
            self.manager.request_graceful_shutdown(record)
            self._run_until(lambda: record.state is InstanceState.CLOSED)


def _open_growth() -> float:
    """Lines per open at 1,000 held sessions over lines per open at 10."""
    rig = _Rig()
    rig.hold(10)
    small = rig.lines_per_open()
    rig.hold(1_000)
    return rig.lines_per_open() / small


def test_open_cost_does_not_grow_with_held_sessions(monkeypatch):
    assert _open_growth() <= MAX_GROWTH

    # A scan of every session record per request, as a bug would add:
    # the gate must see it.
    handle_session_request = Manager.handle_session_request

    def scanning(manager, addr, msg):
        [s for s in manager.sessions if s.touches_node(addr)]
        handle_session_request(manager, addr, msg)

    monkeypatch.setattr(Manager, "handle_session_request", scanning)
    assert _open_growth() > MAX_GROWTH


def _cycle_growth() -> float:
    """Lines per open/close pair after 2,000 exec and graceful-shutdown
    cycles of B over lines per pair before them."""
    rig = _Rig()
    rig.pair()  # boots B
    before = rig.lines_per_pair()
    rig.cycle("B", 2_000)
    return rig.lines_per_pair() / before


def test_pair_cost_does_not_grow_with_ended_instances(monkeypatch):
    assert _cycle_growth() <= MAX_GROWTH

    # Ended instances walked on every choice of a running one: the gate
    # must see it.
    running_instances = Manager.running_instances

    def walking(manager, service):
        [r for r in manager.closed_instances.values() if r.service == service]
        return running_instances(manager, service)

    monkeypatch.setattr(Manager, "running_instances", walking)
    assert _cycle_growth() > MAX_GROWTH


ACK_FRAME = wire.serialize_message(
    dict(golden_messages())["session_ack__agent_to_Manager"])


def _lines_per_frame(frames: int, limit: float | None = None) -> float:
    """The lines of one `MessageReader.feed` of `frames` session_ack
    frames, per frame."""
    data = ACK_FRAME * frames
    reader = wire.MessageReader()
    got = []
    lines = _count_lines(lambda: got.extend(reader.feed(data)), limit)
    assert len(got) == frames or (limit is not None and lines > limit)
    return lines / frames


def _frame_growth() -> float:
    """Lines per frame of a feed of 16,000 frames over those of a feed of
    one; the large feed is stopped once it is past the bound."""
    _lines_per_frame(1)  # warms the parser's caches
    one = _lines_per_frame(1)
    frames = 16_000
    return _lines_per_frame(frames, MAX_GROWTH * one * frames) / one


def test_frame_cost_does_not_grow_with_frames_in_one_chunk(monkeypatch):
    assert _frame_growth() <= MAX_GROWTH

    # A feed that walks the frames it already took, once per frame: the
    # gate must see it.
    feed = wire.MessageReader.feed

    def walking(reader, data):
        out = []
        for msg in feed(reader, data):
            [m for m in out]
            out.append(msg)
        return out

    monkeypatch.setattr(wire.MessageReader, "feed", walking)
    assert _frame_growth() > MAX_GROWTH
