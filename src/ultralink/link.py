"""Link layer: per-node protocol state machine and the two-node session engine.

Each node is an event-driven state machine (`step`): discovery broadcasts
with random delays and an ID-collision rule, then a virtual-token MAC in
which the token holder transmits one burst (ACQUIRE, pending feedback,
a window of DATA frames, RELEASE) bounded by T_max and waits.  The peer
answers with a feedback turn carrying one batch ACK (highest in-order
sequence) plus RETRANSMIT requests for gaps.  Loss of any frame, including
RELEASE or the whole feedback turn, is recovered by inactivity/response
timeouts.  `step` returns only what needs the air or the clock:
`Transmit`, `SetTimer` and `CancelTimer`.

`run_session` drives two nodes over a simulated channel with a discrete
event loop.  It retasks a node to SPEAKER and back to MIC around each
`Transmit`, and logs phase, id and delivery changes from the node's state.
A receiver recovers each burst through one hearing function, by default
audio (`burst.heard_burst`): the burst's bit slots at the nodes' shared
bit rate are added up from the channel's filtered slot tones in the BER
cells' runs of whole slots (the channel is linear), each run gets its
share of the noise seeded per burst on its way into one buffer, and
`recover_frames` scans the result — so corruption and retransmission
emerge physically.  One clock per node, the time its transducer last
settled as a MIC, decides both what it hears and when its timers fire: it
hears a burst only if it stayed in MIC for the burst's whole flight, and a
timer that comes due while it speaks or retasks waits until it settles.
Turn-starting timers are also deferred while a peer burst is audibly in
flight (energy-based carrier sensing, modeled as exact), until one retask
after its end arrives, by when its sender has settled as a MIC.  A one-way
stream (`unidirectional_schedule`) hears its one burst, whole, through the
same hearing function; it has no receiver start time to set.

Everything is deterministic given the session seed: node RNGs, jitters,
and per-burst channel noise all derive from it.
"""

from __future__ import annotations

import copy
import enum
import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from . import burst as bursts
from . import framing
from .channel import ChannelModel
from .channel import propagate  # noqa: F401  (link.propagate: the bench tracer wraps it)
from .framing import SEQ_WINDOW, ControlMessage, MessageKind, Reassembler, resolve_seq
from .modem import ConfigError, ModemConfig


class ProtocolError(Exception):
    """Raised for an out-of-order event, or an event or action of no known kind."""


class Phase(str, enum.Enum):
    DISCOVERING = "DISCOVERING"
    DISCOVERED = "DISCOVERED"
    IDLE = "IDLE"
    HOLDING_TOKEN = "HOLDING_TOKEN"
    LISTENING = "LISTENING"


class TimerKind(str, enum.Enum):
    DISCOVERY_BROADCAST = "DISCOVERY_BROADCAST"
    DISCOVERY_ACK_WAIT = "DISCOVERY_ACK_WAIT"
    TURN_START = "TURN_START"
    TURN_SENT = "TURN_SENT"
    RESPONSE_WAIT = "RESPONSE_WAIT"
    INACTIVITY = "INACTIVITY"


# ---------------------------------------------------------------- events

@dataclass(frozen=True)
class FrameReceived:
    time: float
    message: ControlMessage


@dataclass(frozen=True)
class Timeout:
    time: float
    kind: TimerKind


LinkEvent = Union[FrameReceived, Timeout]


# ---------------------------------------------------------------- actions

@dataclass(frozen=True)
class Transmit:
    """Retask to SPEAKER, send `messages` as one burst, retask to MIC: each
    retask takes RETASK_LATENCY."""

    messages: tuple[ControlMessage, ...]


@dataclass(frozen=True)
class SetTimer:
    kind: TimerKind
    delay: float  # relative to completion of the preceding actions


@dataclass(frozen=True)
class CancelTimer:
    kind: TimerKind


LinkAction = Union[Transmit, SetTimer, CancelTimer]


# ---------------------------------------------------------------- config

MIN_TURN_FRAMES = 3  # ACQUIRE, one DATA frame, RELEASE
DISCOVERY_WINDOW = 5.0  # broadcasts at random delays in [0, this]
MAX_RETRANSMIT_PER_TURN = 16  # RETRANSMIT requests in one feedback turn, at most
RETASK_LATENCY = 0.05  # SPEAKER<->MIC switch time, the same on every node


@dataclass(frozen=True)
class LinkConfig:
    """Per-node protocol parameters on top of the modem config."""

    modem: ModemConfig = field(default_factory=ModemConfig)
    t_max: float = 10.0               # max token hold, seconds of air

    def __post_init__(self):
        if not 0 < self.t_max < math.inf:
            raise ConfigError(f"t_max must be positive and finite, got {self.t_max}")
        frames = _turn_frames(self)
        if frames < MIN_TURN_FRAMES:
            raise ConfigError(
                f"a {self.t_max} s turn at {self.modem.bit_rate} bit/s holds fewer than "
                f"the {MIN_TURN_FRAMES} frames of ACQUIRE, DATA and RELEASE"
            )
        if frames > SEQ_WINDOW:
            raise ConfigError(
                f"a {self.t_max} s turn at {self.modem.bit_rate} bit/s holds {frames} frames, "
                f"more than the {SEQ_WINDOW}-chunk seq window"
            )


# ---------------------------------------------------------------- state

@dataclass
class NodeState:
    """Everything one node knows; mutated only through `step`."""

    cfg: LinkConfig
    node_id: int
    rng: np.random.Generator
    name: str = "A"
    phase: Phase = Phase.DISCOVERING
    last_event_time: float = -math.inf
    # discovery
    peer_id: Optional[int] = None
    broadcast_rounds: int = 0
    rerandomizations: int = 0
    # outgoing transfer
    tx_queue: tuple[ControlMessage, ...] = ()   # DATA messages, by chunk index
    tx_unacked: list[int] = field(default_factory=list)
    tx_highest_sent: int = -1
    awaiting_feedback: bool = False
    turn_counter: int = 0
    # incoming transfer
    rx: Reassembler = field(default_factory=Reassembler)
    got_data_since_feedback: bool = False
    delivered: Optional[bytes] = None
    last_discovery_acked: Optional[tuple[int, float]] = None
    # token view
    token_free: bool = True


def make_node(
    cfg: LinkConfig,
    seed: int,
    name: str,
    payload: Optional[bytes] = None,
    node_id: Optional[int] = None,
) -> NodeState:
    """Fresh node: random 8-bit id unless `node_id` gives one, optional
    outgoing payload queued."""
    if node_id is not None and not (isinstance(node_id, (int, np.integer)) and 0 <= node_id < 256):
        raise ValueError(f"node id {node_id!r} is not an int in [0, 255]")
    rng = np.random.default_rng(np.random.SeedSequence((seed, ord(name))))
    state = NodeState(
        cfg=cfg,
        node_id=int(rng.integers(0, 256)) if node_id is None else int(node_id),
        rng=rng,
        name=name,
    )
    if payload:
        state.tx_queue = tuple(framing.pack_payload(payload))
        state.tx_unacked = list(range(len(state.tx_queue)))
    return state


# ------------------------------------------------------- timing helpers

def _discovery_ack_wait(st: NodeState) -> float:
    # the nominal 5 s wait cannot see an ack at very low bit rates, where
    # a single frame outlasts it; scale with airtime
    airtime = bursts.frame_airtime(st.cfg.modem)
    return max(DISCOVERY_WINDOW, 2 * airtime + 2 * RETASK_LATENCY + 0.5)


def _inactivity_wait(st: NodeState) -> float:
    return 3 * bursts.frame_airtime(st.cfg.modem) + 0.5


def _response_wait(st: NodeState) -> float:
    # must outlast the peer's inactivity fallback plus a full feedback turn
    return _inactivity_wait(st) + st.cfg.t_max + 2 * RETASK_LATENCY + 1.0


def _broadcast_delay(st: NodeState) -> float:
    return float(_rng(st).uniform(0.0, DISCOVERY_WINDOW))


def _reactive_delay(st: NodeState) -> float:
    # the holder settles one retask after its burst ends, which is heard a
    # flight time later: a start one retask after that comes after it settles
    return RETASK_LATENCY + float(_rng(st).uniform(0.0, 0.1))


def _spontaneous_delay(st: NodeState) -> float:
    # disjoint windows by node id so two data holders cannot race into a
    # turn inside each other's retask blind spot
    if st.peer_id is not None and st.node_id < st.peer_id:
        return float(_rng(st).uniform(0.3, 0.8))
    return float(_rng(st).uniform(1.3, 1.8))


def _turn_frames(cfg: LinkConfig) -> int:
    """The most frames n with burst_length(n) / fs <= cfg.t_max, the bound
    `verify_trace` checks; SEQ_WINDOW + 1 stands for any count beyond it."""
    modem = cfg.modem
    fs = modem.sample_rate
    n = int(min(cfg.t_max * fs / bursts.frame_period(modem), SEQ_WINDOW)) + 1
    while bursts.burst_length(n, modem) / fs > cfg.t_max:
        n -= 1
    return n


# ---------------------------------------------------------------- step

def _rng(st: NodeState) -> np.random.Generator:
    """`st`'s generator to draw from, first rebound to an independent one at
    the same point of the same stream: the state `step` was given shares it."""
    bit_generator = type(st.rng.bit_generator)(0)
    bit_generator.state = st.rng.bit_generator.state
    st.rng = np.random.Generator(bit_generator)
    return st.rng


def step(state: NodeState, event: LinkEvent) -> tuple[NodeState, list[LinkAction]]:
    """Advance one node by one event.

    Pure with respect to its inputs: the passed state is never mutated,
    and the outcome is a function of (state, event, the node's RNG
    stream).  Out-of-order event times raise ProtocolError.
    """
    if event.time < state.last_event_time:
        raise ProtocolError(
            f"event at t={event.time} precedes last event t={state.last_event_time}"
        )
    st = copy.copy(state)  # handlers copy `rx` and the RNG before changing them
    st.last_event_time = event.time
    actions: list[LinkAction] = []
    if isinstance(event, Timeout):
        _on_timeout(st, event, actions)
    elif isinstance(event, FrameReceived):
        _on_frame(st, event, actions)
    else:
        raise ProtocolError(f"unknown event {event!r}")
    return st, actions


def _on_timeout(st: NodeState, event: Timeout, actions: list[LinkAction]) -> None:
    kind = event.kind
    if kind == TimerKind.DISCOVERY_BROADCAST:
        if st.phase != Phase.DISCOVERING:
            return
        st.broadcast_rounds += 1
        msg = ControlMessage(MessageKind.DISCOVERY, sender_id=st.node_id)
        # the beacon goes out twice per round: at the lossy operating
        # points a single 46-bit frame is dropped far too often for
        # discovery to settle within its round budget
        actions += [
            Transmit((msg, msg)),
            SetTimer(TimerKind.DISCOVERY_ACK_WAIT, _discovery_ack_wait(st)),
        ]
    elif kind == TimerKind.DISCOVERY_ACK_WAIT:
        if st.phase == Phase.DISCOVERING:
            actions.append(SetTimer(TimerKind.DISCOVERY_BROADCAST, _broadcast_delay(st)))
    elif kind == TimerKind.TURN_START:
        if st.phase in (Phase.DISCOVERED, Phase.IDLE, Phase.LISTENING) and st.token_free:
            _start_turn(st, actions)
    elif kind == TimerKind.TURN_SENT:
        _after_own_turn(st, actions)
    elif kind == TimerKind.RESPONSE_WAIT:
        if st.awaiting_feedback:
            st.awaiting_feedback = False
            st.token_free = True
            if st.tx_unacked or _owes_feedback(st):
                actions.append(SetTimer(TimerKind.TURN_START, _reactive_delay(st)))
    elif kind == TimerKind.INACTIVITY:
        # the peer's turn died mid-air; answer with whatever we know
        st.token_free = True
        if st.phase == Phase.LISTENING:
            st.phase = Phase.IDLE
        if _owes_feedback(st) or st.tx_unacked:
            actions.append(SetTimer(TimerKind.TURN_START, _reactive_delay(st)))


def _on_frame(st: NodeState, event: FrameReceived, actions: list[LinkAction]) -> None:
    msg = event.message
    kind = msg.kind
    if kind == MessageKind.DISCOVERY:
        if msg.sender_id == st.node_id and st.phase == Phase.DISCOVERING:
            # ID collision: first detector re-randomizes and rebroadcasts
            old, rng = st.node_id, _rng(st)
            while st.node_id == old:
                st.node_id = int(rng.integers(0, 256))
            st.rerandomizations += 1
            actions.append(SetTimer(TimerKind.DISCOVERY_BROADCAST, _broadcast_delay(st)))
            return
        if msg.sender_id == st.node_id:
            return  # stale echo after we already discovered; ignore
        st.peer_id = msg.sender_id
        if st.last_discovery_acked == (msg.sender_id, event.time):
            return  # repeated beacon copy within the same burst
        st.last_discovery_acked = (msg.sender_id, event.time)
        ack = ControlMessage(MessageKind.ACK_OK, sender_id=st.node_id, body=msg.sender_id)
        actions.append(Transmit((ack, ack)))
    elif kind == MessageKind.ACK_OK:
        if st.phase == Phase.DISCOVERING:
            if msg.body == st.node_id:
                st.phase = Phase.DISCOVERED
                st.peer_id = msg.sender_id if st.peer_id is None else st.peer_id
                actions += [
                    CancelTimer(TimerKind.DISCOVERY_BROADCAST),
                    CancelTimer(TimerKind.DISCOVERY_ACK_WAIT),
                ]
                if st.tx_unacked or _owes_feedback(st):
                    actions.append(SetTimer(TimerKind.TURN_START, _spontaneous_delay(st)))
            return
        _on_data_ack(st, msg)
    elif kind == MessageKind.RETRANSMIT:
        # honor the request even for chunks we believe were acked: a
        # CRC-passing corruption of an earlier ack batch can desynchronize
        # the two views, and the explicit request is the ground truth
        if st.tx_highest_sent >= 0:
            index = resolve_seq(msg.body, st.tx_highest_sent)
            if 0 <= index < len(st.tx_queue) and index not in st.tx_unacked:
                st.tx_unacked = sorted(st.tx_unacked + [index])
    elif kind == MessageKind.ACQUIRE:
        st.token_free = False
        if st.phase in (Phase.DISCOVERED, Phase.IDLE):
            st.phase = Phase.LISTENING
        actions.append(SetTimer(TimerKind.INACTIVITY, _inactivity_wait(st)))
    elif kind == MessageKind.DATA:
        _on_data(st, msg)
        actions.append(SetTimer(TimerKind.INACTIVITY, _inactivity_wait(st)))
    elif kind == MessageKind.RELEASE:
        st.token_free = True
        actions.append(CancelTimer(TimerKind.INACTIVITY))
        if st.phase == Phase.LISTENING and not st.awaiting_feedback:
            st.phase = Phase.IDLE
        want_turn = False
        if _owes_feedback(st):
            want_turn = True  # answer the turn with ack/retransmit state
        if st.awaiting_feedback:
            # peer's feedback turn just ended
            st.awaiting_feedback = False
            actions.append(CancelTimer(TimerKind.RESPONSE_WAIT))
            if st.tx_unacked:
                want_turn = True
        if want_turn:
            actions.append(SetTimer(TimerKind.TURN_START, _reactive_delay(st)))
    # BITRATE_INC and BITRATE_DEC are reserved kinds: decoded, and ignored


def _on_data(st: NodeState, msg: ControlMessage) -> None:
    # any data arrival, duplicate or not, means the peer lacks our ack
    st.got_data_since_feedback = True
    st.rx = st.rx.copy()
    st.rx.accept(st.rx.resolve(msg.seq), msg.body)
    if st.delivered is None and st.rx.complete:
        st.delivered = st.rx.result().data


def _on_data_ack(st: NodeState, msg: ControlMessage) -> None:
    if st.tx_highest_sent < 0:
        return
    acked_through = resolve_seq(msg.body, st.tx_highest_sent)
    st.tx_unacked = [i for i in st.tx_unacked if i > acked_through]


def _owes_feedback(st: NodeState) -> bool:
    """An incoming transfer is underway, or the peer resent data after we
    delivered (so our final ack was lost)."""
    if st.rx.max_seen < 0:
        return False
    return st.delivered is None or st.got_data_since_feedback


def _build_turn(st: NodeState) -> list[ControlMessage]:
    msgs = [ControlMessage(MessageKind.ACQUIRE, sender_id=st.node_id, seq=st.turn_counter % 256)]
    # feedback first: one batch ack plus retransmit requests for gaps
    if _owes_feedback(st):
        if st.rx.next_needed > 0:
            msgs.append(
                ControlMessage(
                    MessageKind.ACK_OK,
                    sender_id=st.node_id,
                    seq=st.turn_counter % 256,
                    body=(st.rx.next_needed - 1) % 256,
                )
            )
        for i in st.rx.gaps()[:MAX_RETRANSMIT_PER_TURN]:
            msgs.append(
                ControlMessage(
                    MessageKind.RETRANSMIT,
                    sender_id=st.node_id,
                    seq=st.turn_counter % 256,
                    body=i % 256,
                )
            )
    # then a window of data chunks, as many as fit under T_max
    room = _turn_frames(st.cfg) - len(msgs) - 1
    window = st.tx_unacked[: max(room, 0)]
    for index in window:
        msgs.append(st.tx_queue[index])
        st.tx_highest_sent = max(st.tx_highest_sent, index)
    msgs.append(ControlMessage(MessageKind.RELEASE, sender_id=st.node_id, seq=st.turn_counter % 256))
    st.turn_counter += 1
    st.awaiting_feedback = bool(window)
    st.got_data_since_feedback = False
    return msgs


def _start_turn(st: NodeState, actions: list[LinkAction]) -> None:
    if not (st.tx_unacked or _owes_feedback(st)):
        return  # nothing worth saying; stay idle
    msgs = _build_turn(st)
    st.phase = Phase.HOLDING_TOKEN
    st.token_free = False
    actions += [
        # a fresh turn obsoletes the previous listen cycle; a stale
        # inactivity/response timer surviving past this point could fire
        # inside the peer's retask blind window and break token exclusivity
        CancelTimer(TimerKind.INACTIVITY),
        CancelTimer(TimerKind.RESPONSE_WAIT),
        Transmit(tuple(msgs)),
        SetTimer(TimerKind.TURN_SENT, 0.0),
    ]


def _after_own_turn(st: NodeState, actions: list[LinkAction]) -> None:
    st.token_free = True
    if st.awaiting_feedback:
        st.phase = Phase.LISTENING
        actions.append(SetTimer(TimerKind.RESPONSE_WAIT, _response_wait(st)))
    else:
        st.phase = Phase.IDLE


# ---------------------------------------------------------------- traces

# bump when entry/summary fields change; docs/protocol.md describes the schema
TRACE_SCHEMA_VERSION = 3


@dataclass
class SessionTrace:
    """Event-sourced record of a simulated session plus a summary."""

    entries: list[dict] = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def log(self, t: float, node: str, event: str, **detail) -> None:
        entry = {"t": float(t), "node": node, "event": event}
        entry.update(detail)
        self.entries.append(entry)

    def of_kind(self, event: str) -> list[dict]:
        return [e for e in self.entries if e["event"] == event]

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(
            {"entries": self.entries, "summary": self.summary},
            sort_keys=True,
            indent=indent,
        )


def _log_tx_burst(trace: SessionTrace, node: str, ident: int, t0: float,
                  messages, cfg: ModemConfig) -> float:
    """Log the tx_burst entry of burst `ident`, sent from t0; returns the
    time its last sample leaves the speaker."""
    t1 = t0 + bursts.burst_length(len(messages), cfg) / cfg.sample_rate
    trace.log(t0, node, "tx_burst", burst=ident, end=t1, frames=[m.kind.name for m in messages],
              turn=messages[0].kind == MessageKind.ACQUIRE)
    return t1


def _log_scan(trace: SessionTrace, t: float, node: str, ident: int, scan: bursts.BurstScan):
    """Log at t what `node` recovered of burst `ident`: an rx_corrupt entry,
    then an rx_frame entry per frame, yielding each message after its entry."""
    if scan.corrupt_offsets:
        trace.log(t, node, "rx_corrupt", burst=ident, count=len(scan.corrupt_offsets))
    for frame in scan.frames:
        msg = frame.message
        trace.log(t, node, "rx_frame", burst=ident, index=frame.index, kind=msg.kind.name,
                  sender=msg.sender_id, seq=msg.seq, body=msg.body)
        yield msg


def replay_hearing(trace: SessionTrace):
    """A hearing function that gives each burst what `trace`'s receiver
    recovered of it: its rx_frame messages in order, each at its grid index,
    and its rx_corrupt count.  With the trace's configs, payloads, seed and
    room, `run_session` or `unidirectional_schedule` then replays the session
    or stream with no audio."""
    scans: dict[int, bursts.BurstScan] = {}
    for e in trace.entries:
        if e["event"] not in ("rx_frame", "rx_corrupt"):
            continue
        scan = scans.setdefault(e["burst"], bursts.BurstScan([], []))
        if e["event"] == "rx_corrupt":
            scan.corrupt_offsets += [0] * e["count"]
        else:
            msg = ControlMessage(MessageKind[e["kind"]], e["sender"], e["seq"], e["body"])
            scan.frames.append(bursts.RecoveredFrame(0, e["index"], msg))
    return lambda ident, messages: scans.get(ident, bursts.BurstScan([], []))


def audio_hearing(modem: ModemConfig, channel: ChannelModel, seed: int, heard=None):
    """The default hearing function: burst `ident` as heard through `channel`
    with its noise seeded by (seed, ident) (`burst.heard_burst`), scanned by
    `recover_frames`.  Each heard buffer is also kept in the dict `heard`,
    by burst number, when one is given."""
    def hear(ident, messages):
        buf = bursts.heard_burst(messages, modem, channel, seed, ident)
        if heard is not None:
            heard[ident] = buf
        return bursts.recover_frames(buf, modem)
    return hear


@dataclass
class _Burst:
    tx: int                 # node index
    t0: float
    t1: float
    messages: tuple[ControlMessage, ...]


class _Engine:
    """Discrete-event loop joining two `step` machines through the channel."""

    # deferral nudge when a timer fires while the node speaks or retasks
    BUSY_BACKOFF = 0.001

    def __init__(
        self,
        nodes: list[NodeState],
        payloads: list[Optional[bytes]],
        channel: ChannelModel,
        seed: int,
        budget: float,
        hear=None,
    ):
        modem, b_modem = (node.cfg.modem for node in nodes)
        if modem != b_modem:
            # a receiver decodes only bursts sent in its own air format
            raise ConfigError("nodes must share the modem config")
        self.nodes = nodes
        self.channel = channel
        self.seed = seed
        self.budget = budget
        self.hear = hear or audio_hearing(modem, channel, seed)
        self.trace = SessionTrace()
        # what is due: (node index, timer kind) for a timer, the burst number
        # for a burst's arrival -> (time, order set); setting a key replaces
        # what was pending under it
        self.due: dict[Union[tuple[int, TimerKind], int], tuple[float, int]] = {}
        self.order = itertools.count()
        # per node, when its transducer last settled, or next settles, as a
        # MIC: a Transmit sets it to the end of the burst's retask back to
        # MIC, so it is also the end of any retask or burst of its own
        self.mic_since = [0.0, 0.0]
        self.bursts: dict[int, _Burst] = {}
        self.burst_count = 0
        self.expected_payloads = payloads   # per node, what it sends
        self.now = 0.0
        for idx in range(2):
            # a discovering node's ack wait lapsing sends it into its first round
            self._deliver(idx, Timeout(0.0, TimerKind.DISCOVERY_ACK_WAIT))

    def _at(self, key, when: float) -> None:
        """Make `key` due at `when`, after whatever is already due then."""
        self.due[key] = (when, next(self.order))

    def _audible_until(self, idx: int) -> float:
        """Latest end time of any burst currently audible at node idx."""
        delay = self.channel.propagation_delay
        busy = 0.0
        for b in self.bursts.values():
            if b.tx != idx and b.t0 <= self.now <= b.t1 + delay:
                busy = max(busy, b.t1 + delay)
        return busy

    # --------------------------------------------------------- actions

    def _deliver(self, idx: int, event: LinkEvent) -> None:
        node = self.nodes[idx]
        state, actions = step(node, event)
        self.nodes[idx] = state
        if state.phase != node.phase:
            self.trace.log(event.time, state.name, "phase", phase=state.phase.value)
        if state.node_id != node.node_id:
            self.trace.log(
                event.time, state.name, "id_rerandomized",
                old=node.node_id, new=state.node_id,
            )
        if state.delivered is not node.delivered:
            self.trace.log(event.time, state.name, "deliver", bytes=len(state.delivered))
        self._apply_actions(idx, event.time, actions)

    def _apply_actions(self, idx: int, now: float, actions: list[LinkAction]) -> None:
        state = self.nodes[idx]
        cursor = now
        for act in actions:
            if isinstance(act, Transmit):
                cursor += RETASK_LATENCY
                ident = self.burst_count
                self.burst_count += 1
                t1 = _log_tx_burst(self.trace, state.name, ident, cursor, act.messages,
                                   state.cfg.modem)
                self.bursts[ident] = _Burst(tx=idx, t0=cursor, t1=t1, messages=act.messages)
                self._at(ident, t1 + self.channel.propagation_delay)
                cursor = self.mic_since[idx] = t1 + RETASK_LATENCY
            elif isinstance(act, SetTimer):
                self._at((idx, act.kind), cursor + act.delay)
            elif isinstance(act, CancelTimer):
                self.due.pop((idx, act.kind), None)
            else:
                raise ProtocolError(f"unknown action {act!r}")

    # -------------------------------------------------------- reception

    def _burst_end(self, ident: int) -> None:
        b = self.bursts.pop(ident)
        rx = 1 - b.tx
        name = self.nodes[rx].name
        if self.mic_since[rx] > b.t0 + self.channel.propagation_delay:
            self.trace.log(self.now, name, "rx_missed_burst", burst=ident)
            return
        for msg in _log_scan(self.trace, self.now, name, ident, self.hear(ident, b.messages)):
            self._deliver(rx, FrameReceived(self.now, msg))

    # ------------------------------------------------------------- run

    def _timer_fired(self, idx: int, kind: TimerKind) -> None:
        if self.mic_since[idx] > self.now:
            self._at((idx, kind), self.mic_since[idx] + self.BUSY_BACKOFF)
            return
        if kind in (TimerKind.TURN_START, TimerKind.INACTIVITY, TimerKind.RESPONSE_WAIT):
            carrier = self._audible_until(idx)
            if carrier > self.now:
                # the burst's sender settles as a MIC one retask after its
                # end, which is heard a flight time later
                self._at((idx, kind), carrier + RETASK_LATENCY)
                return
        self.trace.log(self.now, self.nodes[idx].name, "timer", kind=kind.value)
        self._deliver(idx, Timeout(self.now, kind))

    def _done(self) -> bool:
        if not any(self.expected_payloads):
            return all(n.phase != Phase.DISCOVERING for n in self.nodes)
        for idx, expected in enumerate(self.expected_payloads):
            if expected is None:
                continue
            sender, receiver = self.nodes[idx], self.nodes[1 - idx]
            if sender.tx_unacked or receiver.delivered is None:
                return False
        return True

    def run(self) -> SessionTrace:
        complete = False
        while self.due and not complete:
            # ties go to the entry set first
            key = min(self.due, key=self.due.__getitem__)
            when, _ = self.due.pop(key)
            if when > self.budget:
                break
            self.now = when
            if isinstance(key, tuple):
                self._timer_fired(*key)
            else:
                self._burst_end(key)
            complete = self._done()
        self._summarize(complete)
        return self.trace

    def _summarize(self, complete: bool) -> None:
        delivered = {}
        intact = {}
        corrupted = 0
        for idx, expected in enumerate(self.expected_payloads):
            if expected is None:
                continue
            got = self.nodes[1 - idx].delivered
            name = self.nodes[1 - idx].name
            delivered[name] = len(got) if got is not None else 0
            intact[name] = got == expected
            if got is not None and got != expected:
                corrupted += 1
        sent = self.trace.of_kind("tx_burst")
        kinds = [k for e in sent for k in e["frames"]]
        first_turn = min((e["t"] for e in sent if e["turn"]), default=None)
        deliveries = self.trace.of_kind("deliver")
        last_delivery = max((e["t"] for e in deliveries), default=None)
        goodput = None
        if complete and first_turn is not None and last_delivery is not None \
                and last_delivery > first_turn:
            total_bits = 8 * sum(delivered.values())
            goodput = total_bits / (last_delivery - first_turn)
        self.trace.summary = {
            "schema": TRACE_SCHEMA_VERSION,
            "complete": complete,
            "duration": self.now if complete else self.budget,
            "seed": self.seed,
            "bit_rate": float(self.nodes[0].cfg.modem.bit_rate),
            "delivered_bytes": delivered,
            "delivered_intact": intact,
            "undetected_corruption": corrupted,
            "data_frames_sent": kinds.count("DATA"),
            "retransmit_requests": kinds.count("RETRANSMIT"),
            "ack_frames": kinds.count("ACK_OK"),
            "broadcast_rounds": {n.name: n.broadcast_rounds for n in self.nodes},
            "rerandomizations": {n.name: n.rerandomizations for n in self.nodes},
            "goodput_bps": goodput,
        }


def run_session(
    a_cfg: LinkConfig,
    b_cfg: LinkConfig,
    channel: ChannelModel,
    payload: bytes,
    seed: int = 0,
    *,
    payload_b: Optional[bytes] = None,
    budget: float = 600.0,
    hear=None,
    node_ids: Optional[tuple[int, int]] = None,
) -> SessionTrace:
    """Simulate a full two-node session: discovery, token turns, delivery.

    `payload` flows A->B; `payload_b` optionally flows B->A.  A session
    with no payload either way ends once both nodes are discovered.  The
    trace records every state change, burst, and frame; summary says
    whether delivery completed inside the simulated-time budget and
    whether it was byte-exact.  `hear(ident, messages)` returns the `BurstScan` the
    receiver recovers of burst `ident`; by default, `audio_hearing`'s.
    """
    if payload_b is not None and not payload_b:
        raise ValueError("empty payload_b: pass None for no B->A transfer")
    if not 0 < budget < math.inf:
        raise ValueError(f"budget must be positive and finite, got {budget}")
    ids = (None, None) if node_ids is None else node_ids
    node_a = make_node(a_cfg, seed, "A", payload=payload or None, node_id=ids[0])
    node_b = make_node(b_cfg, seed, "B", payload=payload_b, node_id=ids[1])
    return _Engine([node_a, node_b], [payload or None, payload_b], channel, seed, budget,
                   hear=hear).run()


def unidirectional_schedule(
    cfg: LinkConfig,
    channel: ChannelModel,
    payload: bytes,
    seed: int = 0,
    hear=None,
) -> SessionTrace:
    """One-way transfer at a prearranged time: no handshake, no feedback.

    The transmitter streams every frame in one burst starting at t = 0,
    and the receiver hears all of it, burst 0, through `hear` (by default
    `audio_hearing`'s), as `run_session`'s receivers do.  The burst arrives
    one flight time after it starts, and the receiver's entries fall when
    its last sample arrives.  There are no acknowledgments or
    retransmissions by construction; each frame is placed by its grid
    index.  Both ends use `cfg`.
    """
    if not payload:
        raise ValueError("empty payload")
    trace = SessionTrace()
    messages = framing.pack_payload(payload)
    end = _log_tx_burst(trace, "TX", 0, 0.0, messages, cfg.modem) + channel.propagation_delay
    hear = hear or audio_hearing(cfg.modem, channel, seed)
    scan = hear(0, messages)
    for _ in _log_scan(trace, end, "RX", 0, scan):
        pass
    result = bursts.reassemble_burst(scan, indexed=True)
    if result.complete:
        trace.log(end, "RX", "deliver", bytes=len(result.data))
    trace.summary = {
        "schema": TRACE_SCHEMA_VERSION,
        "complete": result.complete,
        "duration": end,
        "seed": seed,
        "bit_rate": float(cfg.modem.bit_rate),
        "frames_sent": len(messages),
        "frames_recovered": len(scan.frames),
        "delivered_bytes": {"RX": len(result.data) if result.complete else 0},
        "delivered_intact": {"RX": result.complete and result.data == payload},
        "missing_chunks": result.missing,
        "retransmit_requests": 0,
        "ack_frames": 0,
    }
    return trace


# ----------------------------------------------------- invariant checks

def verify_trace(trace: SessionTrace, t_max: float = LinkConfig.t_max) -> dict:
    """Recompute the protocol invariants from a trace.

    Returns violation counts: token holding overlap between the two
    nodes, turns exceeding T_max of air time, and frames received while
    the receiving node's own transducer was transmitting or switching.
    """
    if not 0 < t_max < math.inf:
        raise ValueError(f"t_max must be positive and finite, got {t_max}")
    # token exclusivity: intervals between a node's HOLDING_TOKEN entry
    # and its next phase change must not overlap across nodes
    holds: dict[str, list[list[float]]] = {}
    open_hold: dict[str, float] = {}
    for e in trace.entries:
        if e["event"] != "phase":
            continue
        node = e["node"]
        if e["phase"] == Phase.HOLDING_TOKEN.value:
            open_hold[node] = e["t"]
        elif node in open_hold:
            holds.setdefault(node, []).append([open_hold.pop(node), e["t"]])
    token_overlaps = 0
    names = sorted(holds)
    if len(names) == 2:
        for a0, a1 in holds[names[0]]:
            for b0, b1 in holds[names[1]]:
                if a0 < b1 and b0 < a1:
                    token_overlaps += 1
    # T_max: air time of any turn burst
    t_max_violations = sum(
        1 for e in trace.of_kind("tx_burst")
        if e["turn"] and e["end"] - e["t"] > t_max + 1e-9
    )
    # half-duplex: a received frame while the receiver itself was inside
    # one of its own transmission bursts
    tx_spans = {}
    for e in trace.of_kind("tx_burst"):
        tx_spans.setdefault(e["node"], []).append((e["t"], e["end"]))
    half_duplex = 0
    for e in trace.of_kind("rx_frame"):
        for s, t in tx_spans.get(e["node"], ()):
            if s < e["t"] < t:
                half_duplex += 1
    return {
        "token_overlaps": token_overlaps,
        "t_max_violations": t_max_violations,
        "half_duplex_violations": half_duplex,
    }
