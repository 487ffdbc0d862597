"""Link layer: per-node protocol state machine and the two-node session engine.

Each node is an event-driven state machine (`step`): discovery broadcasts
with random delays and an ID-collision rule, then a virtual-token MAC in
which the token holder transmits one burst (ACQUIRE, pending feedback,
a window of DATA frames, RELEASE) bounded by T_max, retasks back to MIC,
and waits.  The peer answers with a feedback turn carrying one batch ACK
(highest in-order sequence) plus RETRANSMIT requests for gaps.  Loss of
any frame, including RELEASE or the whole feedback turn, is recovered by
inactivity/response timeouts.

`run_session` drives two nodes over a simulated channel with a discrete
event loop.  Audio exists per received burst: the burst's bit slots at the
nodes' shared bit rate are added up from the channel's filtered slot tones
(`burst.received_burst`; the channel is linear), noise seeded per burst is
added, and the receiver scans the result — so corruption and retransmission
emerge physically.  A node hears a burst only if its transducer stayed in
MIC for the burst's whole flight; turn-starting timers are deferred while a
burst is audibly in flight (energy-based carrier sensing, modeled as exact).

Everything is deterministic given the session seed: node RNGs, jitters,
and per-burst channel noise all derive from it.
"""

from __future__ import annotations

import copy
import enum
import heapq
import json
import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from . import burst as bursts
from . import framing
from .audio import SampleBuffer
from .channel import ChannelModel, add_noise
from .channel import propagate  # noqa: F401  (link.propagate: the bench tracer wraps it)
from .framing import SEQ_WINDOW, ControlMessage, MessageKind, Reassembler
from .modem import ConfigError, ModemConfig


class ProtocolError(Exception):
    """Raised for out-of-order events or an action the hardware cannot do."""


class Phase(str, enum.Enum):
    DISCOVERING = "DISCOVERING"
    DISCOVERED = "DISCOVERED"
    IDLE = "IDLE"
    HOLDING_TOKEN = "HOLDING_TOKEN"
    LISTENING = "LISTENING"


class Role(str, enum.Enum):
    SPEAKER = "SPEAKER"
    MIC = "MIC"


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


@dataclass(frozen=True)
class ScheduleTick:
    time: float


LinkEvent = Union[FrameReceived, Timeout, ScheduleTick]


# ---------------------------------------------------------------- actions

@dataclass(frozen=True)
class Transmit:
    messages: tuple[ControlMessage, ...]


@dataclass(frozen=True)
class Retask:
    role: Role
    latency: float


@dataclass(frozen=True)
class SetTimer:
    kind: TimerKind
    delay: float  # relative to completion of the preceding actions


@dataclass(frozen=True)
class CancelTimer:
    kind: TimerKind


@dataclass(frozen=True)
class DeliverData:
    data: bytes


LinkAction = Union[Transmit, Retask, SetTimer, CancelTimer, DeliverData]


# ---------------------------------------------------------------- config

MIN_TURN_FRAMES = 3  # ACQUIRE, one DATA frame, RELEASE


@dataclass(frozen=True)
class LinkConfig:
    """Per-node protocol parameters on top of the modem config."""

    modem: ModemConfig = field(default_factory=ModemConfig)
    t_max: float = 10.0               # max token hold, seconds of air
    retask_latency: float = 0.05      # SPEAKER<->MIC switch time
    gap_slots: int = bursts.FRAME_GAP_SLOTS
    discovery_window: float = 5.0     # broadcasts at random delays in [0, this]
    max_retransmit_per_turn: int = 16

    def __post_init__(self):
        if not 0 < self.t_max < math.inf:
            raise ConfigError(f"t_max must be positive and finite, got {self.t_max}")
        if not 0 < self.retask_latency < math.inf:
            raise ConfigError(
                f"retask_latency must be positive and finite, got {self.retask_latency}"
            )
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
    transducer_role: Role = Role.MIC
    last_event_time: float = -math.inf
    # discovery
    peer_id: Optional[int] = None
    broadcast_rounds: int = 0
    rerandomizations: int = 0
    # outgoing transfer
    tx_queue: dict[int, int] = field(default_factory=dict)   # chunk index -> 16-bit body
    tx_unacked: list[int] = field(default_factory=list)
    tx_highest_sent: int = -1
    tx_done: bool = True
    awaiting_feedback: bool = False
    turn_counter: int = 0
    # incoming transfer
    rx: Reassembler = field(default_factory=Reassembler)
    got_data_since_feedback: bool = False
    delivered: Optional[bytes] = None
    last_discovery_acked: Optional[tuple[int, float]] = None
    # token view
    token_free: bool = True
    token_deadline: Optional[float] = None


def make_node(
    cfg: LinkConfig,
    seed: int,
    name: str,
    payload: Optional[bytes] = None,
    node_id: Optional[int] = None,
) -> NodeState:
    """Fresh node: random 8-bit id, optional outgoing payload queued."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, ord(name))))
    state = NodeState(
        cfg=cfg,
        node_id=int(rng.integers(0, 256)) if node_id is None else int(node_id),
        rng=rng,
        name=name,
    )
    if payload:
        chunks = framing.pack_payload(payload)
        state.tx_queue = {i: m.body for i, m in enumerate(chunks)}
        state.tx_unacked = sorted(state.tx_queue)
        state.tx_done = False
    return state


# ------------------------------------------------------- timing helpers

def _discovery_ack_wait(st: NodeState) -> float:
    # the nominal 5 s wait cannot see an ack at very low bit rates, where
    # a single frame outlasts it; scale with airtime
    airtime = bursts.frame_airtime(st.cfg.modem)
    return max(st.cfg.discovery_window, 2 * airtime + 2 * st.cfg.retask_latency + 0.5)


def _inactivity_wait(st: NodeState) -> float:
    return 3 * bursts.frame_airtime(st.cfg.modem) + 0.5


def _response_wait(st: NodeState) -> float:
    # must outlast the peer's inactivity fallback plus a full feedback turn
    return _inactivity_wait(st) + st.cfg.t_max + 2 * st.cfg.retask_latency + 1.0


def _reactive_delay(st: NodeState) -> float:
    return 0.05 + float(st.rng.uniform(0.0, 0.1))


def _spontaneous_delay(st: NodeState) -> float:
    # disjoint windows by node id so two data holders cannot race into a
    # turn inside each other's retask blind spot
    if st.peer_id is not None and st.node_id < st.peer_id:
        return float(st.rng.uniform(0.3, 0.8))
    return float(st.rng.uniform(1.3, 1.8))


def _turn_frames(cfg: LinkConfig) -> int:
    """Frames that fit in one turn of at most cfg.t_max at the modem rate."""
    slot = cfg.modem.samples_per_bit / cfg.modem.sample_rate
    per_frame = (framing.FRAME_BITS + cfg.gap_slots) * slot
    return int((cfg.t_max + cfg.gap_slots * slot) / per_frame)


# ------------------------------------------------------ sequence algebra

def _resolve_at_most(seq8: int, anchor: int) -> int:
    """Largest value <= anchor congruent to seq8 mod 256."""
    return anchor - ((anchor - seq8) % 256)


# ---------------------------------------------------------------- step

def _copy_rng(rng: np.random.Generator) -> np.random.Generator:
    """An independent generator at the same point of the same stream."""
    bit_generator = type(rng.bit_generator)(0)
    bit_generator.state = rng.bit_generator.state
    return np.random.Generator(bit_generator)


def _copy_state(state: NodeState) -> NodeState:
    """A copy sharing nothing mutable with `state`: handlers rebind every
    field they change except `rx`, which they fill in place, and the RNG."""
    st = copy.copy(state)
    st.rx = state.rx.copy()
    st.rng = _copy_rng(state.rng)
    return st


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
    st = _copy_state(state)
    st.last_event_time = event.time
    actions: list[LinkAction] = []
    if isinstance(event, ScheduleTick):
        _on_tick(st, actions)
    elif isinstance(event, Timeout):
        _on_timeout(st, event, actions)
    elif isinstance(event, FrameReceived):
        _on_frame(st, event, actions)
    else:
        raise ProtocolError(f"unknown event {event!r}")
    return st, actions


def _on_tick(st: NodeState, actions: list[LinkAction]) -> None:
    if st.phase == Phase.DISCOVERING:
        actions.append(
            SetTimer(TimerKind.DISCOVERY_BROADCAST, float(st.rng.uniform(0.0, st.cfg.discovery_window)))
        )


def _on_timeout(st: NodeState, event: Timeout, actions: list[LinkAction]) -> None:
    kind = event.kind
    if kind == TimerKind.DISCOVERY_BROADCAST:
        if st.phase != Phase.DISCOVERING:
            return
        st.broadcast_rounds += 1
        msg = ControlMessage(MessageKind.DISCOVERY, sender_id=st.node_id)
        st.transducer_role = Role.MIC
        # the beacon goes out twice per round: at the lossy operating
        # points a single 46-bit frame is dropped far too often for
        # discovery to settle within its round budget
        actions += [
            Retask(Role.SPEAKER, st.cfg.retask_latency),
            Transmit((msg, msg)),
            Retask(Role.MIC, st.cfg.retask_latency),
            SetTimer(TimerKind.DISCOVERY_ACK_WAIT, _discovery_ack_wait(st)),
        ]
    elif kind == TimerKind.DISCOVERY_ACK_WAIT:
        if st.phase == Phase.DISCOVERING:
            actions.append(
                SetTimer(TimerKind.DISCOVERY_BROADCAST, float(st.rng.uniform(0.0, st.cfg.discovery_window)))
            )
    elif kind == TimerKind.TURN_START:
        if st.phase in (Phase.DISCOVERED, Phase.IDLE, Phase.LISTENING) and st.token_free:
            _start_turn(st, actions, event.time)
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
            old = st.node_id
            while st.node_id == old:
                st.node_id = int(st.rng.integers(0, 256))
            st.rerandomizations += 1
            actions.append(
                SetTimer(TimerKind.DISCOVERY_BROADCAST, float(st.rng.uniform(0.0, st.cfg.discovery_window)))
            )
            return
        if msg.sender_id == st.node_id:
            return  # stale echo after we already discovered; ignore
        st.peer_id = msg.sender_id
        if st.last_discovery_acked == (msg.sender_id, event.time):
            return  # repeated beacon copy within the same burst
        st.last_discovery_acked = (msg.sender_id, event.time)
        ack = ControlMessage(MessageKind.ACK_OK, sender_id=st.node_id, body=msg.sender_id)
        actions += [
            Retask(Role.SPEAKER, st.cfg.retask_latency),
            Transmit((ack, ack)),
            Retask(Role.MIC, st.cfg.retask_latency),
        ]
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
        _on_data_ack(st, msg, actions)
    elif kind == MessageKind.RETRANSMIT:
        # honor the request even for chunks we believe were acked: a
        # CRC-passing corruption of an earlier ack batch can desynchronize
        # the two views, and the explicit request is the ground truth
        if st.tx_highest_sent >= 0:
            index = _resolve_at_most(msg.body, st.tx_highest_sent)
            if index in st.tx_queue and index not in st.tx_unacked:
                st.tx_unacked = sorted(st.tx_unacked + [index])
                st.tx_done = False
    elif kind == MessageKind.ACQUIRE:
        st.token_free = False
        if st.phase in (Phase.DISCOVERED, Phase.IDLE):
            st.phase = Phase.LISTENING
        actions.append(SetTimer(TimerKind.INACTIVITY, _inactivity_wait(st)))
    elif kind == MessageKind.DATA:
        _on_data(st, msg, actions)
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


def _on_data(st: NodeState, msg: ControlMessage, actions: list[LinkAction]) -> None:
    # any data arrival, duplicate or not, means the peer lacks our ack
    st.got_data_since_feedback = True
    st.rx.accept(st.rx.resolve(msg.seq), msg.body)
    if st.delivered is None and st.rx.complete:
        st.delivered = st.rx.result().data
        actions.append(DeliverData(st.delivered))


def _on_data_ack(st: NodeState, msg: ControlMessage, actions: list[LinkAction]) -> None:
    if st.tx_highest_sent < 0:
        return
    acked_through = _resolve_at_most(msg.body, st.tx_highest_sent)
    st.tx_unacked = [i for i in st.tx_unacked if i > acked_through]
    if not st.tx_unacked:
        st.tx_done = True


def _owes_feedback(st: NodeState) -> bool:
    """An incoming transfer is underway, or the peer resent data after we
    delivered (so our final ack was lost)."""
    if st.rx.max_seen < 0:
        return False
    return st.delivered is None or st.got_data_since_feedback


def _build_turn(st: NodeState) -> list[ControlMessage]:
    msgs = [ControlMessage(MessageKind.ACQUIRE, sender_id=st.node_id, seq=st.turn_counter % 256)]
    # feedback first: one batch ack plus retransmit requests for gaps
    if st.rx.max_seen >= 0:
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
            gaps = [i for i in range(st.rx.next_needed, st.rx.max_seen) if i not in st.rx.chunks]
            for i in gaps[: st.cfg.max_retransmit_per_turn]:
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
        msgs.append(ControlMessage(MessageKind.DATA, seq=index % 256, body=st.tx_queue[index]))
        st.tx_highest_sent = max(st.tx_highest_sent, index)
    msgs.append(ControlMessage(MessageKind.RELEASE, sender_id=st.node_id, seq=st.turn_counter % 256))
    st.turn_counter += 1
    st.awaiting_feedback = bool(window)
    st.got_data_since_feedback = False
    return msgs


def _start_turn(st: NodeState, actions: list[LinkAction], now: float) -> None:
    msgs = _build_turn(st)
    if len(msgs) <= 2 and not st.tx_unacked:
        return  # nothing worth saying; stay idle
    st.phase = Phase.HOLDING_TOKEN
    st.token_free = False
    st.token_deadline = now + st.cfg.t_max
    st.transducer_role = Role.SPEAKER
    actions += [
        # a fresh turn obsoletes the previous listen cycle; a stale
        # inactivity/response timer surviving past this point could fire
        # inside the peer's retask blind window and break token exclusivity
        CancelTimer(TimerKind.INACTIVITY),
        CancelTimer(TimerKind.RESPONSE_WAIT),
        Retask(Role.SPEAKER, st.cfg.retask_latency),
        Transmit(tuple(msgs)),
        Retask(Role.MIC, st.cfg.retask_latency),
        SetTimer(TimerKind.TURN_SENT, 0.0),
    ]


def _after_own_turn(st: NodeState, actions: list[LinkAction]) -> None:
    st.transducer_role = Role.MIC
    st.token_free = True
    st.token_deadline = None
    if st.awaiting_feedback:
        st.phase = Phase.LISTENING
        actions.append(SetTimer(TimerKind.RESPONSE_WAIT, _response_wait(st)))
    else:
        st.phase = Phase.IDLE


# ---------------------------------------------------------------- traces

# bump when entry/summary fields change; docs/protocol.md describes the schema
TRACE_SCHEMA_VERSION = 2


@dataclass
class SessionTrace:
    """Event-sourced record of a simulated session plus a summary."""

    entries: list[dict] = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    audio: dict[str, SampleBuffer] = field(default_factory=dict)  # per-node heard timelines

    def log(self, t: float, node: str, event: str, **detail) -> None:
        entry = {"t": float(t), "node": node, "event": event}
        entry.update(detail)
        self.entries.append(entry)

    def of_kind(self, event: str) -> list[dict]:
        return [e for e in self.entries if e["event"] == event]

    def frame_kinds(self) -> list[str]:
        out = []
        for e in self.entries:
            if e["event"] == "tx_burst":
                out.extend(e["frames"])
        return out

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(
            {"entries": self.entries, "summary": self.summary},
            sort_keys=True,
            indent=indent,
        )


class _Timers:
    """Per-node timer table; setting a kind replaces any pending one."""

    def __init__(self):
        self.generation: dict[TimerKind, int] = {}

    def set(self, kind: TimerKind) -> int:
        gen = self.generation.get(kind, 0) + 1
        self.generation[kind] = gen
        return gen

    def cancel(self, kind: TimerKind) -> None:
        self.generation[kind] = self.generation.get(kind, 0) + 1

    def is_current(self, kind: TimerKind, gen: int) -> bool:
        return self.generation.get(kind) == gen


@dataclass
class _Burst:
    tx: int                 # node index
    t0: float
    t1: float
    messages: tuple[ControlMessage, ...]


class _Engine:
    """Discrete-event loop joining two `step` machines through the channel."""

    # deferral nudges when a timer fires while the air or the node is busy
    CARRIER_BACKOFF = 0.02
    BUSY_BACKOFF = 0.001

    def __init__(
        self,
        nodes: list[NodeState],
        channel: ChannelModel,
        seed: int,
        budget: float,
        rx_filter=None,
        keep_audio: bool = False,
        stop_after_discovery: bool = False,
    ):
        a, b = (node.cfg for node in nodes)
        if (a.modem, a.gap_slots) != (b.modem, b.gap_slots):
            # a receiver decodes only bursts sent in its own air format
            raise ConfigError("nodes must share the modem config and gap_slots")
        self.nodes = nodes
        self.channel = channel
        self.seed = seed
        self.budget = budget
        self.rx_filter = rx_filter
        self.keep_audio = keep_audio
        self.stop_after_discovery = stop_after_discovery
        self.trace = SessionTrace()
        self.heap: list = []
        self.counter = 0
        self.timers = [_Timers(), _Timers()]
        self.busy_until = [0.0, 0.0]
        self.mic_since = [0.0, 0.0]   # time the node last became stable MIC
        self.bursts: dict[int, _Burst] = {}
        self.burst_count = 0
        self.expected_payloads: list[Optional[bytes]] = [None, None]
        self.heard: list[list[tuple[float, np.ndarray]]] = [[], []]
        self.now = 0.0

    # ------------------------------------------------------------ heap

    def _push(self, when: float, item: tuple) -> None:
        heapq.heappush(self.heap, (when, self.counter, item))
        self.counter += 1

    def _carrier_busy_until(self, idx: int) -> float:
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
        before = (node.phase, node.node_id)
        state, actions = step(node, event)
        self.nodes[idx] = state
        if state.phase != before[0]:
            self.trace.log(event.time, state.name, "phase", phase=state.phase.value)
        if state.node_id != before[1]:
            self.trace.log(
                event.time, state.name, "id_rerandomized",
                old=before[1], new=state.node_id,
            )
        self._apply_actions(idx, event.time, actions)

    def _apply_actions(self, idx: int, now: float, actions: list[LinkAction]) -> None:
        state = self.nodes[idx]
        cursor = now
        for act in actions:
            if isinstance(act, Retask):
                self.trace.log(cursor, state.name, "retask", role=act.role.value,
                               ready_at=cursor + act.latency)
                if act.role == Role.MIC:
                    self.mic_since[idx] = cursor + act.latency
                else:
                    self.mic_since[idx] = math.inf
                cursor += act.latency
                self.busy_until[idx] = max(self.busy_until[idx], cursor)
            elif isinstance(act, Transmit):
                if self.mic_since[idx] != math.inf:
                    raise ProtocolError("Transmit while transducer is not a speaker")
                n = bursts.burst_length(len(act.messages), state.cfg.modem, state.cfg.gap_slots)
                ident = self.burst_count
                self.burst_count += 1
                b = _Burst(tx=idx, t0=cursor, t1=cursor + n / state.cfg.modem.sample_rate,
                           messages=act.messages)
                self.bursts[ident] = b
                self.trace.log(
                    cursor, state.name, "tx_burst",
                    burst=ident, start=b.t0, end=b.t1,
                    frames=[m.kind.name for m in act.messages],
                    bit_rate=float(state.cfg.modem.bit_rate),
                    turn=act.messages[0].kind == MessageKind.ACQUIRE,
                )
                self._push(b.t1 + self.channel.propagation_delay, ("burst_end", ident))
                cursor = b.t1
                self.busy_until[idx] = max(self.busy_until[idx], cursor)
            elif isinstance(act, SetTimer):
                when = cursor + act.delay
                gen = self.timers[idx].set(act.kind)
                self._push(when, ("timer", idx, act.kind, gen))
            elif isinstance(act, CancelTimer):
                self.timers[idx].cancel(act.kind)
            elif isinstance(act, DeliverData):
                self.trace.log(cursor, state.name, "deliver", bytes=len(act.data))
            else:
                raise ProtocolError(f"unknown action {act!r}")

    # -------------------------------------------------------- reception

    def _burst_end(self, ident: int) -> None:
        b = self.bursts.pop(ident)
        rx = 1 - b.tx
        state = self.nodes[rx]
        delay = self.channel.propagation_delay
        heard_from = self.mic_since[rx]
        if heard_from > b.t0 + delay:
            self.trace.log(
                self.now, state.name, "rx_missed_burst",
                burst=ident, reason="not_listening",
            )
            return
        rx_wave = self._received_burst(ident, b)
        if self.rx_filter is not None:
            rx_wave = self.rx_filter(rx_wave)
        if self.keep_audio:
            self.heard[rx].append((b.t0 + delay, rx_wave.samples))
        scan = bursts.recover_frames(rx_wave, state.cfg.modem, state.cfg.gap_slots)
        if scan.corrupt_offsets:
            self.trace.log(
                self.now, state.name, "rx_corrupt",
                burst=ident, count=len(scan.corrupt_offsets),
            )
        for frame in scan.frames:
            msg = frame.message
            self.trace.log(
                self.now, state.name, "rx_frame",
                burst=ident, kind=msg.kind.name, sender=msg.sender_id,
                seq=msg.seq, body=msg.body,
            )
            self._deliver(rx, FrameReceived(self.now, msg))

    def _received_burst(self, ident: int, b: _Burst) -> SampleBuffer:
        """Burst `ident` as its receiver hears it, noise included: up to
        rounding, `propagate(messages_to_waveform(...), seed=(seed, ident))`."""
        cfg = self.nodes[b.tx].cfg
        y = bursts.received_burst(b.messages, cfg.modem, cfg.gap_slots, self.channel)
        return add_noise(y, self.channel, seed=(self.seed, ident))

    # ------------------------------------------------------------- run

    def _timer_fired(self, idx: int, kind: TimerKind, gen: int) -> None:
        if not self.timers[idx].is_current(kind, gen):
            return
        if self.busy_until[idx] > self.now:
            gen = self.timers[idx].set(kind)
            self._push(self.busy_until[idx] + self.BUSY_BACKOFF, ("timer", idx, kind, gen))
            return
        if kind in (TimerKind.TURN_START, TimerKind.INACTIVITY, TimerKind.RESPONSE_WAIT):
            carrier = self._carrier_busy_until(idx)
            if carrier > self.now:
                when = carrier + self.CARRIER_BACKOFF
                gen = self.timers[idx].set(kind)
                self._push(when, ("timer", idx, kind, gen))
                return
        self.trace.log(self.now, self.nodes[idx].name, "timer", kind=kind.value)
        self._deliver(idx, Timeout(self.now, kind))

    def _done(self) -> bool:
        if self.stop_after_discovery:
            return all(n.phase != Phase.DISCOVERING for n in self.nodes)
        for idx, expected in enumerate(self.expected_payloads):
            if expected is None:
                continue
            sender, receiver = self.nodes[idx], self.nodes[1 - idx]
            if not sender.tx_done or receiver.delivered is None:
                return False
        return True

    def run(self) -> SessionTrace:
        for idx, node in enumerate(self.nodes):
            self._deliver(idx, ScheduleTick(0.0))
        complete = self._done()
        while self.heap and not complete:
            when, _, item = heapq.heappop(self.heap)
            if when > self.budget:
                break
            self.now = when
            if item[0] == "timer":
                self._timer_fired(item[1], item[2], item[3])
            elif item[0] == "burst_end":
                self._burst_end(item[1])
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
        kinds = self.trace.frame_kinds()
        turn_entries = [e for e in self.trace.of_kind("tx_burst") if e["turn"]]
        first_turn = min((e["start"] for e in turn_entries), default=None)
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
            "duration": self.now,
            "seed": self.seed,
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
        if self.keep_audio:
            fs = self.channel.sample_rate
            end = self.now + 1.0
            for idx, node in enumerate(self.nodes):
                timeline = np.zeros(int(math.ceil(end * fs)))
                for t0, samples in self.heard[idx]:
                    a = int(round(t0 * fs))
                    timeline[a:a + samples.size] = samples[: max(timeline.size - a, 0)]
                self.trace.audio[node.name] = SampleBuffer(timeline, fs)


def run_session(
    a_cfg: LinkConfig,
    b_cfg: LinkConfig,
    channel: ChannelModel,
    payload: bytes,
    seed: int = 0,
    *,
    payload_b: Optional[bytes] = None,
    budget: float = 600.0,
    rx_filter=None,
    keep_audio: bool = False,
    node_ids: Optional[tuple[int, int]] = None,
    stop_after_discovery: bool = False,
) -> SessionTrace:
    """Simulate a full two-node session: discovery, token turns, delivery.

    `payload` flows A->B (may be empty only when stopping after
    discovery); `payload_b` optionally flows B->A.  The trace records
    every state change, burst, and frame; summary says whether delivery
    completed inside the simulated-time budget and whether it was
    byte-exact.
    """
    if not payload and not stop_after_discovery:
        raise ValueError("empty payload")
    ids = (None, None) if node_ids is None else node_ids
    node_a = make_node(a_cfg, seed, "A", payload=payload or None, node_id=ids[0])
    node_b = make_node(b_cfg, seed, "B", payload=payload_b, node_id=ids[1])
    engine = _Engine(
        [node_a, node_b], channel, seed, budget,
        rx_filter=rx_filter, keep_audio=keep_audio,
        stop_after_discovery=stop_after_discovery,
    )
    engine.expected_payloads = [payload or None, payload_b]
    return engine.run()


def unidirectional_schedule(
    tx_cfg: LinkConfig,
    rx_cfg: LinkConfig,
    channel: ChannelModel,
    payload: bytes,
    start_time: float = 0.0,
    rx_guard: float = 2.0,
    seed: int = 0,
    keep_audio: bool = False,
) -> SessionTrace:
    """One-way transfer at a prearranged time: no handshake, no feedback.

    The transmitter streams every frame in one burst starting exactly at
    `start_time`; the receiver records from `start_time - rx_guard` on
    (a negative guard models a receiver that woke up late).  There are no
    acknowledgments or retransmissions by construction; each frame is
    recovered independently via its own preamble.
    """
    if not payload:
        raise ValueError("empty payload")
    trace = SessionTrace()
    cfg = tx_cfg.modem
    messages = framing.pack_payload(payload)
    y = bursts.received_burst(messages, cfg, tx_cfg.gap_slots, channel)
    t0, t1 = start_time, start_time + y.size / cfg.sample_rate
    trace.log(t0, "TX", "tx_burst", burst=0, start=t0, end=t1,
              frames=[m.kind.name for m in messages],
              bit_rate=float(cfg.bit_rate), turn=False)
    rx_wave = add_noise(y, channel, seed=(seed, 0))
    if keep_audio:
        trace.audio["RX"] = rx_wave
    rx_start = start_time - rx_guard
    skip = max(0, int(round((rx_start - t0) * cfg.sample_rate)))
    heard = rx_wave.slice(skip, len(rx_wave)) if skip else rx_wave
    scan = bursts.recover_frames(heard, rx_cfg.modem, rx_cfg.gap_slots)
    if scan.corrupt_offsets:
        trace.log(t1, "RX", "rx_corrupt", burst=0, count=len(scan.corrupt_offsets))
    for msg in scan.messages:
        trace.log(t1, "RX", "rx_frame", burst=0, kind=msg.kind.name,
                  sender=msg.sender_id, seq=msg.seq, body=msg.body)
    result = bursts.reassemble_burst(scan, rx_cfg.modem, rx_cfg.gap_slots, start=-skip).result()
    if result.complete:
        trace.log(t1, "RX", "deliver", bytes=len(result.data))
    trace.summary = {
        "schema": TRACE_SCHEMA_VERSION,
        "complete": result.complete,
        "duration": t1 - min(t0, rx_start),
        "seed": seed,
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

def verify_trace(trace: SessionTrace, t_max: float = 10.0) -> dict:
    """Recompute the protocol invariants from a trace.

    Returns violation counts: token holding overlap between the two
    nodes, turns exceeding T_max of air time, and frames received while
    the receiving node's own transducer was transmitting or switching.
    """
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
        if e["turn"] and e["end"] - e["start"] > t_max + 1e-9
    )
    # half-duplex: a received frame while the receiver itself was inside
    # one of its own transmission bursts
    tx_spans = {}
    for e in trace.of_kind("tx_burst"):
        tx_spans.setdefault(e["node"], []).append((e["start"], e["end"]))
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
