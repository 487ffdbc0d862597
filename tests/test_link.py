"""Protocol tests: step-level transitions, full sessions, trace invariants."""

import numpy as np
import pytest

from ultralink.channel import preset
from ultralink.framing import ControlMessage, MessageKind
from ultralink.link import (
    FrameReceived,
    LinkConfig,
    Phase,
    ProtocolError,
    Retask,
    Role,
    ScheduleTick,
    SetTimer,
    Timeout,
    TimerKind,
    Transmit,
    adapt_bitrate,
    make_node,
    run_session,
    step,
    unidirectional_schedule,
    verify_trace,
)
from ultralink.modem import ConfigError, ModemConfig

CFG = LinkConfig(modem=ModemConfig(bit_rate=166))


def payload_bytes(n, seed=7):
    return bytes(np.random.default_rng(seed).integers(0, 256, n, dtype=np.uint8))


class TestLinkConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_bit_rate": 200.0, "max_bit_rate": 100.0},
            {"t_max": 0.0},
            {"t_max": -1.0},
            {"retask_latency": 0.0},
            {"retask_latency": -0.05},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            LinkConfig(**kwargs)

    def test_equal_rate_bounds_accepted(self):
        cfg = LinkConfig(min_bit_rate=166.0, max_bit_rate=166.0)
        assert cfg.min_bit_rate == cfg.max_bit_rate


class TestStep:
    def test_tick_schedules_randomized_broadcast(self):
        node = make_node(CFG, seed=1, name="A")
        state, actions = step(node, ScheduleTick(0.0))
        timers = [a for a in actions if isinstance(a, SetTimer)]
        assert timers and timers[0].kind == TimerKind.DISCOVERY_BROADCAST
        assert 0.0 <= timers[0].delay <= 5.0

    def test_broadcast_timer_transmits_discovery_then_listens(self):
        node = make_node(CFG, seed=1, name="A")
        node, _ = step(node, ScheduleTick(0.0))
        state, actions = step(node, Timeout(1.0, TimerKind.DISCOVERY_BROADCAST))
        kinds = [type(a) for a in actions]
        assert kinds[:3] == [Retask, Transmit, Retask]
        assert actions[0].role == Role.SPEAKER
        assert actions[2].role == Role.MIC
        sent = actions[1].messages
        assert all(m.kind == MessageKind.DISCOVERY for m in sent)
        assert all(m.sender_id == state.node_id for m in sent)
        waits = [a for a in actions if isinstance(a, SetTimer)]
        assert waits[-1].kind == TimerKind.DISCOVERY_ACK_WAIT
        assert waits[-1].delay >= 5.0

    def test_own_id_collision_rerandomizes_and_rebroadcasts(self):
        node = make_node(CFG, seed=3, name="A", node_id=42)
        node, _ = step(node, ScheduleTick(0.0))
        echo = ControlMessage(MessageKind.DISCOVERY, sender_id=42)
        state, actions = step(node, FrameReceived(2.0, echo))
        assert state.rerandomizations == 1
        assert state.node_id != 42
        timers = [a for a in actions if isinstance(a, SetTimer)]
        assert timers and timers[0].kind == TimerKind.DISCOVERY_BROADCAST
        assert timers[0].delay <= 5.0
        # no ack is sent to what looks like our own echo
        assert not any(isinstance(a, Transmit) for a in actions)

    def test_foreign_discovery_is_acked(self):
        node = make_node(CFG, seed=3, name="A", node_id=42)
        node, _ = step(node, ScheduleTick(0.0))
        state, actions = step(
            node, FrameReceived(2.0, ControlMessage(MessageKind.DISCOVERY, sender_id=7))
        )
        assert state.peer_id == 7
        tx = [a for a in actions if isinstance(a, Transmit)]
        assert len(tx) == 1
        ack = tx[0].messages[0]
        assert ack.kind == MessageKind.ACK_OK and ack.body == 7
        assert ack.sender_id == 42

    def test_ack_wait_expiry_schedules_next_round(self):
        node = make_node(CFG, seed=5, name="A")
        node, _ = step(node, ScheduleTick(0.0))
        state, actions = step(node, Timeout(6.0, TimerKind.DISCOVERY_ACK_WAIT))
        assert state.phase == Phase.DISCOVERING
        timers = [a for a in actions if isinstance(a, SetTimer)]
        assert timers[0].kind == TimerKind.DISCOVERY_BROADCAST
        assert 0.0 <= timers[0].delay <= 5.0

    def test_discovery_ack_completes_discovery(self):
        node = make_node(CFG, seed=5, name="A", node_id=9, payload=b"hi")
        node, _ = step(node, ScheduleTick(0.0))
        ack = ControlMessage(MessageKind.ACK_OK, sender_id=30, body=9)
        state, actions = step(node, FrameReceived(3.0, ack))
        assert state.phase == Phase.DISCOVERED
        assert state.peer_id == 30
        timers = [a for a in actions if isinstance(a, SetTimer)]
        assert any(t.kind == TimerKind.TURN_START for t in timers)

    def test_turn_ends_with_release_and_mic(self):
        node = make_node(CFG, seed=5, name="A", node_id=9, payload=b"hello")
        node, _ = step(node, ScheduleTick(0.0))
        node, _ = step(node, FrameReceived(3.0, ControlMessage(MessageKind.ACK_OK, sender_id=30, body=9)))
        state, actions = step(node, Timeout(4.0, TimerKind.TURN_START))
        assert state.phase == Phase.HOLDING_TOKEN
        assert state.token_deadline == pytest.approx(4.0 + CFG.t_max)
        tx = [a for a in actions if isinstance(a, Transmit)][0]
        assert tx.messages[0].kind == MessageKind.ACQUIRE
        assert tx.messages[-1].kind == MessageKind.RELEASE
        retasks = [a for a in actions if isinstance(a, Retask)]
        assert retasks[-1].role == Role.MIC
        # after the burst is out, the node leaves HOLDING_TOKEN
        state2, _ = step(state, Timeout(8.0, TimerKind.TURN_SENT))
        assert state2.phase == Phase.LISTENING

    def test_feedback_turn_when_queue_empty(self):
        # token holder with nothing of its own to send: acquire, ack, release
        node = make_node(CFG, seed=6, name="B", node_id=4)
        node, _ = step(node, ScheduleTick(0.0))
        node, _ = step(node, FrameReceived(1.0, ControlMessage(MessageKind.DISCOVERY, sender_id=8)))
        node, _ = step(node, FrameReceived(2.0, ControlMessage(MessageKind.ACK_OK, sender_id=8, body=4)))
        node, _ = step(node, FrameReceived(5.0, ControlMessage(MessageKind.ACQUIRE, sender_id=8)))
        node, _ = step(node, FrameReceived(5.1, ControlMessage(MessageKind.DATA, seq=0, body=2)))
        node, _ = step(node, FrameReceived(5.2, ControlMessage(MessageKind.DATA, seq=1, body=0xAABB)))
        node, actions = step(node, FrameReceived(5.3, ControlMessage(MessageKind.RELEASE, sender_id=8)))
        timers = [a for a in actions if isinstance(a, SetTimer)]
        assert any(t.kind == TimerKind.TURN_START for t in timers)
        state, actions = step(node, Timeout(5.5, TimerKind.TURN_START))
        tx = [a for a in actions if isinstance(a, Transmit)][0]
        kinds = [m.kind for m in tx.messages]
        assert kinds[0] == MessageKind.ACQUIRE
        assert kinds[-1] == MessageKind.RELEASE
        assert MessageKind.ACK_OK in kinds
        assert MessageKind.DATA not in kinds
        state, _ = step(state, Timeout(7.0, TimerKind.TURN_SENT))
        assert state.phase == Phase.IDLE  # nothing awaited back

    def test_out_of_order_event_rejected(self):
        node = make_node(CFG, seed=5, name="A")
        node, _ = step(node, ScheduleTick(10.0))
        with pytest.raises(ProtocolError):
            step(node, ScheduleTick(5.0))

    def test_step_does_not_mutate_input(self):
        node = make_node(CFG, seed=5, name="A", node_id=9)
        node, _ = step(node, ScheduleTick(0.0))
        before = (node.phase, node.node_id, node.last_event_time)
        step(node, FrameReceived(2.0, ControlMessage(MessageKind.DISCOVERY, sender_id=9)))
        assert (node.phase, node.node_id, node.last_event_time) == before


class TestAdaptBitrate:
    def _discovered(self, rate=100.0):
        node = make_node(CFG, seed=1, name="A")
        node.phase = Phase.IDLE
        node.bit_rate_current = rate
        return node

    def test_increase_is_5_percent(self):
        assert adapt_bitrate(self._discovered(100.0), +1).bit_rate_current == pytest.approx(105.0)

    def test_floor_clamp(self):
        assert adapt_bitrate(self._discovered(10.0), -1).bit_rate_current == 10.0

    def test_ceiling_clamp(self):
        assert adapt_bitrate(self._discovered(500.0), +1).bit_rate_current == 500.0

    def test_inc_then_dec_is_identity(self):
        node = self._discovered(166.0)
        back = adapt_bitrate(adapt_bitrate(node, +1), -1)
        assert abs(back.bit_rate_current - 166.0) < 1e-9

    def test_rejected_while_discovering(self):
        node = make_node(CFG, seed=1, name="A")
        with pytest.raises(ProtocolError):
            adapt_bitrate(node, +1)


class TestSessions:
    def test_noiseless_delivery_no_retransmits(self):
        data = payload_bytes(128)
        trace = run_session(CFG, CFG, preset("noiseless"), data, seed=3)
        s = trace.summary
        assert s["complete"]
        assert s["delivered_intact"]["B"]
        assert s["retransmit_requests"] == 0
        assert s["undetected_corruption"] == 0
        inv = verify_trace(trace, t_max=CFG.t_max)
        assert inv == {"token_overlaps": 0, "t_max_violations": 0, "half_duplex_violations": 0}

    def test_goodput_matches_overhead_arithmetic(self):
        # independent oracle: cycle arithmetic from the protocol constants
        data = payload_bytes(128)
        trace = run_session(CFG, CFG, preset("noiseless"), data, seed=3)
        spb = CFG.modem.samples_per_bit
        frame_air = 46 * spb / 48000
        gap_air = CFG.gap_slots * spb / 48000

        def burst_air(n):
            return n * frame_air + (n - 1) * gap_air

        capacity = int((CFG.t_max + gap_air) / (frame_air + gap_air))
        chunks = 1 + 64  # length prefix + 64 two-byte chunks
        windows = []
        left = chunks
        while left:
            take = min(left, capacity - 2)
            windows.append(take)
            left -= take
        retask, jitter = CFG.retask_latency, 0.1
        elapsed = 0.0
        for w in windows[:-1]:
            elapsed += 2 * retask + burst_air(w + 2) + jitter          # data turn
            elapsed += 2 * retask + burst_air(3) + jitter              # feedback turn
        elapsed += retask + burst_air(windows[-1] + 2)                 # final data turn
        oracle = 8 * len(data) / elapsed
        assert trace.summary["goodput_bps"] == pytest.approx(oracle, rel=0.2)

    def test_noisy_sessions_deliver_with_retransmissions(self):
        data = payload_bytes(64)
        any_retransmit = False
        for seed in range(6):
            trace = run_session(CFG, CFG, preset("paper-3m"), data, seed=seed, budget=900)
            s = trace.summary
            assert s["complete"], seed
            assert s["delivered_intact"]["B"], seed
            any_retransmit = any_retransmit or s["retransmit_requests"] > 0
            inv = verify_trace(trace, t_max=CFG.t_max)
            assert not any(inv.values()), (seed, inv)
        assert any_retransmit  # at ~1% BER some frames must have been lost

    def test_forced_id_collision_resolves_once(self):
        trace = run_session(CFG, CFG, preset("noiseless"), b"", seed=11,
                            node_ids=(42, 42), stop_after_discovery=True)
        assert trace.summary["complete"]
        assert sum(trace.summary["rerandomizations"].values()) == 1

    def test_seeded_traces_bit_identical(self):
        data = payload_bytes(32)
        a = run_session(CFG, CFG, preset("paper-3m"), data, seed=21, budget=900)
        b = run_session(CFG, CFG, preset("paper-3m"), data, seed=21, budget=900)
        assert a.to_json() == b.to_json()
        c = run_session(CFG, CFG, preset("paper-3m"), data, seed=22, budget=900)
        assert a.to_json() != c.to_json()

    def test_empty_payload_rejected(self):
        with pytest.raises(ValueError):
            run_session(CFG, CFG, preset("noiseless"), b"", seed=0)

    def test_budget_exhaustion_flags_incomplete(self):
        data = payload_bytes(64)
        trace = run_session(CFG, CFG, preset("noiseless"), data, seed=3, budget=3.0)
        assert trace.summary["incomplete"]

    def test_bidirectional_payloads(self):
        data_ab = payload_bytes(48, seed=1)
        data_ba = payload_bytes(36, seed=2)
        trace = run_session(CFG, CFG, preset("noiseless"), data_ab, seed=5,
                            payload_b=data_ba)
        s = trace.summary
        assert s["complete"]
        assert s["delivered_intact"] == {"B": True, "A": True}
        inv = verify_trace(trace, t_max=CFG.t_max)
        assert not any(inv.values())

    def test_auto_rate_negotiation_on_clean_channel(self):
        auto = LinkConfig(modem=ModemConfig(bit_rate=166), auto_rate=True)
        data = payload_bytes(200)
        trace = run_session(auto, auto, preset("noiseless"), data, seed=9)
        s = trace.summary
        assert s["complete"] and s["delivered_intact"]["B"]
        rates = s["final_bit_rate"]
        assert rates["A"] == rates["B"]        # peers stayed in sync
        assert rates["A"] > 166.0              # and the rate actually rose
        assert any(k in ("BITRATE_INC", "BITRATE_DEC") for k in trace.frame_kinds())


class TestDiscoveryLiveness:
    def test_1000_noiseless_runs_discover_within_10_rounds(self):
        slow = 0
        for seed in range(1000):
            trace = run_session(CFG, CFG, preset("noiseless"), b"", seed=seed,
                                stop_after_discovery=True, budget=300.0)
            rounds = max(trace.summary["broadcast_rounds"].values())
            if not trace.summary["complete"] or rounds > 10:
                slow += 1
        assert slow <= 10  # >= 99% of runs


class TestUnidirectional:
    def test_noiseless_all_frames_no_control(self):
        data = payload_bytes(40)
        trace = unidirectional_schedule(CFG, CFG, preset("noiseless"), data,
                                        start_time=5.0, rx_guard=2.0, seed=1)
        s = trace.summary
        assert s["complete"] and s["delivered_intact"]["RX"]
        assert s["frames_recovered"] == s["frames_sent"]
        kinds = {e["kind"] for e in trace.of_kind("rx_frame")}
        assert "ACK_OK" not in kinds and "RETRANSMIT" not in kinds
        assert s["ack_frames"] == 0 and s["retransmit_requests"] == 0

    def test_transmission_starts_exactly_on_schedule(self):
        data = payload_bytes(10)
        trace = unidirectional_schedule(CFG, CFG, preset("noiseless"), data,
                                        start_time=42.0, seed=1)
        burst = trace.of_kind("tx_burst")[0]
        assert burst["start"] == 42.0

    def test_late_receiver_loses_first_frame_only(self):
        data = payload_bytes(40)
        # receiver wakes mid-way through the first frame's preamble
        late = -0.5 * 46 * CFG.modem.samples_per_bit / 48000
        trace = unidirectional_schedule(CFG, CFG, preset("noiseless"), data,
                                        start_time=5.0, rx_guard=late, seed=1)
        s = trace.summary
        assert s["frames_recovered"] == s["frames_sent"] - 1
        assert s["missing_chunks"] == [0]  # the length prefix went with frame 0
        assert not s["complete"]

    def test_empty_payload_rejected(self):
        with pytest.raises(ValueError):
            unidirectional_schedule(CFG, CFG, preset("noiseless"), b"")
