"""Protocol tests: step-level transitions, full sessions, trace invariants."""

import copy
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultralink import burst as bursts
from ultralink import framing, link
from ultralink.channel import ChannelModel, NoiseKind, NoiseProfile, preset, propagate
from ultralink.framing import ControlMessage, MessageKind
from ultralink.link import (
    SEQ_WINDOW,
    FrameReceived,
    LinkConfig,
    NodeState,
    Phase,
    ProtocolError,
    Retask,
    Role,
    ScheduleTick,
    SetTimer,
    Timeout,
    TimerKind,
    Transmit,
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
            {"t_max": 0.0},
            {"t_max": -1.0},
            {"retask_latency": 0.0},
            {"retask_latency": -0.05},
            {"t_max": math.inf},
            {"t_max": math.nan},
            {"retask_latency": math.inf},
            {"retask_latency": math.nan},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            LinkConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"t_max": 30.0, "modem": ModemConfig(bit_rate=500.0)},  # 300 frames per turn
            {"t_max": 22.6, "modem": ModemConfig(bit_rate=500.0)},  # 226 frames
            {"t_max": 12.0, "modem": ModemConfig(f0=18_000.0, f1=21_000.0, bit_rate=1000.0)},
        ],
    )
    def test_turn_longer_than_seq_window_rejected(self, kwargs):
        with pytest.raises(ConfigError, match="seq window"):
            LinkConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {},
            {"t_max": 7.5, "modem": ModemConfig(bit_rate=50.0)},
            {"t_max": 22.4, "modem": ModemConfig(bit_rate=500.0)},  # exactly 224 frames
            {"t_max": 30.0, "modem": ModemConfig(bit_rate=300.0)},  # 180 frames
        ],
    )
    def test_turn_within_seq_window_accepted(self, kwargs):
        LinkConfig(**kwargs)

    def test_turn_too_short_for_a_minimal_turn_rejected(self):
        # at 10 bit/s ACQUIRE, one DATA and RELEASE are 14.6 s of air
        slow = ModemConfig(bit_rate=10.0)
        with pytest.raises(ConfigError, match="fewer than the 3 frames"):
            LinkConfig(modem=slow)
        cfg = LinkConfig(modem=slow, t_max=15.0)
        assert link._turn_frames(cfg) == 3

    @given(
        t_max=st.floats(0.01, 60.0),
        gap_slots=st.integers(0, 8),
        modem_rate=st.sampled_from([10.0, 50.0, 166.0, 500.0, 1000.0, 2000.0]),
        wide=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_accepted_configs_never_overrun_the_window(self, t_max, gap_slots, modem_rate, wide):
        try:
            modem = ModemConfig(f0=18_000.0, f1=22_000.0 if wide else 19_000.0, bit_rate=modem_rate)
            cfg = LinkConfig(modem=modem, t_max=t_max, gap_slots=gap_slots)
        except ConfigError:
            return
        # fill one turn at the modem rate
        node = make_node(cfg, seed=0, name="A", payload=bytes(4 * SEQ_WINDOW))
        node.phase = Phase.IDLE
        turn = link._build_turn(node)
        data = sum(1 for m in turn if m.kind == MessageKind.DATA)
        assert 1 <= data <= SEQ_WINDOW, data


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

    @pytest.mark.parametrize("kind", [MessageKind.BITRATE_INC, MessageKind.BITRATE_DEC])
    def test_rate_frames_are_ignored(self, kind):
        # a discovering node, and one listening to the peer's data turn
        discovering, _ = step(make_node(CFG, seed=6, name="B", node_id=4), ScheduleTick(0.0))
        listening = discovering
        for t, msg in [(1.0, ControlMessage(MessageKind.DISCOVERY, sender_id=8)),
                       (2.0, ControlMessage(MessageKind.ACK_OK, sender_id=8, body=4)),
                       (5.0, ControlMessage(MessageKind.ACQUIRE, sender_id=8)),
                       (5.1, ControlMessage(MessageKind.DATA, seq=0, body=2))]:
            listening, _ = step(listening, FrameReceived(t, msg))
        assert listening.phase == Phase.LISTENING
        for node in (discovering, listening):
            state, actions = step(node, FrameReceived(6.0, ControlMessage(kind, sender_id=8)))
            assert actions == []
            assert state.last_event_time == 6.0
            assert state.rng.bit_generator.state == node.rng.bit_generator.state
            for f in dataclasses.fields(NodeState):
                if f.name not in ("last_event_time", "rng"):
                    assert getattr(state, f.name) == getattr(node, f.name), f.name

    def test_out_of_order_event_rejected(self):
        node = make_node(CFG, seed=5, name="A")
        node, _ = step(node, ScheduleTick(10.0))
        with pytest.raises(ProtocolError):
            step(node, ScheduleTick(5.0))

    def test_step_does_not_mutate_input(self, monkeypatch):
        # every event of one criterion-5 session: the input state still
        # equals a deep snapshot taken before the call, field by field
        original = link.step
        seen = {"events": 0, "rx_chunks": 0, "rng_draws": 0}

        def checked(state, event):
            snapshot = copy.deepcopy(state)
            new, actions = original(state, event)
            for f in dataclasses.fields(NodeState):
                if f.name == "rng":
                    assert state.rng.bit_generator.state == snapshot.rng.bit_generator.state
                else:
                    assert getattr(state, f.name) == getattr(snapshot, f.name), f.name
            assert new.rx is not state.rx and new.rx.chunks is not state.rx.chunks
            assert new.rng is not state.rng
            seen["events"] += 1
            seen["rx_chunks"] += bool(state.rx.chunks)
            seen["rng_draws"] += new.rng.bit_generator.state != state.rng.bit_generator.state
            return new, actions

        monkeypatch.setattr(link, "step", checked)
        payload = bytes(np.random.default_rng(0).integers(0, 256, 16, dtype=np.uint8))
        trace = run_session(CFG, CFG, preset("paper-3m"), payload, seed=3, budget=900.0)
        assert trace.summary["delivered_intact"]["B"]
        assert seen["events"] > 20 and seen["rx_chunks"] > 0 and seen["rng_draws"] > 0

    def test_sessions_match_a_deep_copying_step(self, monkeypatch):
        payload = bytes(np.random.default_rng(0).integers(0, 256, 16, dtype=np.uint8))
        seeds = range(0, 100, 20)
        shallow = [run_session(CFG, CFG, preset("paper-3m"), payload, seed=s, budget=900.0).to_json()
                   for s in seeds]
        original = link.step
        monkeypatch.setattr(link, "step", lambda state, event: original(copy.deepcopy(state), event))
        deep = [run_session(CFG, CFG, preset("paper-3m"), payload, seed=s, budget=900.0).to_json()
                for s in seeds]
        assert shallow == deep


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
        assert not trace.summary["complete"]

    @pytest.mark.parametrize("b_cfg", [
        LinkConfig(modem=ModemConfig(bit_rate=100)),
        LinkConfig(modem=ModemConfig(bit_rate=166, f1=19_600.0)),
        LinkConfig(modem=ModemConfig(bit_rate=166), gap_slots=5),
    ], ids=["bit_rate", "carrier", "gap_slots"])
    def test_nodes_with_different_air_formats_rejected(self, b_cfg):
        with pytest.raises(ConfigError, match="share the modem config"):
            run_session(CFG, b_cfg, preset("noiseless"), b"hi", seed=0)

    def test_600_bytes_pass_256_chunks(self):
        # 300 chunks: sequence numbers wrap past 255 within one transfer
        payload = payload_bytes(600, seed=0)
        trace = run_session(CFG, CFG, preset("paper-3m"), payload, seed=0, budget=900.0)
        assert trace.summary["complete"]
        assert trace.summary["delivered_intact"]["B"]
        assert not any(verify_trace(trace, t_max=CFG.t_max).values())

    @pytest.mark.xfail(strict=True, reason=(
        "criterion-5 seed 1087: both nodes start a turn 41 ms apart, inside the "
        "retask blind window, and both hold the token (ROADMAP item 2)"))
    def test_criterion_5_seed_1087_holds_the_token_once(self):
        payload = bytes(np.random.default_rng(0).integers(0, 256, 16, dtype=np.uint8))
        trace = run_session(CFG, CFG, preset("paper-3m"), payload, seed=1087, budget=900.0)
        assert verify_trace(trace, t_max=CFG.t_max)["token_overlaps"] == 0

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


class TestReceivedBurst:
    MESSAGES = [
        ControlMessage(MessageKind.ACQUIRE, sender_id=0x11, seq=0, body=0),
        ControlMessage(MessageKind.DATA, seq=5, body=0xBEEF),
        ControlMessage(MessageKind.DATA, seq=6, body=0x0102),
        ControlMessage(MessageKind.RELEASE, sender_id=0x11, seq=0, body=0),
        ControlMessage(MessageKind.ACK_OK, sender_id=0x22, seq=6, body=0),
        ControlMessage(MessageKind.DISCOVERY, sender_id=0x22, seq=0, body=0),
    ]

    MODELS = pytest.mark.parametrize("model", [
        preset("paper-3m"),
        ChannelModel(distance=2.0, angle_off_axis=45.0, base_snr_at_1m=20.0,
                     noise=NoiseProfile(NoiseKind.MUSIC_LIKE, -10.0), sample_shift_delay=True),
        ChannelModel(distance=0.5, response_curve=((0.0, 0.0), (24000.0, 0.0))),   # uniform gain
    ], ids=["paper-3m", "45deg-shaped-noise-shifted", "uniform"])

    @staticmethod
    def expected_length(wave, model):
        shift = round(model.propagation_delay * model.sample_rate) if model.sample_shift_delay else 0
        return len(wave) + shift

    @MODELS
    def test_frames_add_up_to_the_propagated_burst(self, model):
        # the engine's received burst is the same operator as propagating
        # the whole burst: its filtered slot atoms add up by linearity
        bursts_sent = [
            self.MESSAGES[:4], self.MESSAGES[4:5], self.MESSAGES[5:],
            [self.MESSAGES[0], self.MESSAGES[1], self.MESSAGES[1], self.MESSAGES[3]],
            self.MESSAGES[::-1],
        ]
        nodes = [make_node(CFG, 5, name) for name in "AB"]
        engine = link._Engine(nodes, model, 5, 60.0)
        for ident, messages in enumerate(bursts_sent):
            b = link._Burst(tx=ident % 2, t0=0.0, t1=1.0, messages=tuple(messages))
            got = engine._received_burst(ident, b)
            wave = bursts.messages_to_waveform(messages, CFG.modem, CFG.gap_slots)
            expected = propagate(wave, model, seed=(5, ident))
            assert len(got) == len(expected) == self.expected_length(wave, model)
            np.testing.assert_allclose(got.samples, expected.samples, rtol=0, atol=1e-9)

    @MODELS
    def test_one_way_stream_is_the_propagated_burst(self, model):
        payload = bytes(range(40))
        trace = unidirectional_schedule(CFG, CFG, model, payload, seed=7, keep_audio=True)
        wave = bursts.messages_to_waveform(framing.pack_payload(payload), CFG.modem, CFG.gap_slots)
        expected = propagate(wave, model, seed=(7, 0))
        got = trace.audio["RX"]
        assert len(got) == len(expected) == self.expected_length(wave, model)
        np.testing.assert_allclose(got.samples, expected.samples, rtol=0, atol=1e-9)
        tx = trace.of_kind("tx_burst")[0]
        assert tx["end"] - tx["start"] == wave.duration


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

    # frames recovered from these streams before the receiver decoded on the
    # frame grid, when a lock in one frame's payload could pass as a frame
    SCAN_PER_FRAME_RECOVERED = {0: 363, 1: 341, 2: 345, 3: 339}

    @pytest.mark.parametrize("seed", range(4))
    def test_lossy_stream_places_chunks_at_their_index(self, seed, monkeypatch):
        # 601 frames: seqs wrap twice, and paper-3m loses about a third of them
        data = payload_bytes(1200)
        sent = framing.pack_payload(data)
        placed, scans = {}, []
        unpack = framing.unpack_payload
        recover = link.bursts.recover_frames

        def spy(chunks):
            placed.update(chunks)
            return unpack(chunks)

        def recording(*args):
            scans.append(recover(*args))
            return scans[-1]

        monkeypatch.setattr(framing, "unpack_payload", spy)
        monkeypatch.setattr(link.bursts, "recover_frames", recording)
        trace = unidirectional_schedule(CFG, CFG, preset("paper-3m"), data, seed=seed)
        s = trace.summary
        assert s["frames_sent"] == len(sent)
        assert s["frames_recovered"] >= self.SCAN_PER_FRAME_RECOVERED[seed]
        # every recovered frame is the sent frame at its grid index, on the grid
        period = (framing.FRAME_BITS + CFG.gap_slots) * CFG.modem.samples_per_bit
        (scan,) = scans
        for frame in scan.frames:
            assert abs(frame.offset - frame.index * period) <= CFG.modem.samples_per_bit
            assert frame.message == sent[frame.index]
        data_frames = sum(e["kind"] == "DATA" for e in trace.of_kind("rx_frame"))
        assert 0 < len(placed) == data_frames == len(scan.frames) < len(sent)
        assert all(0 <= i < len(sent) for i in s["missing_chunks"])
        assert all(0 <= i < len(sent) and sent[i].body == body for i, body in placed.items())
