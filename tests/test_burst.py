"""Burst receiver tests: frames are recovered on the burst's grid only."""

import numpy as np
import pytest

from ultralink import burst, framing
from ultralink.audio import SampleBuffer
from ultralink.channel import ChannelModel, _kernel, apply_signal_path, preset
from ultralink.framing import FRAME_BITS, ControlMessage, MessageKind
from ultralink.link import LinkConfig, run_session
from ultralink.modem import ModemConfig, ToneScanner, modulate, slot_basis

CFG = ModemConfig(bit_rate=166)
LINK_CFG = LinkConfig(modem=CFG)
SPB = CFG.samples_per_bit
PERIOD = (FRAME_BITS + burst.FRAME_GAP_SLOTS) * SPB
STEP = SPB // 8                 # preamble candidates lie on a 1/8-slot lattice

# oneway-16b inputs that failed through off-grid frames (bench/README.md):
# four rate desyncs and the token overlap at seed 2 op 38
RATE_DESYNC_SEEDS = [2479542943, 913951868, 1904832783, 3225285948]
OVERLAP_SEED = 918319157


def bench_payload(seed):
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
    return bytes(rng.integers(0, 256, 16, dtype=np.uint8))


def off_grid(frame):
    """Slots between a frame and the nearest grid slot of a burst that
    starts at sample 0 (every burst the engine hands the receiver does)."""
    return abs(frame.offset - round(frame.offset / PERIOD) * PERIOD) / SPB


@pytest.fixture
def scans(monkeypatch):
    """Every `recover_frames` result while the fixture is live."""
    recorded = []
    original = burst.recover_frames

    def recording(*args, **kwargs):
        scan = original(*args, **kwargs)
        recorded.append(scan)
        return scan

    monkeypatch.setattr(burst, "recover_frames", recording)
    return recorded


class TestOffGridFrames:
    @pytest.mark.parametrize("seed", RATE_DESYNC_SEEDS + [OVERLAP_SEED])
    def test_bench_sessions_recover_no_frame_off_the_grid(self, seed, scans):
        payload = bench_payload(seed)
        trace = run_session(LINK_CFG, LINK_CFG, preset("paper-3m"), payload,
                            seed=seed, budget=900.0)
        frames = [f for scan in scans for f in scan.frames]
        assert frames
        assert max(off_grid(f) for f in frames) <= 1.0
        if seed in RATE_DESYNC_SEEDS:
            s = trace.summary
            assert s["complete"] and s["delivered_intact"]["B"]
            assert not any(e["kind"].startswith("BITRATE") for e in trace.of_kind("rx_frame"))

    def test_ghost_free_frames_carry_their_grid_index(self):
        messages = [ControlMessage(MessageKind.DATA, seq=i, body=i) for i in range(6)]
        wave = burst.messages_to_waveform(messages, CFG)
        assert len(wave) == burst.burst_length(6, CFG) == 5 * PERIOD + FRAME_BITS * SPB
        scan = burst.recover_frames(wave, CFG)
        assert [f.message for f in scan.frames] == messages
        assert scan.corrupt_offsets == []
        assert [f.index for f in scan.frames] == list(range(6))
        assert [f.offset for f in scan.frames] == [i * PERIOD for i in range(6)]


class TestGridOrigin:
    @pytest.mark.parametrize("frames", [2, 5, 9])
    def test_alias_planted_before_frame_1(self, frames):
        # frame 0 is lost and the gap before frame 1 holds a clean '10': the
        # first lock is two slots early, and the grid must not follow it
        rng = np.random.default_rng(frames)
        for _ in range(8):
            messages = [ControlMessage(MessageKind.DATA, seq=i, body=int(b))
                        for i, b in enumerate(rng.integers(0, 1 << 16, frames))]
            samples = burst.messages_to_waveform(messages, CFG).samples.copy()
            samples[:FRAME_BITS * SPB] = 0.0
            samples[PERIOD - 2 * SPB:PERIOD] = modulate("10", CFG).samples
            scan = burst.recover_frames(SampleBuffer(samples, CFG.sample_rate), CFG)
            assert [(f.index, f.message) for f in scan.frames] == [
                (i, messages[i]) for i in range(1, frames)
            ]
            assert all(abs(f.offset - f.index * PERIOD) <= STEP for f in scan.frames)

    def test_silence_between_bursts_starts_a_new_grid(self):
        first = [ControlMessage(MessageKind.DATA, seq=i, body=i) for i in range(3)]
        second = [ControlMessage(MessageKind.DATA, seq=i, body=100 + i) for i in range(2)]
        # a silence of 2.5 periods: not a whole number of frames
        silence = np.zeros(5 * PERIOD // 2)
        samples = np.concatenate([
            silence, burst.messages_to_waveform(first, CFG).samples,
            silence, burst.messages_to_waveform(second, CFG).samples, silence,
        ])
        scan = burst.recover_frames(SampleBuffer(samples, CFG.sample_rate), CFG)
        assert [f.message for f in scan.frames] == first + second
        starts = [len(silence) + i * PERIOD for i in range(3)]
        starts += [starts[-1] + FRAME_BITS * SPB + len(silence) + i * PERIOD for i in range(2)]
        assert all(abs(f.offset - start) <= STEP for f, start in zip(scan.frames, starts))
        indices = [f.index for f in scan.frames]
        assert indices[1:3] == [indices[0] + 1, indices[0] + 2]
        assert indices[3] > indices[2] and indices[4] == indices[3] + 1


def test_rx_corrupt_counts_heard_grid_slots():
    # frame 1 keeps its preamble and loses its CRC: one heard slot fails
    messages = [ControlMessage(MessageKind.DATA, seq=i, body=i) for i in range(3)]
    bits = [framing.encode_frame(framing.encode_message(m)) for m in messages]
    bits[1] = bits[1].copy()
    bits[1][-1] ^= 1
    samples = np.concatenate([
        np.concatenate([modulate(b, CFG).samples, np.zeros(burst.FRAME_GAP_SLOTS * SPB)])
        for b in bits
    ])[:-burst.FRAME_GAP_SLOTS * SPB]
    scan = burst.recover_frames(SampleBuffer(samples, CFG.sample_rate), CFG)
    assert [f.index for f in scan.frames] == [0, 2]
    assert scan.corrupt_offsets == [PERIOD]


@pytest.mark.parametrize("unsure", [3, 4])
def test_a_frame_with_four_doubtful_bits_is_refused(unsure):
    # frame 1 keeps every bit and its CRC, but `unsure` of its slots also
    # carry the other tone at 0.9 of the amplitude: confidence about 0.1
    messages = [ControlMessage(MessageKind.DATA, seq=i, body=7 * i) for i in range(3)]
    samples = burst.messages_to_waveform(messages, CFG).samples.copy()
    bits = framing.encode_frame(framing.encode_message(messages[1]))
    doubtful = [10, 20, 30, 40][:unsure]
    for slot in doubtful:
        start = PERIOD + slot * SPB
        samples[start:start + SPB] += 0.9 * modulate([1 - bits[slot]], CFG).samples
    buf = SampleBuffer(samples, CFG.sample_rate)
    decoded, conf = ToneScanner(buf, CFG).decode_bits(PERIOD, FRAME_BITS)
    assert decoded.tobytes() == bits.tobytes()
    assert np.count_nonzero(conf < burst.UNSURE_BIT_CONFIDENCE) == unsure
    scan = burst.recover_frames(buf, CFG)
    if unsure < burst.CRC_MISSED_ERROR_BITS:
        assert [f.message for f in scan.frames] == messages
        assert scan.corrupt_offsets == []
    else:
        assert [f.index for f in scan.frames] == [0, 2]
        assert scan.corrupt_offsets == [PERIOD]


@pytest.mark.parametrize("lead_slots", [0, 1, 2, 8])
def test_every_gap_length_recovers_a_clean_burst(lead_slots):
    """Frames keep the fixed gap; the silence ahead of the burst varies."""
    messages = [ControlMessage(MessageKind.DATA, seq=i, body=3 * i) for i in range(5)]
    samples = np.concatenate([np.zeros(lead_slots * SPB),
                              burst.messages_to_waveform(messages, CFG).samples])
    scan = burst.recover_frames(SampleBuffer(samples, CFG.sample_rate), CFG)
    assert [f.message for f in scan.frames] == messages
    assert [f.index for f in scan.frames] == list(range(5))
    # locks lie on the 1/8-slot preamble lattice
    starts = [lead_slots * SPB + i * PERIOD for i in range(5)]
    assert all(abs(f.offset - s) <= STEP for f, s in zip(scan.frames, starts))
    assert scan.corrupt_offsets == []


@pytest.mark.parametrize("model", [
    preset("paper-3m"), preset("paper-8m"), ChannelModel(distance=2.0, angle_off_axis=45.0),
], ids=["paper-3m", "paper-8m", "45deg"])
def test_slot_atoms_are_the_slot_tones_convolved_with_the_taps(model):
    taps = _kernel(model)
    atoms = burst._slot_atoms(CFG, model)
    for row, (freq, wave) in enumerate([(CFG.f0, np.sin), (CFG.f0, np.cos),
                                        (CFG.f1, np.sin), (CFG.f1, np.cos)]):
        tone = CFG.gain * wave(2.0 * np.pi * freq / CFG.sample_rate * np.arange(1, SPB + 1))
        # full convolution: output sample t is input sample t - FILTER_TAPS/2
        # of the padded tone, the same alignment as the atom's
        expected = np.convolve(tone, taps)
        np.testing.assert_allclose(atoms[row, :expected.size], expected, rtol=0, atol=1e-12)
        assert not atoms[row, expected.size:].any()


@pytest.mark.parametrize("rate", [10.0, 50.0, 166.0, 500.0])
@pytest.mark.parametrize("name", ["noiseless", "paper-3m", "paper-8m", "45deg"])
def test_received_slots_are_the_filtered_modulation(rate, name):
    # joined, the blocks of one row are one `modulate` call from phase 0
    # through the signal path; at 10 bit/s the atoms span 2 slots, at
    # 500 bit/s 21
    cfg = ModemConfig(bit_rate=rate)
    model = preset(name) if name != "45deg" else ChannelModel(distance=2.0, angle_off_axis=45.0)
    bits = np.random.default_rng(int(rate)).integers(0, 2, 120, dtype=np.uint8)
    expected = apply_signal_path(modulate(bits, cfg).samples, model)
    got = np.concatenate(list(burst.received_blocks(bits[None], cfg, model)))
    assert got.shape == expected.shape
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-9)


@pytest.mark.parametrize("rate", [10.0, 166.0, 500.0])
@pytest.mark.parametrize("name", ["paper-3m", "45deg"])
def test_received_blocks_concatenate_to_received_slots(rate, name):
    # runs of whole slots, the last one partial; joined, they are the rows
    # modulated from phase 0, FRAME_GAP_SLOTS silent slots apart, through
    # the signal path, also over several frames with their gaps
    cfg = ModemConfig(bit_rate=rate)
    model = preset(name) if name != "45deg" else ChannelModel(distance=2.0, angle_off_axis=45.0)
    spb = cfg.samples_per_bit
    step = burst.BLOCK_SAMPLES // spb
    gap = np.zeros(burst.FRAME_GAP_SLOTS * spb)
    rng = np.random.default_rng(int(rate))
    for shape in [(1, 1), (1, step), (1, 2 * step + 1), (1, 1001), (5, FRAME_BITS)]:
        bits = rng.integers(0, 2, shape, dtype=np.uint8)
        rows = [piece for row in bits for piece in (gap, modulate(row, cfg).samples)][1:]
        expected = apply_signal_path(np.concatenate(rows), model)
        blocks = list(burst.received_blocks(bits, cfg, model))
        assert all(b.size % spb == 0 for b in blocks)
        assert all(b.size <= step * spb for b in blocks)
        got = np.concatenate(blocks)
        assert got.shape == expected.shape
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-9)


@pytest.mark.parametrize("rate", [10.0, 166.0, 500.0])
@pytest.mark.parametrize("fs", [48_000, 44_100])
@pytest.mark.parametrize("name", ["paper-3m", "45deg"])
def test_received_projections_are_those_of_the_received_blocks(rate, fs, name):
    # the projections on the slot basis, made without samples, of the runs
    # of `received_blocks`, run by run, to rounding
    cfg = ModemConfig(bit_rate=rate, sample_rate=fs)
    model = preset("paper-3m", sample_rate=fs, angle_off_axis=45.0 if name == "45deg" else 0.0)
    spb = cfg.samples_per_bit
    step = burst.BLOCK_SAMPLES // spb
    rng = np.random.default_rng(int(rate))
    for shape in [(1, 1), (1, step), (1, 2 * step + 1), (1, 1001), (5, FRAME_BITS)]:
        bits = rng.integers(0, 2, shape, dtype=np.uint8)
        blocks = list(burst.received_blocks(bits, cfg, model))
        runs = list(burst.received_projections(bits, cfg, model))
        assert [len(run) for run in runs] == [b.size // spb for b in blocks]
        expected = np.concatenate(blocks).reshape(-1, spb) @ slot_basis(cfg)
        np.testing.assert_allclose(np.concatenate(runs), expected,
                                   rtol=0, atol=1e-12 * np.abs(expected).max())
