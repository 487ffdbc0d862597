"""Physical-layer tests: slot arithmetic, projections, sync, robustness."""

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import awgn_per_band_snr
from ultralink import burst, framing, link, modem
from ultralink.audio import SampleBuffer
from ultralink.bits import as_bits
from ultralink.channel import FILTER_TAPS, _signal_path, preset, propagate
from ultralink.framing import FRAME_BITS, ControlMessage, MessageKind
from ultralink.modem import (
    PHASOR_TABLE_MIN,
    PREAMBLE_FIRST_BLOCK,
    PREAMBLE_MIN_SCORE,
    PREAMBLE_PATTERN,
    PREAMBLE_SEARCH_DIVISOR,
    ConfigError,
    ModemConfig,
    PreambleHit,
    ToneScanner,
    carrier_phasor,
    demodulate,
    detect_preamble,
    modulate,
    spectral_power_outside,
    tone_energy,
)

CFG10 = ModemConfig(bit_rate=10)
CFG166 = ModemConfig(bit_rate=166)
CFG500 = ModemConfig(bit_rate=500)   # short slots: many scan blocks per buffer


class TestConfig:
    def test_defaults_valid(self):
        cfg = ModemConfig()
        assert cfg.f0 == 18500 and cfg.f1 == 19500
        assert cfg.samples_per_bit == round(48000 / cfg.bit_rate)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"f0": 17000.0},                      # below band
            {"f1": 25000.0},                      # above band
            {"f0": 19000.0, "f1": 19000.0},       # equal carriers
            {"f0": 19000.0, "f1": 19200.0, "bit_rate": 166.0},  # separation < 2x rate
            {"bit_rate": 4000.0},                 # < 16 samples per bit
            {"sample_rate": 30000},               # Nyquist violation
            {"gain": 0.0},
            {"gain": 1.2},
            {"bit_rate": math.nan},               # was a ValueError in samples_per_bit
            {"sample_rate": math.nan},            # likewise
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ModemConfig(**kwargs)


class TestModulate:
    def test_slot_arithmetic_exact(self):
        buf = modulate("10", CFG10)
        assert len(buf) == 9600
        # first slot carries f1 (bit '1'), second f0
        assert tone_energy(buf, 19500, (0, 4800)) > 100 * tone_energy(buf, 18500, (0, 4800))
        assert tone_energy(buf, 18500, (4800, 9600)) > 100 * tone_energy(buf, 19500, (4800, 9600))

    def test_empty_bits_empty_buffer(self):
        assert len(modulate("", CFG166)) == 0

    def test_length_formula(self, rng):
        for n in (1, 7, 100):
            bits = rng.integers(0, 2, n, dtype=np.uint8)
            assert len(modulate(bits, CFG166)) == n * CFG166.samples_per_bit

    def test_peak_amplitude_is_gain(self, rng):
        buf = modulate(rng.integers(0, 2, 50, dtype=np.uint8), CFG166)
        assert np.abs(buf.samples).max() == pytest.approx(0.9, abs=1e-3)

    def test_phase_continuity_no_jumps(self, rng):
        # continuous-phase FSK: the largest sample-to-sample step never
        # exceeds the steepest slope of either carrier
        buf = modulate(rng.integers(0, 2, 64, dtype=np.uint8), CFG166)
        max_step = 0.9 * 2 * np.pi * 19500 / 48000
        assert np.abs(np.diff(buf.samples)).max() <= max_step * 1.001

    def test_per_slot_phase_closed_form(self, rng):
        # slot k at bit b is gain * sin(start_k + omega_b (i + 1)), start_k the
        # running sum of the earlier slots' steps omega * spb; the filtered
        # slot atoms of the received bursts rest on this definition
        bits = rng.integers(0, 2, 10_000, dtype=np.uint8)
        spb = CFG166.samples_per_bit
        omegas = [2.0 * math.pi * f / CFG166.sample_rate for f in (CFG166.f0, CFG166.f1)]
        starts, start = [], 0.0
        for bit in bits:
            starts.append(start)
            start += omegas[bit] * spb
        omega = np.array(omegas)[bits]
        phase = np.array(starts)[:, None] + omega[:, None] * np.arange(1, spb + 1)
        expected = CFG166.gain * np.sin(phase).ravel()
        got = modulate(bits, CFG166).samples
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
        # a running sum over every sample drifts away from it
        per_sample = CFG166.gain * np.sin(np.cumsum(np.repeat(omega, spb)))
        assert np.abs(per_sample - got).max() > 1e-9

    def test_preamble_spectrogram_alternates(self):
        buf = modulate("101010", CFG10)
        spb = CFG10.samples_per_bit
        for k in range(6):
            window = (k * spb, (k + 1) * spb)
            hot = 19500 if k % 2 == 0 else 18500
            cold = 18500 if k % 2 == 0 else 19500
            assert tone_energy(buf, hot, window) > 100 * tone_energy(buf, cold, window)

    def test_emitted_power_stays_in_band(self, rng):
        for cfg in (CFG10, CFG166):
            bits = rng.integers(0, 2, 60, dtype=np.uint8)
            assert spectral_power_outside(modulate(bits, cfg), 17000, 25000) < 0.01


class TestToneEnergy:
    def test_unit_tone_is_quarter(self):
        fs = 48000
        n = np.arange(100 * fs // 19000 + fs)  # comfortably over 100 periods
        buf = SampleBuffer(np.sin(2 * np.pi * 19000 / fs * n), fs)
        assert tone_energy(buf, 19000, (0, len(buf))) == pytest.approx(0.25, rel=0.01)

    def test_silence_is_zero(self):
        buf = SampleBuffer(np.zeros(48000), 48000)
        assert tone_energy(buf, 19000, (0, 48000)) == 0.0

    def test_off_frequency_leakage_small(self):
        fs = 48000
        buf = SampleBuffer(np.sin(2 * np.pi * 18500 / fs * np.arange(4800)), fs)
        on = tone_energy(buf, 18500, (0, 4800))
        off = tone_energy(buf, 19500, (0, 4800))
        assert off < 0.01 * on

    def test_argument_validation(self):
        buf = SampleBuffer(np.zeros(1000), 48000)
        with pytest.raises(ValueError):
            tone_energy(buf, 19000, (0, 2000))
        with pytest.raises(ValueError):
            tone_energy(buf, 0.0, (0, 1000))
        with pytest.raises(ValueError):
            tone_energy(buf, 24000.0, (0, 1000))


class TestDemodulate:
    def test_noiseless_roundtrip_both_rates(self, rng):
        for cfg in (CFG10, CFG166):
            bits = rng.integers(0, 2, 200 if cfg is CFG10 else 2000, dtype=np.uint8)
            out = demodulate(modulate(bits, cfg), cfg)
            assert np.array_equal(out.bits, bits)
            assert out.consumed == bits.size * cfg.samples_per_bit
            assert np.all(out.confidences > 0.9)

    def test_swapped_carriers_give_complement(self, rng):
        bits = rng.integers(0, 2, 300, dtype=np.uint8)
        buf = modulate(bits, CFG166)
        out = demodulate(buf, CFG166.with_swapped_carriers())
        assert np.array_equal(out.bits, 1 - bits)

    def test_trailing_partial_slot_discarded(self, rng):
        bits = rng.integers(0, 2, 10, dtype=np.uint8)
        buf = modulate(bits, CFG166)
        clipped = buf.slice(0, len(buf) - 17)
        out = demodulate(clipped, CFG166)
        assert out.bits.size == 9
        assert out.consumed == 9 * CFG166.samples_per_bit

    def test_buffer_at_another_sample_rate_rejected(self, rng):
        # at 48 kHz the slots of a 44.1 kHz burst are misread: 184 bits, half wrong
        cfg44k = ModemConfig(sample_rate=44_100)
        buf = modulate(rng.integers(0, 2, 200, dtype=np.uint8), cfg44k)
        with pytest.raises(ConfigError, match="44100"):
            demodulate(buf, CFG166)

    def test_negative_start_offset_rejected(self, rng):
        buf = modulate(rng.integers(0, 2, 10, dtype=np.uint8), CFG166)
        with pytest.raises(ValueError, match="start_offset"):
            demodulate(buf, CFG166, start_offset=-5)

    def test_silence_zero_confidence(self):
        buf = SampleBuffer(np.zeros(CFG166.samples_per_bit * 4), 48000)
        out = demodulate(buf, CFG166)
        assert np.all(out.confidences == 0.0)

    def test_roundtrip_at_20db_per_band_snr(self, rng):
        errors = 0
        for seed in range(10):
            bits = np.random.default_rng(seed).integers(0, 2, 1000, dtype=np.uint8)
            noisy = awgn_per_band_snr(modulate(bits, CFG166), 20.0,
                                      tone_power=0.9**2 / 2, seed=seed)
            out = demodulate(noisy, CFG166)
            errors += int(np.sum(out.bits != bits))
        assert errors == 0

    def test_ber_monotone_in_snr(self):
        # Monte-Carlo: measured BER never increases with per-band SNR
        bers = []
        for snr in (0.0, 5.0, 10.0, 15.0, 20.0):
            errors = total = 0
            for seed in range(4):
                bits = np.random.default_rng(100 + seed).integers(0, 2, 1500, dtype=np.uint8)
                noisy = awgn_per_band_snr(modulate(bits, CFG166), snr,
                                          tone_power=0.9**2 / 2, seed=1000 + seed)
                out = demodulate(noisy, CFG166)
                errors += int(np.sum(out.bits != bits))
                total += bits.size
            bers.append(errors / total)
        assert all(a >= b for a, b in zip(bers, bers[1:]))
        assert bers[0] > 0.1        # at 0 dB the channel is genuinely bad
        assert bers[-1] == 0.0      # at 20 dB it is clean

    @given(st.lists(st.integers(0, 1), min_size=0, max_size=40))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, bit_list):
        bits = as_bits(bit_list)
        out = demodulate(modulate(bits, CFG166), CFG166)
        assert np.array_equal(out.bits, bits)


class TestDetectPreamble:
    def test_embedded_preamble_located(self, rng):
        payload = rng.integers(0, 2, 40, dtype=np.uint8)
        signal = modulate(np.concatenate([as_bits("101010"), payload]), CFG10)
        buf = SampleBuffer(
            np.concatenate([np.zeros(12345), signal.samples, np.zeros(4000)]), 48000
        )
        hit = detect_preamble(buf, CFG10)
        assert hit is not None
        assert abs(hit.offset - 12345) <= 480  # within 10% of a bit slot
        assert hit.score > 0.9

    def test_silence_returns_none(self):
        buf = SampleBuffer(np.zeros(48000 * 4), 48000)
        assert detect_preamble(buf, CFG10) is None

    def test_constant_tone_returns_none(self):
        assert detect_preamble(modulate("1" * 12, CFG10), CFG10) is None
        assert detect_preamble(modulate("0" * 12, CFG10), CFG10) is None

    def test_short_buffer_returns_none(self):
        buf = SampleBuffer(np.zeros(CFG166.samples_per_bit * 5), 48000)
        assert detect_preamble(buf, CFG166) is None

    def test_search_from_skips_earlier_hit(self):
        frame_bits = np.concatenate([as_bits("101010"), np.zeros(40, dtype=np.uint8)])
        one = modulate(frame_bits, CFG166).samples
        gap = np.zeros(8 * CFG166.samples_per_bit)
        buf = SampleBuffer(np.concatenate([one, gap, one]), 48000)
        first = detect_preamble(buf, CFG166)
        second = detect_preamble(buf, CFG166, search_from=first.offset + len(one))
        assert abs(first.offset - 0) <= 40
        assert abs(second.offset - (len(one) + len(gap))) <= 40


def full_scan(scanner, search_from=0):
    """Reference preamble search: score every candidate offset to the end
    of the buffer at once, then refine around the first passing one."""
    span = len(PREAMBLE_PATTERN) * scanner.spb
    last_start = scanner.n - span
    if last_start < search_from:
        return None
    offsets = np.arange(search_from, last_start + 1, scanner.step)
    matches, scores = scanner._candidate_scores(offsets)
    passing = matches & (scores >= PREAMBLE_MIN_SCORE)
    hits = np.flatnonzero(passing)
    if hits.size == 0:
        return None
    first = hits[0]
    window = passing[first:first + PREAMBLE_SEARCH_DIVISOR + 1]
    local_scores = np.where(window, scores[first:first + PREAMBLE_SEARCH_DIVISOR + 1], -1.0)
    best = first + int(np.argmax(local_scores))
    return PreambleHit(int(offsets[best]), float(scores[best]))


def block_edges(count):
    """Candidate index where each of the first `count` scan blocks ends."""
    edges, end, size = [], 0, PREAMBLE_FIRST_BLOCK
    for _ in range(count):
        end += size
        edges.append(end)
        size *= 2
    return edges


def preamble_wave(cfg, payload_bits=()):
    return modulate(np.concatenate([PREAMBLE_PATTERN, np.asarray(payload_bits, np.uint8)]), cfg)


def place(samples, wave, start):
    stop = min(start + len(wave), len(samples))
    samples[start:stop] += wave.samples[:stop - start]


@st.composite
def scan_cases(draw):
    cfg = draw(st.sampled_from([CFG166, CFG500]))
    spb = cfg.samples_per_bit
    step = max(1, spb // PREAMBLE_SEARCH_DIVISOR)
    span = len(PREAMBLE_PATTERN) * spb
    n = draw(st.integers(span, 250 * spb))
    sigma = draw(st.sampled_from([0.0, 0.05, 0.2, 0.6]))
    samples = sigma * np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(n)
    search_from = draw(st.one_of(st.just(0), st.integers(0, n // 4), st.integers(0, n)))
    for _ in range(draw(st.integers(0, 3))):
        where = draw(st.sampled_from(["anywhere", "block edge", "buffer end"]))
        edges = [e for e in block_edges(4) if search_from + (e + 8) * step + span <= n]
        if where == "block edge" and edges:
            edge = draw(st.sampled_from(edges))
            start = search_from + (edge + draw(st.integers(-2 * PREAMBLE_SEARCH_DIVISOR, 8))) * step
            start += draw(st.integers(0, step - 1))
        elif where == "buffer end":
            start = n - span - draw(st.integers(-spb, 3 * spb))
        else:
            start = draw(st.integers(0, n - 1))
        if 0 <= start < n:
            payload = draw(st.lists(st.integers(0, 1), max_size=12))
            place(samples, preamble_wave(cfg, payload), start)
    return cfg, samples, search_from


class TestBoundedPreambleScan:
    @given(scan_cases())
    @settings(max_examples=200, deadline=None)
    def test_matches_full_scan(self, case):
        cfg, samples, search_from = case
        scanner = ToneScanner(SampleBuffer(samples, cfg.sample_rate), cfg)
        assert scanner.find_preamble(search_from) == full_scan(scanner, search_from)

    @pytest.mark.parametrize("edge", block_edges(4))
    def test_hits_around_block_edges(self, edge):
        # slide one clean preamble across the end of a scan block, so the
        # first passing candidate lands just before, on and after the edge
        cfg = CFG500
        step = cfg.samples_per_bit // PREAMBLE_SEARCH_DIVISOR
        n = (edge + 40) * step + 8 * cfg.samples_per_bit
        wave = preamble_wave(cfg, [1, 1, 0, 0])
        landed = set()
        for k in range(-3 * PREAMBLE_SEARCH_DIVISOR, PREAMBLE_SEARCH_DIVISOR):
            samples = np.zeros(n)
            place(samples, wave, (edge + k) * step + step // 3)
            scanner = ToneScanner(SampleBuffer(samples, cfg.sample_rate), cfg)
            hit = scanner.find_preamble(0)
            assert hit == full_scan(scanner, 0)
            landed.add(hit.offset // step - edge)
        assert min(landed) < 0 <= max(landed)

    def test_hit_at_buffer_end(self):
        cfg = CFG166
        wave = preamble_wave(cfg)
        for tail in range(0, cfg.samples_per_bit, 7):
            n = 300 * cfg.samples_per_bit + tail
            samples = np.zeros(n)
            place(samples, wave, n - len(wave))
            scanner = ToneScanner(SampleBuffer(samples, cfg.sample_rate), cfg)
            hit = scanner.find_preamble(5)
            assert hit is not None and hit == full_scan(scanner, 5)

    def test_recover_frames_unchanged_over_criterion_5_sessions(self, monkeypatch):
        # every burst that every 25th criterion-5 session hands the receiver,
        # recovered with the bounded scan and again with the full scan
        calls = []
        original = burst.recover_frames

        def recording(buf, cfg):
            scan = original(buf, cfg)
            calls.append((buf, cfg, scan))
            return scan

        monkeypatch.setattr(burst, "recover_frames", recording)
        link_cfg = link.LinkConfig(modem=CFG166)
        payload = bytes(np.random.default_rng(0).integers(0, 256, 16, dtype=np.uint8))
        for seed in range(0, 1000, 25):
            link.run_session(link_cfg, link_cfg, preset("paper-3m"), payload, seed=seed, budget=900.0)
        assert sum(len(scan.frames) for *_, scan in calls) > 100
        assert any(scan.corrupt_offsets for *_, scan in calls)

        full_scans = []

        def counted_full_scan(scanner, search_from=0):
            full_scans.append(search_from)
            return full_scan(scanner, search_from)

        monkeypatch.setattr(ToneScanner, "find_preamble", counted_full_scan)
        for buf, cfg, scan in calls:
            reference = original(buf, cfg)
            assert scan.frames == reference.frames
            assert scan.corrupt_offsets == reference.corrupt_offsets
        # the receiver locks through the scan: the replay did use the full one
        assert len(full_scans) >= len(calls)


def concatenating_scanner(buf, cfg, pad=0):
    """Reference scanner: the padding is a real zero-padded copy of the buffer."""
    padded = SampleBuffer(np.concatenate([buf.samples, np.zeros(pad)]), buf.sample_rate)
    return ToneScanner(padded, cfg)


def test_preambles_near_match_the_running_sum_scores():
    # the ±1-slot retry candidates are scored from running sums from the
    # first of them, as the scan scores its blocks from its own origin
    wave = burst.messages_to_waveform(TestScannerPadding.MESSAGES, CFG166)
    rx = propagate(wave, preset("paper-3m"), seed=3)
    scanner = ToneScanner(rx, CFG166)
    spb, step = scanner.spb, scanner.step
    period = (FRAME_BITS + burst.FRAME_GAP_SLOTS) * spb
    seen = 0
    for offset in range(0, len(rx) - 7 * spb, 5 * step + 1):
        lo, hi = period // 3, len(rx) - 8 * spb
        near = scanner.preambles_near(offset, lo, hi)
        offsets = offset + step * np.arange(-PREAMBLE_SEARCH_DIVISOR, PREAMBLE_SEARCH_DIVISOR + 1)
        offsets = offsets[(offsets >= lo) & (offsets <= hi)]
        if not offsets.size:
            assert near == []
            continue
        matches, scores = scanner._candidate_scores(offsets)
        passing = matches & (scores >= PREAMBLE_MIN_SCORE)
        assert sorted(h.offset for h in near) == sorted(offsets[passing].tolist())
        expected = dict(zip(offsets.tolist(), scores.tolist()))
        for hit in near:
            assert hit.score == pytest.approx(expected[hit.offset], rel=1e-9)
        assert [h.score for h in near] == sorted((h.score for h in near), reverse=True)
        seen += len(near)
    assert seen > 50


class TestScannerPadding:
    MESSAGES = [ControlMessage(MessageKind.DATA, seq=i, body=1000 + i) for i in range(3)]

    def test_reads_past_the_end_equal_those_of_a_padded_copy(self, rng):
        # a frame whose last slot runs past the buffer end decodes as on a
        # zero-padded copy, and so do preamble candidates there
        buf = SampleBuffer(rng.standard_normal(5000), 48_000)
        spb = CFG166.samples_per_bit
        for pad in (0, 1, spb):
            padded = ToneScanner(buf, CFG166, pad=pad)
            copied = concatenating_scanner(buf, CFG166, pad)
            assert padded.n == copied.n == len(buf) + pad
            for offset in range(padded.n - 17 * spb, padded.n - 16 * spb + 1, 37):
                for decoded, reference in zip(padded.decode_bits(offset, 16),
                                              copied.decode_bits(offset, 16)):
                    assert decoded.tobytes() == reference.tobytes()
            offsets = np.arange(padded.n - 8 * spb, padded.n - 6 * spb + 1, padded.step)
            for scores, reference in zip(padded._candidate_scores(offsets),
                                         copied._candidate_scores(offsets)):
                assert scores.tobytes() == reference.tobytes()
            for offset in offsets:
                assert padded.preambles_near(offset, 0, padded.n) == \
                    copied.preambles_near(offset, 0, copied.n)
            with pytest.raises(ValueError):
                padded.decode_bits(padded.n - 16 * spb + 1, 16)

    def test_recover_frames_matches_the_concatenating_path(self, monkeypatch):
        cfg = CFG166
        span = FRAME_BITS * cfg.samples_per_bit
        wave = burst.messages_to_waveform(self.MESSAGES, cfg)
        cases = []
        for late in range(0, 40, 3):
            # a late burst start moves the final lock a few samples past the end
            clean = np.concatenate([np.zeros(late), wave.samples])
            cases.append((late, SampleBuffer(clean, cfg.sample_rate)))
            cases.append((late, propagate(cases[-1][1], preset("paper-3m"), seed=late)))
        scans = [burst.recover_frames(buf, cfg) for _, buf in cases]
        late_locks = [
            late for (late, buf), scan in zip(cases[::2], scans[::2])
            if scan.frames and scan.frames[-1].offset + span > len(buf)
        ]
        assert late_locks, "no final-frame lock landed past the buffer end"
        for (late, _), scan in zip(cases[::2], scans[::2]):
            assert scan.messages == self.MESSAGES, late

        monkeypatch.setattr(burst, "ToneScanner", concatenating_scanner)
        for (_, buf), scan in zip(cases, scans):
            reference = burst.recover_frames(buf, cfg)
            assert scan.frames == reference.frames
            assert scan.corrupt_offsets == reference.corrupt_offsets


class TestFrameCache:
    """Frames modulate alike wherever they sit, and a session's received
    bursts come from filtered slot atoms kept per (modem config, signal path)."""

    MESSAGES = [
        ControlMessage(kind, seq=9, body=0x1234) if kind == MessageKind.DATA
        else ControlMessage(kind, sender_id=0x2A, seq=9, body=0x5A)
        for kind in MessageKind
    ]

    @staticmethod
    def uncached(messages, cfg):
        gap = np.zeros(burst.FRAME_GAP_SLOTS * cfg.samples_per_bit)
        pieces = []
        for i, msg in enumerate(messages):
            if i:
                pieces.append(gap)
            bits = framing.encode_frame(framing.encode_message(msg))
            pieces.append(modulate(bits, cfg).samples)
        return np.concatenate(pieces)

    @staticmethod
    def engine(payload=None):
        link_cfg = link.LinkConfig(modem=CFG166)
        nodes = [link.make_node(link_cfg, 3, "A", payload=payload), link.make_node(link_cfg, 3, "B")]
        engine = link._Engine(nodes, preset("paper-3m"), 3, 600.0)
        engine.expected_payloads = [payload, None]
        return engine

    def test_byte_identical_to_uncached_modulation(self):
        for cfg in (CFG10, CFG166):
            for messages in (self.MESSAGES, self.MESSAGES[::-1] + self.MESSAGES[:2]):
                expected = self.uncached(messages, cfg).tobytes()
                assert burst.messages_to_waveform(messages, cfg).samples.tobytes() == expected

    def test_entries_read_only_and_bounded(self):
        burst._slot_atoms.cache_clear()
        paths = [_signal_path(preset("paper-3m", distance=1.0 + i / 8))
                 for i in range(burst.ATOM_CACHE_SIZE + 3)]
        for path in paths:
            burst.received_burst(self.MESSAGES[:1], CFG166, path)
        assert burst._slot_atoms.cache_info().currsize == burst.ATOM_CACHE_SIZE
        atoms = burst._slot_atoms(CFG166, paths[-1])
        assert burst._slot_atoms.cache_info().hits == 1
        spb = CFG166.samples_per_bit
        assert atoms.shape == (4, -(-(spb + FILTER_TAPS) // spb) * spb)
        assert not atoms.flags.writeable
        with pytest.raises(ValueError):
            atoms[0, 0] = 0.0
        burst._slot_atoms.cache_clear()

    def test_freed_with_its_engine(self):
        # an engine makes no reference cycle, so reference counting frees it
        # as soon as the session is over, without a gc pass
        engine = self.engine(b"ab")
        assert engine.run().summary["complete"]
        owner = weakref.ref(engine)
        gc.disable()
        try:
            del engine
            assert owner() is None
        finally:
            gc.enable()

    def test_session_does_not_depend_on_earlier_sessions(self, monkeypatch):
        # a session's work must not depend on what ran before it in the
        # process: cold and warm atom caches give the same trace, and no
        # frame is modulated to build a received burst
        calls = []

        def counting(bits, cfg):
            calls.append(len(bits))
            return modulate(bits, cfg)

        monkeypatch.setattr(burst, "modulate", counting)
        link_cfg = link.LinkConfig(modem=CFG166)
        burst._slot_atoms.cache_clear()
        traces = [link.run_session(link_cfg, link_cfg, preset("paper-3m"), b"abcd", seed=3)
                  for _ in range(2)]
        assert traces[0].summary["complete"]
        assert traces[0].to_json() == traces[1].to_json()
        assert burst._slot_atoms.cache_info().hits > 0
        assert calls == []


class TestCarrierPhasor:
    @staticmethod
    def fresh(freq, fs, n):
        return np.exp(-2j * np.pi * freq / fs * np.arange(n))

    def test_bitwise_equal_to_fresh_exp_below_and_above_table(self, monkeypatch):
        monkeypatch.setattr(modem, "_PHASOR_TABLES", {})
        freq, fs = 18_500.0, 48_000
        for n in (1, 289, PHASOR_TABLE_MIN, PHASOR_TABLE_MIN + 4321, 777, 3 * PHASOR_TABLE_MIN + 5):
            assert carrier_phasor(freq, fs, n).tobytes() == self.fresh(freq, fs, n).tobytes()
        assert len(modem._PHASOR_TABLES[(freq, fs)]) == 3 * PHASOR_TABLE_MIN + 5

    def test_read_only(self):
        table = carrier_phasor(19_500.0, 48_000, 100)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0.0

    def test_one_table_per_carrier_and_rate(self, monkeypatch):
        monkeypatch.setattr(modem, "_PHASOR_TABLES", {})
        rng = np.random.default_rng(4)
        for rate in (10.0, 100.0, 166.0, 500.0):
            cfg = ModemConfig(bit_rate=rate)
            buf = modulate(rng.integers(0, 2, 20, dtype=np.uint8), cfg)
            ToneScanner(buf, cfg)
            demodulate(buf, cfg)
        assert set(modem._PHASOR_TABLES) == {(18_500.0, 48_000), (19_500.0, 48_000)}

    def test_slot_projection_bitwise_equal_to_fresh_exp(self, rng):
        spb = CFG166.samples_per_bit
        basis = modem.slot_basis(CFG166)
        for column, freq in ((0, CFG166.f0), (2, CFG166.f1)):
            fresh = self.fresh(freq, 48_000, spb)
            assert basis[:, column].tobytes() == fresh.real.tobytes()
            assert basis[:, column + 1].tobytes() == fresh.imag.tobytes()
        buf = SampleBuffer(rng.standard_normal(5000), 48_000)
        fresh_basis = np.stack([f(self.fresh(freq, 48_000, spb))
                                for freq in (CFG166.f0, CFG166.f1) for f in (np.real, np.imag)],
                               axis=1)
        rows = buf.samples[100:100 + 12 * spb].reshape(12, spb)
        expected = modem.slot_energies(rows, fresh_basis)
        for got, want in zip(ToneScanner(buf, CFG166).slot_energies(100, 12), expected):
            assert got.tobytes() == want.tobytes()

    def test_slot_energies_match_the_complex_projection(self, rng):
        # the real cos/sin basis gives the energies of the complex phasor
        # projection, up to rounding, and `demodulate` decides through it
        # exactly as the burst receiver does
        spb = CFG166.samples_per_bit
        rows = rng.standard_normal((40, spb))
        e0, e1 = modem.slot_energies(rows, modem.slot_basis(CFG166))
        for energy, freq in ((e0, CFG166.f0), (e1, CFG166.f1)):
            reference = np.abs(rows @ self.fresh(freq, 48_000, spb) / spb) ** 2
            np.testing.assert_allclose(energy, reference, rtol=1e-12, atol=1e-18)
        buf = SampleBuffer(rows.ravel(), 48_000)
        decoded = demodulate(buf, CFG166)
        bits, conf = ToneScanner(buf, CFG166).decode_bits(0, 40)
        assert decoded.bits.tobytes() == bits.tobytes()
        assert decoded.confidences.tobytes() == conf.tobytes()
