"""Physical-layer tests: slot arithmetic, projections, sync, robustness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import awgn_per_band_snr
from ultralink import burst, link, modem
from ultralink.audio import SampleBuffer
from ultralink.bits import as_bits
from ultralink.channel import preset
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

        def recording(buf, cfg, search_from=0):
            scan = original(buf, cfg, search_from)
            calls.append((buf, cfg, search_from, scan))
            return scan

        monkeypatch.setattr(burst, "recover_frames", recording)
        link_cfg = link.LinkConfig(modem=CFG166)
        payload = bytes(np.random.default_rng(0).integers(0, 256, 16, dtype=np.uint8))
        for seed in range(0, 1000, 25):
            link.run_session(link_cfg, link_cfg, preset("paper-3m"), payload, seed=seed, budget=900.0)
        assert sum(len(scan.frames) for *_, scan in calls) > 100
        assert any(scan.corrupt_offsets for *_, scan in calls)

        monkeypatch.setattr(ToneScanner, "find_preamble", full_scan)
        for buf, cfg, search_from, scan in calls:
            reference = original(buf, cfg, search_from)
            assert scan.frames == reference.frames
            assert scan.corrupt_offsets == reference.corrupt_offsets


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

    def test_scanner_projection_bitwise_equal_to_fresh_exp(self, rng):
        buf = SampleBuffer(rng.standard_normal(5000), 48_000)
        scanner = ToneScanner(buf, CFG166)
        for cum, freq in ((scanner._cum0, CFG166.f0), (scanner._cum1, CFG166.f1)):
            expected = np.concatenate(
                [[0.0 + 0.0j], np.cumsum(buf.samples * self.fresh(freq, 48_000, len(buf)))]
            )
            assert cum.tobytes() == expected.tobytes()
