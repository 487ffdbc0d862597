"""Measurement and countermeasure tests."""

import math
import tracemalloc

import numpy as np
import pytest

from conftest import awgn_per_band_snr
from ultralink import burst, framing
from ultralink.analysis import (
    ber_sweep,
    capacity_profile,
    detect_ultrasonic,
    lowpass_filter,
    make_sweep,
    measure_ber,
    psd,
    rows_to_csv,
    shannon_capacity,
    spectrogram_image,
    write_png_gray,
)
from ultralink.audio import SampleBuffer
from ultralink.channel import (
    ChannelModel,
    NoiseKind,
    NoiseProfile,
    preset,
    propagate,
    synthesize_noise,
)
from ultralink.modem import ConfigError, ModemConfig, demodulate, modulate, tone_energy

FS = 48000


def embed_frames(n_frames, snr_db, bit_rate=166, seed=0, spacing_s=0.9, lead_s=2.5):
    """Frames over music + a white floor at the given per-band SNR.

    Returns (buffer, [(start_s, end_s), ...]).
    """
    cfg = ModemConfig(bit_rate=bit_rate)
    rng = np.random.default_rng(seed)
    sigma = math.sqrt((0.9**2 / 2) / 10 ** (snr_db / 10) * (FS / 2) / 100)
    frame_len = 46 * cfg.samples_per_bit
    step = frame_len + int(spacing_s * FS)
    duration = (n_frames * step + 2 * FS + int(lead_s * FS)) / FS
    bg = synthesize_noise(NoiseProfile(NoiseKind.MUSIC_LIKE, 0.0), duration, FS,
                          seed=seed + 1).samples.copy()
    bg += sigma * rng.standard_normal(bg.size)
    placements = []
    for k in range(n_frames):
        at = int(lead_s * FS) + k * step
        msg = framing.ControlMessage(framing.MessageKind.DATA, seq=k % 256,
                                     body=int(rng.integers(0, 65536)))
        wave = modulate(framing.encode_frame(framing.encode_message(msg)), cfg)
        bg[at:at + len(wave)] += wave.samples
        placements.append((at / FS, (at + len(wave)) / FS))
    return SampleBuffer(bg, FS), placements


class TestShannon:
    def test_snr3_doubles_bandwidth(self):
        assert shannon_capacity(100, 3, 1) == pytest.approx(200.0)

    def test_zero_signal_zero_capacity(self):
        assert shannon_capacity(4000, 0, 1) == 0.0

    def test_unity_snr(self):
        assert shannon_capacity(4000, 1, 1) == pytest.approx(4000.0)

    def test_grid_matches_closed_form(self, rng):
        for _ in range(1000):
            b = float(rng.uniform(1, 10000))
            s = float(rng.uniform(0, 100))
            n = float(rng.uniform(1e-6, 100))
            assert shannon_capacity(b, s, n) == pytest.approx(
                b * math.log2(1 + s / n), abs=1e-9, rel=1e-12
            )

    def test_monotonicity(self):
        assert shannon_capacity(100, 4, 1) > shannon_capacity(100, 3, 1)
        assert shannon_capacity(200, 3, 1) > shannon_capacity(100, 3, 1)
        assert shannon_capacity(100, 3, 2) < shannon_capacity(100, 3, 1)

    def test_zero_noise_rejected(self):
        with pytest.raises(ValueError):
            shannon_capacity(100, 1, 0)


class TestCapacityProfile:
    def test_window_count_for_10s(self):
        noise = synthesize_noise(NoiseProfile(NoiseKind.WHITE, 0.0), 10.0, FS, seed=1)
        report = capacity_profile(noise, noise)
        assert report.window_count == 66

    def test_band_count_240(self):
        noise = synthesize_noise(NoiseProfile(NoiseKind.WHITE, 0.0), 2.0, FS, seed=1)
        report = capacity_profile(noise, noise)
        assert len(report.bands) == 240
        assert report.bands[0].band_low == 0.0
        assert report.bands[-1].band_high == 24000.0

    def test_synthetic_snr3_fixture(self):
        # sweep = 2x the noise realization => per-band S/N = 3 exactly
        noise = synthesize_noise(NoiseProfile(NoiseKind.WHITE, 0.0), 10.0, FS, seed=2)
        sweep = SampleBuffer(noise.samples * 2.0, FS)
        report = capacity_profile(sweep, noise)
        for band in report.bands:
            assert band.capacity_bps == pytest.approx(200.0, rel=0.05)

    def test_total_capacity_is_band_sum(self):
        noise = synthesize_noise(NoiseProfile(NoiseKind.WHITE, 0.0), 2.0, FS, seed=3)
        sweep = SampleBuffer(noise.samples * 2.0, FS)
        report = capacity_profile(sweep, noise)
        low = report.total_capacity_over(0, 12000)
        high = report.total_capacity_over(12000, 24000)
        assert low + high == pytest.approx(report.total_capacity_over(0, 24000))

    def test_rate_mismatch_rejected(self):
        a = SampleBuffer(np.zeros(FS * 2), FS)
        b = SampleBuffer(np.zeros(44100 * 2), 44100)
        with pytest.raises(ConfigError):
            capacity_profile(a, b)

    def test_too_short_rejected(self):
        a = SampleBuffer(np.zeros(100), FS)
        with pytest.raises(ValueError):
            capacity_profile(a, a)

    @pytest.mark.parametrize("resolution", [0.0, 1e-300, 4.9, -5.0, math.nan, math.inf, 24_000.1])
    def test_resolution_outside_bin_spacing_to_nyquist_rejected(self, resolution):
        # 5 Hz is the bin spacing of the 200 ms window; 0 was a
        # ZeroDivisionError and 1e-300 an OverflowError
        noise = synthesize_noise(NoiseProfile(NoiseKind.WHITE, 0.0), 1.0, FS, seed=1)
        with pytest.raises(ValueError, match="resolution"):
            capacity_profile(noise, noise, resolution=resolution)
        with pytest.raises(ValueError, match="resolution"):
            psd(noise, resolution)

    @pytest.mark.parametrize("resolution, bands", [(5.0, 4800), (24_000.0, 1)])
    def test_resolution_bounds_accepted(self, resolution, bands):
        noise = synthesize_noise(NoiseProfile(NoiseKind.WHITE, 0.0), 1.0, FS, seed=1)
        assert len(capacity_profile(noise, noise, resolution=resolution).bands) == bands


class TestPsd:
    def test_sums_to_one(self):
        noise = synthesize_noise(NoiseProfile(NoiseKind.WHITE, 0.0), 3.0, FS, seed=4)
        assert psd(noise).sum() == pytest.approx(1.0, abs=1e-6)

    def test_tone_concentrates(self):
        # 1 kHz sits on a band edge, so its mainlobe straddles two bands;
        # together they must hold essentially everything
        tone = SampleBuffer(0.5 * np.sin(2 * np.pi * 1000 / FS * np.arange(2 * FS)), FS)
        p = psd(tone)
        assert p[9] + p[10] > 0.99
        assert p[10] == max(p)

    def test_mid_band_tone_concentrates_in_one_band(self):
        tone = SampleBuffer(0.5 * np.sin(2 * np.pi * 1050 / FS * np.arange(2 * FS)), FS)
        assert psd(tone)[10] > 0.99

    def test_music_mostly_below_18k(self):
        music = synthesize_noise(NoiseProfile(NoiseKind.MUSIC_LIKE, 0.0), 10.0, FS, seed=5)
        p = psd(music)
        assert p[180:].sum() < 0.01

    def test_white_flat(self):
        noise = synthesize_noise(NoiseProfile(NoiseKind.WHITE, 0.0), 10.0, FS, seed=6)
        p = psd(noise)[10:239]  # skip DC edge band and the Nyquist edge
        level = 10 * np.log10(p)
        assert level.max() - level.min() < 3.0


class TestMeasureBer:
    def test_identical_zero(self, rng):
        bits = rng.integers(0, 2, 100, dtype=np.uint8)
        assert measure_ber(bits, bits) == 0.0

    def test_complement_one(self, rng):
        bits = rng.integers(0, 2, 100, dtype=np.uint8)
        assert measure_ber(bits, 1 - bits) == 1.0

    def test_single_flip(self, rng):
        bits = rng.integers(0, 2, 100, dtype=np.uint8)
        other = bits.copy()
        other[17] ^= 1
        assert measure_ber(bits, other) == pytest.approx(0.01)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            measure_ber([0, 1], [0, 1, 0])


class TestBerSweep:
    def test_noiseless_zero_everywhere(self):
        cells = ber_sweep([10.0, 166.0], [("noiseless", preset("noiseless"))],
                          payload_bits=300, seeds=[0, 1])
        assert all(c.mean_ber == 0.0 for c in cells)

    def test_distance_monotonicity(self):
        cells = ber_sweep([166.0],
                          [("paper-3m", preset("paper-3m")),
                           ("paper-8m", preset("paper-8m"))],
                          payload_bits=600, seeds=list(range(6)))
        by_name = {c.model_name: c.mean_ber for c in cells}
        assert by_name["paper-3m"] < by_name["paper-8m"]

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            ber_sweep([], [("noiseless", preset("noiseless"))])

    @staticmethod
    def reference_ber(rate, model, payload_bits, seed):
        """One seed's BER the way the sweep defines it: its bits modulated,
        propagated and demodulated."""
        cfg = ModemConfig(bit_rate=rate)
        rng = np.random.default_rng(np.random.SeedSequence((seed, int(rate * 1000))))
        bits = rng.integers(0, 2, payload_bits, dtype=np.uint8)
        out = demodulate(propagate(modulate(bits, cfg), model, seed=seed), cfg)
        return measure_ber(bits, out.bits)

    @pytest.mark.parametrize("rate, payload_bits", [(10.0, 100), (166.0, 1000)])
    @pytest.mark.parametrize("name", ["paper-3m", "paper-8m"])
    def test_cells_equal_the_propagated_reference(self, rate, payload_bits, name):
        model = preset(name)
        for seed in range(20):
            (cell,) = ber_sweep([rate], [(name, model)], payload_bits=payload_bits, seeds=[seed])
            assert cell.mean_ber == self.reference_ber(rate, model, payload_bits, seed), seed

    def test_cells_equal_the_propagated_reference_with_shaped_noise(self):
        rate, payload_bits = 166.0, 1000
        model = ChannelModel(distance=3.0, base_snr_at_1m=21.0,
                             noise=NoiseProfile(NoiseKind.MUSIC_LIKE, 0.0))
        bers = []
        for seed in range(20):
            (cell,) = ber_sweep([rate], [("room", model)], payload_bits=payload_bits, seeds=[seed])
            bers.append(cell.mean_ber)
            assert cell.mean_ber == self.reference_ber(rate, model, payload_bits, seed), seed
        assert any(bers)

    # white floor low enough that 10 bit/s cells have errors too
    NOISY_MUSIC_ROOM = ChannelModel(distance=3.0, base_snr_at_1m=8.0,
                                    noise=NoiseProfile(NoiseKind.MUSIC_LIKE, 0.0))

    @pytest.mark.parametrize("rate", [10.0, 166.0, 500.0])
    @pytest.mark.parametrize("name", ["paper-3m", "music"])
    def test_streamed_cells_equal_the_propagated_reference_across_blocks(self, rate, name):
        # 1 slot, one block less a slot, one block, one block and a slot, and
        # 1001 bits, which span several blocks and end on a partial one
        model = self.NOISY_MUSIC_ROOM if name == "music" else preset(name)
        block = burst.BLOCK_SAMPLES // ModemConfig(bit_rate=rate).samples_per_bit
        for seed, payload_bits in enumerate([1, block - 1, block, block + 1, 1001]):
            (cell,) = ber_sweep([rate], [(name, model)], payload_bits=payload_bits, seeds=[seed])
            assert cell.mean_ber == self.reference_ber(rate, model, payload_bits, seed), payload_bits

    def test_cell_memory_does_not_scale_with_its_length(self):
        # the parent's whole-cell buffers peaked at 4.4 MB for this cell
        cell = dict(rates=[166.0], models=[("paper-3m", preset("paper-3m"))], payload_bits=1000)
        ber_sweep(**cell)                     # atoms and phasor tables are cached
        tracemalloc.start()
        try:
            ber_sweep(**cell, seeds=[1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_channel_at_another_sample_rate_rejected(self):
        with pytest.raises(ConfigError):
            ber_sweep([166.0], [("44k1", ChannelModel(sample_rate=44_100))], payload_bits=100)

    @pytest.mark.parametrize("payload_bits", [0, -1])
    def test_empty_cells_rejected(self, payload_bits):
        # a cell of no bits would report a BER of 0 over nothing
        with pytest.raises(ValueError, match="payload_bits"):
            ber_sweep([166.0], [("noiseless", preset("noiseless"))], payload_bits=payload_bits)


class TestLowpass:
    def test_stopband_at_19k(self):
        tone = SampleBuffer(np.sin(2 * np.pi * 19000 / FS * np.arange(FS)), FS)
        out = lowpass_filter(tone, 18000)
        drop = 10 * math.log10(
            tone_energy(out, 19000, (0, FS)) / tone_energy(tone, 19000, (0, FS))
        )
        assert drop <= -40.0

    def test_passband_at_1k(self):
        tone = SampleBuffer(np.sin(2 * np.pi * 1000 / FS * np.arange(FS)), FS)
        out = lowpass_filter(tone, 18000)
        drop = 10 * math.log10(
            tone_energy(out, 1000, (0, FS)) / tone_energy(tone, 1000, (0, FS))
        )
        assert abs(drop) <= 1.0

    def test_dc_passes(self):
        buf = SampleBuffer(0.5 * np.ones(FS), FS)
        out = lowpass_filter(buf, 18000)
        assert np.allclose(out.samples[2000:-2000], 0.5, atol=0.05)

    def test_length_preserved(self, rng):
        buf = SampleBuffer(rng.standard_normal(12345), FS)
        assert len(lowpass_filter(buf, 18000)) == 12345

    def test_group_delay_compensated(self):
        # a click stays where it was
        x = np.zeros(FS)
        x[FS // 2] = 1.0
        out = lowpass_filter(SampleBuffer(x, FS), 18000)
        assert abs(int(np.argmax(np.abs(out.samples))) - FS // 2) <= 1

    def test_invalid_cutoff_rejected(self):
        buf = SampleBuffer(np.zeros(1000), FS)
        with pytest.raises(ValueError):
            lowpass_filter(buf, 0.0)
        with pytest.raises(ValueError):
            lowpass_filter(buf, 24000.0)

    def test_filter_kills_demodulation(self, rng):
        cfg = ModemConfig(bit_rate=166)
        bits = rng.integers(0, 2, 400, dtype=np.uint8)
        clean = modulate(bits, cfg)
        filtered = lowpass_filter(clean, 18000)
        out = demodulate(filtered, cfg)
        assert measure_ber(bits, out.bits) > 0.25  # effectively destroyed


class TestDetector:
    def test_silence_no_events(self):
        assert detect_ultrasonic(SampleBuffer(np.zeros(20 * FS), FS)) == []

    def test_music_alone_no_events(self):
        music = synthesize_noise(NoiseProfile(NoiseKind.MUSIC_LIKE, 0.0), 60.0, FS, seed=2)
        assert detect_ultrasonic(music) == []

    def test_single_frame_one_fsk_event(self):
        buf, placements = embed_frames(1, snr_db=20.0, seed=6, lead_s=3.0)
        events = detect_ultrasonic(buf)
        assert len(events) == 1
        event = events[0]
        a, b = placements[0]
        assert event.start < b and a < event.end
        assert event.classified_as_fsk
        assert 18000 <= event.band_low < event.band_high <= 24000
        assert event.peak_energy_db_over_floor >= 10.0

    def test_embedded_frames_all_flagged(self):
        buf, placements = embed_frames(20, snr_db=16.0, seed=5)
        events = detect_ultrasonic(buf)
        for a, b in placements:
            assert any(e.start < b and a < e.end and e.classified_as_fsk
                       for e in events)

    def test_slow_rate_detected(self):
        buf, placements = embed_frames(2, snr_db=16.0, bit_rate=10, seed=7)
        events = detect_ultrasonic(buf)
        for a, b in placements:
            assert any(e.start < b and a < e.end and e.classified_as_fsk
                       for e in events)

    def test_pure_tone_not_classified_fsk(self):
        bg = synthesize_noise(NoiseProfile(NoiseKind.MUSIC_LIKE, 0.0), 10.0, FS,
                              seed=8).samples.copy()
        sigma = math.sqrt((0.9**2 / 2) / 10**2 * (FS / 2) / 100)
        bg += sigma * np.random.default_rng(9).standard_normal(bg.size)
        n = np.arange(2 * FS)
        bg[3 * FS:5 * FS] += 0.45 * np.sin(2 * np.pi * 19950 / FS * n)
        events = detect_ultrasonic(SampleBuffer(bg, FS))
        assert len(events) == 1
        assert not events[0].classified_as_fsk

    def test_scan_band_validation(self):
        buf = SampleBuffer(np.zeros(FS), FS)
        with pytest.raises(ValueError):
            detect_ultrasonic(buf, scan_band=(18000.0, 25000.0))


class TestFilterDetectorDuality:
    def test_flagged_transmissions_are_suppressed(self):
        # anything the detector flags is also destroyed by the low-pass
        for bit_rate in (10, 166):
            for snr in (16.0, 25.0):
                cfg = ModemConfig(bit_rate=bit_rate)
                bits = np.random.default_rng(int(snr)).integers(
                    0, 2, 46, dtype=np.uint8)
                clean = modulate(bits, cfg)
                noisy = awgn_per_band_snr(clean, snr, tone_power=0.9**2 / 2,
                                          seed=int(bit_rate + snr))
                lead = synthesize_noise(
                    NoiseProfile(NoiseKind.MUSIC_LIKE, 0.0), 2.0, FS, seed=3
                ).samples
                sigma = math.sqrt((0.9**2 / 2) / 10 ** (snr / 10) * (FS / 2) / 100)
                lead = lead + sigma * np.random.default_rng(4).standard_normal(lead.size)
                buf = SampleBuffer(np.concatenate([lead, noisy.samples]), FS)
                events = detect_ultrasonic(buf)
                assert any(e.classified_as_fsk for e in events), (bit_rate, snr)
                filtered = lowpass_filter(noisy, 18000)
                out = demodulate(filtered, cfg)
                assert measure_ber(bits, out.bits) > 0.25, (bit_rate, snr)


class TestExports:
    def test_csv_shape(self):
        noise = synthesize_noise(NoiseProfile(NoiseKind.WHITE, 0.0), 2.0, FS, seed=1)
        report = capacity_profile(noise, noise)
        csv = report.to_csv()
        lines = csv.strip().split("\n")
        assert lines[0].startswith("band_low_hz,")
        assert len(lines) == 241

    def test_rows_to_csv_none_becomes_empty(self):
        assert rows_to_csv([{"a": 1, "b": None}]) == "a,b\n1,\n"

    def test_png_writer_roundtrip(self, tmp_path):
        img = (np.arange(200, dtype=np.uint8).reshape(10, 20))
        path = tmp_path / "x.png"
        write_png_gray(path, img)
        data = path.read_bytes()
        assert data[:8] == b"\x89PNG\r\n\x1a\n"
        assert b"IHDR" in data and b"IDAT" in data and b"IEND" in data
        write_png_gray(tmp_path / "y.png", img)
        assert (tmp_path / "y.png").read_bytes() == data  # deterministic

    def test_spectrogram_shape(self):
        sweep = make_sweep(2.0)
        img = spectrogram_image(sweep)
        assert img.dtype == np.uint8
        assert img.ndim == 2

    def test_spectrogram_of_a_clip_shorter_than_one_window(self):
        # 10 ms against the 20 ms window: one column, as the clip padded
        # with silence to one window
        tone = np.sin(2 * np.pi * 19_000.0 / FS * np.arange(480))
        img = spectrogram_image(SampleBuffer(tone, FS))
        padded = spectrogram_image(SampleBuffer(np.concatenate([tone, np.zeros(480)]), FS))
        assert img.shape == (481, 1)
        np.testing.assert_array_equal(img, padded)
