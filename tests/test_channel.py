"""Simulated-medium tests: geometry, noise shaping, frozen presets."""

import math
from dataclasses import replace

import numpy as np
import pytest

from ultralink import channel
from ultralink.audio import SampleBuffer
from ultralink.channel import (
    PAPER_3M_BASE_SNR_DB,
    PAPER_8M_BASE_SNR_DB,
    FILTER_TAPS,
    ChannelModel,
    NoiseKind,
    NoiseProfile,
    beaming_start_frequency,
    directivity_gain,
    preset,
    propagate,
    reference_received_power,
    synthesize_noise,
    white_noise_sigma,
)
from ultralink.modem import ConfigError, ModemConfig, demodulate, modulate

FS = 48000


def band_power(buf, lo, hi):
    spectrum = np.abs(np.fft.rfft(buf.samples)) ** 2
    freqs = np.fft.rfftfreq(len(buf), 1.0 / buf.sample_rate)
    return spectrum[(freqs >= lo) & (freqs < hi)].sum()


class TestBeaming:
    def test_ten_cm_cone_exact(self):
        assert beaming_start_frequency(340, 0.10) == 3400.0

    def test_headphone_scale_driver(self):
        assert beaming_start_frequency(340, 0.02) == pytest.approx(17000.0)

    def test_doubling_diameter_halves_frequency(self):
        for c in (300.0, 340.0, 400.0):
            for d in (0.02, 0.1, 0.5):
                assert beaming_start_frequency(c, 2 * d) == pytest.approx(
                    beaming_start_frequency(c, d) / 2
                )

    def test_nonpositive_diameter_rejected(self):
        with pytest.raises(ValueError):
            beaming_start_frequency(340, 0.0)
        with pytest.raises(ValueError):
            beaming_start_frequency(340, -1.0)


class TestDirectivity:
    def test_on_axis_always_flat(self):
        for freq in (100, 3400, 19000, 24000):
            assert directivity_gain(0, freq, 0.10) == 0.0

    def test_below_onset_flat_at_any_angle(self):
        for angle in (0, 30, 60, 90):
            assert directivity_gain(angle, 1000, 0.10) == 0.0

    def test_fig7_ordering_at_19k(self):
        gains = [directivity_gain(a, 19000, 0.10) for a in (0, 30, 60, 90)]
        assert gains[0] == 0.0
        assert gains[0] > gains[1] > gains[2] > gains[3]
        assert gains[3] == pytest.approx(-20.0, abs=0.5)

    def test_monotone_in_frequency(self):
        gains = [directivity_gain(60, f, 0.10) for f in (5000, 10000, 19000, 24000)]
        assert all(a > b for a, b in zip(gains, gains[1:]))

    def test_angle_validation(self):
        with pytest.raises(ValueError):
            directivity_gain(-1, 19000, 0.1)
        with pytest.raises(ValueError):
            directivity_gain(91, 19000, 0.1)
        with pytest.raises(ValueError):
            directivity_gain(30, 0.0, 0.1)


class TestPropagate:
    def test_identity_at_reference(self, rng):
        model = ChannelModel(distance=1.0, response_curve=((0.0, 0.0), (24000.0, 0.0)))
        tx = modulate(rng.integers(0, 2, 100, dtype=np.uint8), ModemConfig(bit_rate=166))
        rx = propagate(tx, model)
        assert np.array_equal(rx.samples, tx.samples)

    def test_distance_attenuates_in_band_energy(self, rng):
        tx = modulate(rng.integers(0, 2, 200, dtype=np.uint8), ModemConfig(bit_rate=166))
        energies = []
        for d in (1.0, 2.0, 4.0, 8.0):
            rx = propagate(tx, ChannelModel(distance=d))
            energies.append(band_power(rx, 18000, 20000))
        assert all(a > b for a, b in zip(energies, energies[1:]))

    def test_angle_attenuates_in_band_energy(self, rng):
        tx = modulate(rng.integers(0, 2, 200, dtype=np.uint8), ModemConfig(bit_rate=166))
        energies = []
        for angle in (0.0, 30.0, 60.0, 90.0):
            rx = propagate(tx, ChannelModel(distance=2.0, angle_off_axis=angle))
            energies.append(band_power(rx, 18500 - 50, 18500 + 50))
        assert all(a > b for a, b in zip(energies, energies[1:]))

    def test_deterministic_per_seed(self, rng):
        tx = modulate(rng.integers(0, 2, 100, dtype=np.uint8), ModemConfig(bit_rate=166))
        model = preset("paper-3m")
        a = propagate(tx, model, seed=9)
        b = propagate(tx, model, seed=9)
        c = propagate(tx, model, seed=10)
        assert np.array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    def test_length_preserved(self, rng):
        tx = modulate(rng.integers(0, 2, 50, dtype=np.uint8), ModemConfig(bit_rate=166))
        assert len(propagate(tx, preset("paper-3m"))) == len(tx)

    def test_rate_mismatch_rejected(self):
        buf = SampleBuffer(np.zeros(1000), 44100)
        with pytest.raises(ConfigError):
            propagate(buf, ChannelModel())


def mask_length(n):
    return channel._fast_len(n + FILTER_TAPS // 2)


class TestTransferCache:
    """The signal path is built afresh on each call: repeated calls agree
    to the byte, and its FIR is symmetric."""

    FLAT = ChannelModel(response_curve=((0.0, 0.0), (24000.0, 0.0)))

    def tx(self, n_bits=60, seed=1):
        bits = np.random.default_rng(seed).integers(0, 2, n_bits, dtype=np.uint8)
        return modulate(bits, ModemConfig(bit_rate=166))

    def test_cold_and_warm_cache_byte_identical(self):
        tx = self.tx()
        for model in (preset("paper-3m"), preset("paper-8m"), self.FLAT,
                      replace(self.FLAT, distance=0.5), ChannelModel(distance=2.0, angle_off_axis=45.0)):
            first = propagate(tx, model, seed=4)
            again = propagate(tx, model, seed=4)
            assert first.samples.tobytes() == again.samples.tobytes()

    def test_masks_read_only(self):
        # the taps are symmetric about lag 0, so the FFT mask is real
        taps = channel._kernel(channel._signal_path(preset("paper-3m")))
        assert taps.size == FILTER_TAPS + 1
        assert np.array_equal(taps, taps[::-1])

    def test_uniform_gain_stays_sample_exact(self):
        # closer than 1 m: +6 dB spreading gain, no absorption, flat response
        tx = self.tx()
        near = replace(self.FLAT, distance=0.5)
        for _ in range(2):
            assert np.array_equal(propagate(tx, near).samples, tx.samples * 2.0)
        for _ in range(2):
            assert np.array_equal(propagate(tx, replace(self.FLAT, distance=1.0)).samples, tx.samples)


class TestPaddedFilter:
    def test_fast_len_matches_scipy(self):
        from scipy.fft import next_fast_len

        for n in range(1, 20_000):
            assert channel._fast_len(n) == next_fast_len(n, real=True), n

    def test_fast_len_of_session_and_sweep_lengths(self):
        # a 1000-bit sweep cell and an 11-frame burst at 166 bit/s
        assert channel._fast_len(289_000) == 291_600
        assert channel._fast_len(157_794) == 160_000
        assert channel._fast_len(28_800) == 28_800   # already 2^7 3^2 5^2
        # the signal path's taps do not lengthen the sweep cell's FFT
        assert mask_length(289_000) == 291_600

    def test_noiseless_paper_3m_equals_padded_reference(self):
        # the reference: a direct linear convolution with the taps, whose
        # lag-0 tap is FILTER_TAPS // 2, trimmed to the input
        model = preset("paper-3m", base_snr_at_1m=None)
        taps = channel._kernel(channel._signal_path(model))
        half = FILTER_TAPS // 2
        rng = np.random.default_rng(8)
        for n_bits in (46, 100, 545):   # 13 294, 28 900 and 157 505 samples
            tx = modulate(rng.integers(0, 2, n_bits, dtype=np.uint8), ModemConfig(bit_rate=166))
            n = len(tx)
            expected = np.convolve(tx.samples, taps)[half:half + n]
            rx = propagate(tx, model)
            assert len(rx) == n
            np.testing.assert_allclose(rx.samples, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("model", [
        preset("paper-3m"), preset("paper-8m"), ChannelModel(distance=2.0, angle_off_axis=45.0),
    ], ids=["paper-3m", "paper-8m", "45deg"])
    def test_steady_tones_received_at_transfer_gain(self, model):
        cfg = ModemConfig()
        t = np.arange(FS) / FS
        for freq in (cfg.f0, cfg.f1):
            rx = channel.apply_signal_path(np.sin(2 * np.pi * freq * t), model)
            # away from the ends, over a whole number of cycles
            steady = slice(FILTER_TAPS, FS - FILTER_TAPS)
            phasor = np.exp(-2j * np.pi * freq * t[steady])
            amplitude = 2 * abs(rx[steady] @ phasor) / phasor.size
            expected = channel._transfer_gain_db(model, np.array([freq]))[0]
            assert 20 * math.log10(amplitude) == pytest.approx(expected, abs=0.01)


class TestNoisyBlocks:
    ROOMS = {
        "white": preset("paper-3m"),
        "music+white": ChannelModel(distance=3.0, base_snr_at_1m=21.0,
                                    noise=NoiseProfile(NoiseKind.MUSIC_LIKE, 0.0)),
        "speech": ChannelModel(noise=NoiseProfile(NoiseKind.SPEECH_LIKE, -10.0)),
    }

    @pytest.mark.parametrize("room", sorted(ROOMS))
    def test_blocks_bitwise_equal_add_noise(self, room):
        model = self.ROOMS[room]
        for seed in range(20):
            rng = np.random.default_rng(seed)
            y = rng.standard_normal(int(rng.integers(1, 20_000)))
            cuts = np.sort(rng.integers(0, y.size, int(rng.integers(0, 6))))
            blocks = channel.noisy_blocks(np.split(y, cuts), model, y.size, seed=seed)
            got = np.concatenate(list(blocks))
            whole = channel.add_noise(y, model, seed=seed).samples
            assert np.array_equal(got, whole), seed
            assert not np.array_equal(got, y)

    def test_white_floor_is_sigma_times_one_normal_draw(self):
        model, y = self.ROOMS["white"], np.linspace(-1.0, 1.0, 5000)
        z = np.random.default_rng(np.random.SeedSequence((model.seed, 7))).standard_normal(y.size)
        expected = y + channel.white_noise_sigma(model) * z
        assert np.array_equal(channel.add_noise(y, model, seed=7).samples, expected)

    def test_filtered_samples_left_unchanged(self):
        y = np.ones(1000)
        list(channel.noisy_blocks(np.split(y, [300]), self.ROOMS["music+white"], y.size, seed=1))
        assert np.all(y == 1.0)


class TestNoise:
    def test_silent_is_zeros(self):
        buf = synthesize_noise(NoiseProfile(NoiseKind.SILENT), 1.0, FS)
        assert not buf.samples.any()

    def test_white_flat_within_1p5_db(self):
        buf = synthesize_noise(NoiseProfile(NoiseKind.WHITE, 0.0), 10.0, FS, seed=5)
        spectrum = np.abs(np.fft.rfft(buf.samples)) ** 2
        freqs = np.fft.rfftfreq(len(buf), 1.0 / FS)
        bands = []
        for lo in range(1000, 24000, 100):
            bands.append(spectrum[(freqs >= lo) & (freqs < lo + 100)].sum())
        level = 10 * np.log10(np.asarray(bands))
        assert level.max() - level.min() < 3.0  # +-1.5 dB around the mean

    @pytest.mark.parametrize("kind", [NoiseKind.MUSIC_LIKE, NoiseKind.SPEECH_LIKE])
    def test_shaped_profiles_avoid_ultrasonic(self, kind):
        buf = synthesize_noise(NoiseProfile(kind, 0.0), 10.0, FS, seed=6)
        total = band_power(buf, 0, 24000)
        high = band_power(buf, 18000, 24000)
        assert high / total < 0.01

    def test_speech_concentrates_at_fundamentals(self):
        buf = synthesize_noise(NoiseProfile(NoiseKind.SPEECH_LIKE, 0.0), 10.0, FS, seed=7)
        spectrum = np.abs(np.fft.rfft(buf.samples)) ** 2
        freqs = np.fft.rfftfreq(len(buf), 1.0 / FS)
        bands = {lo: spectrum[(freqs >= lo) & (freqs < lo + 100)].sum()
                 for lo in range(0, 24000, 100)}
        peak = max(bands, key=bands.get)
        assert 85 <= peak + 50 <= 255  # peak band center within the fundamentals
        assert band_power(buf, 0, 1000) > 0.5 * band_power(buf, 0, 24000)

    def test_level_sets_total_power(self):
        for level in (-10.0, 0.0, 5.0):
            buf = synthesize_noise(NoiseProfile(NoiseKind.WHITE, level), 5.0, FS, seed=8)
            expected = (0.9**2 / 2) * 10 ** (level / 10)
            assert np.mean(buf.samples**2) == pytest.approx(expected, rel=1e-6)

    def test_shaped_interference_barely_touches_high_band_snr(self, rng):
        # per-band SNR above 18 kHz degrades < 1 dB when music/speech is
        # added on top of the white floor at the same total power
        tx = modulate(rng.integers(0, 2, 400, dtype=np.uint8), ModemConfig(bit_rate=166))
        base = preset("paper-3m")
        sigma = white_noise_sigma(base)
        ref_power = reference_received_power(base)
        level_db = 10 * math.log10(sigma**2 / ref_power)
        for kind in (NoiseKind.MUSIC_LIKE, NoiseKind.SPEECH_LIKE):
            from dataclasses import replace
            noisy_model = replace(base, noise=NoiseProfile(kind, level_db))
            rx_white = propagate(tx, base, seed=3)
            rx_mixed = propagate(tx, noisy_model, seed=3)
            for lo in (18500 - 50, 19500 - 50):
                snr_white = band_power(rx_white, lo, lo + 100)
                snr_mixed = band_power(rx_mixed, lo, lo + 100)
                delta_db = abs(10 * math.log10(snr_mixed / snr_white))
                assert delta_db < 1.0

    def test_duration_validation(self):
        with pytest.raises(ValueError):
            synthesize_noise(NoiseProfile(NoiseKind.WHITE), 0.0, FS)


class TestPresets:
    def test_frozen_constants(self):
        # regression: the calibrated room constants are part of the contract
        assert PAPER_3M_BASE_SNR_DB == 21.57
        assert PAPER_8M_BASE_SNR_DB == 19.58
        assert preset("paper-3m").distance == 3.0
        assert preset("paper-8m").distance == 8.0
        assert preset("noiseless").base_snr_at_1m is None

    def test_unknown_preset_rejected(self):
        with pytest.raises(KeyError):
            preset("paper-99m")

    def test_3m_preset_ber_regression(self):
        cfg = ModemConfig(bit_rate=166)
        errors = total = 0
        for seed in range(8):
            bits = np.random.default_rng(1000 + seed).integers(0, 2, 1000, dtype=np.uint8)
            out = demodulate(propagate(modulate(bits, cfg), preset("paper-3m"), seed=seed), cfg)
            errors += int(np.sum(out.bits != bits))
            total += bits.size
        assert 0.003 <= errors / total <= 0.025

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ConfigError):
            ChannelModel(distance=0.0)
        with pytest.raises(ConfigError):
            ChannelModel(angle_off_axis=120.0)
        with pytest.raises(ConfigError):
            ChannelModel(cone_diameter=-0.1)

    @pytest.mark.parametrize("field, value", [
        ("base_snr_at_1m", math.nan),     # was a silently noiseless room
        ("speed_of_sound", 0.0),          # was a ZeroDivisionError in propagation_delay
        ("speed_of_sound", -340.0),       # was a negative flight time
        ("speed_of_sound", math.inf),
        ("distance", math.nan),           # was an AudioError inside propagate
        ("distance", math.inf),
        ("cone_diameter", math.nan),
        ("sample_rate", 0),
    ])
    def test_bad_fields_rejected_at_construction(self, field, value):
        with pytest.raises(ConfigError, match=field.replace("_", " ")):
            ChannelModel(**{field: value})

    @pytest.mark.parametrize("level_db", [math.nan, math.inf, -math.inf])
    def test_non_finite_noise_level_rejected_at_construction(self, level_db):
        # was an AudioError inside add_noise
        with pytest.raises(ConfigError, match="level db"):
            NoiseProfile(NoiseKind.WHITE, level_db)
