"""Sample buffer and WAV I/O."""

import tracemalloc
import wave

import numpy as np
import pytest

from ultralink.audio import FINITE_CHECK_SAMPLES, AudioError, SampleBuffer, read_wav, write_wav


class TestSampleBuffer:
    def test_rejects_nan(self):
        with pytest.raises(AudioError):
            SampleBuffer(np.array([0.0, np.nan]), 48000)

    def test_rejects_inf(self):
        with pytest.raises(AudioError):
            SampleBuffer(np.array([np.inf]), 48000)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [FINITE_CHECK_SAMPLES - 1, FINITE_CHECK_SAMPLES, -1])
    def test_rejects_non_finite_past_the_first_chunk(self, value, at):
        x = np.zeros(3 * FINITE_CHECK_SAMPLES + 5)
        x[at] = value
        with pytest.raises(AudioError):
            SampleBuffer(x, 48000)

    def test_finite_check_needs_no_buffer_sized_temporary(self):
        # the whole-buffer np.isfinite allocated one byte per sample, an
        # eighth of the buffer, on every burst heard
        x = np.zeros(2**20)
        tracemalloc.start()
        try:
            SampleBuffer(x, 48000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < x.nbytes / 16

    def test_rejects_stereo(self):
        with pytest.raises(AudioError):
            SampleBuffer(np.zeros((100, 2)), 48000)

    def test_rejects_bad_rate(self):
        with pytest.raises(AudioError):
            SampleBuffer(np.zeros(10), 0)

    def test_immutable(self):
        buf = SampleBuffer(np.zeros(10), 48000)
        with pytest.raises(ValueError):
            buf.samples[0] = 1.0

    def test_caller_array_stays_writeable(self):
        x = np.zeros(5)
        buf = SampleBuffer(x, 48000)
        x[0] = 1.0
        assert not buf.samples.flags.writeable

    def test_duration(self):
        assert SampleBuffer(np.zeros(24000), 48000).duration == 0.5


class TestWav:
    def test_roundtrip_within_quantization(self, tmp_path, rng):
        buf = SampleBuffer(0.8 * rng.standard_normal(5000).clip(-1, 1), 48000)
        path = tmp_path / "x.wav"
        write_wav(path, buf)
        back = read_wav(path)
        assert back.sample_rate == 48000
        assert np.abs(back.samples - buf.samples).max() < 1.0 / 32000

    def test_rate_mismatch_rejected(self, tmp_path):
        path = tmp_path / "x.wav"
        write_wav(path, SampleBuffer(np.zeros(100), 44100))
        with pytest.raises(AudioError):
            read_wav(path, expected_rate=48000)
        assert read_wav(path, expected_rate=44100).sample_rate == 44100

    def test_write_clips_out_of_range(self, tmp_path):
        buf = SampleBuffer(np.array([2.0, -2.0, 0.5]), 48000)
        path = tmp_path / "x.wav"
        write_wav(path, buf)
        back = read_wav(path)
        assert back.samples[0] == pytest.approx(1.0, abs=1e-4)
        assert back.samples[1] == pytest.approx(-1.0, abs=1e-4)

    def test_pcm_is_the_whole_buffer_s_in_blocks(self, tmp_path, rng):
        # a buffer ending partway into a block, one of exactly one, and none
        for n in (2 * FINITE_CHECK_SAMPLES + 3, FINITE_CHECK_SAMPLES, 0):
            buf = SampleBuffer(1.2 * rng.standard_normal(n), 48000)
            write_wav(tmp_path / "x.wav", buf)
            with wave.open(str(tmp_path / "x.wav")) as wav:
                assert wav.getnframes() == n
                pcm = wav.readframes(n)
            assert pcm == np.round(np.clip(buf.samples, -1, 1) * 32767).astype("<i2").tobytes()

    def test_write_memory_does_not_grow_with_the_buffer(self, tmp_path):
        # clipping, scaling and rounding the whole buffer made three
        # full-length temporaries
        peaks = []
        for n in (2**20, 2**22):
            buf = SampleBuffer(np.linspace(-1.5, 1.5, n), 48000)
            tracemalloc.start()
            try:
                write_wav(tmp_path / f"{n}.wav", buf)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.25 * peaks[0]
