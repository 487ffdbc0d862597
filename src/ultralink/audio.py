"""Mono sample buffers and 16-bit PCM WAV I/O."""

from __future__ import annotations

import wave
from dataclasses import dataclass, field

import numpy as np


# samples checked for NaN and Inf, or converted to PCM, at a time: the
# temporaries stay this small however long the buffer
FINITE_CHECK_SAMPLES = 2**16


class AudioError(Exception):
    """Raised for malformed buffers or unusable WAV files."""


@dataclass(frozen=True)
class SampleBuffer:
    """Mono audio: float amplitudes (nominally in [-1, 1]) plus a sample rate.

    The physical-layer currency — every signal in the stack is one of these.
    Buffers are immutable after construction; the samples array is a
    read-only view, so instances can be shared freely (an array handed in
    is not copied, so its owner should not change it afterwards).
    """

    samples: np.ndarray = field(repr=False)
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise AudioError(f"expected mono (1-D) samples, got shape {samples.shape}")
        if self.sample_rate <= 0:
            raise AudioError(f"sample_rate must be positive, got {self.sample_rate}")
        if not all(np.isfinite(samples[i:i + FINITE_CHECK_SAMPLES]).all()
                   for i in range(0, samples.size, FINITE_CHECK_SAMPLES)):
            raise AudioError("samples contain NaN or Inf")
        # a read-only view: the caller's own array stays writeable
        samples = samples.view()
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate", int(self.sample_rate))

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration(self) -> float:
        """Length in seconds."""
        return self.samples.size / self.sample_rate


def write_wav(path, buf: SampleBuffer) -> None:
    """Write a buffer as mono 16-bit PCM. Samples are clipped to [-1, 1]."""
    with wave.open(str(path), "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(2)
        wav.setframerate(buf.sample_rate)
        for i in range(0, len(buf), FINITE_CHECK_SAMPLES):
            pcm = np.clip(buf.samples[i:i + FINITE_CHECK_SAMPLES], -1.0, 1.0)
            wav.writeframesraw(np.round(pcm * 32767.0).astype("<i2").tobytes())


def read_wav(path, expected_rate: int | None = None) -> SampleBuffer:
    """Read a mono 16-bit PCM WAV.

    Resampling is out of scope: if `expected_rate` is given and the file
    rate differs, this raises instead of converting.
    """
    with wave.open(str(path), "rb") as wav:
        channels = wav.getnchannels()
        width = wav.getsampwidth()
        rate = wav.getframerate()
        if channels != 1:
            raise AudioError(f"{path}: expected mono, got {channels} channels")
        if width != 2:
            raise AudioError(f"{path}: expected 16-bit PCM, got {8 * width}-bit")
        if expected_rate is not None and rate != expected_rate:
            raise AudioError(
                f"{path}: sample rate {rate} Hz does not match configured "
                f"{expected_rate} Hz (resampling is not supported)"
            )
        raw = wav.readframes(wav.getnframes())
    pcm = np.frombuffer(raw, dtype="<i2").astype(np.float64)
    return SampleBuffer(pcm / 32767.0, rate)
