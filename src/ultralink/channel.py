"""Deterministic simulated acoustic medium between two nodes.

One `propagate` call applies, in order: the reversed-speaker frequency
response, spherical spreading plus high-band air absorption for the
configured distance, off-axis directivity loss, then additive noise (a
shaped ambient profile and/or a white floor pinned to a per-band SNR).
Everything is a pure function of the inputs and an explicit seed.

The signal-path response is applied by an FFT over the burst zero-padded
to the next 5-smooth length (2^a 3^b 5^c samples, which the FFT
transforms fast), then trimmed back to the burst.  That is a linear
filter of the burst, save for any part of the response's impulse
response longer than the padding; a whole-buffer FFT would be circular,
wrapping the burst's tail onto its start.

Noise anchoring: `base_snr_at_1m` is the SNR, per 100 Hz band, that a
19 kHz tone at the modem's default peak amplitude (0.9) would enjoy at
1 m on-axis.  That makes the white floor an absolute property of the
simulated room, so moving the receiver farther away degrades the
delivered SNR exactly as the geometry says it should.
"""

from __future__ import annotations

import enum
import math
from collections import OrderedDict
from dataclasses import dataclass, field, replace

import numpy as np

from .audio import SampleBuffer
from .modem import ConfigError

SPEED_OF_SOUND = 340.0

# reference transmit tone for SNR anchoring: modem default peak amplitude
REFERENCE_PEAK_AMPLITUDE = 0.9
REFERENCE_FREQ = 19_000.0

SNR_BAND_WIDTH = 100.0  # Hz; the per-band SNR convention

AIR_ABSORPTION_DB_PER_M = 0.3      # applied above this frequency only
AIR_ABSORPTION_ABOVE_HZ = 18_000.0

# off-axis loss slope, frozen so 90 degrees at 19 kHz with a 10 cm cone
# loses ~20 dB
DIRECTIVITY_K = 4.36

# reversed-speaker sensitivity: flat through the audible range, linear
# decay to -12 dB at the 24 kHz band edge
DEFAULT_RESPONSE_CURVE = ((0.0, 0.0), (18_000.0, 0.0), (24_000.0, -12.0))

# transfer gains of recent (length, rate, geometry, response) keys: a
# session sends bursts of a few recurring lengths through one room
TRANSFER_CACHE_SIZE = 8
_TRANSFER_CACHE: OrderedDict[tuple, np.float64 | np.ndarray] = OrderedDict()


class NoiseKind(enum.Enum):
    SILENT = "silent"
    WHITE = "white"
    MUSIC_LIKE = "music_like"
    SPEECH_LIKE = "speech_like"


@dataclass(frozen=True)
class NoiseProfile:
    """Ambient interference shape plus its level relative to the reference tone."""

    kind: NoiseKind = NoiseKind.SILENT
    level_db: float = 0.0

    def __post_init__(self):
        if isinstance(self.kind, str):
            object.__setattr__(self, "kind", NoiseKind(self.kind))


@dataclass(frozen=True)
class ChannelModel:
    """Geometry, response, and noise of one transmitter-receiver pair."""

    distance: float = 1.0
    angle_off_axis: float = 0.0
    cone_diameter: float = 0.10
    speed_of_sound: float = SPEED_OF_SOUND
    base_snr_at_1m: float | None = None   # dB per 100 Hz band; None = no white floor
    response_curve: tuple[tuple[float, float], ...] = DEFAULT_RESPONSE_CURVE
    noise: NoiseProfile = field(default_factory=NoiseProfile)
    sample_rate: int = 48_000
    seed: int = 0
    sample_shift_delay: bool = False

    def __post_init__(self):
        if self.distance <= 0:
            raise ConfigError(f"distance must be positive, got {self.distance}")
        if not 0 <= self.angle_off_axis <= 90:
            raise ConfigError(f"angle {self.angle_off_axis} outside [0, 90] degrees")
        if self.cone_diameter <= 0:
            raise ConfigError(f"cone diameter must be positive, got {self.cone_diameter}")
        gains = [g for _, g in self.response_curve]
        if not all(math.isfinite(g) for g in gains):
            raise ConfigError("response curve gains must be finite")

    @property
    def propagation_delay(self) -> float:
        """Seconds of flight time over the configured distance."""
        return self.distance / self.speed_of_sound


def beaming_start_frequency(c: float, d: float) -> float:
    """Frequency where a cone of diameter `d` starts to beam: c / D."""
    if d <= 0:
        raise ValueError(f"cone diameter must be positive, got {d}")
    return c / d


def directivity_gain(angle: float, freq: float, d: float, c: float = SPEED_OF_SOUND) -> float:
    """Off-axis loss in dB (<= 0) for one frequency.

    Flat (0 dB) below the beaming onset c/D and on-axis at any frequency;
    above onset the loss grows with both the offset angle and how far the
    frequency sits past the onset.
    """
    if not 0 <= angle <= 90:
        raise ValueError(f"angle {angle} outside [0, 90] degrees")
    if freq <= 0:
        raise ValueError(f"frequency must be positive, got {freq}")
    onset = beaming_start_frequency(c, d)
    excess = max(freq / onset - 1.0, 0.0)
    return -DIRECTIVITY_K * excess * (angle / 90.0) ** 2


def response_gain_db(model: ChannelModel, freq) -> np.ndarray:
    """Reversed-speaker sensitivity in dB at the given frequencies."""
    points = sorted(model.response_curve)
    xs = np.array([p[0] for p in points])
    ys = np.array([p[1] for p in points])
    return np.interp(np.asarray(freq, dtype=float), xs, ys)


def _transfer_gain_db(model: ChannelModel, freqs: np.ndarray) -> np.ndarray:
    """Total signal-path gain in dB per frequency (response, spreading,
    absorption, directivity)."""
    gains = response_gain_db(model, freqs)
    gains = gains + 20.0 * math.log10(1.0 / model.distance)
    absorption = AIR_ABSORPTION_DB_PER_M * max(model.distance - 1.0, 0.0)
    gains = gains - absorption * (freqs > AIR_ABSORPTION_ABOVE_HZ)
    if model.angle_off_axis > 0:
        onset = beaming_start_frequency(model.speed_of_sound, model.cone_diameter)
        excess = np.maximum(freqs / onset - 1.0, 0.0)
        gains = gains - DIRECTIVITY_K * excess * (model.angle_off_axis / 90.0) ** 2
    return gains


def _fast_len(n: int) -> int:
    """Smallest 2^a * 3^b * 5^c >= n, a length the FFT transforms fast."""
    # for each 3^b 5^c below the best so far, the power of two that lifts it to n
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            quotient = -(-n // p35)
            best = min(best, p35 << (quotient - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _transfer_gain(model: ChannelModel, n: int):
    """Signal-path gain for an n-sample buffer: a scalar when the gain is
    uniform over frequency, else the read-only rFFT mask at the padded
    length `_fast_len(n)`.

    Memoised in a small LRU keyed by n, the sample rate and the fields
    `_transfer_gain_db` reads, so models that differ only in seed or
    noise share an entry.
    """
    key = (n, model.sample_rate, model.distance, model.angle_off_axis,
           model.cone_diameter, model.speed_of_sound, model.response_curve)
    gain = _TRANSFER_CACHE.get(key)
    if gain is not None:
        _TRANSFER_CACHE.move_to_end(key)
        return gain
    freqs = np.fft.rfftfreq(_fast_len(n), d=1.0 / model.sample_rate)
    gain_db = _transfer_gain_db(model, freqs)
    if np.allclose(gain_db, gain_db[0], atol=1e-12):
        gain = 10.0 ** (gain_db[0] / 20.0)
    else:
        gain = 10.0 ** (gain_db / 20.0)
        gain.flags.writeable = False
    _TRANSFER_CACHE[key] = gain
    if len(_TRANSFER_CACHE) > TRANSFER_CACHE_SIZE:
        _TRANSFER_CACHE.popitem(last=False)
    return gain


def reference_received_power(model: ChannelModel) -> float:
    """Power of the 19 kHz reference tone at 1 m on-axis, after the
    speaker response.  The anchor for base_snr_at_1m and noise levels."""
    resp_db = float(response_gain_db(model, REFERENCE_FREQ))
    amplitude = REFERENCE_PEAK_AMPLITUDE * 10.0 ** (resp_db / 20.0)
    return amplitude**2 / 2.0


def white_noise_sigma(model: ChannelModel) -> float:
    """Std dev of the white floor that realizes base_snr_at_1m."""
    if model.base_snr_at_1m is None or math.isinf(model.base_snr_at_1m):
        return 0.0
    band_noise_power = reference_received_power(model) / 10.0 ** (model.base_snr_at_1m / 10.0)
    total_power = band_noise_power * (model.sample_rate / 2.0) / SNR_BAND_WIDTH
    return math.sqrt(total_power)


def _psd_shape(kind: NoiseKind, freqs: np.ndarray) -> np.ndarray:
    """Relative power spectral density for the shaped ambient profiles.

    MUSIC_LIKE: pink-ish spread over the whole audible range with a steep
    shoulder past 16.5 kHz, so essentially no energy lands above 18 kHz.
    SPEECH_LIKE: narrow-band bump over the 85-255 Hz fundamentals with a
    fast harmonic decay.
    """
    f = np.asarray(freqs, dtype=float)
    if kind == NoiseKind.WHITE:
        shape = np.ones_like(f)
        shape[f == 0] = 0.0
        return shape
    if kind == NoiseKind.MUSIC_LIKE:
        base = 1.0 / (1.0 + f / 300.0)
        shoulder = np.where(f > 16_500.0, 10.0 ** (-(f - 16_500.0) / 1500.0 * 3.0), 1.0)
        shape = base * shoulder
        shape[f == 0] = 0.0
        return shape
    if kind == NoiseKind.SPEECH_LIKE:
        fundamentals = np.exp(-(((f - 170.0) / 120.0) ** 2))
        harmonics = 0.02 / (1.0 + (f / 700.0) ** 2)
        shoulder = np.where(f > 8_000.0, 10.0 ** (-(f - 8_000.0) / 1000.0 * 2.0), 1.0)
        shape = (fundamentals + harmonics) * shoulder
        shape[f == 0] = 0.0
        return shape
    raise ValueError(f"no PSD shape for {kind}")


def synthesize_noise(
    profile: NoiseProfile,
    duration: float,
    sample_rate: int,
    seed: int = 0,
    reference_power: float | None = None,
) -> SampleBuffer:
    """Stationary noise with the profile's spectral shape.

    Total power is reference_power x 10^(level_db/10); the reference
    defaults to the 19 kHz anchor tone power so levels mean the same
    thing here as in ChannelModel.
    """
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    n = int(round(duration * sample_rate))
    if profile.kind == NoiseKind.SILENT:
        return SampleBuffer(np.zeros(n), sample_rate)
    if reference_power is None:
        reference_power = REFERENCE_PEAK_AMPLITUDE**2 / 2.0
    target_power = reference_power * 10.0 ** (profile.level_db / 10.0)
    rng = np.random.default_rng(seed)
    freqs = np.fft.rfftfreq(n, d=1.0 / sample_rate)
    amplitude = np.sqrt(_psd_shape(profile.kind, freqs))
    spectrum = amplitude * (rng.standard_normal(freqs.size) + 1j * rng.standard_normal(freqs.size))
    x = np.fft.irfft(spectrum, n)
    power = float(np.mean(x**2))
    if power > 0:
        x *= math.sqrt(target_power / power)
    return SampleBuffer(x, sample_rate)


def propagate(tx: SampleBuffer, model: ChannelModel, seed: int | None = None) -> SampleBuffer:
    """Push a transmitted waveform through the simulated medium.

    Output has the input's length (flight time is metadata via
    model.propagation_delay unless sample_shift_delay is set, which
    prepends the equivalent zeros instead).  Identical inputs and seeds
    give bit-identical outputs.
    """
    if tx.sample_rate != model.sample_rate:
        raise ConfigError(
            f"buffer rate {tx.sample_rate} != channel rate {model.sample_rate}"
        )
    n = len(tx)
    if n == 0:
        return tx
    gain = _transfer_gain(model, n)
    if np.ndim(gain) == 0:
        # uniform gain: skip the FFT so the identity case is sample-exact
        y = tx.samples * gain
    else:
        m = _fast_len(n)
        y = np.fft.irfft(np.fft.rfft(tx.samples, m) * gain, m)[:n]
    if model.sample_shift_delay:
        shift = int(round(model.propagation_delay * tx.sample_rate))
        y = np.concatenate([np.zeros(shift), y])
    entropy = (model.seed,) if seed is None else (model.seed, seed)
    rng = np.random.default_rng(np.random.SeedSequence(entropy))
    if model.noise.kind != NoiseKind.SILENT:
        shaped = synthesize_noise(
            model.noise,
            duration=len(y) / tx.sample_rate,
            sample_rate=tx.sample_rate,
            seed=rng.integers(2**63),
            reference_power=reference_received_power(model),
        )
        y = y + shaped.samples
    sigma = white_noise_sigma(model)
    if sigma > 0:
        y = y + sigma * rng.standard_normal(len(y))
    return SampleBuffer(y, tx.sample_rate)


# Frozen room presets.  The paper-* SNR values were calibrated once by
# binary search so the full modulate->propagate->demodulate stack lands
# on its documented bit error rate, then frozen; regression tests assert
# both the constants and the resulting error rates.
PAPER_3M_BASE_SNR_DB = 21.57   # ~1% BER at 166 bit/s, 3 m
PAPER_8M_BASE_SNR_DB = 19.58   # ~1% BER at 10 bit/s, 8 m

PRESETS = {
    "noiseless": ChannelModel(distance=1.0),
    "paper-3m": ChannelModel(distance=3.0, base_snr_at_1m=PAPER_3M_BASE_SNR_DB),
    "paper-8m": ChannelModel(distance=8.0, base_snr_at_1m=PAPER_8M_BASE_SNR_DB),
}


def preset(name: str, **overrides) -> ChannelModel:
    """Fetch a named preset, optionally overriding fields (e.g. seed)."""
    try:
        model = PRESETS[name]
    except KeyError:
        raise KeyError(f"unknown channel preset {name!r}; have {sorted(PRESETS)}") from None
    return replace(model, **overrides) if overrides else model
