"""Deterministic simulated acoustic medium between two nodes.

One `propagate` call applies, in order: the reversed-speaker frequency
response, spherical spreading plus high-band air absorption for the
configured distance, off-axis directivity loss, then additive noise (a
shaped ambient profile and/or a white floor pinned to a per-band SNR).
Everything is a pure function of the inputs and an explicit seed.  The
flight time is not in the samples: a received buffer is aligned with the
transmitted one, and `ChannelModel.propagation_delay` says when it is
heard (the session engine times bursts by it).

The signal path is one fixed zero-phase FIR per room.  With L =
FILTER_TAPS (1920), `_transfer_gain_db` is sampled every sample_rate / L
Hz (25 Hz at 48 kHz, which puts the default carriers and the 18 kHz
absorption edge on the grid) and inverse-transformed to L + 1 taps over
lags -L/2..L/2.  A tone on the grid is received at exactly its gain;
between grid points the response interpolates it.  `apply_signal_path`
convolves a buffer with the taps, linearly, by an FFT at the next 5-smooth
length of at least n + L/2 samples, and keeps the n output samples aligned
with the input; `noisy_blocks` then adds the noise (`propagate` is the two
in turn, on one block).  The room is linear and time-invariant, and
`modulate` computes each bit slot's phase in closed form from the phase the
slot starts at (`modem.slot_phases`), so `burst.received_blocks` builds the
received audio of sessions and one-way streams from four filtered slot
tones, with no modulation and no FFT per burst, in runs of whole slots that
get their noise from `noisy_blocks` block by block.  BER-sweep cells build
none: `noisy_projections` projects the same noise onto their slots.

Noise anchoring: `base_snr_at_1m` is the SNR, per 100 Hz band, that a
19 kHz tone at the modem's default peak amplitude (0.9) would enjoy at
1 m on-axis.  That makes the white floor an absolute property of the
simulated room, so moving the receiver farther away degrades the
delivered SNR exactly as the geometry says it should.

Noise seeding: a room has no seed of its own.  The noise of a call with
`seed` is drawn from SeedSequence((0, seed)), and of a call without one
from SeedSequence((0,)); the session engine passes (session seed, burst
number), so the session seed enters each burst's noise once.
"""

from __future__ import annotations

import enum
import math
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

# the signal path's FIR: FILTER_TAPS + 1 taps, lags -FILTER_TAPS/2 to
# FILTER_TAPS/2; a filtered slot atom spans samples_per_bit + FILTER_TAPS
# samples (8 slots at 166 bit/s, 2 at 10 bit/s)
FILTER_TAPS = 1920


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
        if not math.isfinite(self.level_db):
            raise ConfigError(f"level db must be finite, got {self.level_db}")


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

    def __post_init__(self):
        for name in ("distance", "cone_diameter", "speed_of_sound", "sample_rate"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ConfigError(f"{name.replace('_', ' ')} must be positive and finite, got {value}")
        if not 0 <= self.angle_off_axis <= 90:
            raise ConfigError(f"angle {self.angle_off_axis} outside [0, 90] degrees")
        snr = self.base_snr_at_1m
        if snr is not None and not snr > -math.inf:
            raise ConfigError(f"base snr at 1m must be above -inf, or None, got {snr}")
        values = [v for point in self.response_curve for v in point]
        if not values or not all(math.isfinite(v) for v in values):
            raise ConfigError("response curve needs one or more points, each finite")

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
    return float(_directivity_db(angle, freq, d, c))


def _directivity_db(angle: float, freq, d: float, c: float):
    """`directivity_gain` at a frequency or an array of them, unchecked."""
    excess = np.maximum(freq / beaming_start_frequency(c, d) - 1.0, 0.0)
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
    return gains + _directivity_db(model.angle_off_axis, freqs, model.cone_diameter,
                                   model.speed_of_sound)


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


def _kernel(model: ChannelModel):
    """The signal path's FIR, or a scalar when its gain is uniform over
    frequency.  Taps run over lags -L/2..L/2 (tap L/2 is lag 0); the tap at
    lag L/2 of the L-point inverse FFT is split over lags -L/2 and L/2, so
    the taps are symmetric (zero phase) and still sum to the sampled gain
    on the grid."""
    freqs = np.fft.rfftfreq(FILTER_TAPS, d=1.0 / model.sample_rate)
    gain_db = _transfer_gain_db(model, freqs)
    if np.allclose(gain_db, gain_db[0], atol=1e-12):
        return 10.0 ** (gain_db[0] / 20.0)
    half = FILTER_TAPS // 2
    kernel = np.fft.irfft(10.0 ** (gain_db / 20.0), FILTER_TAPS)   # lag k at index k mod L
    taps = np.concatenate([kernel[half:], kernel[:half + 1]])
    taps[[0, -1]] /= 2.0
    # symmetric to the last bit, which the inverse FFT is only up to rounding
    return (taps + taps[::-1]) / 2.0


def apply_signal_path(samples: np.ndarray, model: ChannelModel) -> np.ndarray:
    """The room's response, spreading, absorption and directivity applied
    to `samples`: their linear convolution with the signal path's FIR,
    output sample i aligned with input sample i (same length)."""
    taps = _kernel(model)
    if np.ndim(taps) == 0:
        # uniform gain: skip the FFT so the identity case is sample-exact
        return samples * taps
    n = samples.size
    half = FILTER_TAPS // 2
    # n + L/2 points: the centred kernel's lags never wrap onto the output
    m = _fast_len(n + half)
    # the taps laid out circularly, negative lags at the end; symmetric taps
    # have a real spectrum, and its imaginary part is rounding
    circular = np.zeros(m)
    circular[:half + 1] = taps[half:]
    circular[m - half:] = taps[:half]
    mask = np.fft.rfft(circular).real
    return np.fft.irfft(np.fft.rfft(samples, m) * mask, m)[:n]


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
    n = int(round(duration * sample_rate)) if duration > 0 else 0
    if n == 0:
        raise ValueError(f"duration must hold a sample at {sample_rate} Hz, got {duration}")
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

    Output has the input's length and is aligned with it: the flight time
    is metadata (model.propagation_delay), not leading zeros.  Identical
    inputs and seeds give bit-identical outputs.
    """
    if tx.sample_rate != model.sample_rate:
        raise ConfigError(
            f"buffer rate {tx.sample_rate} != channel rate {model.sample_rate}"
        )
    if len(tx) == 0:
        return tx
    (rx,) = noisy_blocks([apply_signal_path(tx.samples, model)], model, len(tx), seed)
    return SampleBuffer(rx, model.sample_rate)


def _noise_source(model: ChannelModel, n: int, seed=None):
    """The room's noise over n samples, from `seed` alone: its shaped part
    (None in a room without), drawn first, then the generator whose next
    standard normals times sigma are the white floor, and sigma."""
    rng = np.random.default_rng(np.random.SeedSequence((0,) if seed is None else (0, seed)))
    shaped = None
    if model.noise.kind != NoiseKind.SILENT:
        shaped = synthesize_noise(model.noise, n / model.sample_rate, model.sample_rate,
                                  rng.integers(2**63), reference_received_power(model)).samples
    return shaped, rng, white_noise_sigma(model)


def noisy_blocks(blocks, model: ChannelModel, n: int, seed=None):
    """The filtered `blocks` (n samples in all, left unchanged) each with
    the room's noise, drawn from `seed` alone; joined, bitwise the one block
    of the whole.  Shaped noise is synthesised over all n samples first, the
    white floor block by block."""
    shaped, rng, sigma = _noise_source(model, n, seed)
    at = 0
    for y in blocks:
        if shaped is not None:
            y = y + shaped[at:at + len(y)]
            at += len(y)
        if sigma > 0:
            z = rng.standard_normal(len(y))
            z *= sigma
            y = np.add(z, y, out=z)       # bitwise y + sigma * z, in place
        yield y


def noisy_projections(runs, basis: np.ndarray, model: ChannelModel, n: int, seed=None):
    """The runs of slot projections on `basis` (n samples of slots in all),
    each plus the projection of its slots' noise from `noisy_blocks`: the
    same draws in the same order, a run's into one buffer that all reuse."""
    shaped, rng, sigma = _noise_source(model, n, seed)
    spb, at, z = len(basis), 0, np.empty(0)
    for proj in runs:
        m = len(proj) * spb
        if shaped is not None:
            proj = proj + shaped[at:at + m].reshape(-1, spb) @ basis
        at += m
        if sigma > 0:
            z = z if z.size >= m else np.empty(m)
            rng.standard_normal(out=z[:m])
            proj = proj + sigma * (z[:m].reshape(-1, spb) @ basis)
        yield proj


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
    """Fetch a named preset, optionally overriding fields (e.g. sample_rate)."""
    try:
        model = PRESETS[name]
    except KeyError:
        raise KeyError(f"unknown channel preset {name!r}; have {sorted(PRESETS)}") from None
    return replace(model, **overrides) if overrides else model
