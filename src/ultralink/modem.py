"""Physical layer: binary FSK between bits and near-ultrasonic waveforms.

Symbols are two carrier tones inside the 18-24 kHz band.  Modulation is
continuous-phase (one phase accumulator across bit boundaries) to avoid
clicks and spectral splatter.  Demodulation projects each bit slot onto
complex exponentials at the two carriers and compares energies; the
preamble detector slides the same projection over candidate offsets at
1/8-slot granularity.  The carrier phasors come from one shared table per
(carrier, sample rate), so receivers do not rebuild them per buffer.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from .audio import SampleBuffer
from .bits import BitArray, Bitsish, as_bits
from .framing import PREAMBLE as PREAMBLE_PATTERN

DEFAULT_BAND = (18_000.0, 24_000.0)

# a candidate offset must show strictly alternating decisions and at
# least this mean confidence before it counts as a preamble
PREAMBLE_MIN_SCORE = 0.5
PREAMBLE_SEARCH_DIVISOR = 8  # candidates every 1/8 bit slot
# the preamble scan scores this many candidates first, then doubles the
# block on each miss (16 slots: a short frame gap is found in one block)
PREAMBLE_FIRST_BLOCK = 16 * PREAMBLE_SEARCH_DIVISOR

# shared carrier phasor tables, (carrier Hz, sample rate) -> read-only array
PHASOR_TABLE_MIN = 16_384
_PHASOR_TABLES: dict[tuple[float, int], np.ndarray] = {}


class ConfigError(Exception):
    """Modem or channel configuration violates its invariants."""


@dataclass(frozen=True)
class ModemConfig:
    """B-FSK parameters: carriers, rate, sampling, band limits, amplitude."""

    f0: float = 18_500.0
    f1: float = 19_500.0
    bit_rate: float = 166.0
    sample_rate: int = 48_000
    band_low: float = DEFAULT_BAND[0]
    band_high: float = DEFAULT_BAND[1]
    gain: float = 0.9

    def __post_init__(self):
        lo, hi = sorted((self.f0, self.f1))
        if not (self.band_low <= lo and hi <= self.band_high):
            raise ConfigError(
                f"carriers {self.f0}/{self.f1} Hz outside band "
                f"[{self.band_low}, {self.band_high}] Hz"
            )
        if self.f0 == self.f1:
            raise ConfigError("f0 and f1 must differ")
        if self.bit_rate <= 0:
            raise ConfigError(f"bit_rate must be positive, got {self.bit_rate}")
        if abs(self.f1 - self.f0) < 2 * self.bit_rate:
            raise ConfigError(
                f"tone separation {abs(self.f1 - self.f0)} Hz < 2 x bit rate "
                f"({2 * self.bit_rate} Hz); tones not separable"
            )
        if self.sample_rate / self.bit_rate < 16:
            raise ConfigError(
                f"{self.sample_rate / self.bit_rate:.1f} samples per bit < 16; "
                "slots too short to resolve the tones"
            )
        if self.sample_rate < 2 * hi:
            raise ConfigError(
                f"sample_rate {self.sample_rate} Hz below Nyquist for {hi} Hz carrier"
            )
        if not 0 < self.gain <= 1:
            raise ConfigError(f"gain must be in (0, 1], got {self.gain}")

    @property
    def samples_per_bit(self) -> int:
        return int(round(self.sample_rate / self.bit_rate))

    def at_rate(self, bit_rate: float) -> "ModemConfig":
        return replace(self, bit_rate=bit_rate)

    def with_swapped_carriers(self) -> "ModemConfig":
        return replace(self, f0=self.f1, f1=self.f0)


class DemodResult(NamedTuple):
    bits: BitArray
    confidences: np.ndarray
    consumed: int


class PreambleHit(NamedTuple):
    offset: int
    score: float


def carrier_phasor(freq: float, sample_rate: int, n: int) -> np.ndarray:
    """exp(-2j*pi*freq/sample_rate*k) for k < n, as a read-only view.

    One table per (freq, sample_rate), grown to the longest n requested
    (at least PHASOR_TABLE_MIN samples).  Each element is computed exactly
    as a fresh np.exp over np.arange(n) computes it, so callers get
    bit-identical results.
    """
    key = (freq, sample_rate)
    table = _PHASOR_TABLES.get(key)
    if table is None or len(table) < n:
        k = np.arange(max(n, PHASOR_TABLE_MIN))
        table = np.exp(-2j * np.pi * freq / sample_rate * k)
        table.flags.writeable = False
        _PHASOR_TABLES[key] = table
    return table[:n]


def modulate(bits: Bitsish, cfg: ModemConfig) -> SampleBuffer:
    """Bits to waveform: one constant-frequency slot per bit, phase-continuous.

    Output is exactly len(bits) * samples_per_bit samples; peak amplitude
    is cfg.gain.
    """
    bits = as_bits(bits)
    if bits.size == 0:
        return SampleBuffer(np.zeros(0), cfg.sample_rate)
    spb = cfg.samples_per_bit
    freq_per_bit = np.where(bits.astype(bool), cfg.f1, cfg.f0)
    increments = np.repeat(2.0 * np.pi * freq_per_bit / cfg.sample_rate, spb)
    phase = np.cumsum(increments)
    return SampleBuffer(cfg.gain * np.sin(phase), cfg.sample_rate)


def tone_energy(buf: SampleBuffer, freq: float, window: tuple[int, int]) -> float:
    """Energy of the window's projection onto a sinusoid at `freq`.

    Magnitude squared of the complex correlation, normalized by window
    length: a unit-amplitude tone probed at its own frequency over whole
    periods yields 0.25.
    """
    start, stop = window
    if not (0 <= start < stop <= len(buf)):
        raise ValueError(f"window [{start}, {stop}) outside buffer of {len(buf)} samples")
    if not 0 < freq < buf.sample_rate / 2:
        raise ValueError(f"probe frequency {freq} Hz outside (0, Nyquist)")
    n = np.arange(start, stop)
    phasor = np.exp(-2j * np.pi * freq / buf.sample_rate * n)
    return float(np.abs(np.dot(buf.samples[start:stop], phasor) / (stop - start)) ** 2)


def demodulate(buf: SampleBuffer, cfg: ModemConfig, start_offset: int = 0) -> DemodResult:
    """Waveform to bits: energy compare at f1 vs f0 per whole bit slot.

    Confidence per bit is |E1 - E0| / (E1 + E0) (0 when both energies are
    0).  A trailing partial slot is discarded; `consumed` reports how many
    samples were decoded.
    """
    spb = cfg.samples_per_bit
    available = len(buf) - start_offset
    n_slots = max(available // spb, 0)
    if n_slots == 0:
        return DemodResult(np.zeros(0, dtype=np.uint8), np.zeros(0), 0)
    view = buf.samples[start_offset:start_offset + n_slots * spb].reshape(n_slots, spb)
    e0 = np.abs(view @ carrier_phasor(cfg.f0, buf.sample_rate, spb) / spb) ** 2
    e1 = np.abs(view @ carrier_phasor(cfg.f1, buf.sample_rate, spb) / spb) ** 2
    bits = (e1 > e0).astype(np.uint8)
    total = e0 + e1
    with np.errstate(invalid="ignore", divide="ignore"):
        conf = np.where(total > 0, np.abs(e1 - e0) / total, 0.0)
    return DemodResult(bits, conf, n_slots * spb)


class ToneScanner:
    """Sliding tone-energy probe over one buffer, for synchronization.

    Precomputes cumulative complex projections at f0 and f1 so the energy
    of any sample window is O(1).  The carrier phasors are slices of the
    shared `carrier_phasor` tables, so set-up is one multiply and one
    cumulative sum per carrier.  Used by the preamble detector and the
    burst receiver; one instance per received buffer.

    `pad` appends that many silent samples to the buffer: the cumulative
    sums carry them as repeats of their final entry, so no sample is
    copied and every window energy is the one over the zero-padded buffer.
    """

    def __init__(self, buf: SampleBuffer, cfg: ModemConfig, pad: int = 0):
        if buf.sample_rate != cfg.sample_rate:
            raise ConfigError(
                f"buffer rate {buf.sample_rate} != config rate {cfg.sample_rate}"
            )
        self.cfg = cfg
        self.n = len(buf) + pad
        self.spb = cfg.samples_per_bit
        self.step = max(1, self.spb // PREAMBLE_SEARCH_DIVISOR)
        self._cum0 = self._cumulative_projection(buf.samples, cfg.f0)
        self._cum1 = self._cumulative_projection(buf.samples, cfg.f1)

    def _cumulative_projection(self, x: np.ndarray, freq: float) -> np.ndarray:
        # in place in one array: no temporaries the size of the buffer
        cum = np.empty(self.n + 1, dtype=complex)
        cum[0] = 0.0
        body = cum[1:len(x) + 1]
        np.multiply(x, carrier_phasor(freq, self.cfg.sample_rate, len(x)), out=body)
        np.cumsum(body, out=body)
        cum[len(x) + 1:] = cum[len(x)]
        return cum

    def _window_energies(self, starts: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
        stops = starts + width
        e0 = np.abs((self._cum0[stops] - self._cum0[starts]) / width) ** 2
        e1 = np.abs((self._cum1[stops] - self._cum1[starts]) / width) ** 2
        return e0, e1

    def decode_bits(self, offset: int, count: int) -> tuple[BitArray, np.ndarray]:
        """Decide `count` bits from slot windows starting at `offset`."""
        starts = offset + self.spb * np.arange(count)
        if starts[-1] + self.spb > self.n:
            raise ValueError("not enough samples to decode requested bits")
        e0, e1 = self._window_energies(starts, self.spb)
        bits = (e1 > e0).astype(np.uint8)
        total = e0 + e1
        with np.errstate(invalid="ignore", divide="ignore"):
            conf = np.where(total > 0, np.abs(e1 - e0) / total, 0.0)
        return bits, conf

    def _candidate_scores(self, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Preamble match flags and mean confidences for candidate offsets."""
        slots = offsets[:, None] + self.spb * np.arange(len(PREAMBLE_PATTERN))[None, :]
        e0, e1 = self._window_energies(slots.ravel(), self.spb)
        e0 = e0.reshape(slots.shape)
        e1 = e1.reshape(slots.shape)
        decisions = e1 > e0
        total = e0 + e1
        with np.errstate(invalid="ignore", divide="ignore"):
            conf = np.where(total > 0, np.abs(e1 - e0) / total, 0.0)
        matches = np.all(decisions == PREAMBLE_PATTERN.astype(bool)[None, :], axis=1)
        return matches, conf.mean(axis=1)

    def find_preamble(self, search_from: int = 0) -> Optional[PreambleHit]:
        """First offset >= search_from that looks like '101010'.

        Scans at 1/8-slot granularity; on a hit, refines over the next
        full slot of candidates and returns the best-scoring one.  The
        candidates are scored in blocks, the first PREAMBLE_FIRST_BLOCK
        long and each later one twice the last, every block extended by
        PREAMBLE_SEARCH_DIVISOR candidates so a hit in its last offset
        still has its whole refinement window.  The search stops at the
        first block holding a hit, so recovering a burst frame by frame
        scores each offset about once, and the hit is the one a scan of
        every offset to the end of the buffer returns.
        """
        span = len(PREAMBLE_PATTERN) * self.spb
        last_start = self.n - span
        if last_start < search_from:
            return None
        n_offsets = (last_start - search_from) // self.step + 1
        lo, size = 0, PREAMBLE_FIRST_BLOCK
        while lo < n_offsets:
            stop = min(lo + size + PREAMBLE_SEARCH_DIVISOR, n_offsets)
            block = search_from + self.step * np.arange(lo, stop)
            matches, scores = self._candidate_scores(block)
            passing = matches & (scores >= PREAMBLE_MIN_SCORE)
            hits = np.flatnonzero(passing[:size])
            if hits.size:
                first = hits[0]
                # refine: best score among passing candidates within one slot
                window = slice(first, first + PREAMBLE_SEARCH_DIVISOR + 1)
                local_scores = np.where(passing[window], scores[window], -1.0)
                best = first + int(np.argmax(local_scores))
                return PreambleHit(int(block[best]), float(scores[best]))
            lo, size = lo + size, 2 * size
        return None


def detect_preamble(
    buf: SampleBuffer, cfg: ModemConfig, search_from: int = 0
) -> Optional[PreambleHit]:
    """Locate the start of a '101010' preamble at or after `search_from`.

    Returns None when nothing scores above the detection threshold, which
    is a normal outcome (silence, noise, or a non-alternating signal).
    """
    span = len(PREAMBLE_PATTERN) * cfg.samples_per_bit
    if len(buf) - search_from < span:
        return None
    return ToneScanner(buf, cfg).find_preamble(search_from)


def spectral_power_outside(buf: SampleBuffer, lo: float, hi: float) -> float:
    """Fraction of total spectral power outside [lo, hi] Hz."""
    spectrum = np.abs(np.fft.rfft(buf.samples)) ** 2
    freqs = np.fft.rfftfreq(len(buf), d=1.0 / buf.sample_rate)
    total = spectrum.sum()
    if total == 0:
        return 0.0
    outside = spectrum[(freqs < lo) | (freqs > hi)].sum()
    return float(outside / total)
