"""Physical layer: binary FSK between bits and near-ultrasonic waveforms.

Symbols are two carrier tones inside the 18-24 kHz band.  Modulation is
continuous-phase (each slot starts at the phase the previous one ended
on) to avoid clicks and spectral splatter.  Demodulation and the burst
receiver project each bit slot onto the two carriers through one real
cos/sin basis (`slot_basis`) and compare energies.  Every preamble
candidate, at 1/8-slot granularity, is scored from running sums of the
samples' projections on the two carriers (`ToneScanner._candidate_scores`).
The carrier phasors come from one shared table per (carrier, sample rate),
so receivers do not rebuild them per buffer.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from .audio import SampleBuffer
from .bits import BitArray, Bitsish, as_bits
from .framing import PREAMBLE as PREAMBLE_PATTERN

# both carriers lie in this band, Hz
BAND = (18_000.0, 24_000.0)

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
    """B-FSK parameters: carriers (inside BAND), rate, sampling, amplitude."""

    f0: float = 18_500.0
    f1: float = 19_500.0
    bit_rate: float = 166.0
    sample_rate: int = 48_000
    gain: float = 0.9

    def __post_init__(self):
        lo, hi = sorted((self.f0, self.f1))
        if not (BAND[0] <= lo and hi <= BAND[1]):
            raise ConfigError(f"carriers {self.f0}/{self.f1} Hz outside band {list(BAND)} Hz")
        if self.f0 == self.f1:
            raise ConfigError("f0 and f1 must differ")
        for name in ("bit_rate", "sample_rate"):
            if not 0 < getattr(self, name) < np.inf:
                raise ConfigError(f"{name} must be positive and finite, got {getattr(self, name)}")
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
    omega, start = slot_phases(bits, cfg)
    # in place: one buffer-sized allocation
    samples = omega[:, None] * np.arange(1, cfg.samples_per_bit + 1)
    samples += start[:, None]
    np.sin(samples, out=samples)
    samples *= cfg.gain
    return SampleBuffer(samples.ravel(), cfg.sample_rate)


def slot_phases(bits: np.ndarray, cfg: ModemConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per bit along the last axis: its carrier's phase step per sample,
    omega = 2 pi f / fs, and the phase its slot starts from, the running sum
    of the earlier slots' steps omega * samples_per_bit.  Sample i of slot k
    is gain * sin(start_k + omega_k * (i + 1))."""
    omega = 2.0 * np.pi * np.where(bits.astype(bool), cfg.f1, cfg.f0) / cfg.sample_rate
    start = np.zeros(omega.shape)
    np.cumsum(omega[..., :-1] * cfg.samples_per_bit, axis=-1, out=start[..., 1:])
    return omega, start


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


def slot_basis(cfg: ModemConfig) -> np.ndarray:
    """Real (samples_per_bit, 4) projection basis of one bit slot.

    Its columns are the real and imaginary parts of the f0 phasor, then of
    the f1 phasor, sliced from the shared `carrier_phasor` tables, so they
    are bitwise those of a fresh np.exp.  A real basis keeps the slot
    matrix real: projecting a frame's slots is one small real product.
    """
    spb = cfg.samples_per_bit
    p0 = carrier_phasor(cfg.f0, cfg.sample_rate, spb)
    p1 = carrier_phasor(cfg.f1, cfg.sample_rate, spb)
    return np.stack([p0.real, p0.imag, p1.real, p1.imag], axis=1)


def slot_energies(slots: np.ndarray, basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tone energies at f0 and f1 of each row of `slots`, one bit slot per
    row, on a `slot_basis`: the squared magnitude of the row's projection
    over its length."""
    proj = slots @ basis
    proj *= proj
    scale = float(len(basis)) ** 2
    return (proj[:, 0] + proj[:, 1]) / scale, (proj[:, 2] + proj[:, 3]) / scale


def _decide(e0: np.ndarray, e1: np.ndarray) -> tuple[BitArray, np.ndarray]:
    """Bit decisions (1 where f1 is stronger) and their confidences
    |E1 - E0| / (E1 + E0), 0 where both energies are 0."""
    bits = (e1 > e0).astype(np.uint8)
    total = e0 + e1
    conf = np.divide(np.abs(e1 - e0), total, out=np.zeros_like(total), where=total > 0)
    return bits, conf


def decide_slots(slots: np.ndarray, basis: np.ndarray) -> tuple[BitArray, np.ndarray]:
    """`_decide` of each row of `slots` (one bit slot each) on a `slot_basis`."""
    return _decide(*slot_energies(slots, basis))


def demodulate(buf: SampleBuffer, cfg: ModemConfig, start_offset: int = 0) -> DemodResult:
    """Waveform to bits: energy compare at f1 vs f0 per whole bit slot.

    Each slot is projected onto the `slot_basis` of `cfg`, as the burst
    receiver's slots are.  Confidence per bit is |E1 - E0| / (E1 + E0) (0
    when both energies are 0).  A trailing partial slot is discarded;
    `consumed` reports how many samples were decoded.
    """
    if buf.sample_rate != cfg.sample_rate:
        raise ConfigError(f"buffer rate {buf.sample_rate} != config rate {cfg.sample_rate}")
    if start_offset < 0:
        raise ValueError(f"start_offset must be >= 0, got {start_offset}")
    spb = cfg.samples_per_bit
    available = len(buf) - start_offset
    n_slots = max(available // spb, 0)
    if n_slots == 0:
        return DemodResult(np.zeros(0, dtype=np.uint8), np.zeros(0), 0)
    view = buf.samples[start_offset:start_offset + n_slots * spb].reshape(n_slots, spb)
    bits, conf = decide_slots(view, slot_basis(cfg))
    return DemodResult(bits, conf, n_slots * spb)


class ToneScanner:
    """Tone-energy probe over one buffer, for synchronization.

    Decodes bit slots straight from the samples through `slot_basis`, and
    scores preamble candidates from cumulative projections at f0 and f1
    built only over the stretch a call scores, so set-up copies nothing and
    each call costs time and memory in proportion to the samples it reads.
    Used by the preamble detector and the burst receiver; one instance per
    received buffer.

    `pad` appends that many silent samples to the buffer: every read past
    the buffer end sees zeros, as on a zero-padded copy.
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
        self._x = buf.samples
        self._basis = slot_basis(cfg)

    def _samples(self, start: int, stop: int) -> np.ndarray:
        """Samples [start, stop), zero outside the buffer."""
        if 0 <= start and stop <= len(self._x):
            return self._x[start:stop]
        out = np.zeros(stop - start)
        lo, hi = max(start, 0), min(stop, len(self._x))
        if lo < hi:
            out[lo - start:hi - start] = self._x[lo:hi]
        return out

    def slot_energies(self, offset: int, count: int) -> tuple[np.ndarray, np.ndarray]:
        """f0 and f1 energies of `count` bit slots from `offset` on; samples
        outside the buffer read as zeros."""
        slots = self._samples(offset, offset + count * self.spb).reshape(count, self.spb)
        return slot_energies(slots, self._basis)

    def decode_bits(self, offset: int, count: int) -> tuple[BitArray, np.ndarray]:
        """Decide `count` bits from slot windows starting at `offset`."""
        if offset < 0 or offset + count * self.spb > self.n:
            raise ValueError("not enough samples to decode requested bits")
        return _decide(*self.slot_energies(offset, count))

    def _candidate_scores(self, offsets: np.ndarray, sums: Optional["_RunningProjections"] = None
                          ) -> tuple[np.ndarray, np.ndarray]:
        """Preamble match flags and mean confidences for candidate offsets,
        from `sums` (default: running projections from the first offset)."""
        if sums is None:
            sums = _RunningProjections(self, int(offsets[0]))
        slots = len(PREAMBLE_PATTERN)
        starts = (offsets[:, None] + self.spb * np.arange(slots)).ravel()
        bits, conf = _decide(*sums.window_energies(starts, self.spb))
        matches = np.all(bits.reshape(-1, slots) == PREAMBLE_PATTERN, axis=1)
        return matches, conf.reshape(-1, slots).sum(axis=1) / slots

    def _passing(self, offsets: np.ndarray, matches: np.ndarray, scores: np.ndarray
                 ) -> list[PreambleHit]:
        """The candidates that pass as a preamble, best score first (the
        earlier of equal scores first)."""
        passing = np.flatnonzero(matches & (scores >= PREAMBLE_MIN_SCORE))
        order = passing[np.argsort(-scores[passing], kind="stable")]
        return [PreambleHit(int(offsets[i]), float(scores[i])) for i in order]

    def find_preamble(self, search_from: int = 0) -> Optional[PreambleHit]:
        """First offset >= search_from that looks like '101010'.

        Scans at 1/8-slot granularity; on a hit, refines over the next
        full slot of candidates and returns the best-scoring one.  The
        candidates are scored in blocks, the first PREAMBLE_FIRST_BLOCK
        long and each later one twice the last, every block extended by
        PREAMBLE_SEARCH_DIVISOR candidates so a hit in its last offset
        still has its whole refinement window.  The blocks share running
        projections from `search_from`, so each sample is projected once,
        and the search stops at the first block holding a hit, so a scan
        reads at most about twice the samples up to its hit, and the hit is
        the one a scan of every offset to the end of the buffer returns.
        """
        span = len(PREAMBLE_PATTERN) * self.spb
        last_start = self.n - span
        if last_start < search_from:
            return None
        n_offsets = (last_start - search_from) // self.step + 1
        sums = _RunningProjections(self, search_from)
        lo, size = 0, PREAMBLE_FIRST_BLOCK
        while lo < n_offsets:
            stop = min(lo + size + PREAMBLE_SEARCH_DIVISOR, n_offsets)
            block = search_from + self.step * np.arange(lo, stop)
            matches, scores = self._candidate_scores(block, sums)
            passing = matches & (scores >= PREAMBLE_MIN_SCORE)
            hits = np.flatnonzero(passing[:size])
            if hits.size:
                # refine: best score among passing candidates within one slot
                window = slice(hits[0], hits[0] + PREAMBLE_SEARCH_DIVISOR + 1)
                return self._passing(block[window], matches[window], scores[window])[0]
            lo, size = lo + size, 2 * size
        return None

    def preambles_near(self, offset: int, lo: int, hi: int) -> list[PreambleHit]:
        """Passing preambles among the 1/8-slot candidates within one slot
        of `offset` that lie in [lo, hi], best score first."""
        hi = min(hi, self.n - len(PREAMBLE_PATTERN) * self.spb)
        k = np.arange(-PREAMBLE_SEARCH_DIVISOR, PREAMBLE_SEARCH_DIVISOR + 1)
        offsets = offset + self.step * k
        offsets = offsets[(offsets >= max(lo, 0)) & (offsets <= hi)]
        if not offsets.size:
            return []
        return self._passing(offsets, *self._candidate_scores(offsets))


class _RunningProjections:
    """Cumulative projections at f0 and f1 of a scanner's samples from
    `origin` on, extended as far as the windows asked for reach.  Each
    extension continues the running sums, so a window's energy depends on
    the origin alone, not on how the extensions were split."""

    def __init__(self, scanner: ToneScanner, origin: int):
        self.scanner = scanner
        self.origin = origin
        self.cums = [np.zeros(1, dtype=complex), np.zeros(1, dtype=complex)]

    def window_energies(self, starts: np.ndarray, width: int) -> list[np.ndarray]:
        """Energies at f0 and f1 of the windows [start, start + width)."""
        starts = starts - self.origin
        self._extend(int(starts.max()) + width)
        return [np.abs((cum[starts + width] - cum[starts]) / width) ** 2 for cum in self.cums]

    def _extend(self, stop: int) -> None:
        done = len(self.cums[0]) - 1
        if stop <= done:
            return
        cfg = self.scanner.cfg
        x = self.scanner._samples(self.origin + done, self.origin + stop)
        for i, freq in enumerate((cfg.f0, cfg.f1)):
            cum = np.empty(stop + 1, dtype=complex)
            cum[:done + 1] = self.cums[i]
            part = cum[done + 1:]
            np.multiply(x, carrier_phasor(freq, cfg.sample_rate, stop)[done:], out=part)
            part[0] += cum[done]
            np.cumsum(part, out=part)
            self.cums[i] = cum


def detect_preamble(
    buf: SampleBuffer, cfg: ModemConfig, search_from: int = 0
) -> Optional[PreambleHit]:
    """Locate the start of a '101010' preamble at or after `search_from`.

    Returns None when nothing scores above the detection threshold, which
    is a normal outcome (silence, noise, or a non-alternating signal).
    """
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
