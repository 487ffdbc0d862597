"""Measurement and countermeasure suite.

Capacity estimation follows the measurement recipe end to end: a 10 s
sweep recording and a silence recording are short-time analyzed with
200 ms Gaussian windows at 25% overlap, per-100 Hz-band SNR is formed as
(signal - floor) / floor, and each band contributes B*log2(1 + S/N).
The defensive side has a linear-phase FIR low-pass (blocks the whole
covert band) and an energy detector that scans 18 kHz to 24 kHz or
Nyquist for sustained peaks over a rolling floor and flags FSK keying.

scipy.signal is imported inside the three functions that use it (the
Gaussian window, the FIR design and its convolution), so importing the
package loads numpy and its own modules only.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .audio import SampleBuffer
from .bits import as_bits
from .burst import received_projections
from .channel import ChannelModel, noisy_projections
from .modem import BAND, ConfigError, ModemConfig, decide_projections, slot_basis

ANALYSIS_WINDOW_MS = 200.0
ANALYSIS_OVERLAP = 0.25  # fraction of window shared between hops
DEFAULT_RESOLUTION_HZ = 100.0


def shannon_capacity(bandwidth: float, signal_power: float, noise_power: float) -> float:
    """Channel capacity bound B*log2(1 + S/N) in bit/s."""
    if bandwidth <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth}")
    if signal_power < 0:
        raise ValueError(f"signal power must be non-negative, got {signal_power}")
    if noise_power <= 0:
        raise ValueError("noise power must be positive (zero noise is out of model)")
    return bandwidth * math.log2(1.0 + signal_power / noise_power)


def _power_spectra(samples: np.ndarray, window: np.ndarray, hop: int) -> np.ndarray:
    """|rfft(frame * window)|^2 of each len(window)-sample frame of
    `samples`, frames `hop` apart from sample 0, one frame per row."""
    frames = np.lib.stride_tricks.sliding_window_view(samples, len(window))[::hop]
    return np.abs(np.fft.rfft(frames * window, axis=1)) ** 2


def _windowed_band_powers(
    buf: SampleBuffer, resolution: float
) -> tuple[np.ndarray, int]:
    """Mean per-band power over Gaussian analysis windows.

    Returns (band_powers, window_count); bands tile [0, Nyquist] at
    `resolution` Hz.
    """
    fs = buf.sample_rate
    win_len = int(round(ANALYSIS_WINDOW_MS / 1000.0 * fs))
    if not fs / win_len <= resolution <= fs / 2.0:
        raise ValueError(f"resolution must lie between the window's bin spacing "
                         f"({fs / win_len:g} Hz) and Nyquist, got {resolution}")
    hop = int(round(win_len * (1.0 - ANALYSIS_OVERLAP)))
    n = len(buf)
    if n < win_len:
        raise ValueError(
            f"buffer of {n / fs:.3f} s shorter than one {ANALYSIS_WINDOW_MS} ms window"
        )
    from scipy import signal as sp_signal  # heavy; loaded on first use only

    window = sp_signal.windows.gaussian(win_len, std=win_len / 6.0)
    spectra = _power_spectra(buf.samples, window, hop)
    mean_spectrum = spectra.mean(axis=0)
    freqs = np.fft.rfftfreq(win_len, d=1.0 / fs)
    n_bands = int(math.ceil(fs / 2.0 / resolution))
    band_index = np.minimum((freqs / resolution).astype(int), n_bands - 1)
    powers = np.bincount(band_index, weights=mean_spectrum, minlength=n_bands)
    return powers, len(spectra)


@dataclass(frozen=True)
class BandCapacity:
    band_low: float
    band_high: float
    signal_power: float
    noise_power: float
    snr_db: float | None
    capacity_bps: float


@dataclass
class CapacityReport:
    """Per-band SNR and Shannon capacity over the whole spectrum."""

    bands: list[BandCapacity]
    window_len_ms: float
    overlap: float
    window_count: int
    resolution_hz: float

    def total_capacity_over(self, low: float, high: float) -> float:
        """Summed capacity of all bands lying fully inside [low, high]."""
        return sum(
            b.capacity_bps for b in self.bands if b.band_low >= low and b.band_high <= high
        )

    def to_rows(self) -> list[dict]:
        return [
            {
                "band_low_hz": b.band_low,
                "band_high_hz": b.band_high,
                "signal_power": b.signal_power,
                "noise_power": b.noise_power,
                "snr_db": b.snr_db,
                "capacity_bps": b.capacity_bps,
            }
            for b in self.bands
        ]

    def to_doc(self) -> dict:
        return {
            "window_len_ms": self.window_len_ms,
            "overlap": self.overlap,
            "window_count": self.window_count,
            "resolution_hz": self.resolution_hz,
            "bands": self.to_rows(),
        }


def capacity_profile(
    received_sweep: SampleBuffer,
    noise_floor: SampleBuffer,
    resolution: float = DEFAULT_RESOLUTION_HZ,
) -> CapacityReport:
    """Estimate per-band capacity from a sweep recording and a silence recording.

    Signal power per band is the sweep's band power minus the measured
    floor (clamped at zero); noise power is the floor itself, so a noise
    recording with no power in any band is rejected.
    """
    if received_sweep.sample_rate != noise_floor.sample_rate:
        raise ConfigError(
            f"sweep rate {received_sweep.sample_rate} != noise rate {noise_floor.sample_rate}"
        )
    sweep_power, count = _windowed_band_powers(received_sweep, resolution)
    floor_power, _ = _windowed_band_powers(noise_floor, resolution)
    if not floor_power.any():
        raise ValueError("the noise recording has zero power: its floor cannot measure an SNR")
    bands = []
    for k in range(sweep_power.size):
        noise = float(floor_power[k])
        sig = max(float(sweep_power[k]) - noise, 0.0)
        if noise > 0.0:
            snr_db = 10.0 * math.log10(sig / noise) if sig > 0 else None
            cap = shannon_capacity(resolution, sig, noise)
        else:
            snr_db = None
            cap = 0.0
        bands.append(
            BandCapacity(
                band_low=k * resolution,
                band_high=(k + 1) * resolution,
                signal_power=sig,
                noise_power=noise,
                snr_db=snr_db,
                capacity_bps=cap,
            )
        )
    return CapacityReport(
        bands=bands,
        window_len_ms=ANALYSIS_WINDOW_MS,
        overlap=ANALYSIS_OVERLAP,
        window_count=count,
        resolution_hz=resolution,
    )


# the capacity stimulus: a linear sine sweep over the whole 48 kHz spectrum
SWEEP_BAND = (1.0, 24_000.0)   # Hz
SWEEP_SAMPLE_RATE = 48_000
SWEEP_AMPLITUDE = 0.9


def make_sweep(duration: float = 10.0) -> SampleBuffer:
    """Linear sine sweep used as the capacity measurement stimulus."""
    (f_low, f_high), fs = SWEEP_BAND, SWEEP_SAMPLE_RATE
    t = np.arange(int(round(duration * fs))) / fs
    phase = 2.0 * np.pi * (f_low * t + (f_high - f_low) / (2.0 * duration) * t**2)
    return SampleBuffer(SWEEP_AMPLITUDE * np.sin(phase), fs)


def measure_ber(sent, received) -> float:
    """Fraction of differing bits; inputs must be aligned and equal length."""
    sent = as_bits(sent)
    received = as_bits(received)
    if sent.size != received.size:
        raise ValueError(f"length mismatch: {sent.size} vs {received.size}")
    if sent.size == 0:
        return 0.0
    return float(np.mean(sent != received))


@dataclass(frozen=True)
class BerCell:
    bit_rate: float
    model_name: str
    mean_ber: float
    ci_low: float
    ci_high: float
    n_bits: int
    n_seeds: int

    def to_row(self) -> dict:
        return {
            "bit_rate": self.bit_rate,
            "model": self.model_name,
            "mean_ber": self.mean_ber,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "n_bits": self.n_bits,
            "n_seeds": self.n_seeds,
        }


def ber_sweep(
    rates: list[float],
    models: list[tuple[str, ChannelModel]],
    payload_bits: int = 1000,
    seeds: list[int] = (0,),
    base_modem: ModemConfig | None = None,
) -> list[BerCell]:
    """Full-stack BER (modulate -> propagate -> demodulate) per (rate, model).

    Each seed draws fresh payload bits and fresh channel noise; the cell
    reports the across-seed mean with a 95% normal-approximation interval.
    The bits are decided as `demodulate` decides those of `propagate(
    modulate(bits, cfg), model, seed=seed)`, from slot projections equal to
    that cell's up to rounding, but the cell never becomes samples: the
    signal's projections come from slot atoms (`burst.received_projections`),
    the noise's from the same draws, in runs (`channel.noisy_projections`).
    """
    if not rates or not models or not seeds:
        raise ValueError("rates, models, and seeds must be non-empty")
    if payload_bits < 1:
        raise ValueError(f"payload_bits must be at least 1, got {payload_bits}")
    base = base_modem or ModemConfig()
    cells = []
    for rate in rates:
        cfg = base.at_rate(rate)
        spb = cfg.samples_per_bit
        basis = slot_basis(cfg)
        for name, model in models:
            bers = []
            for seed in seeds:
                rng = np.random.default_rng(np.random.SeedSequence((seed, int(rate * 1000))))
                bits = rng.integers(0, 2, payload_bits, dtype=np.uint8)
                runs = received_projections(bits[None], cfg, model)
                rx = noisy_projections(runs, basis, model, payload_bits * spb, seed=seed)
                got, _ = decide_projections(np.concatenate(list(rx)), spb)
                bers.append(measure_ber(bits, got))
            bers = np.asarray(bers)
            mean = float(bers.mean())
            half = 1.96 * float(bers.std(ddof=1)) / math.sqrt(bers.size) if bers.size > 1 else 0.0
            cells.append(BerCell(bit_rate=rate, model_name=name, mean_ber=mean,
                                 ci_low=max(mean - half, 0.0), ci_high=min(mean + half, 1.0),
                                 n_bits=payload_bits * len(seeds), n_seeds=len(seeds)))
    return cells


# ------------------------------------------------------- countermeasures

def design_lowpass(cutoff: float, sample_rate: int) -> np.ndarray:
    """Linear-phase FIR taps: ~1 kHz passband margin, >=40 dB by +1 kHz."""
    if not 0 < cutoff < sample_rate / 2:
        raise ValueError(f"cutoff {cutoff} Hz outside (0, Nyquist)")
    from scipy import signal as sp_signal  # heavy; loaded on first use only

    transition = min(2000.0, cutoff, sample_rate / 2 - cutoff) / (sample_rate / 2)
    numtaps, beta = sp_signal.kaiserord(65.0, transition)
    numtaps |= 1  # odd length for a symmetric (type I) filter
    return sp_signal.firwin(numtaps, cutoff, window=("kaiser", beta), fs=sample_rate)


def lowpass_filter(buf: SampleBuffer, cutoff: float) -> SampleBuffer:
    """Suppress everything above `cutoff`, compensating the group delay.

    Output length equals input length, so a filtered recording stays
    aligned with the original for BER accounting.
    """
    from scipy import signal as sp_signal  # heavy; loaded on first use only

    taps = design_lowpass(cutoff, buf.sample_rate)
    delay = (taps.size - 1) // 2
    padded = np.concatenate([buf.samples, np.zeros(delay)])
    filtered = sp_signal.fftconvolve(padded, taps, mode="full")
    return SampleBuffer(filtered[delay:delay + len(buf)], buf.sample_rate)


@dataclass(frozen=True)
class DetectionEvent:
    start: float
    end: float
    band_low: float
    band_high: float
    peak_energy_db_over_floor: float
    classified_as_fsk: bool

    def to_row(self) -> dict:
        return {
            "start_s": self.start,
            "end_s": self.end,
            "band_low_hz": self.band_low,
            "band_high_hz": self.band_high,
            "peak_db_over_floor": self.peak_energy_db_over_floor,
            "classified_as_fsk": self.classified_as_fsk,
        }


DETECTOR_FRAME_S = 0.05
DETECTOR_HOP_S = 0.02
DETECTOR_FLOOR_WINDOW_S = 5.0
DETECTOR_FLOOR_LAG_S = 0.5       # guard interval so a transmission does not
                                 # immediately lift its own floor estimate
DETECTOR_FLOOR_PERCENTILE = 30.0
DETECTOR_WARMUP_S = 1.5          # lag plus enough history for a stable floor
DETECTOR_MIN_DURATION_S = 0.04   # ~one bit slot at the operating rates
DETECTOR_GAP_TOLERANCE_S = 0.12  # alternation + bit boundaries blank single bands
DETECTOR_MIN_FLOOR = 1e-10       # absolute band-power floor (~-100 dBFS)


def _rolling_floor(powers: np.ndarray, window: int, lag: int) -> np.ndarray:
    """Trailing low-percentile noise floor per band.

    The percentile keeps the estimate on the ambient level even while a
    long keyed transmission occupies up to ~2/3 of the trailing window;
    the lag keeps the newest frames (likely signal) out entirely.
    """
    n = powers.shape[0]
    q = DETECTOR_FLOOR_PERCENTILE
    floor = np.empty_like(powers)
    head = min(window + lag - 1, n)
    for t in range(head):
        floor[t] = np.percentile(powers[: max(t + 1 - lag, 1)], q, axis=0)
    if n > head:
        chunk = 256
        view = np.lib.stride_tricks.sliding_window_view(powers, window, axis=0)
        # frame t uses powers[t-lag-window+1 : t-lag+1]
        for a in range(head, n, chunk):
            b = min(a + chunk, n)
            floor[a:b] = np.percentile(view[a - lag - window + 1 : b - lag - window + 1], q, axis=2)
    return floor


def detect_ultrasonic(buf: SampleBuffer, threshold_db: float = 10.0) -> list[DetectionEvent]:
    """Scan the near-ultrasonic range for sustained energy peaks.

    Short-time band powers over the modem BAND, up to Nyquist at most, are
    compared against a rolling (trailing-percentile) noise floor;
    exceedances lasting at least one bit slot become events.  An event
    showing two dominant bands with comparable activity — the signature
    of two-tone keying — is classified as FSK.
    """
    if not math.isfinite(threshold_db):
        raise ValueError(f"threshold_db must be finite, got {threshold_db}")
    fs = buf.sample_rate
    lo, hi = BAND[0], min(BAND[1], fs / 2)
    if hi <= lo:
        raise ValueError(f"Nyquist {fs / 2} Hz leaves no band above {lo} Hz to scan")
    win = int(round(DETECTOR_FRAME_S * fs))
    hop = int(round(DETECTOR_HOP_S * fs))
    if len(buf) < win:
        return []
    window = np.hanning(win)
    spectra = _power_spectra(buf.samples, window, hop)
    freqs = np.fft.rfftfreq(win, d=1.0 / fs)
    # bands of DEFAULT_RESOLUTION_HZ width, overlapped at half steps so a
    # carrier sitting on a band edge is never split across two cold bands
    half = DEFAULT_RESOLUTION_HZ / 2.0
    sub_of_bin = (freqs / half).astype(int)
    first_sub = int(lo // half)
    last_sub = int(math.ceil(hi / half))
    in_scan = (sub_of_bin >= first_sub) & (sub_of_bin < last_sub)
    sub_powers = np.zeros((len(spectra), last_sub - first_sub))
    np.add.at(sub_powers.T, sub_of_bin[in_scan] - first_sub, spectra[:, in_scan].T)
    powers = sub_powers[:, :-1] + sub_powers[:, 1:]  # overlapping full bands
    # the band power a full-scale frame-long tone would show, as the
    # reference for the absolute floor clamp
    tone_ref = (window.sum() / 2.0) ** 2
    floor = _rolling_floor(
        powers,
        int(round(DETECTOR_FLOOR_WINDOW_S / DETECTOR_HOP_S)),
        int(round(DETECTOR_FLOOR_LAG_S / DETECTOR_HOP_S)),
    )
    floor = np.maximum(floor, DETECTOR_MIN_FLOOR * tone_ref)
    ratio = powers / floor
    hot = ratio > 10.0 ** (threshold_db / 10.0)
    warmup = int(round(DETECTOR_WARMUP_S / DETECTOR_HOP_S))
    hot[:warmup] = False
    active = hot.any(axis=1)
    # group active frames into events, tolerating short dropouts
    gap_frames = int(round(DETECTOR_GAP_TOLERANCE_S / DETECTOR_HOP_S))
    min_frames = max(2, int(math.ceil(DETECTOR_MIN_DURATION_S / DETECTOR_HOP_S)))
    events: list[DetectionEvent] = []
    runs: list[list[int]] = []
    for t in np.flatnonzero(active):
        if runs and t - runs[-1][-1] <= gap_frames + 1:
            runs[-1].append(int(t))
        else:
            runs.append([int(t)])
    for run in runs:
        if len(run) < min_frames:
            continue
        span = slice(run[0], run[-1] + 1)
        hot_span = hot[span]
        ratio_span = ratio[span]
        peak = float(10.0 * math.log10(ratio_span.max()))
        hot_any = np.flatnonzero(hot_span.any(axis=0))
        band_lo = (first_sub + int(hot_any.min())) * half
        band_hi = (first_sub + int(hot_any.max())) * half + DEFAULT_RESOLUTION_HZ
        # two-tone keying: the hot bands form exactly two separated
        # clusters (carrier plus close-in sidebands each), both of which
        # stay active through the event (alternating or interleaved)
        n_active = int(hot_span.any(axis=1).sum())
        hot_counts = hot_span.sum(axis=0)
        persistent = np.flatnonzero(hot_counts >= max(0.2 * n_active, 1.0))
        clusters: list[list[int]] = []
        for b in persistent:
            # adjacent overlapping bands share a sub-band; treat indices
            # within two half-steps as the same tone cluster
            if clusters and b - clusters[-1][-1] <= 2:
                clusters[-1].append(int(b))
            else:
                clusters.append([int(b)])
        cluster_mass = np.sort(
            np.array([hot_counts[c].sum() for c in clusters], dtype=float)
        )[::-1]
        is_fsk = bool(
            cluster_mass.size >= 2
            and cluster_mass[1] >= 0.2 * cluster_mass[0]
            and cluster_mass[0] + cluster_mass[1] >= 0.85 * cluster_mass.sum()
        )
        events.append(
            DetectionEvent(
                start=float(run[0] * DETECTOR_HOP_S),
                end=float((run[-1] + 1) * DETECTOR_HOP_S + (DETECTOR_FRAME_S - DETECTOR_HOP_S)),
                band_low=band_lo,
                band_high=band_hi,
                peak_energy_db_over_floor=peak,
                classified_as_fsk=is_fsk,
            )
        )
    return events


# ----------------------------------------------------------- exports

def rows_to_csv(rows: list[dict]) -> str:
    """Stable CSV: header from the first row's keys, '' for None."""
    if not rows:
        return ""
    header = list(rows[0].keys())
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join("" if row[k] is None else str(row[k]) for k in header))
    return "\n".join(lines) + "\n"


SPECTROGRAM_WINDOW_S = 0.02
SPECTROGRAM_HOP_S = 0.01
SPECTROGRAM_FLOOR_DB = -90.0     # black at and below this, relative to the peak


def spectrogram_image(buf: SampleBuffer) -> np.ndarray:
    """Grayscale spectrogram (rows = frequency, top = Nyquist) as uint8.

    A buffer shorter than one window is padded with silence to one window,
    so it gives one column.
    """
    fs = buf.sample_rate
    win = int(round(SPECTROGRAM_WINDOW_S * fs))
    hop = int(round(SPECTROGRAM_HOP_S * fs))
    samples = np.pad(buf.samples, (0, max(win - len(buf), 0)))
    spectra = _power_spectra(samples, np.hanning(win), hop)
    ref = spectra.max()
    db = 10.0 * np.log10(np.maximum(spectra, 1e-300) / max(ref, 1e-300))
    scaled = np.clip((db - SPECTROGRAM_FLOOR_DB) / -SPECTROGRAM_FLOOR_DB, 0.0, 1.0)
    return np.flipud((scaled.T * 255.0).astype(np.uint8))


def write_png_gray(path, image: np.ndarray) -> None:
    """Minimal 8-bit grayscale PNG writer (deterministic output bytes)."""
    if image.ndim != 2 or image.dtype != np.uint8:
        raise ValueError("expected a 2-D uint8 image")
    height, width = image.shape

    def chunk(tag: bytes, body: bytes) -> bytes:
        return (
            struct.pack(">I", len(body)) + tag + body
            + struct.pack(">I", zlib.crc32(tag + body) & 0xFFFFFFFF)
        )

    header = struct.pack(">IIBBBBB", width, height, 8, 0, 0, 0, 0)
    raw = b"".join(b"\x00" + row.tobytes() for row in image)
    png = (
        b"\x89PNG\r\n\x1a\n"
        + chunk(b"IHDR", header)
        + chunk(b"IDAT", zlib.compress(raw, 9))
        + chunk(b"IEND", b"")
    )
    with open(path, "wb") as fh:
        fh.write(png)
