import math

import numpy as np
import pytest

from ultralink.audio import SampleBuffer
from ultralink.modem import carrier_phasor

ACCEPTANCE_LINES = []


def record_criterion(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def awgn_per_band_snr(buf: SampleBuffer, snr_db: float, tone_power: float,
                      seed: int, band_width: float = 100.0) -> SampleBuffer:
    """Add white Gaussian noise scaled to a per-band SNR.

    The convention used throughout: snr = tone_power / (noise power per
    `band_width` Hz band), with the white noise spread over [0, Nyquist].
    """
    band_noise = tone_power / 10.0 ** (snr_db / 10.0)
    sigma = math.sqrt(band_noise * (buf.sample_rate / 2.0) / band_width)
    rng = np.random.default_rng(seed)
    return SampleBuffer(buf.samples + sigma * rng.standard_normal(len(buf)),
                        buf.sample_rate)


def tone_energy(buf: SampleBuffer, freq: float, window: tuple[int, int]) -> float:
    """Energy of the window's projection onto a tone at `freq`, at any
    frequency, as a probe: |x . carrier_phasor|^2 / n^2 over the window's n
    samples, so a unit-amplitude tone over whole periods yields 0.25.  The
    modem's own energies are `modem.slot_energies`, at its carriers."""
    start, stop = window
    phasor = carrier_phasor(freq, buf.sample_rate, stop)[start:]
    return float(np.abs(np.dot(buf.samples[start:stop], phasor) / (stop - start)) ** 2)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
