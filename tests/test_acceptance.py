"""Acceptance gate: one test per criterion, each at its stated tolerance.

Every test appends a PASS/FAIL line to the terminal summary (see
conftest.pytest_terminal_summary) so the gate reads as a checklist.
"""

import hashlib
import itertools
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from conftest import record_criterion, tone_energy
from ultralink import framing
from ultralink.analysis import (
    capacity_profile,
    detect_ultrasonic,
    lowpass_filter,
    measure_ber,
    shannon_capacity,
)
from ultralink.audio import SampleBuffer
from ultralink.channel import (
    NoiseKind,
    NoiseProfile,
    beaming_start_frequency,
    preset,
    propagate,
    reference_received_power,
    synthesize_noise,
    white_noise_sigma,
)
from ultralink.cli import main as cli_main
from ultralink.burst import heard_burst, recover_frames
from ultralink.link import LinkConfig, run_session, verify_trace
from ultralink.modem import ModemConfig, demodulate, modulate

FS = 48000
LINK = LinkConfig(modem=ModemConfig(bit_rate=166))

# frozen by exhaustive enumeration: the CRC-8 polynomial's factor
# structure detects every 1- and 2-bit corruption of a 46-bit frame
EXPECTED_UNDETECTED_DOUBLE_FLIPS = 0


@contextmanager
def criterion(number: int, name: str):
    started = time.time()
    try:
        yield
    except BaseException:
        record_criterion(f"criterion {number} ({name}): FAIL")
        raise
    record_criterion(f"criterion {number} ({name}): PASS [{time.time() - started:.1f}s]")


def test_criterion_1_frame_codec(rng):
    with criterion(1, "frame codec"):
        started = time.time()
        for _ in range(10_000):
            payload = rng.integers(0, 2, 32, dtype=np.uint8)
            assert np.array_equal(framing.decode_frame(framing.encode_frame(payload)), payload)
        frame = framing.encode_frame(rng.integers(0, 2, 32, dtype=np.uint8))
        rejected = 0
        for i in range(46):
            bad = frame.copy()
            bad[i] ^= 1
            try:
                framing.decode_frame(bad)
            except framing.FrameError:
                rejected += 1
        assert rejected == 46
        undetected = 0
        for i, j in itertools.combinations(range(46), 2):
            bad = frame.copy()
            bad[i] ^= 1
            bad[j] ^= 1
            try:
                framing.decode_frame(bad)
                undetected += 1
            except framing.FrameError:
                pass
        assert undetected == EXPECTED_UNDETECTED_DOUBLE_FLIPS
        assert time.time() - started < 5.0


def test_criterion_2_modem_roundtrip():
    with criterion(2, "noiseless modem roundtrip"):
        started = time.time()
        for rate in (10.0, 166.0):
            cfg = ModemConfig(bit_rate=rate)
            errors = total = 0
            for chunk_seed in range(10):
                bits = np.random.default_rng(chunk_seed).integers(0, 2, 1000, dtype=np.uint8)
                out = demodulate(modulate(bits, cfg), cfg)
                errors += int(np.sum(out.bits != bits))
                total += bits.size
            assert total >= 10_000
            assert errors == 0, f"{errors} errors at {rate} bit/s"
        assert time.time() - started < 30.0


def test_criterion_3_preset_ber_reproduction():
    with criterion(3, "calibrated-preset BER reproduction"):
        started = time.time()

        def mean_ber(model, rate, n_bits, seeds):
            cfg = ModemConfig(bit_rate=rate)
            per_seed = []
            for seed in seeds:
                bits = np.random.default_rng(1000 + seed).integers(0, 2, n_bits, dtype=np.uint8)
                out = demodulate(propagate(modulate(bits, cfg), model, seed=seed), cfg)
                per_seed.append(measure_ber(bits, out.bits))
            return float(np.mean(per_seed))

        seeds = range(20)
        ber_3m = mean_ber(preset("paper-3m"), 166.0, 1000, seeds)
        assert 0.005 <= ber_3m <= 0.02, f"paper-3m@166 BER {ber_3m:.4f}"
        ber_8m_slow = mean_ber(preset("paper-8m"), 10.0, 500, seeds)
        assert ber_8m_slow <= 0.02, f"paper-8m@10 BER {ber_8m_slow:.4f}"
        ber_8m_fast = mean_ber(preset("paper-8m"), 166.0, 1000, seeds)
        assert ber_8m_fast > 0.05, f"paper-8m@166 BER {ber_8m_fast:.4f}"
        assert time.time() - started < 300.0


def test_criterion_4_capacity_math(rng):
    with criterion(4, "capacity math"):
        for _ in range(1000):
            b = float(rng.uniform(1, 24_000))
            s = float(rng.uniform(0, 1000))
            n = float(rng.uniform(1e-9, 1000))
            expected = b * math.log2(1.0 + s / n)
            assert abs(shannon_capacity(b, s, n) - expected) <= 1e-9 * max(1.0, expected)
        noise = synthesize_noise(NoiseProfile(NoiseKind.WHITE, 0.0), 10.0, FS, seed=2)
        sweep = SampleBuffer(noise.samples * 2.0, FS)
        report = capacity_profile(sweep, noise, resolution=100.0)
        assert report.window_count == 66
        for band in report.bands:
            assert band.capacity_bps == pytest.approx(200.0, rel=0.05)


def test_criterion_5_protocol_invariants():
    with criterion(5, "protocol invariants over 1000 noisy sessions"):
        started = time.time()
        payload = bytes(np.random.default_rng(0).integers(0, 256, 16, dtype=np.uint8))
        channel = preset("paper-3m")
        token = t_max = duplex = 0
        mismatches = incomplete = 0
        slow_discovery = 0
        for seed in range(1000):
            trace = run_session(LINK, LINK, channel, payload, seed=seed, budget=900.0)
            inv = verify_trace(trace, t_max=LINK.t_max)
            token += inv["token_overlaps"]
            t_max += inv["t_max_violations"]
            duplex += inv["half_duplex_violations"]
            if max(trace.summary["broadcast_rounds"].values()) > 10:
                slow_discovery += 1
            if trace.summary["complete"]:
                if not trace.summary["delivered_intact"]["B"]:
                    mismatches += 1
            else:
                incomplete += 1
        assert token == 0, f"{token} token exclusivity violations"
        assert t_max == 0, f"{t_max} T_max violations"
        assert duplex == 0, f"{duplex} half-duplex violations"
        assert mismatches == 0, f"{mismatches} non-byte-exact deliveries"
        assert slow_discovery <= 10, f"{slow_discovery} runs needed > 10 rounds"
        # forced ID collisions resolve with exactly one re-randomization
        for seed in range(100):
            trace = run_session(LINK, LINK, channel, b"", seed=seed,
                                node_ids=(seed % 256, seed % 256), budget=300.0)
            assert trace.summary["complete"]
            assert sum(trace.summary["rerandomizations"].values()) == 1, seed
        assert time.time() - started < 600.0


def test_criterion_6_directivity_and_beaming(rng):
    with criterion(6, "directivity ordering and beaming onset"):
        assert beaming_start_frequency(340, 0.10) == 3400.0
        from dataclasses import replace
        tx = modulate(rng.integers(0, 2, 200, dtype=np.uint8), ModemConfig(bit_rate=166))
        base = preset("noiseless")
        energies = []
        for angle in (0.0, 30.0, 60.0, 90.0):
            rx = propagate(tx, replace(base, distance=2.0, angle_off_axis=angle))
            energies.append(tone_energy(rx, 19000.0, (0, len(rx))))
        assert energies[0] > energies[1] > energies[2] > energies[3]


def test_criterion_7_countermeasures():
    with criterion(7, "countermeasures"):
        # filter meets its mask
        tone19 = SampleBuffer(np.sin(2 * np.pi * 19_000 / FS * np.arange(FS)), FS)
        drop19 = 10 * math.log10(
            tone_energy(lowpass_filter(tone19, 18_000), 19_000, (0, FS))
            / tone_energy(tone19, 19_000, (0, FS))
        )
        assert drop19 <= -40.0, f"stopband only {drop19:.1f} dB"
        tone1k = SampleBuffer(np.sin(2 * np.pi * 1000 / FS * np.arange(FS)), FS)
        drop1k = 10 * math.log10(
            tone_energy(lowpass_filter(tone1k, 18_000), 1000, (0, FS))
            / tone_energy(tone1k, 1000, (0, FS))
        )
        assert abs(drop1k) <= 1.0, f"passband ripple {drop1k:.2f} dB"
        # the filter at the channel output kills discovery in 20/20 seeds
        payload = bytes(range(16))
        room = preset("paper-3m")
        for seed in range(20):
            def guarded(ident, messages, seed=seed):
                heard = heard_burst(messages, LINK.modem, room, seed, ident)
                return recover_frames(lowpass_filter(heard, 18_000), LINK.modem)

            trace = run_session(LINK, LINK, room, payload, seed=seed, budget=40.0, hear=guarded)
            assert not trace.summary["complete"], seed
            phases = {e["phase"] for e in trace.of_kind("phase")}
            assert "DISCOVERED" not in phases, seed
        # detector: 0 misses on 100 embedded frames, 0 false alarms on music
        cfg = ModemConfig(bit_rate=166)
        rng = np.random.default_rng(5)
        snr_db = 16.0  # per-band SNR of the embedded carriers (>= 10 dB regime)
        sigma = math.sqrt((0.9**2 / 2) / 10 ** (snr_db / 10) * (FS / 2) / 100)
        frame_len = 46 * cfg.samples_per_bit
        step = frame_len + int(0.9 * FS)
        duration = (100 * step + 2 * FS + int(2.5 * FS)) / FS
        bg = synthesize_noise(NoiseProfile(NoiseKind.MUSIC_LIKE, 0.0), duration, FS,
                              seed=6).samples.copy()
        bg += sigma * rng.standard_normal(bg.size)
        placements = []
        for k in range(100):
            at = int(2.5 * FS) + k * step
            msg = framing.ControlMessage(framing.MessageKind.DATA, seq=k % 256,
                                         body=int(rng.integers(0, 65_536)))
            wave = modulate(framing.encode_frame(framing.encode_message(msg)), cfg)
            bg[at:at + len(wave)] += wave.samples
            placements.append((at / FS, (at + len(wave)) / FS))
        events = detect_ultrasonic(SampleBuffer(bg, FS))
        misses = sum(
            1 for a, b in placements
            if not any(e.start < b and a < e.end and e.classified_as_fsk for e in events)
        )
        assert misses == 0, f"{misses} embedded frames missed"
        music = synthesize_noise(NoiseProfile(NoiseKind.MUSIC_LIKE, 0.0), 60.0, FS, seed=2)
        assert detect_ultrasonic(music, threshold_db=10.0) == []


def test_criterion_8_noise_immunity():
    with criterion(8, "music/speech immunity above 18 kHz"):
        from dataclasses import replace
        cfg = ModemConfig(bit_rate=166)
        base = preset("paper-3m")
        sigma = white_noise_sigma(base)
        equal_power_level = 10 * math.log10(sigma**2 / reference_received_power(base))

        def mean_ber(model):
            per_seed = []
            for seed in range(20):
                bits = np.random.default_rng(500 + seed).integers(0, 2, 1000, dtype=np.uint8)
                out = demodulate(propagate(modulate(bits, cfg), model, seed=seed), cfg)
                per_seed.append(measure_ber(bits, out.bits))
            return float(np.mean(per_seed))

        baseline = mean_ber(base)
        for kind in (NoiseKind.MUSIC_LIKE, NoiseKind.SPEECH_LIKE):
            mixed = replace(base, noise=NoiseProfile(kind, equal_power_level))
            delta = abs(mean_ber(mixed) - baseline)
            assert delta < 0.01, f"{kind}: BER shifted by {delta * 100:.2f} pp"


def test_criterion_9_cli_determinism(tmp_path, rng):
    with criterion(9, "CLI manifest reproducibility"):
        from ultralink.analysis import make_sweep
        from ultralink.audio import write_wav

        def hashes(out_dir: Path) -> dict:
            return {
                p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(out_dir.iterdir())
                if p.name != "manifest.json"
            }

        payload = tmp_path / "payload.bin"
        payload.write_bytes(bytes(rng.integers(0, 256, 48, dtype=np.uint8)))
        session_cfg = tmp_path / "session.cfg"
        session_cfg.write_text(
            "[session]\npayload = payload.bin\nmode = bidirectional\n"
            "preset = paper-3m\nbudget_s = 600\n"
        )
        sweep_rx = propagate(make_sweep(2.0), preset("paper-3m"), seed=1)
        floor = propagate(SampleBuffer(np.zeros(2 * FS), FS), preset("paper-3m"), seed=2)
        write_wav(tmp_path / "sweep.wav", sweep_rx)
        write_wav(tmp_path / "floor.wav", floor)

        runs = {
            "modulate": ["modulate", str(payload), "--rate", "166",
                         "--out", str(tmp_path / "o_mod")],
            "demodulate": None,  # filled in after modulate runs
            "simulate-session": ["simulate-session", "--config", str(session_cfg),
                                 "--seed", "3", "--out", str(tmp_path / "o_sess")],
            "capacity": ["capacity", "--sweep", str(tmp_path / "sweep.wav"),
                         "--noise", str(tmp_path / "floor.wav"), "--spectrogram",
                         "--out", str(tmp_path / "o_cap")],
            "ber-sweep": ["ber-sweep", "--rates", "166", "--preset", "paper-3m",
                          "--bits", "300", "--seeds", "3",
                          "--out", str(tmp_path / "o_ber")],
            "detect": ["detect", str(tmp_path / "o_mod" / "payload.wav"),
                       "--out", str(tmp_path / "o_det")],
            "filter": ["filter", str(tmp_path / "o_mod" / "payload.wav"),
                       "--cutoff", "18000", "--out", str(tmp_path / "o_filt")],
        }
        assert cli_main(runs["modulate"]) == 0
        runs["demodulate"] = ["demodulate", str(tmp_path / "o_mod" / "payload.wav"),
                              "--rate", "166", "--out", str(tmp_path / "o_dem")]
        for name, argv in runs.items():
            if name == "modulate":
                continue
            assert cli_main(argv) == 0, name
        for name in runs:
            out_dir = tmp_path / {
                "modulate": "o_mod", "demodulate": "o_dem",
                "simulate-session": "o_sess", "capacity": "o_cap",
                "ber-sweep": "o_ber", "detect": "o_det", "filter": "o_filt",
            }[name]
            before = hashes(out_dir)
            assert cli_main(["rerun", str(out_dir / "manifest.json"), "--verify"]) == 0, name
            assert hashes(out_dir) == before, name
