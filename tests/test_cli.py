"""End-to-end command-line tests: pipelines, manifests, reproducibility."""

import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from ultralink import burst, configdoc
from ultralink.analysis import make_sweep
from ultralink.audio import SampleBuffer, read_wav, write_wav
from ultralink.channel import preset, propagate
from ultralink.cli import main
from ultralink.framing import ControlMessage, MessageKind
from ultralink.modem import ModemConfig


# session config lines setting fields that no longer exist, by key: the
# frame gap, band and retask latency are fixed, the flight time is not in
# the samples, and a one-way burst starts at t = 0
DELETED_KEYS = {
    "gap_slots": "[link]\ngap_slots = 4\n",
    "retask_latency": "[link]\nretask_latency = 0.02\n",
    "sample_shift_delay": "[channel]\nsample_shift_delay = true\n",
    "band_low": "[modem]\nband_low = 17000\n",
    "seed": "[channel]\nseed = 1\n",
    "start_time": "mode = unidirectional\nstart_time = 5.0\n",
}

# non-finite [session] times, by a name the error gives: a nan budget hung
# a session that could not complete, and rx_guard_s = nan failed converting
# it to samples; a one-way receiver now hears the whole burst, so the error
# names rx_guard_s as an unknown SessionConfig key
SESSION_TIMES = {
    "budget": "budget_s = nan\n",
    "rx_guard": "mode = unidirectional\nrx_guard_s = nan\n",
}

# capacity band widths outside 5 Hz (the 200 ms window's bin spacing) to
# Nyquist, by case: 0 was a ZeroDivisionError, 1e-300 an OverflowError
CAPACITY_RESOLUTIONS = {f"capacity-{value}": value
                        for value in ("0", "1e-300", "-5", "nan", "inf")}

# config documents with a section that the command does not read, by case:
# each ran as if the section were not there
UNREAD_SECTIONS = {
    "modulate-typo-section": ("[modme]\nbit_rate = 10\n", "modme"),
    "ber-sweep-noise-section": ("[noise]\nkind = music_like\n[channel]\ndistance = 8\n",
                                "noise"),
}

# a [session] preset with a section that would set the room too, by the
# section named: the preset won without a word, so `distance = 8` ran at 3 m
PRESET_ROOMS = {
    "preset-channel": "preset = paper-3m\n[channel]\ndistance = 8\n",
    "preset-noise": "preset = paper-3m\n[noise]\nkind = music_like\n",
}

# a session payload file holding no byte, by mode: with no payload either
# way, a session would end once both nodes are discovered
EMPTY_PAYLOADS = {
    "session-empty-payload": "",
    "oneway-empty-payload": "mode = unidirectional\n",
}

# detector thresholds that are not finite: nan and inf reported no event
# and -inf one, each with exit 0
DETECT_THRESHOLDS = {f"detect-{value}": value for value in ("nan", "inf", "-inf")}


def sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def out_hashes(out_dir: Path) -> dict:
    return {p.name: sha(p) for p in sorted(out_dir.iterdir()) if p.name != "manifest.json"}


@pytest.fixture
def payload_file(tmp_path, rng):
    data = bytes(rng.integers(0, 256, 64, dtype=np.uint8))
    path = tmp_path / "payload.bin"
    path.write_bytes(data)
    return path


class TestModulateDemodulate:
    def test_file_roundtrip_byte_exact(self, tmp_path, payload_file):
        assert main(["modulate", str(payload_file), "--out", str(tmp_path / "m"),
                     "--rate", "166"]) == 0
        wav = tmp_path / "m" / "payload.wav"
        assert wav.exists()
        assert main(["demodulate", str(wav), "--out", str(tmp_path / "d"),
                     "--rate", "166"]) == 0
        assert (tmp_path / "d" / "payload.bin").read_bytes() == payload_file.read_bytes()

    def test_leading_silence_roundtrip(self, tmp_path, payload_file):
        # a second of silence ahead of the burst: frames keep their indices
        assert main(["modulate", str(payload_file), "--out", str(tmp_path / "m")]) == 0
        wave = read_wav(tmp_path / "m" / "payload.wav")
        padded = SampleBuffer(np.concatenate([np.zeros(wave.sample_rate), wave.samples]),
                              wave.sample_rate)
        write_wav(tmp_path / "late.wav", padded)
        assert main(["demodulate", str(tmp_path / "late.wav"), "--out", str(tmp_path / "d")]) == 0
        assert (tmp_path / "d" / "late.bin").read_bytes() == payload_file.read_bytes()

    def test_empty_payload_errors(self, tmp_path, capsys):
        empty = tmp_path / "empty.bin"
        empty.write_bytes(b"")
        assert main(["modulate", str(empty), "--out", str(tmp_path / "m")]) == 1
        assert "empty payload" in capsys.readouterr().err

    def test_wav_without_data_frames_is_incomplete(self, tmp_path):
        # one DISCOVERY frame: nothing to place, so an empty payload, exit 1,
        # and the outputs and manifest written all the same
        discovery = ControlMessage(MessageKind.DISCOVERY, sender_id=7)
        write_wav(tmp_path / "beacon.wav", burst.messages_to_waveform([discovery], ModemConfig()))
        out = tmp_path / "d"
        assert main(["demodulate", str(tmp_path / "beacon.wav"), "--out", str(out)]) == 1
        assert (out / "beacon.bin").read_bytes() == b""
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == {"beacon.bin": sha(out / "beacon.bin")}

    def test_wav_duration_matches_frame_arithmetic(self, tmp_path):
        four = tmp_path / "four.bin"
        four.write_bytes(b"\x01\x02\x03\x04")
        assert main(["modulate", str(four), "--out", str(tmp_path / "m"),
                     "--rate", "166"]) == 0
        from ultralink.audio import read_wav
        wav = read_wav(tmp_path / "m" / "four.wav")
        # 1 length-prefix frame + 2 data frames, 46 bits each, 4-slot gaps
        spb = round(48000 / 166)
        expected = (3 * 46 + 2 * 4) * spb
        assert len(wav) == expected

    def test_manifest_records_hashes(self, tmp_path, payload_file):
        out = tmp_path / "m"
        cfg = tmp_path / "m.cfg"
        cfg.write_text("[modem]\nbit_rate = 166.0\n")
        main(["modulate", str(payload_file), "--out", str(out), "--config", str(cfg)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "modulate"
        assert manifest["outputs"]["payload.wav"] == sha(out / "payload.wav")
        assert str(payload_file.resolve()) in manifest["inputs"]
        assert manifest["inputs"][str(cfg.resolve())] == sha(cfg)
        main(["demodulate", str(out / "payload.wav"), "--out", str(tmp_path / "d"),
              "--config", str(cfg)])
        manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
        assert manifest["inputs"][str(cfg.resolve())] == sha(cfg)


class TestSimulateSession:
    def _write_config(self, tmp_path, payload_file, mode="bidirectional",
                      preset_name="noiseless"):
        cfg = tmp_path / "session.cfg"
        cfg.write_text(
            "[session]\n"
            f"payload = {payload_file.name}\n"
            f"mode = {mode}\n"
            f"preset = {preset_name}\n"
            "budget_s = 600\n"
            "[modem]\n"
            "bit_rate = 166.0\n"
        )
        return cfg

    def test_bidirectional_outputs(self, tmp_path, payload_file):
        cfg = self._write_config(tmp_path, payload_file)
        out = tmp_path / "sess"
        assert main(["simulate-session", "--config", str(cfg), "--seed", "7",
                     "--out", str(out)]) == 0
        assert (out / "trace.json").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["complete"]
        assert summary["delivered_bytes"]["B"] == 64
        assert (out / "node_a_heard.wav").exists()
        assert (out / "node_b_heard.wav").exists()

    def test_heard_audio_starts_one_flight_time_after_each_burst(self, tmp_path):
        # a noiseless 6.8 m room: 20 ms of flight, 960 samples, and silence
        # between the bursts a node hears
        (tmp_path / "flight.bin").write_bytes(b"flight time")
        cfg = tmp_path / "room.cfg"
        cfg.write_text("[session]\npayload = flight.bin\n[channel]\ndistance = 6.8\n"
                       "[modem]\nbit_rate = 166\n")
        out = tmp_path / "room"
        assert main(["simulate-session", "--config", str(cfg), "--seed", "2",
                     "--out", str(out)]) == 0
        entries = json.loads((out / "trace.json").read_text())["entries"]
        model = configdoc.channel_from_sections(configdoc.parse(cfg.read_text()))
        fs = model.sample_rate
        starts = {e["burst"]: e["t"] for e in entries if e["event"] == "tx_burst"}
        for node in "AB":
            heard = sorted({e["burst"] for e in entries
                            if e["event"] == "rx_frame" and e["node"] == node})
            assert heard, node
            loud = np.flatnonzero(read_wav(out / f"node_{node.lower()}_heard.wav").samples)
            for ident in heard:
                expected = (starts[ident] + model.propagation_delay) * fs
                first = loud[np.searchsorted(loud, expected - 0.01 * fs)]
                assert abs(first - expected) <= 1, (node, ident, first, expected)

    def test_unidirectional_trace_has_no_acks(self, tmp_path, payload_file):
        cfg = self._write_config(tmp_path, payload_file, mode="unidirectional")
        out = tmp_path / "uni"
        assert main(["simulate-session", "--config", str(cfg), "--seed", "7",
                     "--out", str(out)]) == 0
        trace = json.loads((out / "trace.json").read_text())
        kinds = [k for e in trace["entries"] if e["event"] == "tx_burst"
                 for k in e["frames"]]
        assert "ACK_OK" not in kinds and "RETRANSMIT" not in kinds

    @pytest.mark.parametrize("mode", ["bidirectional", "unidirectional"])
    def test_each_burst_is_heard_once(self, tmp_path, payload_file, monkeypatch, mode):
        # the one-way heard WAV was a second hearing of the burst, made apart
        # from the one the trace recorded
        heard = []
        heard_burst = burst.heard_burst

        def counted(messages, cfg, channel, seed, ident):
            heard.append(ident)
            return heard_burst(messages, cfg, channel, seed, ident)

        monkeypatch.setattr(burst, "heard_burst", counted)
        cfg = self._write_config(tmp_path, payload_file, mode=mode)
        out = tmp_path / "once"
        assert main(["simulate-session", "--config", str(cfg), "--seed", "7",
                     "--out", str(out)]) == 0
        entries = json.loads((out / "trace.json").read_text())["entries"]
        received = {e["burst"] for e in entries if e["event"] == "rx_frame"}
        assert len(heard) == len(set(heard)) and received <= set(heard)
        if mode == "unidirectional":
            assert heard == [0]

    def test_same_seed_byte_identical_outputs(self, tmp_path, payload_file):
        cfg = self._write_config(tmp_path, payload_file, preset_name="paper-3m")
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert main(["simulate-session", "--config", str(cfg), "--seed", "5",
                     "--out", str(out1)]) == 0
        assert main(["simulate-session", "--config", str(cfg), "--seed", "5",
                     "--out", str(out2)]) == 0
        assert out_hashes(out1) == out_hashes(out2)

    def test_budget_exhaustion_exits_nonzero(self, tmp_path, payload_file):
        cfg = tmp_path / "tight.cfg"
        cfg.write_text(
            "[session]\n"
            f"payload = {payload_file.name}\n"
            "mode = bidirectional\n"
            "preset = noiseless\n"
            "budget_s = 2\n"
        )
        out = tmp_path / "short"
        assert main(["simulate-session", "--config", str(cfg), "--seed", "7",
                     "--out", str(out)]) == 1
        assert not json.loads((out / "summary.json").read_text())["complete"]

    @pytest.mark.parametrize("line", ["budget = 2", "mode = duplex"])
    def test_bad_session_key_rejected(self, tmp_path, payload_file, capsys, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"[session]\npayload = {payload_file.name}\npreset = noiseless\n{line}\n")
        out = tmp_path / "bad"
        assert main(["simulate-session", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_non_finite_link_value_rejected(self, tmp_path, payload_file, capsys):
        cfg = tmp_path / "inf.cfg"
        cfg.write_text(f"[session]\npayload = {payload_file.name}\npreset = noiseless\n[link]\nt_max = inf\n")
        out = tmp_path / "inf"
        assert main(["simulate-session", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("line", ["auto_rate = true", "min_bit_rate = 10", "max_bit_rate = 500"])
    def test_removed_rate_keys_rejected(self, tmp_path, payload_file, capsys, line):
        # the link has no rate negotiation: its old [link] keys are unknown
        key = line.split(" = ")[0]
        with pytest.raises(ValueError, match=f"unknown LinkConfig key '{key}'"):
            configdoc.link_from_sections(configdoc.parse(f"[link]\n{line}\n"))
        cfg = tmp_path / "rate.cfg"
        cfg.write_text(f"[session]\npayload = {payload_file.name}\npreset = noiseless\n[link]\n{line}\n")
        out = tmp_path / "rate"
        assert main(["simulate-session", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: unknown LinkConfig key '{key}'")
        assert not out.exists()


class TestAnalysisCommands:
    @pytest.fixture
    def wavs(self, tmp_path):
        sweep = make_sweep(3.0)
        model = preset("paper-3m")
        rx = propagate(sweep, model, seed=1)
        floor = propagate(SampleBuffer(np.zeros(len(sweep)), 48000), model, seed=2)
        sweep_path = tmp_path / "sweep.wav"
        floor_path = tmp_path / "floor.wav"
        write_wav(sweep_path, rx)
        write_wav(floor_path, floor)
        return sweep_path, floor_path

    def test_capacity_outputs(self, tmp_path, wavs):
        sweep, floor = wavs
        out = tmp_path / "cap"
        assert main(["capacity", "--sweep", str(sweep), "--noise", str(floor),
                     "--out", str(out), "--spectrogram"]) == 0
        csv = (out / "capacity.csv").read_text().strip().split("\n")
        assert len(csv) == 241
        doc = json.loads((out / "capacity.json").read_text())
        assert len(doc["bands"]) == 240
        assert (out / "sweep_spectrogram.png").read_bytes()[:8] == b"\x89PNG\r\n\x1a\n"

    def test_ber_sweep_outputs(self, tmp_path):
        out = tmp_path / "ber"
        assert main(["ber-sweep", "--rates", "166", "--preset", "noiseless",
                     "--bits", "200", "--seeds", "2", "--out", str(out)]) == 0
        rows = json.loads((out / "ber.json").read_text())
        assert rows[0]["mean_ber"] == 0.0

    def test_detect_and_filter(self, tmp_path, payload_file):
        main(["modulate", str(payload_file), "--out", str(tmp_path / "m"),
              "--rate", "166"])
        wav = tmp_path / "m" / "payload.wav"
        out = tmp_path / "det"
        assert main(["detect", str(wav), "--out", str(out)]) == 0
        assert (out / "events.csv").exists()
        # a clip shorter than one 20 ms spectrogram window gives one column
        clip = tmp_path / "clip.wav"
        write_wav(clip, SampleBuffer(read_wav(wav).samples[:480], 48000))
        assert main(["detect", str(clip), "--spectrogram", "--out", str(tmp_path / "c")]) == 0
        assert (tmp_path / "c" / "manifest.json").exists()
        assert (tmp_path / "c" / "spectrogram.png").read_bytes()[:8] == b"\x89PNG\r\n\x1a\n"
        fout = tmp_path / "filt"
        assert main(["filter", str(wav), "--out", str(fout),
                     "--cutoff", "18000"]) == 0
        from ultralink.modem import ModemConfig
        from ultralink.burst import recover_frames
        filtered = read_wav(fout / "payload_filtered.wav")
        scan = recover_frames(filtered, ModemConfig(bit_rate=166))
        assert scan.frames == []  # countermeasure leaves nothing decodable


class TestOtherSampleRates:
    # a 44.1 kHz modem: presets are built at the modem's rate
    MODEM = "[modem]\nsample_rate = 44100\nbit_rate = 166.0\n"

    # a [channel] section without a sample_rate was a 48 kHz room, which the
    # modem rejected
    @pytest.mark.parametrize("preset_line", ["preset = paper-3m\n", "", "[channel]\ndistance = 2\n"],
                             ids=["paper-3m", "default-room", "channel-section"])
    def test_session_on_a_preset(self, tmp_path, payload_file, preset_line):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(f"[session]\npayload = {payload_file.name}\n{preset_line}" + self.MODEM)
        out = tmp_path / "s"
        assert main(["simulate-session", "--config", str(cfg), "--seed", "3",
                     "--out", str(out)]) == 0
        assert json.loads((out / "summary.json").read_text())["delivered_intact"]["B"]
        assert read_wav(out / "node_b_heard.wav").sample_rate == 44100

    def test_ber_sweep_and_rerun(self, tmp_path):
        cfg = tmp_path / "m.cfg"
        cfg.write_text(self.MODEM)
        out = tmp_path / "b"
        assert main(["ber-sweep", "--rates", "166", "--preset", "noiseless,paper-3m",
                     "--bits", "200", "--seeds", "2", "--config", str(cfg),
                     "--out", str(out)]) == 0
        rows = json.loads((out / "ber.json").read_text())
        assert [r["model"] for r in rows] == ["noiseless", "paper-3m"]
        assert rows[0]["mean_ber"] == 0.0
        before = out_hashes(out)
        assert main(["rerun", str(out / "manifest.json"), "--verify"]) == 0
        assert out_hashes(out) == before


class TestExpectedErrors:
    @pytest.mark.parametrize("case", ["modulate-config", "demodulate-config", "ber-sweep-config",
                                      "ber-sweep-rates", "ber-sweep-no-bits",
                                      "ber-sweep-negative-bits", "session-budget",
                                      "capacity-silent-noise", *UNREAD_SECTIONS,
                                      *CAPACITY_RESOLUTIONS, *DELETED_KEYS, *SESSION_TIMES,
                                      *DETECT_THRESHOLDS, *PRESET_ROOMS, *EMPTY_PAYLOADS])
    def test_error_line_and_no_manifest(self, tmp_path, payload_file, capsys, case):
        missing = str(tmp_path / "missing.cfg")
        wav = tmp_path / "quiet.wav"
        # half a second: longer than the capacity report's 200 ms window
        write_wav(wav, SampleBuffer(np.zeros(24000), 48000))
        sweep = tmp_path / "sweep.wav"
        write_wav(sweep, make_sweep(0.5))
        empty = tmp_path / "empty.bin"
        empty.write_bytes(b"")
        session = tmp_path / "session.cfg"
        session_payload = empty if case in EMPTY_PAYLOADS else payload_file
        session.write_text(f"[session]\npayload = {session_payload.name}\n"
                           + {**DELETED_KEYS, **SESSION_TIMES, **PRESET_ROOMS,
                              **EMPTY_PAYLOADS}.get(case, "budget_s = abc\n"))
        unread = tmp_path / "unread.cfg"
        unread.write_text(UNREAD_SECTIONS[case][0] if case in UNREAD_SECTIONS else "")
        argv = {
            "modulate-config": ["modulate", str(payload_file), "--config", missing],
            "modulate-typo-section": ["modulate", str(payload_file), "--config", str(unread)],
            "ber-sweep-noise-section": ["ber-sweep", "--rates", "166", "--preset", "noiseless",
                                        "--bits", "100", "--seeds", "1", "--config", str(unread)],
            "demodulate-config": ["demodulate", str(wav), "--config", missing],
            "ber-sweep-config": ["ber-sweep", "--rates", "166", "--preset", "noiseless",
                                 "--bits", "100", "--seeds", "1", "--config", missing],
            "ber-sweep-rates": ["ber-sweep", "--rates", "abc", "--preset", "noiseless"],
            "ber-sweep-no-bits": ["ber-sweep", "--rates", "166", "--preset", "noiseless",
                                  "--bits", "0", "--seeds", "1"],
            "ber-sweep-negative-bits": ["ber-sweep", "--rates", "166", "--preset", "noiseless",
                                        "--bits", "-1", "--seeds", "1"],
            # a digital-silence floor printed "18-24 kHz capacity 0 bit/s"
            "capacity-silent-noise": ["capacity", "--sweep", str(sweep), "--noise", str(wav)],
            **{case: ["capacity", "--sweep", str(wav), "--noise", str(wav),
                      "--resolution", value] for case, value in CAPACITY_RESOLUTIONS.items()},
            **{case: ["detect", str(wav), f"--threshold={value}"]
               for case, value in DETECT_THRESHOLDS.items()},
        }.get(case, ["simulate-session", "--config", str(session)])
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 1
        error = capsys.readouterr().err.splitlines()[-1]
        assert error.startswith("error: ")
        if case in DELETED_KEYS:
            assert re.fullmatch(rf"error: unknown \w+ key '{case}'", error)
        if case in CAPACITY_RESOLUTIONS:
            assert "resolution" in error
        if case in SESSION_TIMES:
            assert case in error
        if case in DETECT_THRESHOLDS:
            assert "threshold" in error
        if case == "capacity-silent-noise":
            assert "noise recording" in error
        if case in UNREAD_SECTIONS:
            assert f"[{UNREAD_SECTIONS[case][1]}]" in error
        if case in PRESET_ROOMS:
            assert "preset 'paper-3m'" in error and f"[{case.split('-')[1]}]" in error
        if case in EMPTY_PAYLOADS:
            assert "empty payload" in error
        assert not (out / "manifest.json").exists()


    @pytest.mark.parametrize("argv", [
        ["detect", "{wav}", "--config", "/nonexistent.cfg"],
        ["filter", "{wav}", "--seed", "3"],
        ["capacity", "--sweep", "{wav}", "--noise", "{wav}", "--config", "{wav}"],
        ["modulate", "{payload}", "--seed", "3"],
        ["demodulate", "{wav}", "--seed", "3"],
    ])
    def test_options_a_command_does_not_read_are_usage_errors(self, tmp_path, payload_file,
                                                               capsys, argv):
        wav = tmp_path / "quiet.wav"
        write_wav(wav, SampleBuffer(np.zeros(4800), 48000))
        out = tmp_path / "out"
        argv = [a.format(wav=wav, payload=payload_file) for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()


class TestRerun:
    @pytest.mark.parametrize("command", ["modulate", "session", "ber"])
    def test_rerun_reproduces_bit_identically(self, tmp_path, payload_file, command):
        if command == "modulate":
            out = tmp_path / "m"
            assert main(["modulate", str(payload_file), "--out", str(out),
                         "--rate", "166"]) == 0
        elif command == "session":
            cfg = tmp_path / "s.cfg"
            cfg.write_text(
                "[session]\n"
                f"payload = {payload_file.name}\n"
                "mode = bidirectional\n"
                "preset = paper-3m\n"
            )
            out = tmp_path / "s"
            assert main(["simulate-session", "--config", str(cfg), "--seed", "3",
                         "--out", str(out)]) == 0
        else:
            out = tmp_path / "b"
            assert main(["ber-sweep", "--rates", "166", "--preset", "paper-3m",
                         "--bits", "200", "--seeds", "2", "--out", str(out)]) == 0
        before = out_hashes(out)
        assert main(["rerun", str(out / "manifest.json"), "--verify"]) == 0
        assert out_hashes(out) == before

    def test_verify_fails_on_an_output_that_differs(self, tmp_path, payload_file, capsys):
        out = tmp_path / "m"
        assert main(["modulate", str(payload_file), "--out", str(out)]) == 0
        path = out / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["outputs"]["payload.wav"] = "0" * 64
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        altered = json.dumps(manifest)
        for _ in range(2):
            # a failed verify keeps the recorded manifest, so it fails again
            assert main(["rerun", str(path), "--verify"]) == 1
            err = capsys.readouterr().err.splitlines()[-1]
            assert err == "error: outputs differ after rerun: payload.wav"
            assert path.read_text() == altered

    def test_verify_compares_the_outputs_of_a_command_that_exits_1(self, tmp_path,
                                                                     payload_file, capsys):
        # a demodulate of half a burst recovers too few chunks: exit 1, with
        # its outputs and manifest written all the same
        assert main(["modulate", str(payload_file), "--out", str(tmp_path / "m")]) == 0
        wave = read_wav(tmp_path / "m" / "payload.wav")
        half = SampleBuffer(wave.samples[:len(wave) // 2], wave.sample_rate)
        write_wav(tmp_path / "half.wav", half)
        out = tmp_path / "d"
        assert main(["demodulate", str(tmp_path / "half.wav"), "--out", str(out)]) == 1
        path = out / "manifest.json"
        capsys.readouterr()
        assert main(["rerun", str(path), "--verify"]) == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            "all outputs reproduced bit-identically")
        manifest = json.loads(path.read_text())
        manifest["outputs"]["half.bin"] = "0" * 64
        path.write_text(json.dumps(manifest))
        assert main(["rerun", str(path), "--verify"]) == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            "error: outputs differ after rerun: half.bin")
        assert path.read_text() == json.dumps(manifest)

    def test_manifest_lacking_an_argument_is_an_error(self, tmp_path, capsys):
        out = tmp_path / "b"
        assert main(["ber-sweep", "--rates", "166", "--preset", "noiseless",
                     "--bits", "100", "--seeds", "1", "--out", str(out)]) == 0
        path = out / "manifest.json"
        manifest = json.loads(path.read_text())
        del manifest["args"]["seed"]
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["rerun", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()[-1]
        assert err.startswith("error: ") and "seed" in err

    def test_rerun_from_another_directory(self, tmp_path, payload_file, monkeypatch):
        (tmp_path / "m.cfg").write_text("[modem]\nbit_rate = 166.0\n")
        monkeypatch.chdir(tmp_path)
        assert main(["modulate", payload_file.name, "--config", "m.cfg", "--out", "m"]) == 0
        manifest = json.loads((tmp_path / "m" / "manifest.json").read_text())
        assert sorted(manifest["inputs"]) == sorted(
            str(p.resolve()) for p in (payload_file, tmp_path / "m.cfg"))
        before = out_hashes(tmp_path / "m")
        (tmp_path / "elsewhere").mkdir()
        monkeypatch.chdir(tmp_path / "elsewhere")
        assert main(["rerun", "../m/manifest.json", "--verify"]) == 0
        assert out_hashes(tmp_path / "m") == before
