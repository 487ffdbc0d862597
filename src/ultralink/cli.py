"""Command-line harness.

Every subcommand resolves its configuration, runs one pipeline, writes
its outputs plus a `manifest.json` into the output directory, and exits
0 only if the operation's postconditions held: an incomplete demodulate
or session exits 1 with its outputs and manifest written.  An expected
failure prints `error: ...`, exits 1 and writes no manifest.  `ultralink
rerun manifest.json --verify` replays the recorded arguments and checks,
whatever the replay's exit status, that every output is reproduced
bit-identically; on a mismatch it exits 1 and keeps the recorded
manifest.  Diagnostics go to stderr; data goes to files.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import analysis, burst, configdoc, framing
from .audio import AudioError, SampleBuffer, read_wav, write_wav
from .channel import preset
from .link import audio_hearing, run_session, unidirectional_schedule
from .modem import BAND, ConfigError

try:
    from importlib.metadata import version as _pkg_version
    TOOL_VERSION = _pkg_version("ultralink")
except Exception:  # pragma: no cover - metadata missing in odd installs
    TOOL_VERSION = "unknown"


class CliError(Exception):
    """An expected failure of a command, reported as `error: ...` and exit 1."""


def _abspath(text: str) -> str:
    """argparse type of every path argument: absolute, so a manifest's
    recorded arguments mean the same from any working directory."""
    return str(Path(text).resolve())


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _write_manifest(out: str, manifest: dict) -> None:
    path = Path(out) / "manifest.json"
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def _load_sections(config_path: str | None,
                   sections: tuple[str, ...] = configdoc.SECTIONS) -> tuple[dict, list[Path]]:
    """The sections of a --config document, which may hold only `sections`
    (those the command reads), and the files read for them."""
    if not config_path:
        return {}, []
    return configdoc.parse(Path(config_path).read_text(), sections), [Path(config_path)]


def _resolve_modem(sections: dict, rate: float | None):
    cfg = configdoc.modem_from_sections(sections)
    if rate is not None:
        cfg = cfg.at_rate(rate)
    return cfg


def _out_dir(args) -> Path:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def _write_table(out_dir: Path, stem: str, rows: list[dict], doc: dict | None = None) -> list[Path]:
    """`<stem>.csv` of `rows` and `<stem>.json` of `doc` (by default the rows)."""
    csv_path, json_path = out_dir / f"{stem}.csv", out_dir / f"{stem}.json"
    csv_path.write_text(analysis.rows_to_csv(rows))
    json_path.write_text(json.dumps(rows if doc is None else doc, sort_keys=True, indent=2) + "\n")
    return [csv_path, json_path]


# ------------------------------------------------------------- commands
#
# Each command returns its exit status, the files it read and the files
# it wrote; `run` records them in the manifest.

def cmd_modulate(args):
    src = Path(args.input)
    data = src.read_bytes()
    if not data:
        raise CliError(f"{src}: empty payload")
    sections, config = _load_sections(args.config, ("modem",))
    cfg = _resolve_modem(sections, args.rate)
    messages = framing.pack_payload(data)
    wave = burst.messages_to_waveform(messages, cfg)
    wav_path = _out_dir(args) / f"{src.stem}.wav"
    write_wav(wav_path, wave)
    print(f"{len(data)} bytes -> {len(messages)} frames -> {wave.duration:.3f} s",
          file=sys.stderr)
    return 0, [src, *config], [wav_path]


def cmd_demodulate(args):
    src = Path(args.input)
    sections, config = _load_sections(args.config, ("modem",))
    cfg = _resolve_modem(sections, args.rate)
    wave = read_wav(src, expected_rate=cfg.sample_rate)
    scan = burst.recover_frames(wave, cfg)
    result = burst.reassemble_burst(scan)
    bin_path = _out_dir(args) / f"{src.stem}.bin"
    bin_path.write_bytes(result.data)
    print(f"{len(scan.frames)} frames recovered, {len(scan.corrupt_offsets)} corrupt; "
          f"payload {'complete' if result.complete else 'INCOMPLETE'}", file=sys.stderr)
    return (0 if result.complete else 1), [src, *config], [bin_path]


def _write_heard_timelines(out_dir: Path, trace, heard: dict, channel) -> list[Path]:
    """Per node, `node_<name>_heard.wav` of the session and a second more of
    audio: each burst it heard, from `heard` by number, at its tx_burst
    time plus the flight time.  One node's timeline is held at a time."""
    fs = channel.sample_rate
    size = int(math.ceil((trace.summary["duration"] + 1.0) * fs))
    paths = []
    for name in "AB":
        timeline = np.zeros(size)
        for e in trace.of_kind("tx_burst"):
            if e["node"] != name and e["burst"] in heard:
                samples = heard[e["burst"]].samples
                a = int(round((e["t"] + channel.propagation_delay) * fs))
                timeline[a:a + samples.size] = samples[: max(size - a, 0)]
        paths.append(out_dir / f"node_{name.lower()}_heard.wav")
        write_wav(paths[-1], SampleBuffer(timeline, fs))
    return paths


def cmd_simulate_session(args):
    sections, config = _load_sections(args.config)
    session = configdoc.session_from_sections(sections)
    payload_path = (Path(args.config).parent / session.payload).resolve()
    payload = payload_path.read_bytes()
    if not payload:
        raise CliError(f"{payload_path}: empty payload")
    link_cfg = configdoc.link_from_sections(sections)
    channel = configdoc.room_from_sections(sections, session.preset, link_cfg.modem.sample_rate)
    out_dir = _out_dir(args)
    heard = {}
    hear = audio_hearing(link_cfg.modem, channel, args.seed, heard)
    if session.mode is configdoc.SessionMode.UNIDIRECTIONAL:
        trace = unidirectional_schedule(link_cfg, channel, payload, seed=args.seed, hear=hear)
        outputs = [out_dir / "node_rx_heard.wav"]
        write_wav(outputs[0], heard[0])
    else:
        trace = run_session(link_cfg, link_cfg, channel, payload,
                            seed=args.seed, budget=session.budget_s, hear=hear)
        outputs = _write_heard_timelines(out_dir, trace, heard, channel)
    trace_path = out_dir / "trace.json"
    trace_path.write_text(trace.to_json(indent=2) + "\n")
    summary_path = out_dir / "summary.json"
    summary_path.write_text(json.dumps(trace.summary, sort_keys=True, indent=2) + "\n")
    outputs += [trace_path, summary_path]
    complete = trace.summary["complete"]
    print(f"session {'complete' if complete else 'INCOMPLETE'}: "
          f"{trace.summary['delivered_bytes']}", file=sys.stderr)
    return (0 if complete else 1), [*config, payload_path], outputs


def cmd_capacity(args):
    sweep_path, noise_path = Path(args.sweep), Path(args.noise)
    sweep = read_wav(sweep_path)
    noise = read_wav(noise_path)
    report = analysis.capacity_profile(sweep, noise, resolution=args.resolution)
    out_dir = _out_dir(args)
    outputs = _write_table(out_dir, "capacity", report.to_rows(), report.to_doc())
    if args.spectrogram:
        png_path = out_dir / "sweep_spectrogram.png"
        analysis.write_png_gray(png_path, analysis.spectrogram_image(sweep))
        outputs.append(png_path)
    total = report.total_capacity_over(*BAND)
    print(f"{len(report.bands)} bands, {report.window_count} windows; "
          f"18-24 kHz capacity {total:.0f} bit/s", file=sys.stderr)
    return 0, [sweep_path, noise_path], outputs


def cmd_ber_sweep(args):
    rates = [float(r) for r in args.rates.split(",")]
    names = args.preset.split(",") if args.preset else ["paper-3m"]
    sections, config = _load_sections(args.config, ("modem",))
    base = configdoc.modem_from_sections(sections)
    models = [(n, preset(n, sample_rate=base.sample_rate)) for n in names]
    seeds = list(range(args.seed, args.seed + args.seeds))
    cells = analysis.ber_sweep(rates, models, payload_bits=args.bits,
                               seeds=seeds, base_modem=base)
    rows = [c.to_row() for c in cells]
    outputs = _write_table(_out_dir(args), "ber", rows)
    for row in rows:
        print(f"{row['model']} @ {row['bit_rate']} bit/s: "
              f"BER {row['mean_ber']:.4f}", file=sys.stderr)
    return 0, config, outputs


def cmd_detect(args):
    src = Path(args.input)
    wave = read_wav(src)
    events = analysis.detect_ultrasonic(wave, threshold_db=args.threshold)
    out_dir = _out_dir(args)
    outputs = _write_table(out_dir, "events", [e.to_row() for e in events])
    if args.spectrogram:
        png_path = out_dir / "spectrogram.png"
        analysis.write_png_gray(png_path, analysis.spectrogram_image(wave))
        outputs.append(png_path)
    print(f"{len(events)} events "
          f"({sum(e.classified_as_fsk for e in events)} classified FSK)", file=sys.stderr)
    return 0, [src], outputs


def cmd_filter(args):
    src = Path(args.input)
    wave = read_wav(src)
    filtered = analysis.lowpass_filter(wave, args.cutoff)
    wav_path = _out_dir(args) / f"{src.stem}_filtered.wav"
    write_wav(wav_path, filtered)
    print(f"low-pass at {args.cutoff} Hz -> {wav_path.name}", file=sys.stderr)
    return 0, [src], [wav_path]


COMMANDS = {
    "modulate": cmd_modulate,
    "demodulate": cmd_demodulate,
    "simulate-session": cmd_simulate_session,
    "capacity": cmd_capacity,
    "ber-sweep": cmd_ber_sweep,
    "detect": cmd_detect,
    "filter": cmd_filter,
}


def run(args: argparse.Namespace) -> tuple[int, dict]:
    """Run one parsed command; returns its exit status and the manifest
    that records it."""
    started = _now()
    status, inputs, outputs = COMMANDS[args.command](args)
    recorded = dict(vars(args))
    return status, {
        "command": recorded.pop("command"),
        "args": recorded,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": {p.name: _sha256(p) for p in outputs},
        "tool_version": TOOL_VERSION,
        "started_at": started,
        "finished_at": _now(),
    }


def cmd_rerun(args) -> int:
    """Replay a manifest's recorded arguments, with --out set to its directory."""
    manifest_path = Path(args.manifest)
    manifest = json.loads(manifest_path.read_text())
    command = manifest["command"]
    missing = sorted(_argument_names(command) - {"out"} - set(manifest["args"]))
    if missing:
        raise CliError(f"{manifest_path}: recorded args lack {', '.join(missing)}, "
                       f"which {command} reads")
    recorded = argparse.Namespace(command=command, **manifest["args"])
    recorded.out = str(manifest_path.parent)
    status, fresh = run(recorded)
    if args.verify:
        # whatever the command's status, and before the recorded manifest
        # is replaced, which a mismatch leaves as it was
        mismatches = [
            name for name, digest in manifest["outputs"].items()
            if fresh["outputs"].get(name) != digest
        ]
        if mismatches:
            raise CliError(f"outputs differ after rerun: {', '.join(mismatches)}")
        print("all outputs reproduced bit-identically", file=sys.stderr)
    _write_manifest(recorded.out, fresh)
    return status


# --------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ultralink",
        description="Near-ultrasonic speaker-to-speaker link: modem, protocol "
                    "simulator, and countermeasure analysis.",
    )
    parser.add_argument("--version", action="version", version=f"ultralink {TOOL_VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *options):
        # a command declares only the options it reads
        if "config" in options:
            p.add_argument("--config", type=_abspath, help="key=value configuration document")
        if "seed" in options:
            p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
        p.add_argument("--out", type=_abspath, required=True, help="output directory")

    p = sub.add_parser("modulate", help="binary file -> framed B-FSK WAV")
    p.add_argument("input", type=_abspath)
    p.add_argument("--rate", type=float, help="bit rate override")
    common(p, "config")

    p = sub.add_parser("demodulate", help="WAV -> recovered binary file")
    p.add_argument("input", type=_abspath)
    p.add_argument("--rate", type=float, help="bit rate override")
    common(p, "config")

    p = sub.add_parser("simulate-session", help="two-node session over a simulated room")
    common(p, "config", "seed")

    p = sub.add_parser("capacity", help="per-band SNR and Shannon capacity report")
    p.add_argument("--sweep", type=_abspath, required=True, help="received sweep WAV")
    p.add_argument("--noise", type=_abspath, required=True, help="noise floor WAV")
    p.add_argument("--resolution", type=float, default=analysis.DEFAULT_RESOLUTION_HZ,
                   help="band width Hz")
    p.add_argument("--spectrogram", action="store_true", help="also write a PNG spectrogram")
    common(p)

    p = sub.add_parser("ber-sweep", help="full-stack BER over rates x channel presets")
    p.add_argument("--rates", default="10,166", help="comma-separated bit rates")
    p.add_argument("--preset", default="paper-3m", help="comma-separated channel presets")
    p.add_argument("--bits", type=int, default=1000, help="payload bits per seed")
    p.add_argument("--seeds", type=int, default=20, help="number of seeds")
    common(p, "config", "seed")

    p = sub.add_parser("detect", help="scan a recording for ultrasonic transmissions")
    p.add_argument("input", type=_abspath)
    p.add_argument("--threshold", type=float, default=10.0, help="dB over noise floor")
    p.add_argument("--spectrogram", action="store_true", help="also write a PNG spectrogram")
    common(p)

    p = sub.add_parser("filter", help="apply the low-pass countermeasure to a WAV")
    p.add_argument("input", type=_abspath)
    p.add_argument("--cutoff", type=float, default=BAND[0], help="cutoff Hz")
    common(p)

    p = sub.add_parser("rerun", help="re-execute a recorded run from its manifest")
    p.add_argument("manifest", type=_abspath)
    p.add_argument("--verify", action="store_true",
                   help="fail unless outputs are reproduced bit-identically")
    return parser


def _argument_names(command: str) -> set[str]:
    """The destinations of every argument the parser gives `command`."""
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {a.dest for a in sub.choices[command]._actions if a.dest != "help"}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "rerun":
            return cmd_rerun(args)
        status, manifest = run(args)
        _write_manifest(args.out, manifest)
        return status
    except (CliError, ConfigError, AudioError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
