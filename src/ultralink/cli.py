"""Command-line harness.

Every subcommand resolves its configuration, runs one pipeline, writes
its outputs plus a `manifest.json` into the output directory, and exits
0 only if the operation's postconditions held.  `ultralink rerun
manifest.json --verify` re-executes the recorded run and checks that
every output is reproduced bit-identically.  Diagnostics go to stderr;
data goes to files.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import sys
from pathlib import Path

from . import analysis, burst, configdoc, framing
from .audio import AudioError, read_wav, write_wav
from .channel import preset
from .link import run_session, unidirectional_schedule
from .modem import ConfigError

try:
    from importlib.metadata import version as _pkg_version
    TOOL_VERSION = _pkg_version("ultralink")
except Exception:  # pragma: no cover - metadata missing in odd installs
    TOOL_VERSION = "unknown"


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_manifest(out_dir: Path, command: str, args: dict, seed, inputs, outputs,
                    started: str) -> Path:
    manifest = {
        "command": command,
        "args": args,
        "seed": seed,
        "inputs": {str(p): _sha256(Path(p)) for p in inputs},
        "outputs": {p.name: _sha256(p) for p in outputs},
        "tool_version": TOOL_VERSION,
        "started_at": started,
        "finished_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return path


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _load_sections(config_path: str | None) -> dict:
    if not config_path:
        return {}
    return configdoc.parse(Path(config_path).read_text())


def _resolve_modem(sections: dict, rate: float | None):
    cfg = configdoc.modem_from_sections(sections)
    if rate is not None:
        cfg = cfg.at_rate(rate)
    return cfg


def _resolve_channel(sections: dict, preset_name: str | None, seed: int):
    if preset_name:
        model = preset(preset_name, seed=seed)
    elif "channel" in sections:
        model = configdoc.channel_from_sections(sections)
    else:
        model = preset("noiseless", seed=seed)
    return model


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


# ------------------------------------------------------------- commands

def cmd_modulate(args) -> int:
    src = Path(args.input)
    out_dir = Path(args.out)
    started = _now()
    try:
        data = src.read_bytes()
    except OSError as exc:
        return _fail(f"cannot read {src}: {exc}")
    if not data:
        return _fail(f"{src}: empty payload")
    sections = _load_sections(args.config)
    try:
        cfg = _resolve_modem(sections, args.rate)
        messages = framing.pack_payload(data)
        wave = burst.messages_to_waveform(messages, cfg)
    except (ConfigError, ValueError) as exc:
        return _fail(str(exc))
    out_dir.mkdir(parents=True, exist_ok=True)
    wav_path = out_dir / f"{src.stem}.wav"
    write_wav(wav_path, wave)
    print(f"{len(data)} bytes -> {len(messages)} frames -> {wave.duration:.3f} s",
          file=sys.stderr)
    _write_manifest(out_dir, "modulate",
                    {"input": str(src.resolve()), "config": args.config,
                     "rate": args.rate, "out": str(out_dir)},
                    args.seed, [src], [wav_path], started)
    return 0


def cmd_demodulate(args) -> int:
    src = Path(args.input)
    out_dir = Path(args.out)
    started = _now()
    sections = _load_sections(args.config)
    try:
        cfg = _resolve_modem(sections, args.rate)
        wave = read_wav(src, expected_rate=cfg.sample_rate)
    except (AudioError, ConfigError, OSError) as exc:
        return _fail(str(exc))
    scan = burst.recover_frames(wave, cfg)
    result = burst.reassemble_burst(scan, cfg).result()
    out_dir.mkdir(parents=True, exist_ok=True)
    bin_path = out_dir / f"{src.stem}.bin"
    bin_path.write_bytes(result.data)
    print(f"{len(scan.frames)} frames recovered, {len(scan.corrupt_offsets)} corrupt; "
          f"payload {'complete' if result.complete else 'INCOMPLETE'}", file=sys.stderr)
    _write_manifest(out_dir, "demodulate",
                    {"input": str(src.resolve()), "config": args.config,
                     "rate": args.rate, "out": str(out_dir)},
                    args.seed, [src], [bin_path], started)
    return 0 if result.complete else 1


def cmd_simulate_session(args) -> int:
    config_path = Path(args.config)
    started = _now()
    sections = _load_sections(args.config)
    session = sections.get("session", {})
    payload_name = session.get("payload")
    if not payload_name:
        return _fail("session config needs payload = <path> in [session]")
    payload_path = (config_path.parent / payload_name).resolve()
    try:
        payload = payload_path.read_bytes()
    except OSError as exc:
        return _fail(f"cannot read payload {payload_path}: {exc}")
    mode = session.get("mode", "bidirectional")
    budget = float(session.get("budget_s", 600.0))
    try:
        link_cfg = configdoc.link_from_sections(sections)
        channel = _resolve_channel(sections, session.get("preset"), args.seed)
    except (ConfigError, ValueError) as exc:
        return _fail(str(exc))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if mode == "unidirectional":
        trace = unidirectional_schedule(
            link_cfg, link_cfg, channel, payload,
            start_time=float(session.get("start_time", 0.0)),
            rx_guard=float(session.get("rx_guard_s", 2.0)),
            seed=args.seed, keep_audio=True,
        )
    elif mode == "bidirectional":
        trace = run_session(link_cfg, link_cfg, channel, payload,
                            seed=args.seed, budget=budget, keep_audio=True)
    else:
        return _fail(f"unknown session mode {mode!r}")
    outputs = []
    trace_path = out_dir / "trace.json"
    trace_path.write_text(trace.to_json(indent=2) + "\n")
    outputs.append(trace_path)
    summary_path = out_dir / "summary.json"
    summary_path.write_text(json.dumps(trace.summary, sort_keys=True, indent=2) + "\n")
    outputs.append(summary_path)
    for name, audio in sorted(trace.audio.items()):
        wav_path = out_dir / f"node_{name.lower()}_heard.wav"
        write_wav(wav_path, audio)
        outputs.append(wav_path)
    complete = trace.summary["complete"]
    print(f"session {'complete' if complete else 'INCOMPLETE'}: "
          f"{trace.summary['delivered_bytes']}", file=sys.stderr)
    _write_manifest(out_dir, "simulate-session",
                    {"config": str(config_path.resolve()), "out": str(out_dir)},
                    args.seed, [config_path, payload_path], outputs, started)
    return 0 if complete else 1


def cmd_capacity(args) -> int:
    started = _now()
    try:
        sweep = read_wav(Path(args.sweep))
        noise = read_wav(Path(args.noise))
        report = analysis.capacity_profile(sweep, noise, resolution=args.resolution)
    except (AudioError, ConfigError, ValueError) as exc:
        return _fail(str(exc))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    csv_path = out_dir / "capacity.csv"
    csv_path.write_text(report.to_csv())
    outputs.append(csv_path)
    json_path = out_dir / "capacity.json"
    json_path.write_text(report.to_json(indent=2) + "\n")
    outputs.append(json_path)
    if args.spectrogram:
        png_path = out_dir / "sweep_spectrogram.png"
        analysis.write_png_gray(png_path, analysis.spectrogram_image(sweep))
        outputs.append(png_path)
    total = report.total_capacity_over(18_000.0, 24_000.0)
    print(f"{len(report.bands)} bands, {report.window_count} windows; "
          f"18-24 kHz capacity {total:.0f} bit/s", file=sys.stderr)
    _write_manifest(out_dir, "capacity",
                    {"sweep": str(Path(args.sweep).resolve()),
                     "noise": str(Path(args.noise).resolve()),
                     "resolution": args.resolution,
                     "spectrogram": bool(args.spectrogram), "out": str(out_dir)},
                    args.seed, [Path(args.sweep), Path(args.noise)], outputs, started)
    return 0


def cmd_ber_sweep(args) -> int:
    started = _now()
    rates = [float(r) for r in args.rates.split(",")]
    names = args.preset.split(",") if args.preset else ["paper-3m"]
    try:
        models = [(n, preset(n)) for n in names]
    except KeyError as exc:
        return _fail(str(exc))
    sections = _load_sections(args.config)
    base = configdoc.modem_from_sections(sections)
    seeds = list(range(args.seed, args.seed + args.seeds))
    try:
        cells = analysis.ber_sweep(rates, models, payload_bits=args.bits,
                                   seeds=seeds, base_modem=base)
    except (ConfigError, ValueError) as exc:
        return _fail(str(exc))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = [c.to_row() for c in cells]
    csv_path = out_dir / "ber.csv"
    csv_path.write_text(analysis.rows_to_csv(rows))
    json_path = out_dir / "ber.json"
    json_path.write_text(json.dumps(rows, sort_keys=True, indent=2) + "\n")
    for row in rows:
        print(f"{row['model']} @ {row['bit_rate']} bit/s: "
              f"BER {row['mean_ber']:.4f}", file=sys.stderr)
    _write_manifest(out_dir, "ber-sweep",
                    {"rates": args.rates, "preset": ",".join(names),
                     "bits": args.bits, "seeds": args.seeds,
                     "config": args.config, "out": str(out_dir)},
                    args.seed, [], [csv_path, json_path], started)
    return 0


def cmd_detect(args) -> int:
    started = _now()
    try:
        wave = read_wav(Path(args.input))
        events = analysis.detect_ultrasonic(wave, threshold_db=args.threshold)
    except (AudioError, ValueError) as exc:
        return _fail(str(exc))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = [e.to_row() for e in events]
    outputs = []
    csv_path = out_dir / "events.csv"
    csv_path.write_text(analysis.rows_to_csv(rows))
    outputs.append(csv_path)
    json_path = out_dir / "events.json"
    json_path.write_text(json.dumps(rows, sort_keys=True, indent=2) + "\n")
    outputs.append(json_path)
    if args.spectrogram:
        png_path = out_dir / "spectrogram.png"
        analysis.write_png_gray(png_path, analysis.spectrogram_image(wave))
        outputs.append(png_path)
    print(f"{len(events)} events "
          f"({sum(e.classified_as_fsk for e in events)} classified FSK)", file=sys.stderr)
    _write_manifest(out_dir, "detect",
                    {"input": str(Path(args.input).resolve()),
                     "threshold": args.threshold,
                     "spectrogram": bool(args.spectrogram), "out": str(out_dir)},
                    args.seed, [Path(args.input)], outputs, started)
    return 0


def cmd_filter(args) -> int:
    started = _now()
    src = Path(args.input)
    try:
        wave = read_wav(src)
        filtered = analysis.lowpass_filter(wave, args.cutoff)
    except (AudioError, ValueError) as exc:
        return _fail(str(exc))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    wav_path = out_dir / f"{src.stem}_filtered.wav"
    write_wav(wav_path, filtered)
    print(f"low-pass at {args.cutoff} Hz -> {wav_path.name}", file=sys.stderr)
    _write_manifest(out_dir, "filter",
                    {"input": str(src.resolve()), "cutoff": args.cutoff,
                     "out": str(out_dir)},
                    args.seed, [src], [wav_path], started)
    return 0


def cmd_rerun(args) -> int:
    manifest_path = Path(args.manifest)
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return _fail(f"cannot load manifest: {exc}")
    recorded = dict(manifest["args"])
    recorded["out"] = str(manifest_path.parent)
    command = manifest["command"]
    argv = [command]
    for key, value in recorded.items():
        if value is None:
            continue
        if command in ("modulate", "demodulate", "detect", "filter") and key == "input":
            argv.append(str(value))
            continue
        if command == "rerun":
            return _fail("cannot rerun a rerun manifest")
        if isinstance(value, bool):
            if value:
                argv.append(f"--{key}")
            continue
        argv += [f"--{key}", str(value)]
    argv += ["--seed", str(manifest["seed"])]
    status = main(argv)
    if status != 0:
        return status
    if args.verify:
        fresh = json.loads((manifest_path.parent / "manifest.json").read_text())
        mismatches = [
            name for name, digest in manifest["outputs"].items()
            if fresh["outputs"].get(name) != digest
        ]
        if mismatches:
            return _fail(f"outputs differ after rerun: {', '.join(mismatches)}")
        print("all outputs reproduced bit-identically", file=sys.stderr)
    return 0


# --------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ultralink",
        description="Near-ultrasonic speaker-to-speaker link: modem, protocol "
                    "simulator, and countermeasure analysis.",
    )
    parser.add_argument("--version", action="version", version=f"ultralink {TOOL_VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_out=True):
        p.add_argument("--config", help="key=value configuration document")
        p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
        if needs_out:
            p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("modulate", help="binary file -> framed B-FSK WAV")
    p.add_argument("input")
    p.add_argument("--rate", type=float, help="bit rate override")
    common(p)
    p.set_defaults(func=cmd_modulate)

    p = sub.add_parser("demodulate", help="WAV -> recovered binary file")
    p.add_argument("input")
    p.add_argument("--rate", type=float, help="bit rate override")
    common(p)
    p.set_defaults(func=cmd_demodulate)

    p = sub.add_parser("simulate-session", help="two-node session over a simulated room")
    common(p)
    p.set_defaults(func=cmd_simulate_session)

    p = sub.add_parser("capacity", help="per-band SNR and Shannon capacity report")
    p.add_argument("--sweep", required=True, help="received sweep WAV")
    p.add_argument("--noise", required=True, help="noise floor WAV")
    p.add_argument("--resolution", type=float, default=100.0, help="band width Hz")
    p.add_argument("--spectrogram", action="store_true", help="also write a PNG spectrogram")
    common(p)
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("ber-sweep", help="full-stack BER over rates x channel presets")
    p.add_argument("--rates", default="10,166", help="comma-separated bit rates")
    p.add_argument("--preset", default="paper-3m", help="comma-separated channel presets")
    p.add_argument("--bits", type=int, default=1000, help="payload bits per seed")
    p.add_argument("--seeds", type=int, default=20, help="number of seeds")
    common(p)
    p.set_defaults(func=cmd_ber_sweep)

    p = sub.add_parser("detect", help="scan a recording for ultrasonic transmissions")
    p.add_argument("input")
    p.add_argument("--threshold", type=float, default=10.0, help="dB over noise floor")
    p.add_argument("--spectrogram", action="store_true", help="also write a PNG spectrogram")
    common(p)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("filter", help="apply the low-pass countermeasure to a WAV")
    p.add_argument("input")
    p.add_argument("--cutoff", type=float, default=18_000.0, help="cutoff Hz")
    common(p)
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("rerun", help="re-execute a recorded run from its manifest")
    p.add_argument("manifest")
    p.add_argument("--verify", action="store_true",
                   help="fail unless outputs are reproduced bit-identically")
    p.set_defaults(func=cmd_rerun)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
