"""ultralink benchmark: one workload as a closed loop of one caller.

Run from the repository root:

    python3 bench/run.py --workload oneway-16b --seed 1 --seconds 40 --trace 0

The loop issues op i+1 only after op i has returned.  A run is a fixed
number of ops, `--seconds` over the workload's nominal op time (and at
least its count window), so it lasts about `--seconds` on the reference
machine and `attempted` and `failed` repeat exactly for a seed.  Inputs
come from `--seed` alone.  Every op's outputs are checked; the last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`.  `--trace 0` reports the end-to-end metrics, with times
scaled to the reference machine's speed (see SpeedKernel); `--trace 1`
wraps the package's public functions (see tracing.py) and reports the
per-layer metrics instead, then replays the count window untraced to
compare digests, each op paired with a traced copy to measure the
tracing overhead.  Spans of a traced run are written to bench/out/.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse
import bisect
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 4          # extra set-ups in child processes; setup_s is the median of 5
SPEED_EVERY_S = 0.5       # least wall time between two samples of the speed kernel
SPEED_WINDOW_S = 1.0      # an op's slowdown: the kernel samples within this many seconds of it
REFERENCE_SPEED_S = 0.019 # speed-kernel time that counts as slowdown 1
PROBE_TIMEOUT_S = 120
LOOP_CAP_S = 120          # a run stops early past this, far beyond its nominal length
TAIL_MIN_BEYOND = 10      # op_tail_ms: highest percentile with this many ops beyond it

END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "sim_s_per_wall_s": "s/s",
    "sim_goodput_bps": "bit/s",
    "raw_error_ratio": "ratio",
    "peak_rss_mb": "MB",
}

# Per op.  Times (ms/op) average over every traced op; counts and ratios
# cover the count window, so they repeat exactly for a seed.
PER_LAYER = {
    "modem.find_preamble.ms": "ms/op",
    "modem.find_preamble.calls": "count/op",
    "modem.find_preamble.offsets_scored": "count/op",
    "burst.recover_frames.ms": "ms/op",
    "burst.recover_frames.self_ms": "ms/op",
    "burst.recover_frames.calls": "count/op",
    "modem.decode_bits.calls": "count/op",
    "modem.ToneScanner.init_ms": "ms/op",
    "modem.ToneScanner.calls": "count/op",
    "modem.ToneScanner.samples": "count/op",
    "channel.propagate.ms": "ms/op",
    "channel.propagate.calls": "count/op",
    "channel.propagate.samples": "count/op",
    "modem.modulate.ms": "ms/op",
    "modem.modulate.samples": "count/op",
    "burst.messages_to_waveform.ms": "ms/op",
    "burst.messages_to_waveform.frames": "count/op",
    "modem.demodulate.ms": "ms/op",
    "analysis.ber_sweep.self_ms": "ms/op",
    "link.step.ms": "ms/op",
    "link.step.calls": "count/op",
    "link.engine.self_ms": "ms/op",
    "link.verify_trace.ms": "ms/op",
    "link.trace_to_json.ms": "ms/op",
    "burst.frames_recovered": "count/op",
    "burst.corrupt_locks": "count/op",
    "burst.lock_yield": "ratio",
    "framing.rejects": "count/op",
    "link.bursts": "count/op",
    "link.turns": "count/op",
    "link.timeouts": "count/op",
    "link.retransmit_requests": "count/op",
    "link.data_frames_per_chunk": "ratio",
    "bench.trace_overhead": "ratio",
}


class Op(NamedTuple):
    index: int
    wall_s: float
    result: object      # workloads.OpResult
    at: float = 0.0     # perf_counter at the middle of the op


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "platform": platform.platform(),
    }


class SpeedKernel:
    """Samples of the speed kernel (speed.py), timed between ops.

    The reference machine's speed drifts by up to 1.8x over minutes (see
    README.md).  The kernel, a fixed numpy workload that runs in a child
    process and does not use ultralink, slows with it, so each op's time
    is divided by the slowdown around it: the median time of the kernel
    samples within SPEED_WINDOW_S of the op, over REFERENCE_SPEED_S.  A
    change to ultralink cannot move the kernel.  The child only runs
    while this process waits for its reply, so the load stays one
    process at a time.
    """

    def __init__(self):
        self._proc: subprocess.Popen | None = None
        self.at: list[float] = []          # perf_counter at the end of each sample
        self.times: list[float] = []
        self.last = -float("inf")

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def sample(self) -> float:
        """Run the kernel once and return its time."""
        if self._proc is None:
            self._proc = subprocess.Popen([sys.executable, str(Path(__file__).with_name("speed.py"))],
                                          stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"speed kernel process ended with code {self._proc.wait()}")
        self.last = time.perf_counter()
        self.at.append(self.last)
        self.times.append(float(line))
        return self.times[-1]

    def close(self) -> None:
        if self._proc is None:
            return
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()
        self._proc = None

    def factor(self, at: float | None = None) -> float:
        """How much slower the machine ran than the reference machine: around
        `at` (or, without samples that near, at the nearest sample), or over
        the whole run if `at` is None."""
        if at is None:
            return statistics.median(self.times) / REFERENCE_SPEED_S
        lo = bisect.bisect_left(self.at, at - SPEED_WINDOW_S)
        hi = bisect.bisect_right(self.at, at + SPEED_WINDOW_S)
        if lo == hi:
            nearest = min(range(len(self.at)), key=lambda k: abs(self.at[k] - at))
            lo, hi = nearest, nearest + 1
        return statistics.median(self.times[lo:hi]) / REFERENCE_SPEED_S


def op_count(workload, seconds: float) -> int:
    """Ops in a run of `seconds`: a count, not a deadline, so that the same
    seed covers the same ops, and fails the same ones, on every run."""
    return max(workload.count_ops, round(seconds / workload.nominal_op_s))


def measure(workload, seed: int, n_ops: int, tracer=None, first: int = 0,
            speed: SpeedKernel | None = None, log=print) -> list[Op]:
    """Closed loop over ops [first, first + n_ops): the next op starts when
    the previous one has returned."""
    from workloads import OpResult

    ops = []
    cap = time.perf_counter() + LOOP_CAP_S
    while len(ops) < n_ops:
        if time.perf_counter() > cap:
            log(f"warning: stopped after {len(ops)} of {n_ops} ops, past {LOOP_CAP_S} s")
            break
        if speed is not None and time.perf_counter() - speed.last >= SPEED_EVERY_S:
            speed.sample()
        i = first + len(ops)
        inp = workload.make_input(seed, i)
        if tracer is not None:
            tracer.op = i
        start = time.perf_counter()
        try:
            out = workload.run(inp)
        except Exception as exc:  # a raising op is a failed op; the run goes on
            wall = time.perf_counter() - start
            traceback.print_exc(file=sys.stderr)
            result = OpResult([f"raised {type(exc).__name__}: {exc}"])
        else:
            wall = time.perf_counter() - start
            result = workload.check(inp, out)
        if tracer is not None:
            tracer.op = -1
        ops.append(Op(i, wall, result, start + wall / 2))
    if speed is not None:
        speed.sample()      # so that the last ops have a sample after them too
    return ops


def digest(ops: list[Op]) -> str:
    h = hashlib.sha256()
    for op in ops:
        h.update(op.result.digest)
        h.update("\n".join(op.result.problems).encode())
    return h.hexdigest()


def tail(walls: list[float], pct: int) -> tuple[float, int, int]:
    """The `pct` percentile, lowered until TAIL_MIN_BEYOND ops lie beyond it.

    Returns (value, percentile, ops beyond); with too few ops for any such
    percentile it falls back to the median.
    """
    ordered = sorted(walls)
    n = len(ordered)
    while pct > 50:
        value = statistics.quantiles(ordered, n=100, method="inclusive")[pct - 1] if n > 1 else ordered[0]
        beyond = sum(1 for w in ordered if w > value)
        if beyond >= TAIL_MIN_BEYOND:
            return value, pct, beyond
        pct -= 1
    value = statistics.median(ordered)
    return value, 50, sum(1 for w in ordered if w > value)


def end_to_end(workload, ops: list[Op], setups: list[tuple[float, float]], speed: SpeedKernel,
               log) -> dict[str, float]:
    results = [op.result for op in ops]
    # each op's wall time on the reference machine: divided by the slowdown around it
    scaled = [op.wall_s / speed.factor(op.at) for op in ops]
    tail_s, pct, beyond = tail(scaled, workload.tail_pct)
    values = {
        # each set-up divided by the slowdown measured next to it
        "setup_s": statistics.median(s / factor for s, factor in setups),
        "op_p50_ms": 1000 * statistics.median(scaled),
        "op_tail_ms": 1000 * tail_s,
        "sim_s_per_wall_s": statistics.median(op.result.sim_s / s for op, s in zip(ops, scaled)),
        "sim_goodput_bps": sum(r.delivered_bits for r in results) / max(sum(r.transfer_s for r in results), 1e-9),
        "raw_error_ratio": statistics.fmean(r.error_units / r.units if r.units else 0.0 for r in results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    log(f"setup_s: median of {len(setups)} set-ups, unscaled {[round(s, 4) for s, _ in setups]}, "
        f"slowdowns {[round(factor, 4) for _, factor in setups]}")
    log(f"op_tail_ms: p{pct} of {len(ops)} ops, {beyond} ops beyond it")
    walls = [op.wall_s for op in ops]
    log(f"machine slowdown {speed.factor():.4f} (median of {len(speed.times)} kernel samples); "
        f"unscaled op_p50_ms = {1000 * statistics.median(walls):.6g}, "
        f"op_tail_ms = {1000 * tail(walls, pct)[0]:.6g}, "
        f"sim_s_per_wall_s = {statistics.median(op.result.sim_s / op.wall_s for op in ops):.6g}")
    return values


def per_layer(tracer, ops: list[Op], window: int, overhead: float) -> dict[str, float]:
    times = tracer.layer_times()
    n = len(ops)

    def ms(name, column=0):
        return 1000 * sum(row[column] for op, row in times.get(name, {}).items() if op >= 0) / n

    def calls(name):
        return sum(row[2] for op, row in times.get(name, {}).items() if 0 <= op < window) / window

    def counted(key):
        return sum(tracer.counts[i].get(key, 0) for i in range(window)) / window

    def link_count(key):
        return sum(op.result.counts.get(key, 0) for op in ops[:window]) / window

    decode_calls = calls("modem.decode_bits")
    chunks = link_count("link.chunks")
    return {
        "modem.find_preamble.ms": ms("modem.find_preamble"),
        "modem.find_preamble.calls": calls("modem.find_preamble"),
        "modem.find_preamble.offsets_scored": counted("modem.find_preamble.offsets_scored"),
        "burst.recover_frames.ms": ms("burst.recover_frames"),
        "burst.recover_frames.self_ms": ms("burst.recover_frames", 1),
        "burst.recover_frames.calls": calls("burst.recover_frames"),
        "modem.decode_bits.calls": decode_calls,
        "modem.ToneScanner.init_ms": ms("modem.ToneScanner.init"),
        "modem.ToneScanner.calls": calls("modem.ToneScanner.init"),
        "modem.ToneScanner.samples": counted("modem.ToneScanner.samples"),
        "channel.propagate.ms": ms("channel.propagate"),
        "channel.propagate.calls": calls("channel.propagate"),
        "channel.propagate.samples": counted("channel.propagate.samples"),
        "modem.modulate.ms": ms("modem.modulate"),
        "modem.modulate.samples": counted("modem.modulate.samples"),
        "burst.messages_to_waveform.ms": ms("burst.messages_to_waveform"),
        "burst.messages_to_waveform.frames": counted("burst.messages_to_waveform.frames"),
        "modem.demodulate.ms": ms("modem.demodulate"),
        "analysis.ber_sweep.self_ms": ms("analysis.ber_sweep", 1),
        "link.step.ms": ms("link.step"),
        "link.step.calls": calls("link.step"),
        "link.engine.self_ms": ms("link.engine", 1),
        "link.verify_trace.ms": ms("link.verify_trace"),
        "link.trace_to_json.ms": ms("link.trace_to_json"),
        "burst.frames_recovered": counted("burst.frames_recovered"),
        "burst.corrupt_locks": counted("burst.corrupt_locks"),
        "burst.lock_yield": counted("burst.frames_recovered") / decode_calls if decode_calls else 0.0,
        "framing.rejects": counted("framing.rejects"),
        "link.bursts": link_count("link.bursts"),
        "link.turns": link_count("link.turns"),
        "link.timeouts": link_count("link.timeouts"),
        "link.retransmit_requests": link_count("link.retransmit_requests"),
        "link.data_frames_per_chunk": link_count("link.data_frames") / chunks if chunks else 0.0,
        "bench.trace_overhead": overhead,
    }


def write_spans(path: Path, header: dict, tracer, ops: list[Op]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        f.write(json.dumps(header, sort_keys=True) + "\n")
        for op in ops:
            row = {"op": op.index, "wall_s": op.wall_s, "counts": dict(tracer.counts.get(op.index, {}))}
            f.write(json.dumps(row, sort_keys=True) + "\n")
        for span in tracer.spans:
            f.write(json.dumps(span) + "\n")


def probe_setup(name: str, seed: int, speed: SpeedKernel) -> tuple[float, float]:
    """Set-up time of a fresh process, which stops after its warm-up op, and
    the slowdown around it: the mean of a kernel sample before and after."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
           "--seconds", "0", "--trace", "0", "--setup-probe"]
    before = speed.sample()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=True)
    after = speed.sample()
    setup_s = float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return setup_s, (before + after) / 2 / REFERENCE_SPEED_S


def execute(name: str, seed: int, seconds: float, trace: bool, own_setup_s: float,
            n_ops: int | None = None, probes: int = SETUP_PROBES, spans_dir: Path = OUT_DIR,
            log=print) -> dict:
    """Measure one run and return the result object printed as the last line."""
    import workloads
    from tracing import Tracer

    workload = workloads.WORKLOADS[name]
    env = environment()
    log("env " + json.dumps(env, sort_keys=True))
    n_ops = op_count(workload, seconds) if n_ops is None else n_ops
    tracer = Tracer() if trace else None
    if tracer is not None:
        with tracer.installed():
            ops = measure(workload, seed, n_ops, tracer, log=log)
    else:
        with SpeedKernel() as speed:
            ops = measure(workload, seed, n_ops, speed=speed, log=log)
            # this process's set-up ended just before the first kernel sample
            setups = [(own_setup_s, speed.times[0] / REFERENCE_SPEED_S)]
            setups += [probe_setup(name, seed, speed) for _ in range(probes)]
    window = min(workload.count_ops, len(ops))
    failed = [op for op in ops if not op.result.ok]
    problems = []
    log(f"workload {name} seed {seed}: {len(ops)} ops in {sum(op.wall_s for op in ops):.3f} s of op time, "
        f"closed loop of one caller")
    for op in failed:
        log(f"failed op {op.index} (input seed {workload.make_input(seed, op.index).seed}): "
            + "; ".join(op.result.problems))
    log(f"fail_ratio {len(failed)}/{len(ops)} = {len(failed) / len(ops):.4f}")
    window_digest = digest(ops[:window])
    log(f"digest ops[0:{window}] sha256={window_digest}")
    log(f"digest ops[0:{len(ops)}] sha256={digest(ops)}")
    if workload.run_check is not None:
        problems += workload.run_check([op.result for op in ops])

    if tracer is not None:
        # replay the count window untraced, each op next to a traced copy so
        # that machine-speed drift cancels out of the overhead
        replay, paired = [], []
        for i in range(window):
            replay += measure(workload, seed, 1, first=i)
            with Tracer().installed() as copy:
                paired += measure(workload, seed, 1, copy, first=i)
        if digest(replay) != window_digest:
            problems.append("traced and untraced runs gave different outputs")
        overhead = sum(op.wall_s for op in paired) / sum(op.wall_s for op in replay)
        log(f"bench.trace_overhead: traced/untraced wall time of ops[0:{window}], run in pairs = {overhead:.4f}")
        values = per_layer(tracer, ops, window, overhead)
        units = PER_LAYER
        spans_path = spans_dir / f"spans-{name}-seed{seed}.jsonl"
        header = {"workload": name, "seed": seed, "env": env, "ops": len(ops), "window": window,
                  "span_fields": ["name", "start", "end", "parent", "op"]}
        write_spans(spans_path, header, tracer, ops)
        log(f"{len(tracer.spans)} spans written to {spans_path}")
    else:
        values = end_to_end(workload, ops, setups, speed, log)
        units = END_TO_END
    for problem in problems:
        log(f"check failed: {problem}")
    for key, value in values.items():
        log(f"{key} = {value:.6g} {units[key]}")
    # ops that fail their own checks are counted in `failed`; `correct`
    # covers the checks made on the run as a whole
    return {
        "correct": not problems,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in values.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="stop after set-up and print its duration (used for setup_s)")
    args = parser.parse_args(argv)
    if not (SRC / "ultralink" / "__init__.py").is_file():
        print(f"error: no ultralink sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    # one process with one BLAS thread: the load stays below nproc and
    # the linear algebra runs the same way on every run
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    import ultralink
    import workloads

    if Path(ultralink.__file__).resolve().parent != SRC / "ultralink":
        print(f"error: imported ultralink from {ultralink.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    warm = workload.check(workload.warmup, workload.run(workload.warmup))
    if not warm.ok:
        print(f"error: warm-up op failed: {warm.problems}", file=sys.stderr)
        return 1
    own_setup_s = time.perf_counter() - STARTED
    if args.setup_probe:
        print(json.dumps({"setup_s": own_setup_s}))
        return 0
    result = execute(args.workload, args.seed, args.seconds, bool(args.trace), own_setup_s)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
