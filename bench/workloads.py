"""Benchmark workloads: per-seed inputs, the timed op, and its output checks.

Every workload runs at 166 bit/s with the default `LinkConfig` on the
calibrated `paper-3m` room.  Op `i` of a run with seed `s` draws its
inputs from `SeedSequence((s, i))` alone, so the same seed gives the same
inputs, and a trailing op never shifts an earlier one.

The op calls the package through module attributes (`link.run_session`,
`analysis.ber_sweep`), so the wrappers of a traced run see every call.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ultralink import analysis, framing, link
from ultralink.channel import preset
from ultralink.link import LinkConfig
from ultralink.modem import ModemConfig

MODEM = ModemConfig(bit_rate=166.0)
LINK = LinkConfig(modem=MODEM)
CHANNEL_NAME = "paper-3m"
CHANNEL = preset(CHANNEL_NAME)
SESSION_BUDGET_S = 900.0          # simulated seconds, as in acceptance criterion 5
BER_PAYLOAD_BITS = 1000
BER_BAND = (0.005, 0.02)          # acceptance criterion 3's band for paper-3m at 166 bit/s
TIMEOUT_TIMERS = {"DISCOVERY_ACK_WAIT", "RESPONSE_WAIT", "INACTIVITY"}


@dataclass(frozen=True)
class SessionInput:
    seed: int
    payload_a: bytes                  # flows A -> B
    payload_b: Optional[bytes]        # flows B -> A, if any


@dataclass(frozen=True)
class BerInput:
    seed: int


@dataclass
class OpResult:
    """What the checks and metrics need from one op, taken from its outputs."""

    problems: list[str]
    digest: bytes = b""               # sha256 of the op's seeded outputs
    sim_s: float = 0.0                # simulated (audio) seconds
    delivered_bits: int = 0           # payload bits delivered intact
    transfer_s: float = 0.0           # simulated seconds the delivery took; 0 if none
    error_units: int = 0              # raw units in error (bits or frames)
    units: int = 0                    # raw units sent
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_input: Callable[[int, int], object]
    run: Callable[[object], object]
    check: Callable[[object, object], OpResult]
    # fixed input, not drawn from the op stream, of the untimed op that lets
    # imports and lazy set-up finish before the first timed op
    warmup: object
    count_ops: int                    # counts and the digest cover ops [0, count_ops)
    nominal_op_s: float               # mean op wall time on the reference machine: sets a run's op count
    tail_pct: int                     # op_tail_ms percentile
    run_check: Optional[Callable[[list[OpResult]], list[str]]] = None
    in_benchmark: bool = True


def op_seed(seed: int, i: int) -> int:
    return int(np.random.SeedSequence((seed, i)).generate_state(1)[0])


def _payload(session_seed: int, direction: int, size: int) -> bytes:
    rng = np.random.default_rng(np.random.SeedSequence((session_seed, direction)))
    return bytes(rng.integers(0, 256, size, dtype=np.uint8))


def session_input(seed: int, i: int, size_a: int, size_b: int = 0) -> SessionInput:
    s = op_seed(seed, i)
    return SessionInput(s, _payload(s, 0, size_a), _payload(s, 1, size_b) if size_b else None)


def run_session_op(inp: SessionInput):
    trace = link.run_session(
        LINK, LINK, CHANNEL, inp.payload_a, seed=inp.seed,
        payload_b=inp.payload_b, budget=SESSION_BUDGET_S,
    )
    violations = link.verify_trace(trace, t_max=LINK.t_max)
    return trace, violations, trace.to_json()


def check_session(inp: SessionInput, out) -> OpResult:
    trace, violations, text = out
    summary = trace.summary
    problems = []
    if not summary["complete"]:
        problems.append("incomplete within budget")
    directions = {"B": inp.payload_a}
    if inp.payload_b:
        directions["A"] = inp.payload_b
    for node, payload in directions.items():
        if not summary["delivered_intact"].get(node) or summary["delivered_bytes"].get(node) != len(payload):
            problems.append(f"delivery to {node} not byte-exact")
    problems += [f"{name}={count}" for name, count in sorted(violations.items()) if count]

    bursts = trace.of_kind("tx_burst")
    missed = {e["burst"] for e in trace.of_kind("rx_missed_burst")}
    delay = CHANNEL.propagation_delay
    # a burst reached its receiver unless the session stopped before it
    # ended there or the receiver was not listening
    heard_frames = sum(
        len(e["frames"]) for e in bursts
        if e["burst"] not in missed and e["end"] + delay <= summary["duration"]
    )
    recovered = len(trace.of_kind("rx_frame"))
    chunks = sum(framing.expected_chunk_count(len(p)) for p in directions.values())
    counts = {
        "link.bursts": len(bursts),
        "link.turns": sum(1 for e in bursts if e["turn"]),
        "link.timeouts": sum(1 for e in trace.of_kind("timer") if e["kind"] in TIMEOUT_TIMERS),
        "link.retransmit_requests": summary["retransmit_requests"],
        "link.data_frames": summary["data_frames_sent"],
        "link.chunks": chunks,
    }
    digest = hashlib.sha256(text.encode() + json.dumps(violations, sort_keys=True).encode()).digest()
    bits = 8 * sum(summary["delivered_bytes"].values())
    goodput = summary["goodput_bps"]     # None unless the session completed
    return OpResult(
        problems=problems,
        digest=digest,
        sim_s=summary["duration"],
        delivered_bits=bits if goodput else 0,
        transfer_s=bits / goodput if goodput else 0.0,
        error_units=heard_frames - recovered,
        units=heard_frames,
        counts=counts,
    )


def run_ber_op(inp: BerInput):
    return analysis.ber_sweep(
        [MODEM.bit_rate], [(CHANNEL_NAME, CHANNEL)],
        payload_bits=BER_PAYLOAD_BITS, seeds=[inp.seed],
    )


def check_ber(inp: BerInput, cells) -> OpResult:
    if len(cells) != 1 or cells[0].n_bits != BER_PAYLOAD_BITS or cells[0].n_seeds != 1:
        return OpResult([f"expected one cell of {BER_PAYLOAD_BITS} bits, got {cells!r}"])
    cell = cells[0]
    errors = int(round(cell.mean_ber * cell.n_bits))
    audio_s = cell.n_bits * MODEM.samples_per_bit / MODEM.sample_rate
    digest = hashlib.sha256(repr((cell.bit_rate, cell.model_name, cell.mean_ber)).encode()).digest()
    return OpResult(
        problems=[],
        digest=digest,
        sim_s=audio_s,
        delivered_bits=cell.n_bits - errors,
        transfer_s=audio_s,
        error_units=errors,
        units=cell.n_bits,
    )


def check_ber_band(results: list[OpResult]) -> list[str]:
    ber = sum(r.error_units for r in results) / sum(r.units for r in results)
    low, high = BER_BAND
    return [] if low <= ber <= high else [f"mean BER {ber:.4f} outside [{low}, {high}]"]


WORKLOADS = {
    w.name: w for w in [
        Workload(
            name="oneway-16b",
            why="criterion-5 traffic: discovery-heavy sessions of short bursts, where per-burst "
                "set-up (ToneScanner, propagate), step and the engine dominate",
            make_input=lambda seed, i: session_input(seed, i, 16),
            run=run_session_op,
            check=check_session,
            warmup=SessionInput(0, bytes(range(16)), None),
            count_ops=10,
            nominal_op_s=0.4,
            tail_pct=90,
        ),
        Workload(
            name="ber-3m-166",
            why="criterion-3 cell: modulate, propagate and demodulate only, bypassing sync, "
                "framing and the link, so receive-path and step changes must not move it",
            make_input=lambda seed, i: BerInput(op_seed(seed, i)),
            run=run_ber_op,
            check=check_ber,
            run_check=check_ber_band,
            warmup=BerInput(0),
            count_ops=50,
            nominal_op_s=0.05,
            tail_pct=95,
        ),
        Workload(
            name="twoway-64b",
            why="64 B each way: 33-frame turns that fill T_max, where recover_frames and "
                "propagate dominate; left out of BENCHMARK.json (see README.md)",
            make_input=lambda seed, i: session_input(seed, i, 64, 64),
            run=run_session_op,
            check=check_session,
            warmup=SessionInput(0, bytes(range(16)), None),   # same code paths, 20x cheaper
            count_ops=2,
            nominal_op_s=5.5,
            tail_pct=90,
            in_benchmark=False,
        ),
    ]
}
