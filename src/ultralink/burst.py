"""Transmission bursts: whole frames to air and back.

A burst is one contiguous stretch of transmission — one or more 46-bit
frames separated by short silent gaps that give the receiver a re-lock
opportunity per frame.  Recovery slides the preamble detector over the
waveform and accepts only frames whose CRC checks out, so corrupted
frames simply go missing (or are reported as corrupt) rather than
producing bogus messages.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import framing
from .audio import SampleBuffer
from .modem import ModemConfig, ToneScanner, modulate

FRAME_GAP_SLOTS = 4

# frames a session's frame cache keeps: its control frames repeat
FRAME_CACHE_SIZE = 32


def frame_airtime(cfg: ModemConfig) -> float:
    """Seconds of air for one 46-bit frame at cfg's rate."""
    return framing.FRAME_BITS * (cfg.samples_per_bit / cfg.sample_rate)


def _frame_samples(msg: framing.ControlMessage, cfg: ModemConfig) -> np.ndarray:
    """One frame's samples (read-only, like every SampleBuffer's)."""
    return modulate(framing.encode_frame(framing.encode_message(msg)), cfg).samples


def frame_cache() -> Callable[[framing.ControlMessage, ModemConfig], np.ndarray]:
    """`_frame_samples` behind an LRU of FRAME_CACHE_SIZE (message, config)
    keys, for one session to own.  Each frame is modulated from phase 0 on
    its own, so a repeat is the same waveform."""
    return functools.lru_cache(maxsize=FRAME_CACHE_SIZE)(_frame_samples)


def messages_to_waveform(
    messages: list[framing.ControlMessage],
    cfg: ModemConfig,
    gap_slots: int = FRAME_GAP_SLOTS,
    frames: Callable[[framing.ControlMessage, ModemConfig], np.ndarray] = _frame_samples,
) -> SampleBuffer:
    """Encode and modulate messages into one burst waveform, taking each
    frame's samples from `frames` (a `frame_cache()` to reuse them)."""
    if not messages:
        return SampleBuffer(np.zeros(0), cfg.sample_rate)
    gap = np.zeros(gap_slots * cfg.samples_per_bit)
    pieces = []
    for i, msg in enumerate(messages):
        if i:
            pieces.append(gap)
        pieces.append(frames(msg, cfg))
    return SampleBuffer(np.concatenate(pieces), cfg.sample_rate)


@dataclass(frozen=True)
class RecoveredFrame:
    offset: int                      # sample index of the preamble start
    message: framing.ControlMessage


@dataclass
class BurstScan:
    frames: list[RecoveredFrame]
    corrupt_offsets: list[int]       # preamble locks whose frame failed CRC

    @property
    def messages(self) -> list[framing.ControlMessage]:
        return [f.message for f in self.frames]


def recover_frames(buf: SampleBuffer, cfg: ModemConfig) -> BurstScan:
    """Find and decode every valid frame in a received waveform.

    Each frame is located by its own preamble, so a lost or garbled frame
    does not take the rest of the burst with it.  A preamble lock that
    fails the CRC advances the search by a single slot (the lock may have
    been a false alarm inside payload bits); nearby repeat failures are
    collapsed into one corrupt marker.
    """
    spb = cfg.samples_per_bit
    frame_span = framing.FRAME_BITS * spb
    frames: list[RecoveredFrame] = []
    corrupt: list[int] = []
    if len(buf) < frame_span:
        return BurstScan(frames, corrupt)
    # pad with one silent slot so a lock that lands a few samples late on
    # the final frame still has a full window to decode from
    scanner = ToneScanner(buf, cfg, pad=spb)
    pos = 0
    while True:
        hit = scanner.find_preamble(pos)
        if hit is None:
            break
        offset = hit.offset
        if offset + frame_span > scanner.n:
            break
        bits, _ = scanner.decode_bits(offset, framing.FRAME_BITS)
        try:
            payload = framing.decode_frame(bits)
            message = framing.decode_message(payload)
        except (framing.FrameError, framing.MessageError):
            if not corrupt or offset - corrupt[-1] > frame_span // 2:
                corrupt.append(offset)
            pos = offset + spb
            continue
        frames.append(RecoveredFrame(offset, message))
        pos = offset + frame_span
    return BurstScan(frames, corrupt)


def reassemble_burst(scan: BurstScan, cfg: ModemConfig, gap_slots: int = FRAME_GAP_SLOTS,
                     start: int | None = None) -> framing.Reassembler:
    """Place the DATA frames of one burst that began at sample `start`.

    In one burst frame i starts (FRAME_BITS + gap_slots) * i slots in, so
    its offset fixes its absolute index, whatever was lost before it; a
    frame whose seq is not that index mod 256 is dropped.  Without a
    `start`, the first DATA frame's seq places the burst, so fewer than
    256 frames may be lost ahead of it.
    """
    period = (framing.FRAME_BITS + gap_slots) * cfg.samples_per_bit
    data = [f for f in scan.frames if f.message.kind == framing.MessageKind.DATA]
    if start is None and data:
        start = data[0].offset - data[0].message.seq * period
    rx = framing.Reassembler()
    for frame in data:
        index = (frame.offset - start + period // 2) // period
        if index % 256 == frame.message.seq:
            rx.accept(index, frame.message.body)
    return rx
