"""Transmission bursts: whole frames to air and back.

A burst is one contiguous stretch of transmission — one or more 46-bit
frames separated by short silent gaps, so frame i starts a whole number
of frame periods after frame 0.  Recovery locks onto one frame, then
decodes every other frame where that grid puts it, and accepts only frames
whose CRC checks out, so corrupted frames simply go missing (or are
reported as corrupt) rather than producing bogus messages.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import framing
from .audio import SampleBuffer
from .channel import FILTER_TAPS, ChannelModel, apply_signal_path, noisy_blocks
from .modem import ConfigError, ModemConfig, ToneScanner, modulate, slot_basis, slot_phases

# silent slots between the frames of a burst
FRAME_GAP_SLOTS = 4

# filtered slot atoms kept, per (modem config, room)
ATOM_CACHE_SIZE = 8

# samples per `received_blocks` run, in whole slots (56 at 166 bit/s): over
# 300 warm 1000-bit 166 bit/s BER cells (2 vCPUs, numpy 2.4), 2**13 or 2**14
# took no minor page fault per cell, 2**15 465, 2**16 683; 2**12 was slower
BLOCK_SAMPLES = 2**14

# CRC-8 (x^8 + x^2 + x + 1 has the factor x + 1) detects every error of
# one, two or an odd number of bits in a frame, so a corrupted frame that
# passes it has at least four wrong bits; a frame with that many bits
# decided at less than this confidence is not accepted
CRC_MISSED_ERROR_BITS = 4
UNSURE_BIT_CONFIDENCE = 0.2


def frame_airtime(cfg: ModemConfig) -> float:
    """Seconds of air for one 46-bit frame at cfg's rate."""
    return framing.FRAME_BITS * (cfg.samples_per_bit / cfg.sample_rate)


def frame_period(cfg: ModemConfig) -> int:
    """Samples from one frame's start to the next's in a burst."""
    return (framing.FRAME_BITS + FRAME_GAP_SLOTS) * cfg.samples_per_bit


def burst_length(n_frames: int, cfg: ModemConfig) -> int:
    """Samples of a burst of n_frames >= 1 frames."""
    return n_frames * frame_period(cfg) - FRAME_GAP_SLOTS * cfg.samples_per_bit


def messages_to_waveform(messages: list[framing.ControlMessage], cfg: ModemConfig) -> SampleBuffer:
    """Encode and modulate messages into one burst waveform.  Each frame is
    modulated from phase 0 on its own, so a repeat is the same waveform."""
    if not messages:
        return SampleBuffer(np.zeros(0), cfg.sample_rate)
    gap = np.zeros(FRAME_GAP_SLOTS * cfg.samples_per_bit)
    pieces = []
    for i, msg in enumerate(messages):
        if i:
            pieces.append(gap)
        pieces.append(modulate(framing.encode_frame(framing.encode_message(msg)), cfg).samples)
    return SampleBuffer(np.concatenate(pieces), cfg.sample_rate)


@functools.lru_cache(maxsize=ATOM_CACHE_SIZE)
def _slot_atoms(cfg: ModemConfig, channel: ChannelModel) -> np.ndarray:
    """One bit slot's four tones through the room's signal path, read-only,
    one per row: gain * sin(omega_b (i + 1)) and gain * cos(omega_b (i + 1))
    for the f0 then the f1 step omega_b, each with FILTER_TAPS // 2 silent
    samples on both sides so that its whole response fits, zero-padded to
    a whole number of slots.  Only the room's transfer fields shape them."""
    if cfg.sample_rate != channel.sample_rate:
        raise ConfigError(f"modem rate {cfg.sample_rate} != channel rate {channel.sample_rate}")
    spb = cfg.samples_per_bit
    half = FILTER_TAPS // 2
    atoms = np.zeros((4, -(-(spb + FILTER_TAPS) // spb) * spb))
    omega, _ = slot_phases(np.arange(2), cfg)
    for b in range(2):
        angle = omega[b] * np.arange(1, spb + 1)
        for c, wave in enumerate((np.sin(angle), np.cos(angle))):
            tone = np.pad(cfg.gain * wave, half)
            atoms[2 * b + c, :tone.size] = apply_signal_path(tone, channel)
    atoms.flags.writeable = False
    return atoms


@functools.lru_cache(maxsize=ATOM_CACHE_SIZE)
def _slot_projectors(cfg: ModemConfig, channel: ChannelModel) -> np.ndarray:
    """From a `_lag_runs` row to the `slot_basis` projections of its product
    row's samples, (4D x 8), read-only: in columns 0-3 of those from r =
    FILTER_TAPS // 2 mod spb on, which begin a slot, in 4-7 of the rest."""
    spb = cfg.samples_per_bit
    atoms, basis = _slot_atoms(cfg, channel).reshape(-1, spb), slot_basis(cfg)
    r = FILTER_TAPS // 2 % spb
    maps = np.hstack([atoms[:, r:] @ basis[:spb - r], atoms[:, :r] @ basis[spb - r:]])
    maps.flags.writeable = False
    return maps


def _lag_runs(bits: np.ndarray, cfg: ModemConfig, blocks: int):
    """Per `received_blocks` run of output slots k0..k1 - 1, rows k0 + q to
    k1 + q, q = FILTER_TAPS // 2 // spb, of the slot lags: row m holds the
    coefficients of slots m - j, j < D = `blocks`, one block of D columns
    per atom, and output slot k starts in product row k + q."""
    spb = cfg.samples_per_bit
    _, start = slot_phases(bits, cfg)
    frames, width = bits.shape
    period = width + FRAME_GAP_SLOTS
    # the slots' coefficients with blocks - 1 zero rows on either side
    padded = np.zeros((frames * period + 2 * (blocks - 1), 4))
    coef = padded[blocks - 1:blocks - 1 + frames * period].reshape(frames, period, 4)
    f, k = np.ogrid[:frames, :width]
    coef[f, k, 2 * bits] = np.cos(start)
    coef[f, k, 2 * bits + 1] = np.sin(start)
    slots = frames * period - FRAME_GAP_SLOTS
    # window r holds slots r - D + 1..r; reversed, column (c, j) is slot r - j's
    lags = np.lib.stride_tricks.sliding_window_view(padded, blocks, axis=0)[:, :, ::-1]
    q = FILTER_TAPS // 2 // spb
    step = max(1, BLOCK_SAMPLES // spb)
    for k0 in range(0, slots, step):
        yield lags[k0 + q:min(k0 + step, slots) + q + 1].reshape(-1, 4 * blocks)


def received_projections(bits: np.ndarray, cfg: ModemConfig, channel: ChannelModel):
    """The runs of `received_blocks` as their slots' projections on
    `slot_basis(cfg)`, one row per slot, made without samples: a slot runs
    from sample r of one product row to sample r of the next."""
    maps = _slot_projectors(cfg, channel)
    for rows in _lag_runs(bits, cfg, len(maps) // 4):
        proj = rows @ maps
        yield proj[:-1, :4] + proj[1:, 4:]


def heard_burst(messages: Sequence[framing.ControlMessage], cfg: ModemConfig,
                channel: ChannelModel, seed: int, ident: int) -> SampleBuffer:
    """Burst `ident` of `messages` as its receiver hears it, noise included:
    up to rounding, `propagate(messages_to_waveform(...), seed=(seed,
    ident))`, without modulating or filtering it.  Its `received_blocks`
    runs get their noise one at a time, into the one buffer returned."""
    if not messages:
        return SampleBuffer(np.zeros(0), channel.sample_rate)
    bits = np.array([framing.encode_frame(framing.encode_message(m)) for m in messages])
    out = np.empty(burst_length(len(messages), cfg))
    at = 0
    for y in noisy_blocks(received_blocks(bits, cfg, channel), channel, out.size,
                          seed=(seed, ident)):
        out[at:at + y.size] = y
        at += y.size
    return SampleBuffer(out, channel.sample_rate)


def received_blocks(bits: np.ndarray, cfg: ModemConfig, channel: ChannelModel):
    """Rows of `bits`, each modulated from phase 0 and sent FRAME_GAP_SLOTS
    silent slots after the one before, as the receiver hears them before
    noise, in order, in runs of whole slots of at most BLOCK_SAMPLES samples
    (at least one slot): joined, `apply_signal_path` of that waveform, up to
    rounding, without modulating or filtering it.  A single row has no gap:
    it is the filtered modulation of its bits alone.

    Slot k of a row at bit b is gain * sin(start_k + omega_b (i + 1)) (see
    `slot_phases`): cos(start_k) times the slot's sin atom plus sin(start_k)
    times its cos atom.  The room being linear, output slot r is the sum
    over the D slots of atom that reach it, j = 0..D-1, of slot r - j's
    coefficients (zero in gap slots) times block j of the atoms: one
    (rows x 4D) @ (4D x spb) product per run of `_lag_runs`."""
    spb = cfg.samples_per_bit
    atoms = _slot_atoms(cfg, channel).reshape(-1, spb)
    # output slot k starts FILTER_TAPS // 2 samples into product row k
    r = FILTER_TAPS // 2 % spb
    for rows in _lag_runs(bits, cfg, len(atoms) // 4):
        yield (rows @ atoms).ravel()[r:r + (len(rows) - 1) * spb]


@dataclass(frozen=True)
class RecoveredFrame:
    offset: int                      # sample index of the preamble start
    index: int                       # frame slot on the receiver's grid
    message: framing.ControlMessage


@dataclass
class BurstScan:
    frames: list[RecoveredFrame]
    corrupt_offsets: list[int]       # heard preambles whose frame failed CRC


def recover_frames(buf: SampleBuffer, cfg: ModemConfig) -> BurstScan:
    """Find and decode every valid frame in a received waveform.

    In one burst frame i starts i * (FRAME_BITS + FRAME_GAP_SLOTS) slots
    after frame 0, so the receiver locks once and then decodes on that grid:

    - *Anchor.* The preamble scan runs until a lock decodes with a valid
      CRC and has the quietest gaps: its gap slots before and after carry
      less energy than those of any other start 2 to half a period of
      slots away.  A frame fills its own slots and leaves its gaps
      silent, while a lock off the grid (the `101010` preamble repeats
      every two slots, and payload bits can mimic it) takes in a gap and
      claims frame slots as its gaps.  A lock whose frame fails still
      predicts the frames of its grid, which are tried in turn before the
      scan moves on.
    - *Grid.* From the anchor the receiver predicts each frame one period
      before and after the last, decodes it at the prediction and, if that
      fails, once more at the best other passing preamble within one slot.
      Each valid frame re-anchors the grid; a heard preamble whose frame
      fails is reported as corrupt.  More than one period with no preamble
      ends the grid, and the scan resumes after its last heard frame, for
      trailing silence or a later burst.

    No lock inside a frame is tried once the grid holds, so CRC-passing
    ghosts cannot start off the grid.  A frame's `index` counts frame
    periods from the buffer start to its grid's anchor, and grid slots from
    there.
    """
    return _GridReceiver(buf, cfg).run()


class _GridReceiver:
    def __init__(self, buf: SampleBuffer, cfg: ModemConfig):
        self.spb = cfg.samples_per_bit
        self.span = framing.FRAME_BITS * self.spb
        self.period = frame_period(cfg)
        # pad with one silent slot so a lock that lands a few samples late
        # on the final frame still has a full window to decode from
        self.scanner = ToneScanner(buf, cfg, pad=self.spb)
        self.last = self.scanner.n - self.span      # latest frame start that fits
        self.frames: list[RecoveredFrame] = []
        self.corrupt: list[int] = []

    def run(self) -> BurstScan:
        floor, ref = 0, (0, 0)       # scan start; (offset, index) of a placed frame
        while self.last >= floor:
            anchor, failed = self._anchor(floor)
            if anchor is None:
                # locks that no grid covers: one corrupt frame per frame span
                for offset in failed:
                    if not self.corrupt or offset - self.corrupt[-1] > self.span // 2:
                        self.corrupt.append(offset)
                break
            offset, message = anchor
            index = ref[1] + round((offset - ref[0]) / self.period)
            self.frames.append(RecoveredFrame(offset, index, message))
            self._follow(offset, index, -1, floor)
            heard = self._follow(offset, index, +1, floor)
            floor, ref = heard + self.span, (offset, index)
        self.frames.sort(key=lambda f: f.offset)
        self.corrupt.sort()
        return BurstScan(self.frames, self.corrupt)

    def _decode(self, offset: int) -> framing.ControlMessage | None:
        bits, conf = self.scanner.decode_bits(offset, framing.FRAME_BITS)
        if np.count_nonzero(conf < UNSURE_BIT_CONFIDENCE) >= CRC_MISSED_ERROR_BITS:
            return None
        try:
            return framing.decode_message(framing.decode_frame(bits))
        except (framing.FrameError, framing.MessageError):
            return None

    def _anchor(self, pos: int):
        """First frame from `pos` on that may anchor a grid, and the heard
        preambles that failed before it."""
        failed: list[int] = []
        walked: set[int] = set()         # slots (offset // spb) of failed preambles
        while True:
            hit = self.scanner.find_preamble(pos)
            if hit is None or hit.offset > self.last:
                return None, sorted(failed)
            lock = hit.offset
            tries = [(0, lock, self._decode(lock))]
            slot = lock // self.spb
            if walked.isdisjoint((slot - 1, slot, slot + 1)):
                # a lock whose frame fails still predicts the frames of its
                # grid; a grid already walked is not walked again
                tries = itertools.chain(tries, self._walk(lock, +1, pos))
            for _, offset, message in tries:
                if message is not None and self._has_quietest_gaps(offset):
                    return (offset, message), failed
                failed.append(offset)
                walked.add(offset // self.spb)
            pos = lock + self.spb

    def _has_quietest_gaps(self, offset: int) -> bool:
        gap = FRAME_GAP_SLOTS
        reach = (framing.FRAME_BITS + gap) // 2
        e0, e1 = self.scanner.slot_energies(offset - (reach + gap) * self.spb,
                                            framing.FRAME_BITS + 2 * (reach + gap))
        cum = np.concatenate([[0.0], np.cumsum(e0 + e1)])
        # a start s slots into that stretch claims slots [s - gap, s) and
        # [s + FRAME_BITS, s + FRAME_BITS + gap); shifts -reach..reach
        starts = np.arange(gap, gap + 2 * reach + 1)
        after = starts + framing.FRAME_BITS
        gaps = cum[starts] - cum[starts - gap] + cum[after + gap] - cum[after]
        # a start one slot off cannot pass the preamble check
        rivals = np.concatenate([gaps[:reach - 1], gaps[reach + 2:]])
        return bool(np.all(gaps[reach] < rivals))

    def _follow(self, offset: int, index: int, direction: int, floor: int) -> int:
        """Record the grid's frames from the one at `offset` in one
        direction; returns the last heard offset."""
        heard = offset
        for slots, heard, message in self._walk(offset, direction, floor):
            if message is None:
                self.corrupt.append(heard)
            else:
                self.frames.append(RecoveredFrame(heard, index + direction * slots, message))
        return heard

    def _walk(self, offset: int, direction: int, floor: int):
        """The heard slots of the grid through `offset`, one period apart in
        `direction`, down to `floor` or up to the buffer end: (periods from
        `offset`, offset, message or None).  A valid frame re-anchors the
        grid; more than one period with no preamble ends it."""
        heard, slots = offset, 0
        pred = offset + direction * self.period
        while floor - self.spb < pred <= self.last:
            slots += 1
            pred = max(pred, floor)
            slot = self._slot(pred, floor)
            if slot is None:
                if abs(pred - heard) > self.period:
                    return
                pred += direction * self.period
                continue
            heard, message = slot
            yield slots, heard, message
            pred = (pred if message is None else heard) + direction * self.period

    def _slot(self, pred: int, floor: int):
        """(offset, message or None) of the frame predicted at `pred`, or
        None when no preamble passes within one slot of it.  A frame that
        fails at `pred` is decoded once more at the best other passing
        preamble."""
        message = self._decode(pred)
        if message is not None:
            return pred, message
        hits = self.scanner.preambles_near(pred, floor, self.last)
        if not hits:
            return None
        retry = next((hit.offset for hit in hits if hit.offset != pred), None)
        if retry is not None:
            message = self._decode(retry)
            if message is not None:
                return retry, message
        return hits[0].offset, None


def reassemble_burst(scan: BurstScan, indexed: bool = False) -> framing.ReassemblyResult:
    """The payload of the DATA frames of one burst.

    Frame i of a burst sits i grid slots after frame 0, so once one frame's
    chunk index is known, each frame's grid index fixes its own, whatever
    was lost before it; a frame whose seq is not that index mod 256 is
    dropped.  With `indexed`, the recording began with the burst, so a
    frame's grid index is its chunk index; without, the first DATA frame's
    seq places the grid, so fewer than 256 frames may be lost ahead of it.
    """
    data = [f for f in scan.frames if f.message.kind == framing.MessageKind.DATA]
    rx = framing.Reassembler()
    if not data:
        return rx.result()
    base = 0 if indexed else data[0].message.seq - data[0].index
    for frame in data:
        index = frame.index + base
        if index % 256 == frame.message.seq:
            rx.accept(index, frame.message.body)
    return rx.result()
