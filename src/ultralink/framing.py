"""Link-layer frame codec.

A frame on the air is 46 bits: a 6-bit alternating preamble, a 32-bit
payload, and an 8-bit CRC over the payload.  The 32-bit payload itself
carries one control message or one 16-bit data chunk; `pack_payload` /
`unpack_payload` turn byte strings into chunk sequences and back, and a
`Reassembler` places arriving chunks by absolute index.

CRC-8 parameters: polynomial x^8 + x^2 + x + 1 (0x07), initial value 0,
no reflection, no final XOR, bits processed MSB first.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

import numpy as np

from .bits import BitArray, as_bits, bits_to_int, int_to_bits

PREAMBLE = np.array([1, 0, 1, 0, 1, 0], dtype=np.uint8)
PREAMBLE_BITS = len(PREAMBLE)
PAYLOAD_BITS = 32
CRC_BITS = 8
FRAME_BITS = PREAMBLE_BITS + PAYLOAD_BITS + CRC_BITS  # 46

CRC_POLY = 0x07

# chunk bytes carried per DATA frame (16-bit body)
CHUNK_BYTES = 2
MAX_TRANSFER_BYTES = 0xFFFF  # 16-bit length prefix

# a DATA frame's 8-bit seq resolves to one of the SEQ_WINDOW chunk indices
# from the receiver's next needed chunk on; older seqs are duplicates from
# the previous window, so one turn must never carry more chunks than this
SEQ_WINDOW = 224


class FrameError(Exception):
    """Base class for frame integrity failures."""


class PreambleError(FrameError):
    """Leading 6 bits of a frame are not the alternating pattern."""


class CrcError(FrameError):
    """Recomputed CRC does not match the trailing 8 bits."""


class MessageError(Exception):
    """Malformed control message (unknown kind, field out of range)."""


def _crc_table() -> bytes:
    table = bytearray(256)
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = ((crc << 1) ^ CRC_POLY) & 0xFF if crc & 0x80 else (crc << 1) & 0xFF
        table[byte] = crc
    return bytes(table)


_CRC_TABLE = _crc_table()


def _crc_of_octets(octets: bytes) -> int:
    crc = 0
    for byte in octets:
        crc = _CRC_TABLE[crc ^ byte]
    return crc


def crc8(payload: BitArray) -> BitArray:
    """CRC-8 of a 32-bit payload, returned as 8 bits."""
    payload = as_bits(payload)
    if payload.size != PAYLOAD_BITS:
        raise ValueError(f"crc8 expects {PAYLOAD_BITS} bits, got {payload.size}")
    return int_to_bits(_crc_of_octets(np.packbits(payload).tobytes()), CRC_BITS)


def encode_frame(payload: BitArray) -> BitArray:
    """Serialize a 32-bit payload into the 46-bit on-air frame."""
    payload = as_bits(payload)
    if payload.size != PAYLOAD_BITS:
        raise ValueError(f"payload must be {PAYLOAD_BITS} bits, got {payload.size}")
    return np.concatenate([PREAMBLE, payload, crc8(payload)])


def decode_frame(frame: BitArray) -> BitArray:
    """Recover the 32-bit payload from a 46-bit frame.

    Raises PreambleError if the head is not '101010' (defense in depth:
    the modem already synchronized on it), CrcError if the payload fails
    its checksum — the cue for the link layer to request a retransmit.
    """
    frame = as_bits(frame)
    if frame.size != FRAME_BITS:
        raise ValueError(f"frame must be {FRAME_BITS} bits, got {frame.size}")
    if not np.array_equal(frame[:PREAMBLE_BITS], PREAMBLE):
        raise PreambleError("frame does not start with the alternating preamble")
    # the payload's four octets, then the received CRC
    octets = np.packbits(frame[PREAMBLE_BITS:]).tobytes()
    if _crc_of_octets(octets[:-1]) != octets[-1]:
        raise CrcError("payload CRC mismatch")
    return frame[PREAMBLE_BITS:PREAMBLE_BITS + PAYLOAD_BITS]


class MessageKind(enum.IntEnum):
    """Message vocabulary: the seven control messages plus DATA."""

    DISCOVERY = 1      # broadcast own 8-bit node id
    ACQUIRE = 2        # take the transmission token
    RELEASE = 3        # give the transmission token back
    ACK_OK = 4         # frame(s) received successfully
    RETRANSMIT = 5     # request a frame again
    BITRATE_INC = 6    # reserved: decoded, ignored by the link
    BITRATE_DEC = 7    # reserved: decoded, ignored by the link
    DATA = 8           # 16 bits of chunk data


@dataclass(frozen=True)
class ControlMessage:
    """One 32-bit payload's worth of protocol content.

    Layout (MSB first): kind(8) | sender_id(8) | seq(8) | body low 8 bits.
    DATA frames need all 16 body bits for chunk data, so they drop the
    sender id: kind(8) | seq(8) | body(16).  With two peers the data
    sender is unambiguous from who holds the token.
    """

    kind: MessageKind
    sender_id: int = 0
    seq: int = 0
    body: int = 0

    def __post_init__(self):
        if self.kind not in MessageKind.__members__.values():
            raise MessageError(f"unknown message kind {self.kind!r}")
        for name, value, limit in (
            ("sender_id", self.sender_id, 0xFF),
            ("seq", self.seq, 0xFF),
            ("body", self.body, 0xFFFF),
        ):
            if not 0 <= value <= limit:
                raise MessageError(f"{name}={value} out of range [0, {limit}]")
        if self.kind == MessageKind.DATA:
            if self.sender_id != 0:
                raise MessageError("DATA frames do not carry a sender id")
        elif self.body > 0xFF:
            raise MessageError(f"{self.kind.name} body must fit in 8 bits, got {self.body}")


def encode_message(msg: ControlMessage) -> BitArray:
    """32-bit payload for a control message."""
    if msg.kind == MessageKind.DATA:
        word = (int(msg.kind) << 24) | (msg.seq << 16) | msg.body
    else:
        word = (int(msg.kind) << 24) | (msg.sender_id << 16) | (msg.seq << 8) | msg.body
    return int_to_bits(word, PAYLOAD_BITS)


def decode_message(payload: BitArray) -> ControlMessage:
    payload = as_bits(payload)
    if payload.size != PAYLOAD_BITS:
        raise ValueError(f"payload must be {PAYLOAD_BITS} bits, got {payload.size}")
    word = bits_to_int(payload)
    kind_octet = (word >> 24) & 0xFF
    try:
        kind = MessageKind(kind_octet)
    except ValueError:
        raise MessageError(f"unknown message kind octet 0x{kind_octet:02x}") from None
    if kind == MessageKind.DATA:
        return ControlMessage(kind, seq=(word >> 16) & 0xFF, body=word & 0xFFFF)
    return ControlMessage(
        kind,
        sender_id=(word >> 16) & 0xFF,
        seq=(word >> 8) & 0xFF,
        body=word & 0xFF,
    )


def pack_payload(data: bytes) -> list[ControlMessage]:
    """Split bytes into DATA messages: a 16-bit length prefix, then 2-byte chunks.

    The length prefix makes final-chunk zero padding removable on the far
    side.  Sequence numbers count frames from 0 (the prefix) modulo 256.
    """
    if len(data) == 0:
        raise ValueError("empty payload")
    if len(data) > MAX_TRANSFER_BYTES:
        raise ValueError(f"payload of {len(data)} bytes exceeds {MAX_TRANSFER_BYTES}")
    chunks = [len(data)]
    padded = data + b"\x00" * (-len(data) % CHUNK_BYTES)
    for i in range(0, len(padded), CHUNK_BYTES):
        chunks.append(int.from_bytes(padded[i:i + CHUNK_BYTES], "big"))
    return [
        ControlMessage(MessageKind.DATA, seq=i % 256, body=chunk)
        for i, chunk in enumerate(chunks)
    ]


def expected_chunk_count(total_bytes: int) -> int:
    """Number of DATA frames (including the prefix) for a transfer."""
    return 1 + (total_bytes + CHUNK_BYTES - 1) // CHUNK_BYTES


def resolve_seq(seq8: int, at_most: int) -> int:
    """Largest index <= at_most whose seq (index mod 256) is seq8."""
    return at_most - ((at_most - seq8) % 256)


@dataclass
class ReassemblyResult:
    data: bytes
    complete: bool
    missing: list[int]


def unpack_payload(chunks: dict[int, int]) -> ReassemblyResult:
    """Rebuild bytes from DATA chunks keyed by absolute frame index.

    Tolerates gaps: returns what could be reconstructed plus the list of
    missing indices.  Without index 0 (the length prefix) the padding trim
    point is unknown and the result is flagged incomplete.
    """
    if 0 not in chunks:
        indices = sorted(k for k in chunks)
        blob = b"".join(chunks[i].to_bytes(CHUNK_BYTES, "big") for i in indices)
        return ReassemblyResult(blob, complete=False, missing=[0])
    total = chunks[0]
    count = expected_chunk_count(total)
    missing = [i for i in range(1, count) if i not in chunks]
    blob = b"".join(
        chunks.get(i, 0).to_bytes(CHUNK_BYTES, "big") for i in range(1, count)
    )
    return ReassemblyResult(blob[:total], complete=not missing, missing=missing)


@dataclass
class Reassembler:
    """The DATA chunks of one incoming transfer, keyed by absolute frame index."""

    chunks: dict[int, int] = field(default_factory=dict)
    next_needed: int = 0  # lowest index not yet held
    max_seen: int = -1

    def copy(self) -> "Reassembler":
        return replace(self, chunks=dict(self.chunks))

    def resolve(self, seq8: int) -> int:
        """Absolute index of a seq within SEQ_WINDOW of the next needed chunk;
        older seqs resolve to the previous window, where they are duplicates."""
        return resolve_seq(seq8, self.next_needed + SEQ_WINDOW - 1)

    def accept(self, index: int, body: int) -> None:
        """Place one chunk; a duplicate or a negative index is dropped."""
        if index < 0 or index in self.chunks:
            return
        self.chunks[index] = body
        self.max_seen = max(self.max_seen, index)
        while self.next_needed in self.chunks:
            self.next_needed += 1

    def gaps(self) -> list[int]:
        """Indices not held below the highest one seen, in order."""
        return [i for i in range(self.next_needed, self.max_seen) if i not in self.chunks]

    @property
    def complete(self) -> bool:
        """Every chunk up to the count the length prefix gives is held."""
        return 0 in self.chunks and self.next_needed >= expected_chunk_count(self.chunks[0])

    def result(self) -> ReassemblyResult:
        return unpack_payload(self.chunks)
