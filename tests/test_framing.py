"""Frame codec tests, checked against independent bit-level oracles."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultralink.bits import bits_to_int, int_to_bits
from ultralink.framing import (
    SEQ_WINDOW,
    ControlMessage,
    CrcError,
    MessageError,
    MessageKind,
    PreambleError,
    Reassembler,
    crc8,
    decode_frame,
    decode_message,
    encode_frame,
    encode_message,
    pack_payload,
    resolve_seq,
    unpack_payload,
)


def crc8_longdiv(payload_bits):
    """Reference CRC: plain polynomial long division of payload * x^8 by
    x^8 + x^2 + x + 1 over GF(2).  Shares no code with the implementation."""
    reg = list(payload_bits) + [0] * 8
    poly = [1, 0, 0, 0, 0, 0, 1, 1, 1]
    for i in range(len(payload_bits)):
        if reg[i]:
            for j, p in enumerate(poly):
                reg[i + j] ^= p
    return reg[-8:]


class TestCrc8:
    def test_zero_payload_is_zero(self):
        assert bits_to_int(crc8(int_to_bits(0, 32))) == 0

    def test_known_payload_matches_longdiv_oracle(self):
        payload = int_to_bits(0x31323334, 32)
        assert list(crc8(payload)) == crc8_longdiv(list(payload))

    def test_random_payloads_match_longdiv_oracle(self, rng):
        for _ in range(200):
            payload = rng.integers(0, 2, 32, dtype=np.uint8)
            assert list(crc8(payload)) == crc8_longdiv(list(payload))

    def test_single_bit_flip_always_changes_crc(self, rng):
        payload = rng.integers(0, 2, 32, dtype=np.uint8)
        reference = bits_to_int(crc8(payload))
        for i in range(32):
            flipped = payload.copy()
            flipped[i] ^= 1
            assert bits_to_int(crc8(flipped)) != reference

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            crc8(np.zeros(31, dtype=np.uint8))


class TestFrameCodec:
    def test_frame_is_46_bits(self, rng):
        frame = encode_frame(rng.integers(0, 2, 32, dtype=np.uint8))
        assert frame.size == 46

    def test_zero_payload_layout(self):
        frame = encode_frame(np.zeros(32, dtype=np.uint8))
        assert list(frame[:6]) == [1, 0, 1, 0, 1, 0]
        assert not frame[6:].any()

    def test_roundtrip_random_payloads(self, rng):
        for _ in range(2000):
            payload = rng.integers(0, 2, 32, dtype=np.uint8)
            assert np.array_equal(decode_frame(encode_frame(payload)), payload)

    def test_every_single_flip_detected(self, rng):
        frame = encode_frame(rng.integers(0, 2, 32, dtype=np.uint8))
        for i in range(46):
            corrupted = frame.copy()
            corrupted[i] ^= 1
            with pytest.raises((CrcError, PreambleError)):
                decode_frame(corrupted)

    def test_double_flips_payload_crc_region_all_detected(self, rng):
        # flips confined to payload+crc: pure CRC algebra, all 820 pairs
        frame = encode_frame(rng.integers(0, 2, 32, dtype=np.uint8))
        undetected = 0
        for i, j in itertools.combinations(range(6, 46), 2):
            corrupted = frame.copy()
            corrupted[i] ^= 1
            corrupted[j] ^= 1
            try:
                decode_frame(corrupted)
                undetected += 1
            except (CrcError, PreambleError):
                pass
        assert undetected == 0

    def test_bad_preamble_distinguished_from_bad_crc(self, rng):
        frame = encode_frame(rng.integers(0, 2, 32, dtype=np.uint8))
        head = frame.copy()
        head[0] ^= 1
        with pytest.raises(PreambleError):
            decode_frame(head)
        tail = frame.copy()
        tail[45] ^= 1
        with pytest.raises(CrcError):
            decode_frame(tail)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            decode_frame(np.zeros(45, dtype=np.uint8))

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_property(self, value):
        payload = int_to_bits(value, 32)
        assert bits_to_int(decode_frame(encode_frame(payload))) == value


def valid_messages():
    kinds = st.sampled_from(list(MessageKind))

    def build(kind, sender, seq, body):
        if kind == MessageKind.DATA:
            return ControlMessage(kind, seq=seq, body=body)
        return ControlMessage(kind, sender_id=sender, seq=seq, body=body % 256)

    return st.builds(
        build,
        kinds,
        st.integers(0, 255),
        st.integers(0, 255),
        st.integers(0, 65535),
    )


class TestMessages:
    def test_discovery_sender_in_second_octet(self):
        msg = ControlMessage(MessageKind.DISCOVERY, sender_id=0x2A, seq=0)
        payload = encode_message(msg)
        assert bits_to_int(payload[8:16]) == 0x2A

    def test_roundtrip_all_kinds(self, rng):
        for kind in MessageKind:
            for _ in range(100):
                if kind == MessageKind.DATA:
                    msg = ControlMessage(kind, seq=int(rng.integers(0, 256)),
                                         body=int(rng.integers(0, 65536)))
                else:
                    msg = ControlMessage(kind, sender_id=int(rng.integers(0, 256)),
                                         seq=int(rng.integers(0, 256)),
                                         body=int(rng.integers(0, 256)))
                assert decode_message(encode_message(msg)) == msg

    @given(valid_messages())
    @settings(max_examples=300, deadline=None)
    def test_roundtrip_property(self, msg):
        assert decode_message(encode_message(msg)) == msg

    def test_unknown_kind_octet_rejected(self):
        payload = int_to_bits(0xFF000000, 32)
        with pytest.raises(MessageError):
            decode_message(payload)
        with pytest.raises(MessageError):
            decode_message(int_to_bits(0, 32))  # kind 0 is not in the vocabulary

    def test_field_range_validation(self):
        with pytest.raises(MessageError):
            ControlMessage(MessageKind.ACK_OK, sender_id=256)
        with pytest.raises(MessageError):
            ControlMessage(MessageKind.ACK_OK, body=300)  # control body is 8-bit
        with pytest.raises(MessageError):
            ControlMessage(MessageKind.DATA, sender_id=5)  # DATA has no sender


class TestPayloadPacking:
    def test_chunk_count(self):
        assert len(pack_payload(b"\x01" * 11)) == 7  # prefix + 6 chunks

    def test_roundtrip_various_lengths(self, rng):
        for n in (1, 2, 3, 16, 255, 1000):
            data = bytes(rng.integers(0, 256, n, dtype=np.uint8))
            msgs = pack_payload(data)
            result = unpack_payload({i: m.body for i, m in enumerate(msgs)})
            assert result.complete
            assert result.data == data

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pack_payload(b"")

    def test_missing_prefix_flags_incomplete(self, rng):
        data = bytes(rng.integers(0, 256, 10, dtype=np.uint8))
        msgs = pack_payload(data)
        chunks = {i: m.body for i, m in enumerate(msgs) if i != 0}
        result = unpack_payload(chunks)
        assert not result.complete
        assert result.missing == [0]

    def test_gap_reported(self, rng):
        data = bytes(rng.integers(0, 256, 10, dtype=np.uint8))
        msgs = pack_payload(data)
        chunks = {i: m.body for i, m in enumerate(msgs) if i != 2}
        result = unpack_payload(chunks)
        assert not result.complete
        assert result.missing == [2]


@st.composite
def windowed_streams(draw):
    """(true index, message) arrivals of a pack_payload stream with chunks
    dropped, duplicated and reordered, cut at the first arrival that falls
    outside the receiver's seq window (the sender never sends one)."""
    size = draw(st.integers(1, 700))  # up to 351 chunks, so seqs wrap
    msgs = pack_payload(draw(st.binary(min_size=size, max_size=size)))
    lost = draw(st.integers(0, len(msgs)))  # the first chunk that never arrives
    arrivals = []
    for i, msg in enumerate(msgs):
        copies = 0 if i == lost else draw(st.integers(1 if i < lost else 0, 2))
        for _ in range(copies):
            arrivals.append((i + draw(st.integers(0, 24)), i, msg))
    arrivals.sort(key=lambda a: a[0])
    held, next_needed, stream = set(), 0, []
    for _, i, msg in arrivals:
        if not next_needed - (256 - SEQ_WINDOW) <= i < next_needed + SEQ_WINDOW:
            break
        stream.append((i, msg))
        held.add(i)
        while next_needed in held:
            next_needed += 1
    return stream


class TestReassembler:
    @settings(max_examples=100, deadline=None)
    @given(windowed_streams())
    def test_matches_unpack_payload_on_survivors(self, stream):
        rx = Reassembler()
        for _, msg in stream:
            rx.accept(rx.resolve(msg.seq), msg.body)
        survivors = {i: msg.body for i, msg in stream}
        expected = unpack_payload(survivors)
        assert rx.chunks == survivors
        assert rx.result() == expected
        assert rx.complete == expected.complete

    def test_resolve_is_resolve_seq_below_the_window_end(self):
        # the reassembler's own window rule, as written before it called
        # resolve_seq, which the link's ACK_OK and RETRANSMIT handling share
        seqs = np.arange(256)
        for next_needed in range(3000):
            old = next_needed + (seqs - next_needed) % 256
            old = np.where(old >= next_needed + SEQ_WINDOW, old - 256, old)
            rx = Reassembler(next_needed=next_needed)
            got = [rx.resolve(seq8) for seq8 in range(256)]
            assert got == old.tolist()
            assert got == [resolve_seq(seq8, next_needed + SEQ_WINDOW - 1) for seq8 in range(256)]
