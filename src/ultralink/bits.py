"""Bit-sequence helpers shared by the frame codec and the modem.

Bits travel through the stack as numpy uint8 arrays of 0/1 values.
Octet packing is most-significant-bit first, which is also the on-air
order.
"""

from __future__ import annotations

from typing import Iterable, Union

import numpy as np

BitArray = np.ndarray

Bitsish = Union[str, bytes, bytearray, Iterable[int], np.ndarray]


def as_bits(value: Bitsish) -> BitArray:
    """Normalize a bit sequence ('0'/'1' string, ints, or array) to uint8 0/1."""
    if isinstance(value, str):
        if value and set(value) - {"0", "1"}:
            raise ValueError(f"bit string may contain only '0'/'1', got {value!r}")
        return np.frombuffer(value.encode("ascii"), dtype=np.uint8) - ord("0")
    arr = np.asarray(list(value) if not isinstance(value, np.ndarray) else value)
    if arr.size == 0:
        return np.zeros(0, dtype=np.uint8)
    arr = arr.astype(np.uint8)
    if arr.max(initial=0) > 1:
        raise ValueError("bit values must be 0 or 1")
    return arr


def int_to_bits(value: int, width: int) -> BitArray:
    """Big-endian bit expansion of a non-negative integer into `width` bits."""
    if value < 0 or value >= (1 << width):
        raise ValueError(f"value {value} does not fit in {width} bits")
    return np.array([(value >> (width - 1 - i)) & 1 for i in range(width)], dtype=np.uint8)


def bits_to_int(bits: BitArray) -> int:
    """Big-endian integer of a bit sequence (its inverse is int_to_bits)."""
    bits = np.asarray(bits, dtype=np.uint8)
    # packbits zero-fills the last octet from its low end
    return int.from_bytes(np.packbits(bits).tobytes(), "big") >> (-bits.size % 8)
