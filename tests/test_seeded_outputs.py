"""Seeded outputs, pinned by the sha256 of what they write.

A change that is meant to leave every seeded output as it was (a refactor,
a speed-up, a deleted second path) must leave these digests as they are.
Only a labelled output change, one whose CHANGES.md line says which outputs
move and why, may update them.  They were computed with numpy 2.4.6; the
noise and the FFTs come from numpy, so another numpy version may move them.
"""

import hashlib
import json
from dataclasses import asdict

import numpy as np
import pytest

from ultralink.analysis import ber_sweep
from ultralink.channel import preset
from ultralink.link import LinkConfig, run_session, unidirectional_schedule
from ultralink.modem import ModemConfig

LINK = LinkConfig(modem=ModemConfig(bit_rate=166))
PAPER_3M = preset("paper-3m")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def session_digest(seed: int) -> str:
    """A criterion-5 session: 16 B from A to B on `paper-3m`."""
    payload = bytes(np.random.default_rng(0).integers(0, 256, 16, dtype=np.uint8))
    return sha256(run_session(LINK, LINK, PAPER_3M, payload, seed=seed, budget=900.0).to_json())


def oneway_digest(seed: int) -> str:
    """A 120 B one-way stream on `paper-3m`."""
    payload = bytes(np.random.default_rng(7).integers(0, 256, 120, dtype=np.uint8))
    return sha256(unidirectional_schedule(LINK, PAPER_3M, payload, seed=seed).to_json())


def ber_digest(seed: int) -> str:
    """A 1000-bit BER cell at 166 bit/s on `paper-3m`."""
    cells = ber_sweep([166.0], [("paper-3m", PAPER_3M)], payload_bits=1000, seeds=[seed])
    return sha256(json.dumps([asdict(cell) for cell in cells], sort_keys=True))


SESSIONS = {
    0: "08d186f376c492bf5d14dc3f94d8bc696e802a235c608019f586660d838d2d98",
    1: "14ed1a807eaa615420f2ada3ba301c21b5297132da18dea031677707eab67a32",
    2: "bab7d57a2778fd2240bd4c41bb71791b442ae8b4fff9c18e85fde7c01ed2da4f",
    3: "5c48bfe7cec3d389b6abd4c2daeb8879df7d3e18ad7c31e950cc0c7d041c4bbe",
    4: "0a32d13288eb7bd98ea88ff3a8fcd0a397631257603622153bcc62442410a271",
}
ONEWAY = {
    0: "1191703e325a1d5ed6e7650ef0b547d2b6b041d9fb0c2dc234a6a1a092890bf8",
}
BER_CELLS = {
    0: "ab9e2f8429ba1e1d79587e13c7705700d4e5efa1450ec0c7d17e371bbf422c13",
    1: "ed84c7876eee45703724515f903739ab79a7699654e3d2ed77adea19774dcaf6",
    2: "ed84c7876eee45703724515f903739ab79a7699654e3d2ed77adea19774dcaf6",
    3: "7aebf93b989fefd6447e7b94b3df525d1974bb86b42205dd44bb454c21875ff5",
    4: "628df1f33d92544024118d925046259c668d87430b4aa7f3d879b36bd746763b",
}


@pytest.mark.parametrize("seed", sorted(SESSIONS))
def test_criterion_5_session_trace(seed):
    assert session_digest(seed) == SESSIONS[seed]


@pytest.mark.parametrize("seed", sorted(ONEWAY))
def test_one_way_stream_trace(seed):
    assert oneway_digest(seed) == ONEWAY[seed]


@pytest.mark.parametrize("seed", sorted(BER_CELLS))
def test_ber_cell(seed):
    assert ber_digest(seed) == BER_CELLS[seed]
