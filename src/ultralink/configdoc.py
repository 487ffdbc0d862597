"""Human-readable key=value configuration documents.

One INI document can carry any of the [modem], [link], [channel],
[noise], and [session] sections; unknown sections and keys are rejected
so typos fail loudly.  A field's value is read from text by its declared
type: int, float, str, an enum (by value), or any of these `| None`
(written `none`).  The nested [modem] and [noise] sections and the
channel's response curve are read explicitly.
"""

from __future__ import annotations

import configparser
import enum
import types
import typing
from dataclasses import dataclass, fields

from .channel import ChannelModel, NoiseProfile, preset
from .link import LinkConfig
from .modem import ModemConfig


class SessionMode(enum.Enum):
    BIDIRECTIONAL = "bidirectional"
    UNIDIRECTIONAL = "unidirectional"


@dataclass(frozen=True)
class SessionConfig:
    """The [session] section of a `simulate-session` config document."""

    payload: str = ""             # payload file, relative to the config document
    mode: SessionMode = SessionMode.BIDIRECTIONAL
    preset: str | None = None     # channel preset, alone; else [channel] and [noise]
    budget_s: float = 600.0       # bidirectional: simulated-time budget


def _scalar_fields(cls) -> dict[str, tuple[type, bool]]:
    """Field name -> (value type, accepts None) for each scalar field of cls."""
    hints = typing.get_type_hints(cls)
    scalars = {}
    for f in fields(cls):
        kind, optional = hints[f.name], False
        rest = [a for a in typing.get_args(kind) if a is not type(None)]
        if typing.get_origin(kind) in (typing.Union, types.UnionType) and len(rest) == 1:
            kind, optional = rest[0], True
        if kind in (int, float, str) or (
                isinstance(kind, type) and issubclass(kind, enum.Enum)):
            scalars[f.name] = (kind, optional)
    return scalars


def _from_text(raw: str, kind: type, optional: bool):
    text = raw.strip()
    if optional and text.lower() == "none":
        return None
    return kind(text)


def _section_to_kwargs(section: dict, cls) -> dict:
    scalars = _scalar_fields(cls)
    kwargs = {}
    for key, raw in section.items():
        if key not in scalars:
            raise ValueError(f"unknown {cls.__name__} key {key!r}")
        kwargs[key] = _from_text(raw, *scalars[key])
    return kwargs


SECTIONS = ("modem", "link", "channel", "noise", "session")


def parse(text: str, sections: tuple[str, ...] = SECTIONS) -> dict[str, dict]:
    """The document's sections by name; one outside `sections` is rejected."""
    parser = configparser.ConfigParser()
    parser.read_string(text)
    for name in parser.sections():
        if name not in sections:
            raise ValueError(f"unexpected section [{name}]; this document takes "
                             + ", ".join(f"[{s}]" for s in sections))
    return {name: dict(parser[name]) for name in parser.sections()}


def modem_from_sections(sections: dict) -> ModemConfig:
    if "modem" not in sections:
        return ModemConfig()
    return ModemConfig(**_section_to_kwargs(sections["modem"], ModemConfig))


def channel_from_sections(sections: dict) -> ChannelModel:
    body = dict(sections.get("channel", {}))
    curve_raw = body.pop("response_curve", None)
    kwargs = _section_to_kwargs(body, ChannelModel)
    if curve_raw:
        points = []
        for piece in curve_raw.split(";"):
            f, g = piece.split(":")
            points.append((float(f), float(g)))
        kwargs["response_curve"] = tuple(points)
    if "noise" in sections:
        kwargs["noise"] = NoiseProfile(**_section_to_kwargs(sections["noise"], NoiseProfile))
    return ChannelModel(**kwargs)


def room_from_sections(sections: dict, preset_name: str | None, sample_rate: int) -> ChannelModel:
    """A session's room, built at the modem's `sample_rate` unless [channel]
    sets one: the preset, which sets the whole room; else the default room
    with what the [channel] and [noise] sections set."""
    given = [f"[{name}]" for name in ("channel", "noise") if name in sections]
    if preset_name and given:
        raise ValueError(f"[session] preset {preset_name!r} sets the whole room; "
                         f"remove the preset or {' and '.join(given)}")
    if given:
        channel = {"sample_rate": str(sample_rate), **sections.get("channel", {})}
        return channel_from_sections({**sections, "channel": channel})
    return preset(preset_name or "noiseless", sample_rate=sample_rate)


def link_from_sections(sections: dict) -> LinkConfig:
    modem = modem_from_sections(sections)
    if "link" not in sections:
        return LinkConfig(modem=modem)
    return LinkConfig(modem=modem, **_section_to_kwargs(sections["link"], LinkConfig))


def session_from_sections(sections: dict) -> SessionConfig:
    session = SessionConfig(**_section_to_kwargs(sections.get("session", {}), SessionConfig))
    if not session.payload:
        raise ValueError("session config needs payload = <path> in [session]")
    return session
