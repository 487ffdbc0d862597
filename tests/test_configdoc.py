"""Config document round-trips and type-driven value coercion."""

from dataclasses import replace
from pathlib import Path

import pytest

from ultralink import configdoc
from ultralink.channel import ChannelModel, NoiseKind, NoiseProfile, PRESETS
from ultralink.link import LinkConfig
from ultralink.modem import ModemConfig


class TestRoundtrips:
    """Documents written out by hand read back to the configs they spell out."""

    def test_modem_roundtrip(self):
        text = "[modem]\nf0 = 18200\nf1 = 19100.0\nbit_rate = 42.5\ngain = 0.7\n"
        cfg = ModemConfig(f0=18200.0, f1=19100.0, bit_rate=42.5, gain=0.7)
        assert configdoc.modem_from_sections(configdoc.parse(text)) == cfg

    def test_channel_roundtrip(self):
        text = ("[channel]\ndistance = 4.5\nangle_off_axis = 30\ncone_diameter = 0.1\n"
                "speed_of_sound = 343\nbase_snr_at_1m = 17.25\n"
                "response_curve = 0:0; 18000:-1.5; 24000:-12\nsample_rate = 44100\n"
                "[noise]\nkind = speech_like\nlevel_db = -3\n")
        model = ChannelModel(
            distance=4.5,
            angle_off_axis=30.0,
            speed_of_sound=343.0,
            base_snr_at_1m=17.25,
            response_curve=((0.0, 0.0), (18_000.0, -1.5), (24_000.0, -12.0)),
            noise=NoiseProfile(NoiseKind.SPEECH_LIKE, -3.0),
            sample_rate=44_100,
        )
        assert configdoc.channel_from_sections(configdoc.parse(text)) == model

    PRESET_DOCS = {
        "noiseless": "[channel]\ndistance = 1\nbase_snr_at_1m = none\n[noise]\nkind = silent\n",
        "paper-3m": "[channel]\ndistance = 3\nbase_snr_at_1m = 21.57\n",
        "paper-8m": "[channel]\ndistance = 8\nbase_snr_at_1m = 19.58\n",
    }

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_preset_roundtrip(self, name):
        text = self.PRESET_DOCS[name]
        assert configdoc.channel_from_sections(configdoc.parse(text)) == PRESETS[name]

    def test_link_roundtrip(self):
        text = "[modem]\nbit_rate = 50\n[link]\nt_max = 7.5\n"
        cfg = LinkConfig(modem=ModemConfig(bit_rate=50.0), t_max=7.5)
        assert configdoc.link_from_sections(configdoc.parse(text)) == cfg

    def test_defaults_when_sections_missing(self):
        assert configdoc.modem_from_sections({}) == ModemConfig()
        assert configdoc.link_from_sections({}) == LinkConfig()

    def test_unknown_key_rejected(self):
        text = "[modem]\nf9 = 1.0\n"
        with pytest.raises(ValueError):
            configdoc.modem_from_sections(configdoc.parse(text))

    def test_unknown_section_rejected(self):
        # a misspelled section was dropped without a word, so its keys
        # silently kept their defaults
        with pytest.raises(ValueError, match=r"\[modme\]"):
            configdoc.parse("[modem]\nbit_rate = 50\n[modme]\nbit_rate = 10\n")

    def test_section_outside_those_a_reader_takes_rejected(self):
        text = "[modem]\nbit_rate = 50\n[channel]\ndistance = 8\n"
        assert configdoc.parse(text, ("modem", "channel")) == configdoc.parse(text)
        with pytest.raises(ValueError, match=r"\[channel\]"):
            configdoc.parse(text, ("modem",))


class TestCoercion:
    def test_none_only_for_optional_fields(self):
        parsed = configdoc.parse("[channel]\nbase_snr_at_1m = None\n")
        assert configdoc.channel_from_sections(parsed).base_snr_at_1m is None
        with pytest.raises(ValueError):
            configdoc.channel_from_sections(configdoc.parse("[channel]\ndistance = none\n"))

    def test_ints_and_enums(self):
        parsed = configdoc.parse(
            "[channel]\nsample_rate = 44100\n[noise]\nkind = white\nlevel_db = -6\n")
        model = configdoc.channel_from_sections(parsed)
        assert model.sample_rate == 44_100 and isinstance(model.sample_rate, int)
        assert model.noise == NoiseProfile(NoiseKind.WHITE, -6.0)

    def test_unknown_noise_kind_rejected(self):
        with pytest.raises(ValueError):
            configdoc.channel_from_sections(configdoc.parse("[noise]\nkind = thunder\n"))

    def test_nested_section_key_rejected(self):
        with pytest.raises(ValueError):
            configdoc.link_from_sections(configdoc.parse("[link]\nmodem = fast\n"))


class TestSession:
    def test_readme_session_config_loads(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        text = readme.split("<<'CFG'\n")[1].split("\nCFG\n")[0]
        session = configdoc.session_from_sections(configdoc.parse(text))
        assert session == configdoc.SessionConfig(
            payload="secret.bin", mode=configdoc.SessionMode.BIDIRECTIONAL,
            preset="paper-3m", budget_s=600.0)

    def test_unidirectional_keys(self):
        text = "[session]\npayload = p.bin\nmode = unidirectional\n"
        session = configdoc.session_from_sections(configdoc.parse(text))
        assert session.mode is configdoc.SessionMode.UNIDIRECTIONAL
        assert session.preset is None
        # a one-way burst starts at t = 0 and is heard whole: there is no
        # start time, and no receiver start, to set
        for line in ("start_time = 5\n", "rx_guard_s = -0.5\n"):
            key = line.split(" ")[0]
            with pytest.raises(ValueError, match=f"unknown SessionConfig key '{key}'"):
                configdoc.session_from_sections(configdoc.parse(text + line))

    def test_payload_required(self):
        with pytest.raises(ValueError, match="payload"):
            configdoc.session_from_sections(configdoc.parse("[session]\nmode = bidirectional\n"))


class TestRoom:
    """`configdoc.room_from_sections`: the one place a session's room is resolved."""

    def test_a_preset_is_built_at_the_modem_rate(self):
        sections = configdoc.parse("[session]\npayload = p.bin\n")
        assert configdoc.room_from_sections(sections, "paper-3m", 44_100) == \
            replace(PRESETS["paper-3m"], sample_rate=44_100)
        assert configdoc.room_from_sections(sections, None, 44_100) == \
            replace(PRESETS["noiseless"], sample_rate=44_100)

    def test_channel_section_sets_the_room(self):
        sections = configdoc.parse("[channel]\ndistance = 8\n[noise]\nkind = white\n")
        assert configdoc.room_from_sections(sections, None, 48_000) == ChannelModel(
            distance=8.0, noise=NoiseProfile(NoiseKind.WHITE))

    def test_noise_section_alone_sets_the_noise_of_the_default_room(self):
        # it resolved to the noiseless preset's SILENT profile
        sections = configdoc.parse("[noise]\nkind = music_like\nlevel_db = -6\n")
        assert configdoc.room_from_sections(sections, None, 44_100) == ChannelModel(
            noise=NoiseProfile(NoiseKind.MUSIC_LIKE, -6.0), sample_rate=44_100)

    def test_channel_sample_rate_is_kept(self):
        sections = configdoc.parse("[channel]\nsample_rate = 48000\n")
        assert configdoc.room_from_sections(sections, None, 44_100).sample_rate == 48_000

    @pytest.mark.parametrize("section", ["[channel]\ndistance = 8\n", "[noise]\nkind = white\n"],
                             ids=["channel", "noise"])
    def test_a_preset_with_a_room_section_is_rejected(self, section):
        # the preset won, so a paper-3m session with distance = 8 ran at 3 m
        name = section.split("\n")[0]
        with pytest.raises(ValueError, match=rf"preset 'paper-3m'.*\{name[:-1]}\]"):
            configdoc.room_from_sections(configdoc.parse(section), "paper-3m", 48_000)
