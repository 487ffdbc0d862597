"""Near-ultrasonic speaker-to-speaker acoustic link toolkit.

A software bench for the 18-24 kHz covert audio channel: a B-FSK modem
with preamble synchronization, a 46-bit frame codec with CRC-8, a
token-passing half-duplex link protocol with discovery, a deterministic
simulated room, and the measurement/countermeasure suite to go with it.
"""

from .audio import AudioError, SampleBuffer, read_wav, write_wav
from .channel import (
    ChannelModel,
    NoiseKind,
    NoiseProfile,
    beaming_start_frequency,
    directivity_gain,
    preset,
    propagate,
    synthesize_noise,
)
from .framing import (
    ControlMessage,
    CrcError,
    FrameError,
    MessageKind,
    PreambleError,
    crc8,
    decode_frame,
    decode_message,
    encode_frame,
    encode_message,
)
from .link import (
    LinkConfig,
    NodeState,
    Phase,
    SessionTrace,
    run_session,
    step,
    unidirectional_schedule,
    verify_trace,
)
from .modem import (
    ConfigError,
    ModemConfig,
    demodulate,
    modulate,
)
from .analysis import (
    CapacityReport,
    DetectionEvent,
    ber_sweep,
    capacity_profile,
    detect_ultrasonic,
    lowpass_filter,
    measure_ber,
    shannon_capacity,
)

__version__ = "0.1.0"
