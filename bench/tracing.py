"""Spans and counts around the public functions of each ultralink layer.

`Tracer.installed()` swaps the package's module and class attributes for
wrappers at run time and puts every original back on exit; no file of the
package changes.  A wrapper records one span (name, start, end, parent,
op id) per call in memory, and afterwards adds the counts its layer
defines, computed from the call's arguments, the objects it touched and
its result.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Callable, Iterable, Optional

from ultralink import framing
from ultralink.modem import PREAMBLE_PATTERN

CountFn = Callable[[tuple, dict, object, Optional[BaseException]], Iterable[tuple[str, float]]]


def _arg(args: tuple, kwargs: dict, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _offsets_scored(args, kwargs, result, error):
    """Candidate offsets one `find_preamble(search_from)` call scores: every
    `step` samples from `search_from` to the last start that fits the
    preamble (the same range the scanner builds)."""
    scanner = args[0]
    search_from = _arg(args, kwargs, 1, "search_from", 0)
    last_start = scanner.n - len(PREAMBLE_PATTERN) * scanner.spb
    yield "modem.find_preamble.offsets_scored", len(range(search_from, last_start + 1, scanner.step))


def _scanner_samples(args, kwargs, result, error):
    yield "modem.ToneScanner.samples", args[0].n


def _propagated_samples(args, kwargs, result, error):
    yield "channel.propagate.samples", len(_arg(args, kwargs, 0, "tx"))


def _modulated_samples(args, kwargs, result, error):
    if result is not None:
        yield "modem.modulate.samples", len(result)


def _waveform_frames(args, kwargs, result, error):
    yield "burst.messages_to_waveform.frames", len(_arg(args, kwargs, 0, "messages"))


def _scan_outcome(args, kwargs, result, error):
    if result is not None:
        yield "burst.frames_recovered", len(result.frames)
        yield "burst.corrupt_locks", len(result.corrupt_offsets)


def _rejects(args, kwargs, result, error):
    if isinstance(error, (framing.FrameError, framing.MessageError)):
        yield "framing.rejects", 1


# (module, attribute or Class.method, span name, counter)
TARGETS: list[tuple[str, str, str, Optional[CountFn]]] = [
    ("ultralink.modem", "modulate", "modem.modulate", _modulated_samples),
    ("ultralink.modem", "demodulate", "modem.demodulate", None),
    ("ultralink.modem", "ToneScanner.__init__", "modem.ToneScanner.init", _scanner_samples),
    ("ultralink.modem", "ToneScanner.find_preamble", "modem.find_preamble", _offsets_scored),
    ("ultralink.modem", "ToneScanner.decode_bits", "modem.decode_bits", None),
    ("ultralink.framing", "decode_frame", "framing.decode_frame", _rejects),
    ("ultralink.framing", "decode_message", "framing.decode_message", _rejects),
    ("ultralink.burst", "messages_to_waveform", "burst.messages_to_waveform", _waveform_frames),
    ("ultralink.burst", "recover_frames", "burst.recover_frames", _scan_outcome),
    ("ultralink.channel", "propagate", "channel.propagate", _propagated_samples),
    ("ultralink.link", "step", "link.step", None),
    ("ultralink.link", "run_session", "link.engine", None),
    ("ultralink.link", "verify_trace", "link.verify_trace", None),
    ("ultralink.link", "SessionTrace.to_json", "link.trace_to_json", None),
    ("ultralink.analysis", "ber_sweep", "analysis.ber_sweep", None),
]


class Tracer:
    """In-memory span and count recorder for one benchmark run."""

    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent index, op]
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.op = -1                         # id of the op in progress
        self._stack: list[int] = []
        self._swapped: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, counter: Optional[CountFn]):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(tracer.spans)
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, tracer.op]
            tracer.spans.append(span)
            tracer._stack.append(index)
            result = error = None
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
                if counter is not None:
                    counts = tracer.counts[tracer.op]
                    for key, amount in counter(args, kwargs, result, error):
                        counts[key] += amount

        return traced

    def install(self) -> None:
        if self._swapped:
            raise RuntimeError("tracer already installed")
        package = [
            module for module_name, module in sorted(sys.modules.items())
            if module is not None and (module_name == "ultralink" or module_name.startswith("ultralink."))
        ]
        for module_name, qualname, span_name, counter in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                places = [owner]
                original = owner.__dict__[attr]
            else:
                original = module.__dict__[attr]
                # every module that imported the function by name holds its own reference
                places = [m for m in package if m.__dict__.get(attr) is original]
            wrapper = self._wrap(original, span_name, counter)
            for place in places:
                self._swapped.append((place, attr, original))
                setattr(place, attr, wrapper)

    def remove(self) -> None:
        while self._swapped:
            place, attr, original = self._swapped.pop()
            setattr(place, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.remove()

    def layer_times(self) -> dict[str, dict[int, list]]:
        """Per span name and op: total and self seconds, and call count.

        Self time is a span's duration minus the durations of its direct
        children; spans nest on one thread, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(lambda: defaultdict(lambda: [0.0, 0.0, 0]))
        for index, (name, start, end, parent, op) in enumerate(self.spans):
            row = out[name][op]
            row[0] += end - start
            row[1] += end - start - child[index]
            row[2] += 1
        return out
