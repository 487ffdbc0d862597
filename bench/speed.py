"""The speed kernel, in a process of its own.

`run.py` divides each op's wall time by the machine's slowdown around
it, which it measures by timing this fixed numpy workload between ops:
an FFT round trip and a complex cumulative sum of one BER op's size (the
operations that dominate `propagate` and `ToneScanner`).  For each line
read from standard input, the kernel runs once and its time in seconds
is written back as one line; the process ends at the end of its input.

The kernel runs apart from the measured program so that the program
cannot change its timing.  numpy's large temporaries come from glibc's
malloc, whose mmap threshold rises once a large block has been freed;
in the measuring process the kernel ran 1.4 times faster or slower
depending on what ultralink had freed before.  Here the threshold is
pinned before numpy is imported, so every sample allocates the same
way.
"""

import ctypes
import sys
import time

M_MMAP_THRESHOLD = -3         # mallopt parameter in glibc's malloc.h
MMAP_THRESHOLD = 128 * 1024   # glibc's default, no longer raised by frees
SAMPLES = 289_000             # one 1000-bit BER op's waveform at 166 bit/s
WARMUP_RUNS = 2               # FFT plans and first use, before the first reply


def pin_mmap_threshold() -> bool:
    try:
        return bool(ctypes.CDLL(None).mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD))
    except (OSError, AttributeError):     # not glibc: the threshold stays as it is
        return False


def main() -> int:
    pin_mmap_threshold()
    import numpy as np

    x = np.random.default_rng(0).standard_normal(SAMPLES)
    phasor = np.exp(-2j * np.pi * 0.39 * np.arange(SAMPLES))

    def kernel() -> float:
        start = time.perf_counter()
        np.fft.irfft(np.fft.rfft(x), SAMPLES)
        np.cumsum(x * phasor)
        return time.perf_counter() - start

    for _ in range(WARMUP_RUNS):
        kernel()
    for _ in sys.stdin:
        sys.stdout.write(f"{kernel()!r}\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
