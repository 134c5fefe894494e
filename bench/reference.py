"""A fixed reference kernel that measures how fast the machine runs now.

The benchmark's host is shared: the speed of its CPUs drifts by up to 2x
over seconds to minutes, and the drift moves every op time with it.  The
kernel below is a small, frozen, pure-Python mix of what the package does
(64-bit integer mixing, float math with erfc and exp, validated frozen
dataclasses built from merged dicts, small objects, byte strings).
The benchmark times it between ops and rescales each op's wall time to the
speed at which the kernel takes NOMINAL_S:

    reference seconds = wall seconds * NOMINAL_S / kernel seconds

Set-up time is rescaled the same way, but by a reference process instead
of the kernel: process start and shared-library loading follow the kernel's
speed too loosely.  The reference process starts the interpreter and
imports the same third-party libraries uwocnet needs, so the part of
set-up that is uwocnet's own shows as the rest:

    reference set-up seconds = set-up wall seconds * IMPORT_NOMINAL_S
                               / reference process wall seconds

The kernel and the reference process must never change, or reference
seconds before and after the change stop being comparable.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

NOMINAL_S = 0.004  # kernel seconds on the machine the benchmark was written on
IMPORT_NOMINAL_S = 0.3  # reference process seconds on that machine
IMPORT_PROBE = ("-c", "import numpy, scipy.special; print('ready', flush=True)")
_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_ROUNDS = 1500


@dataclass(frozen=True)
class _Params:
    scale: float
    rate: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.scale) and math.isfinite(self.rate)):
            raise ValueError("parameters must be finite")


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: float) -> None:
        self.key = key
        self.value = value


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _kernel() -> float:
    acc = 0.0
    cells = []
    buf = bytearray()
    base = {"scale": 1.0, "rate": 2.0}
    for i in range(_ROUNDS):
        x = _mix((i * _GOLDEN) & _MASK)
        u = (x >> 11) * 1.1102230246251565e-16
        acc += math.sqrt(-2.0 * math.log(u + 1e-300)) * math.cos(6.283185307179586 * u)
        p = _Params(**{**base, "scale": u})
        acc += 0.5 * math.erfc(p.scale / 1.4142135623730951) * math.exp(-p.rate * u)
        cells.append(_Cell(i, u))
        buf.append(x & 0xFF)
        if len(cells) == 32:
            acc += sum(c.value for c in cells) + len(bytes(buf).replace(b"\x7d", b"\x7d\x5d"))
            cells.clear()
            buf.clear()
    return acc


def kernel_seconds() -> float:
    """Wall time of one run of the reference kernel."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0
