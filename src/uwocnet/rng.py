"""Counter-based random substreams for reproducible simulation.

Every stochastic decision in a run is drawn from a substream addressed by
(root seed, trial index, hop index, domain tag).  Substream output depends
only on that address, never on execution order, so any blocking of
rounds produces bit-identical results.

The generator is the splitmix64 output function applied to a per-substream
state plus a word counter (the scheme used by Java's SplittableRandom).
derive_states and uniform_at compute the same words for whole numpy arrays
of addresses, bit for bit, so a block of substreams can be drawn at once.
"""

from __future__ import annotations

import math
import operator

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
BINOMIAL_CHUNK = 1024  # trials per uniform in Substream.binomial
# numpy forms of the constants, built once rather than on every array call
_U11, _U27, _U30, _U31, _UGOLDEN, _UMUL1, _UMUL2 = map(
    np.uint64, (11, 27, 30, 31, _GOLDEN, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB)
)


def _mix(z: int) -> int:
    """splitmix64 finalizer: avalanche a 64-bit word."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def as_int(value, name: str) -> int:
    """value as a Python int: any integer, numpy's too; bool is not one."""
    if isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, not bool {value!r}")
    try:
        return operator.index(value)
    except TypeError as exc:
        raise TypeError(f"{name}: {exc}") from None


def as_float(value, name: str) -> float:
    """value as a finite Python float, numpy's too; bool, numpy's too, is not one.
    Fast path: a finite Python float (not np.float64, a subclass) comes back as is."""
    if type(value) is float and math.isfinite(value):
        return value
    if isinstance(value, (bool, np.bool_)):
        raise TypeError(f"{name} must be a number, not bool {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite")
    return float(value)


def seed_word(seed) -> int:
    """A seed or address word modulo 2**64: any integer, numpy's too.  Fast
    path: a Python int (not bool, a subclass) skips as_int, which the rest take."""
    return (seed if type(seed) is int else as_int(seed, "seed")) & _MASK64


def derive_state(seed: int, *words: int) -> int:
    """Fold integer address words into a 64-bit substream state: per word,
    s = _mix((s + golden) ^ seed_word(w)), inlined.  The word is not reduced:
    XOR is bitwise, so the 64 bits the mask keeps are those of seed_word(w)."""
    s = seed_word(seed)
    for w in words:
        z = ((s + _GOLDEN) ^ (w if type(w) is int else as_int(w, "seed"))) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        s = z ^ (z >> 31)
    return s


def _mix_array(z: np.ndarray) -> np.ndarray:
    """_mix over a uint64 array, in place: callers pass a temporary of their
    own, never an input array.  Array arithmetic wraps modulo 2**64."""
    z ^= z >> _U30
    z *= _UMUL1
    z ^= z >> _U27
    z *= _UMUL2
    z ^= z >> _U31
    return z


def derive_states(states: np.ndarray, *words) -> np.ndarray:
    """derive_state over numpy arrays: extends a uint64 array of states (a
    prefix folded by derive_state, or an earlier derive_states result) by
    more words, each an integer or an array; arrays broadcast."""
    for w in words:
        if not isinstance(w, np.ndarray):
            w = np.uint64(seed_word(w))
        states = _mix_array((states + _UGOLDEN) ^ w.astype(np.uint64, copy=False))
    return states


def uniform_at(states: np.ndarray, i: int) -> np.ndarray:
    """Draw i (from 0) of Substream.uniform on each of the given states.

    Equal to what the i-th uniform() call returns on a Substream built from
    the same address, provided every earlier draw consumed one word.
    """
    word = _mix_array(states + np.uint64(((i + 1) * _GOLDEN) & _MASK64))
    word >>= _U11
    return word * 1.1102230246251565e-16  # exact: a 53-bit word is a float64


def derive_seed(seed: int, *words: int) -> int:
    """Derive a child seed (non-negative, < 2**63) from an address."""
    return derive_state(seed, *words) >> 1


def zero_draw_probability(n: int, p: float) -> float:
    """P(Binomial(n, p) == 0) = (1-p)^n for p in [0, 1], without pow-loss."""
    if p == 1.0:
        return 0.0 if n else 1.0
    return math.exp(n * math.log1p(-p))


class Substream:
    """One independent random stream, identified by its derivation words.

    Stream word i is mix(state + (i+1)*golden); consuming methods advance
    the word counter deterministically.
    """

    __slots__ = ("_state", "_count")

    def __init__(self, seed: int, *words: int) -> None:
        self._state = derive_state(seed, *words)
        self._count = 0

    def next_u64(self) -> int:
        self._count += 1
        return _mix((self._state + self._count * _GOLDEN) & _MASK64)

    def uniform(self) -> float:
        """Next double in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 1.1102230246251565e-16  # 2**-53

    def below(self, bound: int) -> int:
        """Next integer in [0, bound). Multiply-shift scaling of one word."""
        return (self.next_u64() * bound) >> 64

    def binomial(self, n: int, p: float) -> int:
        """Binomial(n, p) draw by CDF inversion.

        Consumes exactly one uniform per <=1024-trial chunk; chunking keeps
        (1-p)^n above the double underflow threshold for any n.
        """
        if n <= 0 or p <= 0.0:
            return 0
        if p >= 1.0:
            return n
        total = 0
        remaining = n
        while remaining > 0:
            m = min(remaining, BINOMIAL_CHUNK)
            total += self._binv(m, p)
            remaining -= m
        return total

    def _binv(self, n: int, p: float) -> int:
        u = self.uniform()
        q = 1.0 - p
        pmf = zero_draw_probability(n, p)
        odds = p / q
        cdf = pmf
        k = 0
        while u > cdf and k < n:
            k += 1
            pmf *= odds * (n - k + 1) / k
            cdf += pmf
        return k

    def distinct_below(self, bound: int, count: int) -> list[int]:
        """count distinct integers in [0, bound) (Floyd's sampling)."""
        if count >= bound:
            return list(range(bound))
        chosen: set[int] = set()
        for i in range(bound - count, bound):
            j = self.below(i + 1)
            chosen.add(i if j in chosen else j)
        return sorted(chosen)

    def gauss(self) -> float:
        """Standard normal via Box-Muller (cosine branch)."""
        u1 = self.uniform()
        while u1 <= 0.0:
            u1 = self.uniform()
        u2 = self.uniform()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
