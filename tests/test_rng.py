"""The fast paths of rng's checks agree with their general paths."""

import math
import operator

import numpy as np
import pytest

from uwocnet import rng
from uwocnet.rng import Substream, as_float, derive_state, seed_word

MASK = (1 << 64) - 1


def reference_state(seed, *words):
    """derive_state through operator.index and rng._mix, each word reduced first."""
    s = operator.index(seed) & MASK
    for w in words:
        s = rng._mix((s + 0x9E3779B97F4A7C15) ^ (operator.index(w) & MASK))
    return s


WORDS = [0, 1, 2**63, 2**64 - 1, 2**64, 2**64 + 5, 2**130 + 7, -1, -5, -(2**64),
         -(2**70) - 3, np.int64(-3), np.int64(2**62), np.uint64(2**64 - 1), np.int8(-1)]


@pytest.mark.parametrize("word", WORDS, ids=repr)
def test_seed_and_words_are_taken_modulo_2_64(word):
    reduced = operator.index(word) & MASK
    assert seed_word(word) == reduced and type(seed_word(word)) is int
    for seed in (word, 7, 2**64 + 7, -7):
        for words in ((word,), (word, 3), (3, word, word)):
            state = derive_state(seed, *words)
            assert state == reference_state(seed, *words)
            assert state == derive_state(seed_word(seed), *map(seed_word, words))
    a, b = Substream(7, word, 2), Substream(7, reduced, 2)
    assert [a.next_u64(), a.uniform()] == [b.next_u64(), b.uniform()]


@pytest.mark.parametrize("value", [True, False, np.True_, 1.0, np.float64(2.0), "3"],
                         ids=repr)
def test_bool_and_non_integers_are_not_seeds(value):
    for call in (lambda: seed_word(value), lambda: derive_state(value),
                 lambda: derive_state(7, value), lambda: derive_state(7, 3, value)):
        with pytest.raises(TypeError, match="seed"):
            call()


def test_a_finite_float_passes_unchanged():
    for value in (0.0, 1.5, -2.25e-300, 1e308):
        assert as_float(value, "x") is value
    negative_zero = as_float(-0.0, "x")
    assert negative_zero == 0.0 and math.copysign(1.0, negative_zero) == -1.0


@pytest.mark.parametrize("value, expected", [
    (np.float64(1.5), 1.5), (np.float32(0.1), float(np.float32(0.1))), (3, 3.0),
    (np.int64(-4), -4.0), (np.float64(-0.0), -0.0),
], ids=repr)
def test_other_numbers_become_python_floats(value, expected):
    result = as_float(value, "x")
    assert type(result) is float and result == expected
    assert math.copysign(1.0, result) == math.copysign(1.0, expected)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, np.float64(math.inf),
                                   np.float64(math.nan), np.float32(math.inf)], ids=repr)
def test_non_finite_numbers_are_rejected(value):
    with pytest.raises(ValueError, match="x must be finite"):
        as_float(value, "x")


@pytest.mark.parametrize("value", [True, False, np.True_, np.False_], ids=repr)
def test_bools_are_not_floats(value):
    with pytest.raises(TypeError, match="x must be a number, not bool"):
        as_float(value, "x")
