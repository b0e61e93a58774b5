import math

import numpy as np
import pytest

from branchlab.rng import RngStream, mix64


def test_mix64_single_word_reference_values():
    # first outputs of the splitmix64 reference sequence for seeds 0 and 1
    assert mix64(0) == 16294208416658607535
    assert mix64(1) == 10451216379200822465


def test_mix64_frozen_pairs():
    assert mix64(42, 0) == 6332618229526065668
    assert mix64(42, 1) == 18036798128018490698
    assert mix64(42, 13) == 704208345291494862


def test_mix64_argument_sensitivity():
    seen = {mix64(s, i) for s in range(4) for i in range(16)}
    assert len(seen) == 64
    assert mix64(1, 2) != mix64(2, 1)


def test_mix64_stays_in_64_bits():
    for parts in [(2**64 - 1,), (2**64 - 1, 2**64 - 1), (123456789, 987654321, 42)]:
        v = mix64(*parts)
        assert 0 <= v < 2**64


@pytest.mark.parametrize("bad", [1.5, 2.0, math.inf, math.nan, True, np.float64(1), "1", None])
def test_seeds_that_are_not_integers_are_refused(bad):
    # a float used to be truncated, so RngStream(1.5) drew seed 1's stream
    with pytest.raises(ValueError):
        mix64(bad)
    with pytest.raises(ValueError):
        mix64(1, bad)
    with pytest.raises(ValueError):
        RngStream(bad)
    with pytest.raises(ValueError):
        RngStream(1, bad)


def test_numpy_integer_seeds_mix_as_python_ints():
    assert mix64(np.int64(42), np.uint8(13)) == mix64(42, 13)
    draws = RngStream(np.int32(7), np.int64(3)).random(4)
    assert draws.tolist() == RngStream(7, 3).random(4).tolist()


def test_stream_reproducible():
    a = RngStream(7, 3).random(16)
    b = RngStream(7, 3).random(16)
    assert np.array_equal(a, b)


def test_streams_differ_by_id_and_seed():
    base = RngStream(7, 0).random(16)
    other_stream = RngStream(7, 1).random(16)
    other_seed = RngStream(8, 0).random(16)
    assert not np.array_equal(base, other_stream)
    assert not np.array_equal(base, other_seed)


def test_stream_is_the_keyed_generator():
    s = RngStream(9, 4)
    assert isinstance(s, np.random.Generator)
    want = np.random.Generator(np.random.PCG64(mix64(9, 4)))
    assert s.random(16).tobytes() == want.random(16).tobytes()
    assert s.standard_normal(16).tobytes() == want.standard_normal(16).tobytes()
