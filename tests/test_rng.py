"""Tests for the replicate streams: `substream`'s block-hashed Philox keys
against SeedSequence's, its generators against the reference's, and the
lazy `numpy.random` import."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brwlab import rng
from brwlab.rng import substream

import oracles

ROOT = Path(__file__).resolve().parents[1]

SEEDS = st.integers(0, 2**64 - 1)
PREFIXES = st.lists(st.integers(0, 2**70 - 1), max_size=3)
# the `replicates` cap, and the change from one uint32 word to two
LAST = st.one_of(st.integers(0, 10**6), st.integers(2**32 - 300, 2**32 + 300))


def _key(*entropy):
    block, j = divmod(entropy[-1], 256)
    return rng._block_keys(entropy[:-1], block)[j]


@settings(max_examples=300, deadline=None)
@given(SEEDS, PREFIXES, LAST)
def test_keys_equal_seed_sequence(seed, prefix, last):
    entropy = (seed, *prefix, last)
    want = np.random.SeedSequence(entropy).generate_state(2, np.uint64)
    assert np.array_equal(_key(*entropy), want)


def test_keys_equal_seed_sequence_over_whole_blocks():
    """Every index of the blocks at 0, at the one/two-word change and at
    the cap, for a one-word, a two-word and a three-word seed."""
    for seed in (0, 2**40 + 3, 2**64 - 1):
        for lo in (0, 2**32 - 256, 2**32, 10**6 - 64):
            for last in range(lo, lo + 256):
                want = np.random.SeedSequence((seed, last)).generate_state(2, np.uint64)
                assert np.array_equal(_key(seed, last), want), (seed, last)


def _assert_same_stream(got, want):
    a, b = got.bit_generator.state, want.bit_generator.state
    assert a["bit_generator"] == b["bit_generator"] == "Philox"
    for name in ("counter", "key"):
        assert np.array_equal(a["state"][name], b["state"][name])
    assert np.array_equal(a["buffer"], b["buffer"])
    for name in ("buffer_pos", "has_uint32", "uinteger"):
        assert a[name] == b[name]
    assert np.array_equal(got.random(5), want.random(5))
    assert np.array_equal(got.integers(0, 4, size=7), want.integers(0, 4, size=7))


@settings(max_examples=100, deadline=None)
@given(SEEDS, PREFIXES, LAST)
def test_generator_equals_reference(seed, prefix, last):
    _assert_same_stream(substream(seed, *prefix, last),
                        oracles.substream_reference(seed, *prefix, last))


def test_seed_alone_equals_reference():
    for seed in (0, 255, 256, 2**32, 2**90):
        _assert_same_stream(substream(seed), oracles.substream_reference(seed))


def test_calls_return_independent_generators():
    a, b = substream(5, 9), substream(5, 9)
    assert a is not b and a.bit_generator is not b.bit_generator
    first = b.bit_generator.state
    a.random(100)
    assert b.bit_generator.state["state"]["counter"].tolist() == first["state"]["counter"].tolist()
    _assert_same_stream(b, oracles.substream_reference(5, 9))


@pytest.mark.parametrize("entropy", [(-1,), (3, -1), (-1, 3), (3, -256), (3, -257), (3, 4, -1)])
def test_negative_entry_raises(entropy):
    with pytest.raises(ValueError):
        oracles.substream_reference(*entropy)
    with pytest.raises(ValueError):
        substream(*entropy)


@pytest.mark.parametrize("request_", [(2, np.uint32), (4, np.uint64), (1, np.uint64), (2, np.float64)])
def test_key_refuses_other_requests(request_):
    key = rng._PhiloxKey(_key(1, 2))
    assert np.array_equal(key.generate_state(2, np.uint64), _key(1, 2))
    with pytest.raises(ValueError):
        key.generate_state(*request_)


def test_import_leaves_numpy_random_unloaded():
    """`numpy.random` is loaded by the first stream, not by the import: it
    costs a run that draws no stream about 6 MB of resident memory."""
    code = "import sys, brwlab, brwlab.cli; sys.exit('numpy.random' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("entropy", [(1.5, 2), (1, 2.0), (3, np.float64(2.0)), (1, 2, None)])
def test_non_integer_entry_raises(entropy):
    """An entry that SeedSequence refuses is refused, not truncated to an
    integer's stream."""
    with pytest.raises(TypeError):
        oracles.substream_reference(*entropy)
    with pytest.raises(TypeError):
        substream(*entropy)


@pytest.mark.parametrize("entropy", [(np.int64(3), 2), (1, np.int64(2)), (1, True), (True,),
                                     (np.uint32(7), np.int64(2**40), 5)])
def test_integer_like_entries_keep_seed_sequence_stream(entropy):
    _assert_same_stream(substream(*entropy), oracles.substream_reference(*entropy))
