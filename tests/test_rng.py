"""Stream derivation: reproducibility and independence of keyed generators."""

from __future__ import annotations

import numpy as np

from branchsim.rng import (
    STREAM_CONTROL,
    STREAM_OFFSPRING,
    STREAM_SEX,
    TrialStreams,
    spawn_generator,
)


def draws(gen, n=8):
    return gen.random(n).tolist()


def test_same_key_reproduces_the_same_sequence():
    a = spawn_generator(123, 7, STREAM_OFFSPRING)
    b = spawn_generator(123, 7, STREAM_OFFSPRING)
    assert draws(a) == draws(b)


def test_distinct_keys_give_distinct_sequences():
    base = draws(spawn_generator(123, 7, STREAM_OFFSPRING))
    assert draws(spawn_generator(124, 7, STREAM_OFFSPRING)) != base
    assert draws(spawn_generator(123, 8, STREAM_OFFSPRING)) != base
    assert draws(spawn_generator(123, 7, STREAM_CONTROL)) != base
    assert draws(spawn_generator(123, 7, STREAM_OFFSPRING, generation=1)) != base


def test_generation_keying_is_reproducible():
    a = spawn_generator(5, 0, STREAM_SEX, generation=3)
    b = spawn_generator(5, 0, STREAM_SEX, generation=3)
    assert draws(a) == draws(b)


def test_uncoupled_streams_are_cached_across_generations():
    streams = TrialStreams(99, 4)
    g1 = streams.offspring(1)
    g2 = streams.offspring(2)
    assert g1 is g2  # one continuous stream per trial
    assert streams.control(1) is streams.control(5)
    assert streams.offspring(1) is not streams.control(1)


def test_generation_keyed_streams_rekey_every_generation():
    # the coupled kernel draws trial t's generation n from this key
    first = draws(spawn_generator(99, 4, STREAM_OFFSPRING, generation=1))
    again = draws(spawn_generator(99, 4, STREAM_OFFSPRING, generation=1))
    other = draws(spawn_generator(99, 4, STREAM_OFFSPRING, generation=2))
    assert first == again  # same generation, same prefix
    assert first != other


def test_named_streams_cover_distinct_keys():
    streams = TrialStreams(7, 0)
    seqs = [draws(s) for s in (streams.offspring(1), streams.control(1), streams.sex(1))]
    assert len({tuple(s) for s in seqs}) == 3


def test_streams_independent_of_consumption_order():
    s1 = TrialStreams(3, 2)
    a_off = draws(s1.offspring(1))
    a_ctl = draws(s1.control(1))
    s2 = TrialStreams(3, 2)
    b_ctl = draws(s2.control(1))
    b_off = draws(s2.offspring(1))
    assert a_off == b_off
    assert a_ctl == b_ctl
    assert not np.allclose(a_off, a_ctl)
