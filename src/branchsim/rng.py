"""Reproducible random streams keyed by master_seed, stream and trial or block.

Every generator is derived from a numpy SeedSequence spawn key, so the draw
sequence depends only on the key tuple, never on execution order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

STREAM_OFFSPRING = 0
STREAM_CONTROL = 1
STREAM_SEX = 2
_BLOCK_STREAMS = 3  # block keys use streams 3 + STREAM_*


def spawn_generator(master_seed: int, trial_index: int, stream: int,
                    generation: int | None = None) -> np.random.Generator:
    """Return a fresh generator for the given key tuple.

    With ``generation`` set, the stream is re-keyed per generation, so draw
    positions line up across runs whose earlier populations differ.  The
    monotone-coupled sampling mode relies on this.
    """
    if generation is None:
        key = (stream, trial_index)
    else:
        key = (stream, trial_index, generation)
    seq = np.random.SeedSequence(master_seed, spawn_key=key)
    return np.random.Generator(np.random.PCG64(seq))


@dataclass
class TrialStreams:
    """Named substreams for one trial.

    In the default mode each stream is a single generator consumed across
    generations.  In coupled mode a fresh generation-keyed generator is
    handed out on every call.
    """

    master_seed: int
    trial_index: int
    coupled: bool = False
    _cache: dict = field(default_factory=dict, repr=False)

    def offspring(self, generation: int) -> np.random.Generator:
        return self._get(STREAM_OFFSPRING, generation)

    def control(self, generation: int) -> np.random.Generator:
        return self._get(STREAM_CONTROL, generation)

    def sex(self, generation: int) -> np.random.Generator:
        return self._get(STREAM_SEX, generation)

    def _get(self, stream: int, generation: int) -> np.random.Generator:
        if self.coupled:
            return spawn_generator(self.master_seed, self.trial_index, stream, generation)
        gen = self._cache.get(stream)
        if gen is None:
            gen = spawn_generator(self.master_seed, self.trial_index, stream)
            self._cache[stream] = gen
        return gen


def block_generators(master_seed: int, block_index: int) -> tuple[np.random.Generator, ...]:
    """Generators shared by the trials of one block, indexed by stream.

    Their keys (3 + stream, block_index) start above every per-trial stream
    and are shorter than the generation-keyed ones, so no block generator
    repeats a per-trial or generation-keyed one.
    """
    return tuple(spawn_generator(master_seed, block_index, _BLOCK_STREAMS + stream)
                 for stream in (STREAM_OFFSPRING, STREAM_CONTROL, STREAM_SEX))
