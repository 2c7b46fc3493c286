"""One random stream per purpose: ``stream(seed, purpose, index)`` seeds
numpy's generator with (seed, STREAMS[purpose], index), the index being
the epoch for the shuffle, else 0.  Keys have three words because numpy
reads a missing word as 0, so a shorter key could be another purpose's.
Ids 0-3 draw as the keys (seed, id) did."""

import numpy as np

STREAMS = {"split_negative": 0, "split_positive": 1, "dropout": 2, "svm": 3,
           "init": 4, "shuffle": 5}


def stream(seed: int, purpose: str, index: int = 0) -> np.random.Generator:
    return np.random.default_rng((seed, STREAMS[purpose], index))
