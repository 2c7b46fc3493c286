"""Indonesian sentiment classification toolkit.

Pipeline: corpus ingest -> six-step preprocessing (with a rule-based
Indonesian stemmer) -> integer encoding -> single-layer LSTM classifier
trained with hand-derived backpropagation through time and Adam, plus
classical baselines and a confusion-matrix evaluation harness.
"""

from .preprocess import PreprocessConfig, run_pipeline
from .vocab import build_vocab, encode
from .nn import ModelConfig, init_params, predict

__version__ = "0.1.0"
