"""Indonesian sentiment classification toolkit.

Pipeline: corpus ingest -> six-step preprocessing (with a rule-based
Indonesian stemmer) -> integer encoding -> single-layer LSTM classifier
trained with hand-derived backpropagation through time and Adam, plus
classical baselines and a confusion-matrix evaluation harness.
"""

from .ingest import (CorpusError, Dataset, Label, LabeledComment, SplitSpec,
                     class_distribution, load_csv, save_csv, stratified_split)
from .preprocess import (PreprocessConfig, case_fold, clean, normalize_slang,
                         remove_stopwords, run_pipeline, tokenize)
from .stemmer import IndonesianStemmer
from .vocab import (Vocabulary, build_vocab, decode, encode, load_vocab,
                    save_vocab)
from .nn import (AdamState, ModelConfig, ModelParams, Prediction, RowGrad,
                 adam_step, backward, count_parameters, cross_entropy,
                 forward_logits, init_params, load_checkpoint, predict,
                 predict_encoded, save_checkpoint, softmax)
from .train import (EncodedDataset, EpochStats, TrainConfig, batch_iter,
                    evaluate_split, train)
from .evaluation import (ClassificationReport, ConfusionMatrix, confusion,
                         metrics_for_class, report, report_from_confusion)

__version__ = "0.1.0"
