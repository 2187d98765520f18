"""Differential recurrent networks: LSTM cells whose gates are modulated by
finite-difference derivatives of the internal state, stacked in increasing
order, with conventional LSTM / stacked-LSTM baselines, truncated BPTT, and
a boosted per-order ensemble."""

from .cells import (
    CellKind,
    Model,
    StackConfig,
    build_model,
    d2rnn_config,
    dos,
    dos_energy,
    forward_set,
    predict_sequence,
    predict_set,
    stack_forward,
    stacked_lstm_config,
)
from .backprop import backward, grad_check
from .data import Dataset, KFold, MonteCarlo, Sequence, gen_synthetic, load_jsonl, save_jsonl
from .ensemble import EnsembleModel, fit_ernn, predict_ensemble
from .train import Metrics, TrainConfig, checkpoint_load, checkpoint_save, evaluate

__all__ = [name for name in dir() if not name.startswith("_")]
