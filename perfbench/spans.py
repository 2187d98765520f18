"""Span tracing of the diffrnn library from outside the package.

A :class:`Tracer` replaces public library functions with wrappers that record
one span per call: (name, start, end, parent).  Modules bind imported names
(``cells`` holds its own ``sigmoid``, ``train`` its own ``stack_forward``), so
a wrapper is installed at every module attribute that holds the original
function object; callers resolve through any of them.  A function that no
longer exists is reported as absent instead of failing, so the benchmark
keeps running when a later change deletes a traced name.

Spans are kept in memory in flat arrays and summarised once, at the end.
"""
from __future__ import annotations

import importlib
import os
import sys
import time
from array import array

import numpy as np

# (module, function, span name, extra).  The extra tells the wrapper what to
# record beside the span: "arch"/"arch_trunc" tag forward/backward spans with
# the architecture (and truncation) and count their timesteps; "path_bytes"
# counts the bytes of the file read from the first argument,
# "path_bytes_after" of the file written to the second; "report_params" the
# parameters a gradient-check report covers.  Positional calls are assumed,
# as the library makes them.
WRAPPED = (
    ("numerics", "sigmoid", "numerics.sigmoid", None),
    ("numerics", "softmax", "numerics.softmax", None),
    ("data", "gen_synthetic", "data.gen_synthetic", None),
    ("data", "save_jsonl", "data.save_jsonl", None),
    ("data", "load_jsonl", "data.load_jsonl", "path_bytes"),
    ("data", "make_splits", "data.make_splits", None),
    ("cells", "stack_forward", "cells.stack_forward", "arch"),
    ("cells", "dos", "cells.dos", None),
    ("cells", "dos_energy", "cells.dos_energy", None),
    ("cells", "predict_sequence", "cells.predict_sequence", None),
    ("backprop", "backward", "backprop.backward", "arch_trunc"),
    ("backprop", "grad_check", "backprop.grad_check", "report_params"),
    ("train", "loss_sequence", "train.loss", None),
    ("train", "loss_frame", "train.loss", None),
    ("train", "apply_sgd_step", "train.apply_sgd_step", None),
    ("train", "sgd_epoch", "train.sgd_epoch", None),
    ("train", "train", "train.train", None),
    ("train", "evaluate", "train.evaluate", None),
    ("train", "checkpoint_save", "train.checkpoint_save", "path_bytes_after"),
    ("train", "checkpoint_load", "train.checkpoint_load", None),
    ("ensemble", "fit_ernn", "ensemble.fit_ernn", None),
    ("ensemble", "samme_round", "ensemble.samme_round", None),
    ("ensemble", "predict_ensemble", "ensemble.predict_ensemble", None),
    ("cli", "main", "cli.main", None),
)

PACKAGE = "diffrnn"


def arch_tag(config) -> str:
    """Short architecture tag of a StackConfig, as the CLI spells it but
    without the colon: rnn, lstm, stackedL, dosN, drnnN, d2rnnL."""
    kinds = [kind for kind, _units in config.layers]
    if all(k.kind == "lstm" for k in kinds) and len(kinds) > 1:
        return f"stacked{len(kinds)}"
    if len(kinds) > 1 and all(k.kind == "dos" and k.order == i
                              for i, k in enumerate(kinds)):
        return f"d2rnn{len(kinds)}"
    return "-".join(k.kind if k.kind in ("rnn", "lstm") else f"{k.kind}{k.order}"
                    for k in kinds)


class Tracer:
    """Records spans of wrapped library calls.

    ``keys`` maps a span key (name, or name plus architecture tag) to a small
    integer; each span row holds that key, its parent row (-1 at top level),
    start and end from ``time.perf_counter`` and an integer amount (steps,
    bytes or parameters, depending on the wrapped function).
    """

    def __init__(self):
        self.keys: dict[tuple[str, str], int] = {}
        self.key_list: list[tuple[str, str]] = []
        self.key = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.amount = array("q")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self._tags: dict[int, tuple[object, str]] = {}
        self.absent: list[str] = []

    # -- recording -------------------------------------------------------

    def key_id(self, name: str, tag: str = "") -> int:
        k = (name, tag)
        i = self.keys.get(k)
        if i is None:
            i = self.keys[k] = len(self.key_list)
            self.key_list.append(k)
        return i

    def open(self, key: int) -> int:
        row = len(self.key)
        self.key.append(key)
        self.parent.append(self._stack[-1])
        self.amount.append(0)
        self.end.append(0.0)
        self._stack.append(row)
        self.start.append(time.perf_counter())
        return row

    def close(self, row: int, amount: int = 0) -> None:
        self.end[row] = time.perf_counter()
        self._stack.pop()
        if amount:
            self.amount[row] = amount

    def arch(self, model) -> str:
        cfg = model.config
        hit = self._tags.get(id(cfg))
        if hit is None:
            # holding the config keeps its id from being reused
            hit = self._tags[id(cfg)] = (cfg, arch_tag(cfg))
        return hit[1]

    def _wrapper(self, fn, name: str, extra):
        tracer = self
        plain = tracer.key_id(name)

        if extra is None:
            def wrapped(*args, **kwargs):
                row = tracer.open(plain)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.close(row)
        else:
            def wrapped(*args, **kwargs):
                key, amount = plain, 0
                if extra == "arch":
                    key = tracer.key_id(name, tracer.arch(args[0]))
                    amount = len(args[1])
                elif extra == "arch_trunc":
                    tag = tracer.arch(args[0])
                    if args[3] if len(args) > 3 else kwargs.get("truncated"):
                        tag += "-trunc"
                    key = tracer.key_id(name, tag)
                    amount = len(args[1].logits)
                elif extra == "path_bytes":
                    amount = os.path.getsize(args[0])
                row = tracer.open(key)
                try:
                    result = fn(*args, **kwargs)
                    if extra == "path_bytes_after":
                        amount = os.path.getsize(args[1])
                    elif extra == "report_params":
                        amount = len(result.entries)
                    return result
                finally:
                    tracer.close(row, amount)
        wrapped.__wrapped__ = fn
        return wrapped

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        """Wrap every function in WRAPPED at each of its binding sites."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.absent = []
        for mod_name, fn_name, span, extra in WRAPPED:
            try:
                module = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ImportError:
                self.absent.append(f"{mod_name}.{fn_name}")
                continue
            fn = module.__dict__.get(fn_name)
            if not callable(fn):
                self.absent.append(f"{mod_name}.{fn_name}")
                continue
            wrapped = self._wrapper(fn, span, extra)
            for module, attr in binding_sites(fn):
                self._patches.append((module, attr, fn))
                setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for site, attr, fn in reversed(self._patches):
            setattr(site, attr, fn)
        self._patches = []

    # -- summarising -----------------------------------------------------

    def rows(self):
        """Span rows as numpy arrays: key, parent, start, end, amount."""
        return tuple(np.asarray(a) for a in
                     (self.key, self.parent, self.start, self.end, self.amount))

    def summary(self) -> dict[tuple[str, str], dict]:
        return summarize(self.key_list, *self.rows())


def binding_sites(fn):
    """(module, attribute) for every name a loaded module of the package binds
    ``fn`` to; callers resolve the function through any of them."""
    return [(module, attr)
            for mod_name, module in list(sys.modules.items())
            if mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")
            for attr, value in list(vars(module).items()) if value is fn]


def summarize(key_list, key, parent, start, end, amount) -> dict:
    """Per span key: calls, busy (summed durations), self (durations minus
    the time covered by direct child spans) and summed amount.

    Children of one span run one after another in this single-threaded
    program, so the time they cover is the sum of their durations.
    """
    n_keys = len(key_list)
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=len(dur))
    self_t = dur - child
    calls = np.bincount(key, minlength=n_keys)
    busy = np.bincount(key, weights=dur, minlength=n_keys)
    selfs = np.bincount(key, weights=self_t, minlength=n_keys)
    amt = np.bincount(key, weights=amount.astype(np.float64), minlength=n_keys)
    return {k: {"calls": int(calls[i]), "busy_s": float(busy[i]),
                "self_s": float(selfs[i]), "amount": float(amt[i])}
            for i, k in enumerate(key_list)}
