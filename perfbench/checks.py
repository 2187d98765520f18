"""Correctness checks of library outputs against independent oracles.

The forward oracle is the repository's naive re-statement of the cell
equations, ``tests/reference.py``; it shares no code with the library.  Every
check runs after the timed region, on outputs the timed operations produced.
Each mismatch counts as one failed operation and is printed.
"""
from __future__ import annotations

import importlib.util
import math
import re

import numpy as np

FORWARD_TOL = 1e-9      # absolute, on logits, probabilities and energies
GRADCHECK_TOL = 1e-4    # the library's own relative-error threshold
ALPHA_CAP = math.log(1e6)   # documented cap on a perfect member's weight


def load_reference(path):
    """Import ``tests/reference.py`` from a file path (``tests`` need not be
    a package)."""
    spec = importlib.util.spec_from_file_location("diffrnn_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Checker:
    """Counts checks and keeps one line per failure."""

    def __init__(self, out=print):
        self.checks = 0
        self.failures: list[str] = []
        self._out = out

    def check(self, what: str, ok: bool, detail: str = "") -> bool:
        self.checks += 1
        if not ok:
            line = f"FAILED {what}" + (f": {detail}" if detail else "")
            self.failures.append(line)
            self._out(line)
        return ok


def ref_logits(ref, model, frames) -> np.ndarray:
    return np.array(ref.ref_stack_logits(model, frames))


def ref_layer_states(ref, model, frames, layer: int) -> list:
    """Internal states s_1..s_T of one gated layer, chained through the
    reference cell from the input frames."""
    x_seq = [np.asarray(f, dtype=np.float64) for f in frames]
    tie = model.config.tie_gate_hidden_weights
    for li, ((kind, units), p) in enumerate(zip(model.config.layers, model.layers)):
        if kind.kind == "rnn":
            h = np.zeros(units)
            outs = []
            for x in x_seq:
                h = np.tanh(p.w_hh @ h + p.w_hx @ x + p.b_h)
                outs.append(h)
            x_seq = outs
            continue
        res = ref.ref_cell_sequence(p, x_seq, list(kind.dos_orders), tie=tie)
        if li == layer:
            return res["s"]
        x_seq = res["h"]
    raise IndexError(f"layer {layer} has no internal state")


def check_logits(checker, ref, what, model, frames, logits) -> None:
    want = ref_logits(ref, model, frames)
    err = float(np.max(np.abs(np.asarray(logits) - want)))
    checker.check(what, err <= FORWARD_TOL, f"max |logits - oracle| = {err:.3e}")


def check_predict(checker, ref, what, model, frames, pred, probs) -> None:
    y = ref_logits(ref, model, frames)[-1]
    z = np.exp(y - np.max(y))
    want = z / np.sum(z)
    err = float(np.max(np.abs(np.asarray(probs) - want)))
    checker.check(what, err <= FORWARD_TOL and pred == int(np.argmax(want)),
                  f"class {pred} vs {int(np.argmax(want))}, max |p - oracle| = {err:.3e}")


def check_energy(checker, ref, what, model, frames, layer, energies) -> None:
    """Column k of ``dos_energy`` is |d^(k) s_t|, the norm of the order-k
    backward difference of the layer's states."""
    states = ref_layer_states(ref, model, frames, layer)
    kind, _units = model.config.layers[layer]
    want = np.array([[np.linalg.norm(ref.ref_dos(k, states, t))
                      for k in range(kind.max_order + 1)]
                     for t in range(len(states))])
    energies = np.asarray(energies)
    if energies.shape != want.shape:
        checker.check(what, False, f"shape {energies.shape} vs {want.shape}")
        return
    err = float(np.max(np.abs(energies - want)))
    checker.check(what, err <= FORWARD_TOL, f"max |energy - oracle| = {err:.3e}")


def parse_confusion(text: str, k: int) -> np.ndarray | None:
    """The confusion matrix ``diffrnn eval`` prints after its header line."""
    lines = text.splitlines()
    try:
        at = next(i for i, line in enumerate(lines) if line.startswith("confusion matrix"))
        rows = [[int(v) for v in re.split(r"\s+", lines[at + 1 + r].strip())]
                for r in range(k)]
    except (StopIteration, IndexError, ValueError):
        return None
    return np.array(rows)


def check_eval_output(checker, ref, what, model, dataset, code, text) -> None:
    """Exit code 0 and a printed confusion matrix equal to the oracle's
    final-frame decisions."""
    if not checker.check(what, code == 0, f"exit code {code}"):
        return
    k = len(dataset.class_names)
    want = np.zeros((k, k), dtype=np.int64)
    for seq in dataset.sequences:
        want[seq.label, int(np.argmax(ref_logits(ref, model, seq.frames)[-1]))] += 1
    got = parse_confusion(text, k)
    checker.check(what, got is not None and np.array_equal(got, want),
                  f"confusion {None if got is None else got.tolist()} vs {want.tolist()}")


def param_count(model) -> int:
    total = 0
    for p in list(model.layers) + [model.output]:
        for value in vars(p).values():
            arrays = value.values() if isinstance(value, dict) else [value]
            total += sum(int(np.size(a)) for a in arrays)
    return total


def check_gradcheck(checker, what, model, report) -> None:
    n = param_count(model)
    checker.check(what, len(report.entries) == n and report.passed
                  and report.max_rel_error < GRADCHECK_TOL,
                  f"{len(report.entries)}/{n} parameters, "
                  f"max rel error {report.max_rel_error:.3e} at {report.worst}")


def check_loss_drop(checker, what, losses) -> None:
    checker.check(what, len(losses) >= 2 and losses[-1] < losses[0],
                  f"epoch losses {losses}")


def expected_alphas(member_preds, labels, k: int) -> list[float]:
    """SAMME member weights recomputed from each member's own training-set
    decisions: alpha = ln((1-err)/err) + ln(k-1), err weighted by the
    boosting distribution; a member at or below chance gets 0 and resets the
    distribution, a perfect one gets the cap, and an ensemble with no
    positive weight falls back to weight 1 on its first member."""
    n = len(labels)
    w = np.full(n, 1.0 / n)
    alphas = []
    for preds in member_preds:
        wrong = np.asarray(preds) != np.asarray(labels)
        err = float(np.sum(w[wrong]))
        if err >= (k - 1) / k:
            alphas.append(0.0)
            w = np.full(n, 1.0 / n)
            continue
        alpha = ALPHA_CAP if err <= 0.0 else min(
            math.log((1.0 - err) / err) + math.log(k - 1), ALPHA_CAP)
        alphas.append(alpha)
        w = w * np.exp(alpha * wrong)
        w /= np.sum(w)
    if not any(a > 0 for a in alphas):
        alphas[0] = 1.0
    return alphas


def check_ensemble(checker, ref, what, ens, dataset, votes) -> None:
    """Member weights against the SAMME formula, and the ensemble's votes on
    the training set against the weighted member decisions."""
    k = len(dataset.class_names)
    labels = [seq.label for seq in dataset.sequences]
    member_preds = [[int(np.argmax(ref_logits(ref, model, seq.frames)[-1]))
                     for seq in dataset.sequences] for model, _a in ens.members]
    want = expected_alphas(member_preds, labels, k)
    got = [a for _m, a in ens.members]
    checker.check(f"{what} alphas", np.allclose(got, want, rtol=0, atol=FORWARD_TOL),
                  f"alphas {got} vs {want}")
    for i, (pred, scores) in enumerate(votes):
        expect = np.zeros(k)
        for m, alpha in enumerate(got):
            if alpha > 0:
                expect[member_preds[m][i]] += alpha
        checker.check(f"{what} vote {i}",
                      pred == int(np.argmax(expect))
                      and np.allclose(scores, expect, rtol=0, atol=FORWARD_TOL),
                      f"class {pred} scores {list(scores)} vs {list(expect)}")
