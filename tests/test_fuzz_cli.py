"""Fuzzed input files through the CLI.

Each example turns one key of a valid config file, one field of one JSONL
record or one checkpoint field (down to the elements of the ``config.layers``
entries) into an arbitrary JSON value.  Whatever the value, ``cli.main``
answers with a documented exit code (0 success, 1 usage, 2 data, 3
numerical); the only exception it may raise is argparse's
``SystemExit(1)``.  The data are tiny (6 sequences of 4 frames of dim 2,
2 units, 1 epoch) and the example counts bounded, so the module runs in
seconds.
"""
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffrnn.cli import main

# Arbitrary JSON.  Integers stay small so that a fuzzed size, count or epoch
# number keeps the run tiny; floats include nan, +-inf and huge values.
SCALAR = (st.none() | st.booleans() | st.integers(-3, 6) | st.floats()
          | st.text(max_size=8))
JSON = st.recursive(
    SCALAR,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8)

FUZZ = settings(max_examples=40, deadline=None, derandomize=True)

TRAINING = {"state_units": 2, "split": "none", "learning_rate": 0.01,
            "epochs": 1, "mode": "sequence", "truncation": "full", "seed": 0,
            "clip_norm": None, "shuffle": True, "pca_energy": None}
CONFIGS = {
    "synth": {"task": "velocity", "classes": 2, "count": 6, "length": 4,
              "dim": 2, "noise": 0.05, "seed": 0},
    "train": {**TRAINING, "arch": "dos:1"},
    "ensemble": {**TRAINING, "max_order": 1},
    "gradcheck": {"arch": "dos:1", "state_units": 2, "input_dim": 2,
                  "classes": 2, "length": 4, "seed": 0},
}


def run_cli(argv):
    try:
        rc = main(argv)
    except SystemExit as exc:
        assert exc.code == 1
        return
    assert rc in (0, 1, 2, 3)


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """A tiny dataset and a d2rnn:2 and a drnn:1 checkpoint trained on it."""
    root = tmp_path_factory.mktemp("fuzz")
    data = str(root / "data.jsonl")
    assert main(["synth", "--count", "6", "--len", "4", "--dim", "2",
                 "--out", data]) == 0
    with open(data) as fh:
        records = [json.loads(line) for line in fh]
    checkpoints = []
    for arch in ("d2rnn:2", "drnn:1"):
        out = root / arch.replace(":", "")
        assert main(["train", "--data", data, "--arch", arch,
                     "--state-units", "2", "--epochs", "1", "--lr", "0.01",
                     "--out", str(out)]) == 0
        with open(out / "checkpoint_split0.json") as fh:
            checkpoints.append(json.load(fh))
    return data, records, checkpoints


def _write(directory, name, text):
    path = os.path.join(directory, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _numeric(value):
    return isinstance(value, (int, float)) or (
        isinstance(value, list) and all(map(_numeric, value)))


def _fields(doc, path=()):
    """Paths to every entry of ``doc``, through dicts and lists (the numeric
    arrays are leaves)."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)) and not _numeric(value):
            yield from _fields(value, path + (key,))


@pytest.mark.parametrize("command", sorted(CONFIGS))
@FUZZ
@given(data=st.data(), value=JSON)
def test_config_key(valid, command, data, value):
    cfg = dict(CONFIGS[command])
    cfg[data.draw(st.sampled_from(sorted(cfg)))] = value
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command, "--config", _write(tmp, "cfg.json", json.dumps(cfg))]
        if command in ("train", "ensemble"):
            argv += ["--data", valid[0]]
        if command != "gradcheck":
            argv += ["--out", os.path.join(tmp, "out")]
        run_cli(argv)


@FUZZ
@given(data=st.data(), value=JSON)
def test_jsonl_field(valid, data, value):
    records = [dict(r) for r in valid[1]]
    record = records[data.draw(st.integers(0, len(records) - 1))]
    record[data.draw(st.sampled_from(sorted(record)))] = value
    text = "".join(json.dumps(r) + "\n" for r in records)
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(tmp, "data.jsonl", text)
        run_cli(["train", "--data", path, "--arch", "dos:1", "--state-units", "2",
                 "--epochs", "1", "--out", os.path.join(tmp, "out")])


def _fuzz_checkpoint(valid, data, value, fields, doc=None):
    """Set the entry at a path drawn from ``fields(doc)`` of ``doc`` (a
    drawn checkpoint if None) to ``value``, then evaluate it and export its
    last layer's derivative energies."""
    doc = json.loads(json.dumps(doc or data.draw(st.sampled_from(valid[2]))))
    layer = str(len(doc["layers"]) - 1)
    path = data.draw(st.sampled_from(list(fields(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = _write(tmp, "ckpt.json", json.dumps(doc))
        run_cli(["eval", "--checkpoint", ckpt, "--data", valid[0]])
        run_cli(["dos-energy", "--checkpoint", ckpt, "--data", valid[0],
                 "--layer", layer])


@FUZZ
@given(data=st.data(), value=JSON)
def test_checkpoint_field(valid, data, value):
    _fuzz_checkpoint(valid, data, value, _fields)


@pytest.mark.parametrize("checkpoint", [0, 1], ids=["d2rnn2", "drnn1"])
@FUZZ
@given(data=st.data(), value=SCALAR | JSON)
def test_checkpoint_layer_spec(valid, checkpoint, data, value):
    # a [kind, order, units] entry of config.layers, or one of its elements
    _fuzz_checkpoint(valid, data, value,
                     lambda doc: _fields(doc["config"]["layers"], ("config", "layers")),
                     valid[2][checkpoint])
