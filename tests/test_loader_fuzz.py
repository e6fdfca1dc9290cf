"""Malformed input files of the five kinds the CLI reads (config, dataset,
model, belief, grid), driven through cli.main. A file is refused with exit 3
(bad file) or, where the other input is missing, 4; a mutation that leaves
the file valid runs the command to exit 0. No case may end in 5 (an error
inside the program) or 1."""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from arplace.cli import PipelineConfig, main
from arplace.grids import ARPlaceGrid, GridSpec, save_grid_text
from arplace.simworld import WorldConfig


def fuzz(max_examples):
    """Settings of the tests below: every case writes its files into one
    tmp_path, which is fine to reuse."""
    return settings(max_examples=max_examples, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


EXTREME_NUMBERS = st.sampled_from([0, -1, 1e-300, 5e-324, 1e308, -1e308, 2**63, 10**400,
                                   math.nan, math.inf, -math.inf])
JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats() | EXTREME_NUMBERS
                | st.text(max_size=6))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=4),
    max_leaves=8)


def number_lists(n):
    """Lists of n numbers, as a loader wants them, with odd members."""
    return st.lists(st.floats() | EXTREME_NUMBERS | st.just("1"), min_size=n, max_size=n)


def _run(tmp_path, argv):
    rc = main(argv + ["--seed", "0", "--out", str(tmp_path / "out")])
    assert rc in (0, 3, 4), f"exit {rc}"


def _write_json(path, value):
    path.write_text(json.dumps(value))  # NaN and Infinity as Python's json writes them


@pytest.fixture(scope="module")
def files(tmp_path_factory, gsm):
    """A good model and belief, and the paths no file lives at."""
    root = tmp_path_factory.mktemp("fuzz")
    model = root / "model.json"
    gsm.save(model, {"tool_version": "test"})
    belief = root / "belief.json"
    _write_json(belief, {"mean": [0.14, 0.0, 0.0], "sigma_xy": 0.02, "sigma_psi": 0.1})
    return {"model": model, "belief": belief, "missing": root / "missing.json"}


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

CONFIG_KEYS = [f.name for f in dataclasses.fields(PipelineConfig)] + ["bogus"]
WORLD_KEYS = [f.name for f in dataclasses.fields(WorldConfig)] + ["bogus"]
CONFIGS = (JSON_VALUES
           | st.dictionaries(st.sampled_from(CONFIG_KEYS), JSON_VALUES, max_size=3)
           | st.dictionaries(st.sampled_from(WORLD_KEYS), JSON_VALUES, max_size=3).map(
               lambda world: {"world": world}))


@fuzz(60)
@given(raw=CONFIGS)
def test_fuzzed_config_never_exits_5(files, tmp_path, raw):
    """The model is missing, so a config that loads exits 4."""
    cfg = tmp_path / "cfg.json"
    _write_json(cfg, raw)
    _run(tmp_path, ["map", "--config", str(cfg), "--model", str(files["missing"]),
                    "--belief", str(files["belief"])])


@fuzz(15)
@given(blob=st.binary(max_size=40))
def test_fuzzed_config_bytes_never_exit_5(files, tmp_path, blob):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(blob)
    _run(tmp_path, ["map", "--config", str(cfg), "--model", str(files["missing"]),
                    "--belief", str(files["belief"])])


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------

def _model_edits():
    """(path of keys into the model object, new value or None to delete)."""
    top = st.sampled_from(["version", "m", "d", "grasp_type", "mean", "modes", "eigenvalues",
                           "energy", "W1", "W2", "r_squared", "training_bounds", "extras"])
    bounds = st.sampled_from(["dx_obj", "dpsi_obj"]).map(lambda k: ("training_bounds", k))
    key = top.map(lambda k: (k,)) | bounds
    return st.tuples(key, st.none() | JSON_VALUES | EXTREME_NUMBERS | number_lists(2)
                     | number_lists(3))


def _number_edits():
    """(key, flat index, number): one entry of a numeric array replaced."""
    return st.tuples(st.sampled_from(["mean", "modes", "eigenvalues", "W1", "W2", "r_squared"]),
                     st.integers(0, 79), st.floats() | EXTREME_NUMBERS)


def _set_number(model, key, index, value):
    a = np.array(model[key], dtype=object)
    a.flat[index % a.size] = value
    model[key] = a.tolist()


@fuzz(60)
@given(edits=st.lists(_model_edits(), max_size=2), numbers=st.lists(_number_edits(), max_size=2))
# landmarks about 1e305 m out, whose fill overflowed
@example(edits=[], numbers=[("W2", 0, 1e308)])
def test_fuzzed_model_never_exits_5(files, tmp_path, edits, numbers):
    """The map runs on every model that loads."""
    model = json.loads(files["model"].read_text())
    for key, index, value in numbers:
        _set_number(model, key, index, value)
    for path, value in edits:
        parent = model
        for k in path[:-1]:  # an edit before may have replaced the object
            if not isinstance(parent.get(k), dict):
                parent[k] = {}
            parent = parent[k]
        if value is None:
            parent.pop(path[-1], None)
        else:
            parent[path[-1]] = value
    bad = tmp_path / "model.json"
    _write_json(bad, model)
    _run(tmp_path, ["map", "--model", str(bad), "--belief", str(files["belief"])])


# ---------------------------------------------------------------------------
# belief
# ---------------------------------------------------------------------------

BELIEF_VALUES = JSON_VALUES | EXTREME_NUMBERS | number_lists(3) | st.lists(number_lists(3),
                                                                           min_size=3,
                                                                           max_size=3)
BELIEFS = (JSON_VALUES
           | st.fixed_dictionaries({"mean": number_lists(3)},
                                   optional={"sigma_xy": BELIEF_VALUES,
                                             "sigma_psi": BELIEF_VALUES,
                                             "cov": BELIEF_VALUES}))


@fuzz(60)
@given(raw=BELIEFS)
# a belief 4.5e306 m along the table edge: its rows overflowed the fill's estimate
@example(raw={"mean": [0.0, 4.49423283715579e+306, 0.0], "cov": [0.0, 0.0, 0.0]})
def test_fuzzed_belief_never_exits_5(files, tmp_path, raw):
    """The map runs on every belief that loads."""
    belief = tmp_path / "belief.json"
    _write_json(belief, raw)
    _run(tmp_path, ["map", "--model", str(files["model"]), "--belief", str(belief)])


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------

GRID_TOKENS = (st.sampled_from(["0", "1", "0.5", "-1", "2", "nan", "inf", "1e308", "5e-324",
                                "0x10", "", "abc", "origin_x", "nx_ny", "#"])
               | st.integers(-3, 1001).map(str))


@fuzz(60)
@given(lines=st.lists(st.tuples(st.integers(0, 9), st.lists(GRID_TOKENS, max_size=5)),
                      max_size=4))
@example(lines=[(1, ["1e308"])])  # a cost map whose distances overflow
@example(lines=[(3, ["1e308"])])  # cell centers beyond the float range
def test_fuzzed_grid_never_exits_5(tmp_path, lines):
    """Lines of a good 3 x 4 grid file (a comment, four header lines and
    three rows) replaced by random tokens."""
    good = tmp_path / "good.txt"
    save_grid_text(ARPlaceGrid(GridSpec(0.0, 0.0, 0.1, 3, 4), np.full((3, 4), 0.5)),
                   good, header_lines=["test grid"])
    text = good.read_text().splitlines()
    for no, tokens in lines:
        if no < len(text):
            key = text[no].split(" ")[0] if 1 <= no <= 4 else ""
            text[no] = " ".join(([key] if key and tokens[:1] != ["#"] else []) + tokens)
        else:
            text.append(" ".join(tokens))
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(text) + "\n")
    _run(tmp_path, ["export-pgm", str(bad)])
    _run(tmp_path, ["cost", str(bad), "--robot-x", "1.5", "--robot-y", "0"])


# ---------------------------------------------------------------------------
# dataset
# ---------------------------------------------------------------------------

DATASET_TOKENS = st.sampled_from(["", "nan", "inf", "-0.5", "1e308", "5e-324", "abc",
                                  "success", "failure", "none", "unreachable_theory",
                                  "0.17", "-0.6", "1000", '"', "a,b"])


@pytest.fixture(scope="module")
def dataset_lines(tmp_path_factory):
    data = tmp_path_factory.mktemp("fuzz-data") / "data.csv"
    assert main(["gen-data", "--seed", "0", "--out", str(data)]) == 0
    return data.read_text().splitlines()


@fuzz(25)
@given(rows=st.lists(st.integers(0, 6911), max_size=40),
       edits=st.lists(st.tuples(st.integers(0, 40), st.integers(0, 6), DATASET_TOKENS),
                      max_size=3))
def test_fuzzed_dataset_never_exits_5(dataset_lines, tmp_path, rows, edits):
    """Some rows of a generated dataset, under its comment and header, with
    a few fields replaced; train runs on every dataset that loads."""
    comment, header, body = dataset_lines[0], dataset_lines[1], dataset_lines[2:]
    table = [header.split(",")] + [body[r].split(",") for r in rows]
    for line, field, token in edits:
        fields = table[line % len(table)]
        if field < len(fields):
            fields[field] = token
        else:
            fields.append(token)
    bad = tmp_path / "data.csv"
    bad.write_text("\n".join([comment] + [",".join(f) for f in table]) + "\n")
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "multiple positive regions")
        _run(tmp_path, ["train", "--data", str(bad)])
