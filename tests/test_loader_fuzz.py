"""Malformed input files of the five kinds the CLI reads (config, dataset,
model, belief, grid), driven through cli.main. A file is refused with exit 3
(bad file) or, where the other input is missing, 4; a mutation that leaves
the file valid runs the command to exit 0. No case may end in 5 (an error
inside the program) or 1. Last, every subcommand runs on fuzzed arguments
and configs in a child process whose memory is capped, so that a count
without a stated limit fails the test instead of exhausting the machine."""

import dataclasses
import json
import math
import os
import resource
import signal
import sys
import traceback
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


def _run(tmp_path, argv, refused=False):
    """Run argv; a file the loaders must refuse exits 3."""
    rc = main(argv + ["--seed", "0", "--out", str(tmp_path / "out")])
    assert rc == 3 if refused else rc in (0, 3, 4), f"exit {rc}"


def _holds_text_or_boolean(value):
    """Whether a JSON value holds a string or a boolean at any depth: never
    a number, so a loader that reads the value as numbers refuses it."""
    if isinstance(value, (str, bool)):
        return True
    if isinstance(value, dict):
        value = list(value.values())
    return isinstance(value, list) and any(map(_holds_text_or_boolean, value))


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


# the model keys read as numbers
NUMERIC_MODEL_KEYS = ("version", "m", "d", "mean", "modes", "eigenvalues", "energy", "W1", "W2",
                      "r_squared", "training_bounds")


@fuzz(60)
@given(edits=st.lists(_model_edits(), max_size=2), numbers=st.lists(_number_edits(), max_size=2))
# landmarks about 1e305 m out, whose fill overflowed
@example(edits=[], numbers=[("W2", 0, 1e308)])
# a boolean among the numbers read as 1.0
@example(edits=[], numbers=[("mean", 0, True)])
def test_fuzzed_model_never_exits_5(files, tmp_path, edits, numbers):
    """The map runs on every model that loads, and a string or boolean
    among the model's numbers is refused."""
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
    refused = any(_holds_text_or_boolean(model.get(k)) for k in NUMERIC_MODEL_KEYS)
    _run(tmp_path, ["map", "--model", str(bad), "--belief", str(files["belief"])], refused)


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
# a string and a boolean read as numbers
@example(raw={"mean": [0.12, 0.0, "0"], "sigma_xy": True, "sigma_psi": 0.1})
def test_fuzzed_belief_never_exits_5(files, tmp_path, raw):
    """The map runs on every belief that loads, and a string or boolean
    among the numbers the loader reads is refused."""
    belief = tmp_path / "belief.json"
    _write_json(belief, raw)
    refused = isinstance(raw, dict) and any(
        _holds_text_or_boolean(raw.get(k))
        for k in (("mean", "cov") if "cov" in raw else ("mean", "sigma_xy", "sigma_psi")))
    _run(tmp_path, ["map", "--model", str(files["model"]), "--belief", str(belief)], refused)


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


# ---------------------------------------------------------------------------
# every subcommand, under a memory cap
# ---------------------------------------------------------------------------

# address space, in bytes, that the child may map beyond what it holds at the fork
MEMORY_HEADROOM = 2**30
CHILD_SECONDS = 60  # a child still running after this is killed: a hang fails


def _exit_code_under_cap(*argvs):
    """main on each argv in turn, up to the first nonzero exit, in a forked
    child whose address space may grow by at most MEMORY_HEADROOM, so that
    an allocation beyond it raises MemoryError (exit 5) in the child alone.
    Returns the child's exit code: the last main's, argparse's SystemExit
    code, 1 for an exception that escapes main, and minus the signal number
    when a signal ends it."""
    pid = os.fork()
    if pid == 0:  # the child never returns into pytest
        code = 1
        try:
            with open("/proc/self/statm") as f:
                mapped = int(f.read().split()[0]) * resource.getpagesize()
            resource.setrlimit(resource.RLIMIT_AS,
                               (mapped + MEMORY_HEADROOM, resource.getrlimit(
                                   resource.RLIMIT_AS)[1]))
            signal.alarm(CHILD_SECONDS)
            for argv in argvs:
                code = main(argv)
                if code:
                    break
        except SystemExit as e:
            code = e.code
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


# argument values: numbers of every size and kind as text, and some that are not numbers
ARG_TEXTS = st.one_of(*(s.map(str) for s in (st.integers(-5, 2**70), st.floats(),
                                             st.floats(0, 1), EXTREME_NUMBERS)),
                      st.sampled_from(["", "abc", "1_0", " 2", "0x10", "--seed"]))


def _input(kind):
    """A file argument: the good file of its kind, or a path no file lives at."""
    return st.sampled_from([f"@{kind}", "@missing"])


def _command(head, required=(), optional=()):
    """argv of a subcommand: head, the (option, value strategy) pairs of
    required, and each pair of optional or not."""
    pairs = st.tuples(*(st.tuples(st.just(k), v) for k, v in required))
    maybe = st.tuples(*(st.none() | st.tuples(st.just(k), v) for k, v in optional))
    return st.tuples(head, pairs, maybe).map(
        lambda t: list(t[0]) + [a for pair in t[1] + t[2] if pair for a in pair])


SUBCOMMANDS = {
    "gen-data": _command(st.just(["gen-data"])),
    # @fresh: a dataset that gen-data writes under the same config and seed
    "train": _command(st.just(["train"]), [("--data", st.sampled_from(
        ["@fresh", "@data", "@missing"]))]),
    "map": _command(st.just(["map"]), [("--model", _input("model")),
                                       ("--belief", _input("belief"))],
                    [("--samples", ARG_TEXTS), ("--robot-sigma", ARG_TEXTS)]),
    "merge": _command(st.lists(_input("grid"), min_size=1, max_size=3).map(
        lambda grids: ["merge"] + grids)),
    "cost": _command(st.tuples(st.just("cost"), _input("grid")),
                     [("--robot-x", ARG_TEXTS), ("--robot-y", ARG_TEXTS)],
                     [("--retry-penalty", ARG_TEXTS), ("--nav-speed", ARG_TEXTS)]),
    "plan": _command(st.just(["plan"]), [("--model", _input("model"))],
                     [("--separation", ARG_TEXTS), ("--threshold", ARG_TEXTS)]),
    # eval robustness on a model that loads runs its whole sweep (about 11 s),
    # so it only gets the missing model
    "eval": _command(st.sampled_from([["eval", "accuracy"], ["eval", "transform"]]),
                     [("--model", _input("model"))])
            | _command(st.just(["eval", "robustness"]), [("--model", st.just("@missing"))]),
    "export-pgm": _command(st.tuples(st.just("export-pgm"), _input("grid"))),
}


@pytest.fixture(scope="module")
def inputs(files, dataset_lines, tmp_path_factory):
    """One good file of each kind the subcommands read, and a missing path."""
    root = tmp_path_factory.mktemp("cap")
    data = root / "data.csv"
    data.write_text("\n".join(dataset_lines) + "\n")
    grid = root / "grid.txt"
    save_grid_text(ARPlaceGrid(GridSpec(0.0, 0.0, 0.1, 3, 4), np.full((3, 4), 0.5)), grid)
    return {"@model": files["model"], "@belief": files["belief"], "@missing": files["missing"],
            "@data": data, "@grid": grid}


def _run_capped(inputs, tmp_path, argv, common):
    """The exit code, under the memory cap, of argv with its @ names
    resolved and the common options (seed, config) and --out appended; a
    @fresh dataset is first written by gen-data with the same options."""
    paths = dict(inputs, **{"@fresh": tmp_path / "fresh.csv"})
    argvs = [[str(paths.get(a, a)) for a in argv] + common + ["--out", str(tmp_path / "out")]]
    if "@fresh" in argv:
        argvs.insert(0, ["gen-data"] + common + ["--out", str(paths["@fresh"])])
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "multiple positive regions")
        return _exit_code_under_cap(*argvs)


@pytest.mark.parametrize("command", list(SUBCOMMANDS))
@fuzz(10)
@given(data=st.data())
def test_every_subcommand_exits_0_2_3_or_4_under_a_memory_cap(inputs, tmp_path, command, data):
    """Each subcommand, on fuzzed option values, good or missing input files
    and, when given, a fuzzed config, ends in 0, 2, 3 or 4 within its time
    and memory."""
    argv = data.draw(SUBCOMMANDS[command], "argv")
    raw = data.draw(st.none() | CONFIGS, "config")
    common = ["--seed", data.draw(ARG_TEXTS | st.integers(0, 50).map(str), "seed")]
    if raw is not None:
        _write_json(tmp_path / "cfg.json", raw)
        common += ["--config", str(tmp_path / "cfg.json")]
    code = _run_capped(inputs, tmp_path, argv, common)
    assert code in (0, 2, 3, 4), f"exit {code}"


@pytest.mark.parametrize("count, argv", [("n_landmarks", ["train", "--data", "@fresh"]),
                                         ("n_samples", ["map", "--model", "@model",
                                                        "--belief", "@belief"])])
def test_counts_beyond_their_limits_exit_3_under_a_memory_cap(inputs, tmp_path, count, argv):
    """A config count of 10**8 is refused when the config is read. Without
    its stated limit the child would run out of its capped memory (gigabytes
    for either count) and exit 5."""
    _write_json(tmp_path / "cfg.json", {count: 10**8})
    common = ["--seed", "0", "--config", str(tmp_path / "cfg.json")]
    assert _run_capped(inputs, tmp_path, argv, common) == 3
