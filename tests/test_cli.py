import hashlib
import inspect
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from arplace import cli, placemap, planner, simworld
from arplace.classifier import train_per_pose, train_svm
from arplace.cli import BadConfigError, PipelineConfig, build_parser, main
from arplace.evaluation import (SweepPoint, SweepSpec, TransformPoint, accuracy_curve,
                                candidate_grid_spec, merge_experiment, plan_grid_spec,
                                transformation_benefit)
from arplace.grids import (MAX_GRID_CELLS, ARPlaceGrid, GridSizeError, GridSpec,
                           load_grid_text, save_grid_text)
from arplace.placemap import MAX_MAP_SAMPLES
from arplace.shapemodel import MAX_LANDMARKS, GSMModel, optimize_landmarks, train_gsm
from arplace.simworld import default_world


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Dataset and trained model produced through the CLI itself, shared by
    the command tests below."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data.csv"
    model = root / "model.json"
    assert main(["gen-data", "--seed", "0", "--out", str(data)]) == 0
    assert main(["train", "--data", str(data), "--seed", "0",
                 "--out", str(model)]) == 0
    belief = root / "belief.json"
    belief.write_text(json.dumps(
        {"mean": [0.14, 0.0, 0.0], "sigma_xy": 0.02, "sigma_psi": 0.1}))
    return {"root": root, "data": data, "model": model, "belief": belief}


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 2


def test_missing_model_exit_code(artifacts, tmp_path, capsys):
    rc = main(["map", "--model", str(tmp_path / "nope.json"),
               "--belief", str(artifacts["belief"]),
               "--seed", "0", "--out", str(tmp_path / "m.txt")])
    assert rc == 4
    assert "not found" in capsys.readouterr().err


# an input path that names a directory or runs through a file: the argv, the
# kind the message names and the reason; {dir} and {through} are filled in,
# the other inputs are good files
DIRECTORY_INPUTS = {
    "config": (["gen-data", "--config", "{dir}"], "config"),
    "data": (["train", "--data", "{dir}"], "dataset"),
    "model": (["map", "--model", "{dir}", "--belief", "{belief}"], "model"),
    "belief": (["map", "--model", "{model}", "--belief", "{dir}"], "belief"),
    "merge_grid": (["merge", "{grid}", "{dir}"], "grid"),
    "cost_grid": (["cost", "{dir}", "--robot-x", "1.5", "--robot-y", "0"], "grid"),
    "export_grid": (["export-pgm", "{dir}"], "grid"),
    "plan_model": (["plan", "--model", "{dir}"], "model"),
    "eval_model": (["eval", "transform", "--model", "{dir}"], "model"),
    "model_through_a_file": (["map", "--model", "{through}", "--belief", "{belief}"],
                             "model"),
}


@pytest.mark.parametrize("name", sorted(DIRECTORY_INPUTS))
def test_directory_input_exits_4(artifacts, tmp_path, capsys, name):
    """An input path that cannot name a file is a missing input (exit 4),
    and the message names the kind, the path and the reason."""
    grid = tmp_path / "grid.txt"
    save_grid_text(ARPlaceGrid(GridSpec(0.0, 0.0, 0.1, 3, 4), np.full((3, 4), 0.5)), grid)
    (tmp_path / "inputs").mkdir()
    paths = {"dir": tmp_path / "inputs", "through": grid / "model.json", "grid": grid,
             "model": artifacts["model"], "belief": artifacts["belief"]}
    argv, kind = DIRECTORY_INPUTS[name]
    out = tmp_path / "out"
    assert main([a.format(**paths) for a in argv] + ["--seed", "0", "--out", str(out)]) == 4
    through = name == "model_through_a_file"
    assert (f"{kind} file cannot be read: {paths['through' if through else 'dir']}: "
            + ("Not a directory" if through else "Is a directory")) in capsys.readouterr().err
    assert not out.exists()


def test_bad_config_exit_code(artifacts, tmp_path, capsys):
    bad = tmp_path / "cfg.json"
    bad.write_text("{not json")
    rc = main(["gen-data", "--config", str(bad), "--seed", "0",
               "--out", str(tmp_path / "d.csv")])
    assert rc == 3
    bad.write_text(json.dumps({"no_such_key": 1}))
    rc = main(["gen-data", "--config", str(bad), "--seed", "0",
               "--out", str(tmp_path / "d.csv")])
    assert rc == 3


# (config, subcommand that reads it); each must exit 3 before any work runs
BAD_CONFIGS = {
    "world_unknown_key": ({"world": {"bogus": 1}}, "gen-data"),
    "world_value_not_a_number": ({"world": {"robot_radius": "x"}}, "gen-data"),
    "world_not_an_object": ({"world": "notadict"}, "gen-data"),
    "world_rejected_by_worldconfig": ({"world": {"reach_min": 2.0}}, "gen-data"),
    "world_bool_for_float": ({"world": {"nav_noise_sigma": True}}, "gen-data"),
    "filter_not_a_bool": ({"use_capability_filter": "no"}, "gen-data"),
    "samples_not_a_number": ({"n_samples": "abc"}, "map"),
    "samples_zero": ({"n_samples": 0}, "map"),
    "samples_float_for_int": ({"n_samples": 2.5}, "map"),
    "samples_bool_for_int": ({"n_samples": True}, "map"),
    "cell_size_negative": ({"cell_size": -1}, "map"),
    "threshold_above_one": ({"merge_threshold": 1.5}, "map"),
    "too_few_landmarks": ({"n_landmarks": 3}, "map"),
    "not_an_object": ([1, 2], "map"),
    # counts past int64 are no array size
    "samples_beyond_int64": ({"n_samples": 10**30}, "map"),
    "landmarks_beyond_int64": ({"n_landmarks": 2**63}, "map"),
    # every float world constant is finite and non-negative
    "world_negative_nav_noise": ({"world": {"nav_noise_sigma": -0.01}}, "gen-data"),
    "world_negative_corridor_width": ({"world": {"corridor_width": -1.0}}, "gen-data"),
    "world_nan_grasp_margin": ({"world": {"grasp_margin": math.nan}}, "gen-data"),
    "world_infinite_handle_length": ({"world": {"handle_length": math.inf}}, "gen-data"),
    "cell_size_infinite": ({"cell_size": math.inf}, "map"),
    "kernel_sigma_infinite": ({"kernel_sigma": math.inf}, "gen-data"),
    # an integer that no float holds
    "cell_size_beyond_the_float_range": ({"cell_size": 10**400}, "map"),
    "world_beyond_the_float_range": ({"world": {"robot_radius": -10**400}}, "gen-data"),
}


@pytest.mark.parametrize("name", sorted(BAD_CONFIGS))
def test_bad_config_value_exit_code(artifacts, tmp_path, capsys, name):
    raw, command = BAD_CONFIGS[name]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    extra = {"gen-data": [],
             "map": ["--model", str(artifacts["model"]),
                     "--belief", str(artifacts["belief"])]}[command]
    rc = main([command, "--config", str(cfg), "--seed", "0",
               "--out", str(tmp_path / "out")] + extra)
    assert rc == 3
    assert "config" in capsys.readouterr().err


# cell sizes whose grids are too large to allocate: 1e-5 m asks for 1.4e10
# cells, 112 GB per float map, and 5e-324 m for more cells than a float counts
OVERSIZED_GRIDS = {
    "cell_size_1e-5": {"cell_size": 1e-5},
    "extraction_cell_1e-5": {"extraction_cell": 1e-5},
    "cell_size_denormal": {"cell_size": 5e-324},
    "extraction_cell_just_too_fine": {"extraction_cell": 0.001},
}


@pytest.mark.parametrize("name", sorted(OVERSIZED_GRIDS))
def test_oversized_grids_are_a_config_error(tmp_path, capsys, name):
    """Only the config is read: from_file builds no grid, and gen-data,
    which runs no map, would succeed without the limit."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(OVERSIZED_GRIDS[name]))
    with pytest.raises(BadConfigError, match=f"limit of {MAX_GRID_CELLS}"):
        PipelineConfig.from_file(cfg)
    assert main(["gen-data", "--config", str(cfg), "--seed", "0",
                 "--out", str(tmp_path / "d.csv")]) == 3
    assert "cells" in capsys.readouterr().err


def test_grids_up_to_the_cell_limit_are_accepted(tmp_path):
    kept = candidate_grid_spec(0.0012)
    assert kept.nx * kept.ny <= MAX_GRID_CELLS
    with pytest.raises(GridSizeError):
        candidate_grid_spec(0.001)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cell_size": 0.0012, "extraction_cell": 0.0012}))
    assert PipelineConfig.from_file(cfg).cell_size == 0.0012


def test_good_config_values_are_accepted(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_samples": 50, "cell_size": 1, "merge_threshold": 0.9,
                               "use_capability_filter": False,
                               "world": {"nav_noise_sigma": 0, "seed": 4}}))
    assert main(["gen-data", "--config", str(cfg), "--seed", "0",
                 "--out", str(tmp_path / "d.csv")]) == 0


def _drop_robot_dy(line):
    fields = line.split(",")
    del fields[3]
    return ",".join(fields)


# (edit of a good dataset's header and first row, text the error must name)
BAD_DATASETS = {
    "missing_column": (lambda head, row: (_drop_robot_dy(head), _drop_robot_dy(row)),
                       "robot_dy"),
    "not_a_number": (lambda head, row: (head, "abc," + row.split(",", 1)[1]), "abc"),
    "unknown_label": (lambda head, row: (head, row.replace("failure", "banana")), "banana"),
    # line 1 is the gen-data comment, line 2 the header, line 3 the first row
    "short_row": (lambda head, row: (head, row.rsplit(",", 1)[0]), "line 3:"),
    # past the csv module's field size limit
    "huge_field": (lambda head, row: (head, "1" * 200_000 + "," + row.split(",", 1)[1]),
                   "line 3:"),
}


@pytest.mark.parametrize("name", sorted(BAD_DATASETS))
def test_bad_dataset_exit_code(artifacts, tmp_path, capsys, name):
    lines = artifacts["data"].read_text().splitlines()
    head = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    edit, where = BAD_DATASETS[name]
    lines[head], lines[head + 1] = edit(lines[head], lines[head + 1])
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    rc = main(["train", "--data", str(bad), "--seed", "0",
               "--out", str(tmp_path / "model.json")])
    assert rc == 3
    assert where in capsys.readouterr().err


BAD_BELIEFS = {
    "malformed_json": '{"mean": [0.14, 0.0, 0.0], "sigma_xy": 0.02',
    "missing_mean": '{"sigma_xy": 0.02, "sigma_psi": 0.1}',
    "missing_sigma_xy": '{"mean": [0.14, 0.0, 0.0], "sigma_psi": 0.1}',
    "missing_sigma_psi": '{"mean": [0.14, 0.0, 0.0], "sigma_xy": 0.02}',
    "cov_wrong_shape": '{"mean": [0.14, 0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}',
    "cov_not_psd": '{"mean": [0.14, 0.0, 0.0], '
                   '"cov": [[-0.01, 0, 0], [0, 0.01, 0], [0, 0, 0.01]]}',
    "mean_nan": '{"mean": [NaN, 0.0, 0.1], "sigma_xy": 0.02, "sigma_psi": 0.1}',
    "mean_infinite": '{"mean": [Infinity, 0.0, 0.1], "sigma_xy": 0.02, "sigma_psi": 0.1}',
    "sigma_negative": '{"mean": [0.14, 0.0, 0.0], "sigma_xy": -0.02, "sigma_psi": 0.1}',
    "sigma_overflow": '{"mean": [0.14, 0.0, 0.0], "sigma_xy": 1e200, "sigma_psi": 0.1}',
    # JSON integers past the float range
    "sigma_huge_integer": '{"mean": [0.14, 0.0, 0.0], "sigma_xy": 1%s, "sigma_psi": 0.1}'
                          % ("0" * 400),
    "cov_huge_integer": '{"mean": [0.14, 0.0, 0.0], "cov": [1%s, 0.01, 0.01]}' % ("0" * 400),
    # JSON strings and booleans are not numbers
    "text_and_boolean": '{"mean": [0.12, 0.0, "0"], "sigma_xy": true, "sigma_psi": 0.1}',
    "boolean_in_cov": '{"mean": [0.14, 0.0, 0.0], "cov": [0.01, true, 0.01]}',
}


@pytest.mark.parametrize("name", sorted(BAD_BELIEFS))
def test_bad_belief_exit_code(artifacts, tmp_path, capsys, name):
    belief = tmp_path / "belief.json"
    belief.write_text(BAD_BELIEFS[name])
    rc = main(["map", "--model", str(artifacts["model"]), "--belief", str(belief),
               "--seed", "0", "--out", str(tmp_path / "m.txt")])
    assert rc == 3
    assert "belief" in capsys.readouterr().err


# (edit of the saved file's lines, the line the error must name); line 1 is
# a comment, lines 2-6 the header (line 6 the frame) and lines 7-9 the three
# rows of four values
BAD_GRIDS = {
    "truncated_header": (lambda ls: ls[:3], "line 3:"),
    "truncated_rows": (lambda ls: ls[:7], "line 7:"),
    "short_row": (lambda ls: ls[:6] + ["0.5 0.5 0.5\n"] + ls[7:], "line 7:"),
    "extra_row": (lambda ls: ls + ["0.5 0.5 0.5 0.5\n"], "line 10:"),
    "wrong_header_key": (lambda ls: ls[:2] + ["origin_z 0\n"] + ls[3:], "line 3:"),
    "unknown_frame": (lambda ls: ls[:5] + ["frame robot\n"] + ls[6:], "line 6:"),
    "nan_cell": (lambda ls: ls[:6] + ["0.5 nan 0.5 0.5\n"] + ls[7:], "line 7:"),
    "infinite_origin": (lambda ls: ls[:1] + ["origin_x inf\n"] + ls[2:], "line 2:"),
    "oversized_header": (lambda ls: ls[:4] + ["nx_ny 1001 1000\n"] + ls[5:],
                         f"limit of {MAX_GRID_CELLS}"),
}


@pytest.mark.parametrize("name", sorted(BAD_GRIDS))
def test_bad_grid_exit_code(tmp_path, capsys, name):
    good = tmp_path / "good.txt"
    save_grid_text(ARPlaceGrid(GridSpec(0.0, 0.0, 0.1, 3, 4), np.full((3, 4), 0.5)),
                   good, header_lines=["test grid"])
    edit, where = BAD_GRIDS[name]
    bad = tmp_path / "bad.txt"
    bad.write_text("".join(edit(good.read_text().splitlines(keepends=True))))
    for argv in (["merge", str(good), str(bad)], ["export-pgm", str(bad)],
                 ["cost", str(bad), "--robot-x", "1.5", "--robot-y", "0"]):
        rc = main(argv + ["--seed", "0", "--out", str(tmp_path / "out")])
        assert rc == 3
        assert where in capsys.readouterr().err


def test_merging_maps_of_another_geometry_exit_code(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    save_grid_text(ARPlaceGrid(GridSpec(0.0, 0.0, 0.1, 3, 4), np.full((3, 4), 0.5)), a)
    save_grid_text(ARPlaceGrid(GridSpec(0.0, 0.0, 0.1, 4, 3), np.full((4, 3), 0.5)), b)
    rc = main(["merge", str(a), str(b), "--seed", "0", "--out", str(tmp_path / "out")])
    assert rc == 3
    assert str(b) in capsys.readouterr().err


def test_merging_a_world_map_with_a_gsm_map_exit_code(tmp_path, capsys):
    """The grid file stores its frame: a world-frame map, the kind the
    planner builds, merges with a world map into a world map, and not with
    a gsm map of the same lattice."""
    spec = GridSpec(0.0, 0.0, 0.1, 3, 4)
    gsm_map, world_map, out = tmp_path / "gsm.txt", tmp_path / "world.txt", tmp_path / "out"
    save_grid_text(ARPlaceGrid(spec, np.full((3, 4), 0.5)), gsm_map)
    save_grid_text(ARPlaceGrid(spec, np.full((3, 4), 0.5), frame="world"), world_map)
    assert main(["merge", str(world_map), str(world_map), "--seed", "0", "--out", str(out)]) == 0
    assert load_grid_text(out).frame == "world"
    rc = main(["merge", str(gsm_map), str(world_map), "--seed", "0", "--out", str(out)])
    assert rc == 3
    assert str(world_map) in capsys.readouterr().err


# (edit of the trained model's JSON object, text the error must name)
BAD_MODELS = {
    "not_json": (lambda m: "{not json", "model"),
    "not_an_object": (lambda m: "[1, 2]", "model"),
    "missing_key": (lambda m: json.dumps({k: v for k, v in m.items() if k != "modes"}),
                    "modes"),
    "other_version": (lambda m: json.dumps({**m, "version": 99}), "version"),
    "short_mean": (lambda m: json.dumps({**m, "mean": m["mean"][:-1]}), "'mean'"),
    "two_landmark_mean": (lambda m: json.dumps({**m, "mean": m["mean"][:4]}), "'mean'"),
    "nan_in_mean": (lambda m: json.dumps({**m, "mean": [math.nan] + m["mean"][1:]}),
                    "'mean'"),
    "text_in_mean": (lambda m: json.dumps({**m, "mean": ["0.1"] + m["mean"][1:]}), "'mean'"),
    "boolean_in_mean": (lambda m: json.dumps({**m, "mean": [True] + m["mean"][1:]}), "'mean'"),
    "boolean_version": (lambda m: json.dumps({**m, "version": True}), "version"),
    "other_m": (lambda m: json.dumps({**m, "m": m["m"] + 1}), "'m'"),
    "other_d": (lambda m: json.dumps({**m, "d": 3}), "'d'"),
    "one_row_modes": (lambda m: json.dumps({**m, "modes": m["modes"][:1]}), "'modes'"),
    "one_eigenvalue": (lambda m: json.dumps({**m, "eigenvalues": m["eigenvalues"][:1]}),
                       "'eigenvalues'"),
    "one_r_squared": (lambda m: json.dumps({**m, "r_squared": m["r_squared"][:1]}),
                      "'r_squared'"),
    "two_by_two_W1": (lambda m: json.dumps({**m, "W1": [r[:2] for r in m["W1"][:2]]}), "'W1'"),
    "ragged_W2": (lambda m: json.dumps({**m, "W2": m["W2"][:2] + [[0.0]]}), "'W2'"),
    "zero_energy": (lambda m: json.dumps({**m, "energy": 0.0}), "'energy'"),
    "energy_above_one": (lambda m: json.dumps({**m, "energy": 1.5}), "'energy'"),
    "bounds_as_list": (lambda m: json.dumps({**m, "training_bounds": [0.0, 1.0]}),
                       "'training_bounds'"),
    "bounds_extra_key": (lambda m: json.dumps(
        {**m, "training_bounds": {**m["training_bounds"], "dy_obj": [0.0, 1.0]}}),
        "'training_bounds'"),
    "bounds_reversed": (lambda m: json.dumps(
        {**m, "training_bounds": {**m["training_bounds"], "dx_obj": [1.0, 0.0]}}),
        "'training_bounds'"),
    "bounds_infinite": (lambda m: json.dumps(
        {**m, "training_bounds": {**m["training_bounds"], "dpsi_obj": [0.0, math.inf]}}),
        "'dpsi_obj'"),
    "extras_not_an_object": (lambda m: json.dumps({**m, "extras": "x"}), "'extras'"),
    "top_grasp": (lambda m: json.dumps({**m, "grasp_type": "top"}), "'grasp_type'"),
}


@pytest.mark.parametrize("name", sorted(BAD_MODELS))
def test_bad_model_exit_code(artifacts, tmp_path, capsys, name):
    edit, where = BAD_MODELS[name]
    model = tmp_path / "model.json"
    model.write_text(edit(json.loads(artifacts["model"].read_text())))
    for argv in (["map", "--belief", str(artifacts["belief"])], ["plan"]):
        rc = main(argv + ["--model", str(model), "--seed", "0",
                          "--out", str(tmp_path / "out")])
        assert rc == 3
        assert where in capsys.readouterr().err


# (argv after the subcommand's --seed/--out, flag the usage error must name)
BAD_ARGUMENTS = {
    "map_negative_samples": (["map", "--samples", "-5"], "--samples"),
    "map_zero_samples": (["map", "--samples", "0"], "--samples"),
    "plan_threshold_above_one": (["plan", "--threshold", "1.5"], "--threshold"),
    "eval_transform_without_model": (["eval", "transform"], "--model"),
    "eval_robustness_without_model": (["eval", "robustness"], "--model"),
    "map_negative_robot_sigma": (["map", "--robot-sigma", "-0.05"], "--robot-sigma"),
    "cost_zero_nav_speed": (["cost", "--nav-speed", "0"], "--nav-speed"),
    "cost_negative_retry_penalty": (["cost", "--retry-penalty", "-5"], "--retry-penalty"),
    "map_infinite_robot_sigma": (["map", "--robot-sigma", "inf"], "--robot-sigma"),
    "cost_nan_robot_x": (["cost", "--robot-x", "nan"], "--robot-x"),
    "cost_infinite_robot_x": (["cost", "--robot-x", "inf"], "--robot-x"),
    "cost_infinite_retry_penalty": (["cost", "--retry-penalty", "inf"], "--retry-penalty"),
    "plan_negative_separation": (["plan", "--separation", "-5"], "--separation"),
    "plan_nan_separation": (["plan", "--separation", "nan"], "--separation"),
    "plan_infinite_separation": (["plan", "--separation", "inf"], "--separation"),
    "map_samples_beyond_int64": (["map", "--samples", "1" + "0" * 400], "--samples"),
    "map_samples_at_int64_limit": (["map", "--samples", str(2**63)], "--samples"),
    # more samples than placemap.MAX_MAP_SAMPLES: 10**15 would ask for 21 PiB of draws
    "map_samples_above_the_map_limit": (["map", "--samples", str(MAX_MAP_SAMPLES + 1)],
                                        "--samples"),
    "map_samples_1e15": (["map", "--samples", str(10**15)], "--samples"),
}


@pytest.mark.parametrize("name", sorted(BAD_ARGUMENTS))
def test_bad_argument_is_a_usage_error(artifacts, tmp_path, capsys, name):
    argv, flag = BAD_ARGUMENTS[name]
    grid = tmp_path / "grid.txt"
    save_grid_text(ARPlaceGrid(GridSpec(0.0, 0.0, 0.1, 3, 4), np.full((3, 4), 0.5)), grid)
    inputs = {"map": ["--model", str(artifacts["model"]), "--belief", str(artifacts["belief"])],
              "plan": ["--model", str(artifacts["model"])],
              "cost": [str(grid), "--robot-x", "1.5", "--robot-y", "0.0"]}.get(argv[0], [])
    with pytest.raises(SystemExit) as e:
        main(argv + inputs + ["--seed", "0", "--out", str(tmp_path / "out")])
    assert e.value.code == 2
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("samples", [MAX_MAP_SAMPLES + 1, 10**11])
def test_config_map_samples_above_the_limit_exit_3(artifacts, tmp_path, capsys, samples):
    """A config n_samples above placemap.MAX_MAP_SAMPLES is refused when the
    config is read, in both commands that draw that many samples per map,
    before any map is drawn."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_samples": samples}))
    with pytest.raises(BadConfigError, match="n_samples"):
        PipelineConfig.from_file(cfg)
    out = tmp_path / "out"
    for argv in (["map", "--belief", str(artifacts["belief"])], ["eval", "robustness"]):
        rc = main(argv + ["--model", str(artifacts["model"]), "--config", str(cfg),
                          "--seed", "0", "--out", str(out)])
        assert rc == 3
        assert f"config n_samples must be in (0, {MAX_MAP_SAMPLES + 1})" in capsys.readouterr().err
        assert not out.exists()


def test_map_sample_limit_itself_is_accepted(tmp_path):
    """The limit is inclusive on the command line and in a config; neither
    check draws a map."""
    args = build_parser().parse_args(["map", "--model", "m.json", "--belief", "b.json",
                                      "--samples", str(MAX_MAP_SAMPLES), "--seed", "0",
                                      "--out", "m.txt"])
    assert args.samples == MAX_MAP_SAMPLES
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_samples": MAX_MAP_SAMPLES}))
    assert PipelineConfig.from_file(cfg).n_samples == MAX_MAP_SAMPLES


@pytest.mark.parametrize("landmarks", [MAX_LANDMARKS + 1, 10**12])
def test_config_landmarks_above_the_limit_exit_3(artifacts, tmp_path, capsys, landmarks):
    """A config n_landmarks above shapemodel.MAX_LANDMARKS is refused when the
    config is read: gen-data writes no dataset under it, and train starts no
    fit, where 10**12 landmarks would ask for terabytes."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_landmarks": landmarks}))
    with pytest.raises(BadConfigError, match="n_landmarks"):
        PipelineConfig.from_file(cfg)
    out = tmp_path / "out"
    for argv in (["gen-data"], ["train", "--data", str(artifacts["data"])]):
        rc = main(argv + ["--config", str(cfg), "--seed", "0", "--out", str(out)])
        assert rc == 3
        assert f"config n_landmarks must be in (3, {MAX_LANDMARKS + 1})" in \
            capsys.readouterr().err
        assert not out.exists()


def test_landmark_limit_itself_is_accepted(tmp_path):
    """The limit is inclusive; the check trains nothing."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_landmarks": MAX_LANDMARKS}))
    assert PipelineConfig.from_file(cfg).n_landmarks == MAX_LANDMARKS


# every subcommand with the inputs it requires; --seed comes last
SUBCOMMANDS = {
    "gen-data": ["gen-data"],
    "train": ["train", "--data", "data.csv"],
    "map": ["map", "--model", "m.json", "--belief", "b.json"],
    "merge": ["merge", "g.txt"],
    "cost": ["cost", "g.txt", "--robot-x", "1.5", "--robot-y", "0"],
    "plan": ["plan", "--model", "m.json"],
    "eval": ["eval", "accuracy"],
    "export-pgm": ["export-pgm", "g.txt"],
}


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_negative_seed_is_a_usage_error(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as e:
        main(SUBCOMMANDS[command] + ["--out", str(tmp_path / "out"), "--seed", "-1"])
    assert e.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
@pytest.mark.parametrize("out", ["in_a_missing_directory", "a_directory", "empty"])
def test_an_out_that_cannot_be_written_is_a_usage_error(tmp_path, capsys, command, out):
    """--out under a directory that does not exist, naming a directory, or
    empty exits 2 before any input is read."""
    path = {"in_a_missing_directory": str(tmp_path / "nowhere" / "out"),
            "a_directory": str(tmp_path), "empty": ""}[out]
    with pytest.raises(SystemExit) as e:
        main(SUBCOMMANDS[command] + ["--out", path, "--seed", "0"])
    assert e.value.code == 2
    assert "argument --out" in capsys.readouterr().err
    assert not (tmp_path / "nowhere").exists()


def test_eval_robustness_refuses_its_out_before_the_sweep(artifacts, tmp_path, capsys,
                                                          monkeypatch):
    def sweep(*args, **kwargs):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(cli, "robustness_experiment", sweep)
    with pytest.raises(SystemExit) as e:
        main(["eval", "robustness", "--model", str(artifacts["model"]), "--seed", "7",
              "--out", str(tmp_path / "nowhere" / "report.txt")])
    assert e.value.code == 2
    assert "argument --out: no directory" in capsys.readouterr().err


def test_huge_seeds_are_accepted(artifacts, tmp_path, capsys):
    out = tmp_path / "m.txt"
    assert main(["map", "--model", str(artifacts["model"]), "--belief", str(artifacts["belief"]),
                 "--samples", "10", "--seed", str(2**70), "--out", str(out)]) == 0
    assert f"seed={2**70} " in out.read_text()


def test_eval_accuracy_bytes_are_fixed(tmp_path, capsys):
    """`eval accuracy --seed 0` runs trials through run_trials and trains
    and evaluates SVMs; its report must keep these bytes."""
    out = tmp_path / "acc.txt"
    assert main(["eval", "accuracy", "--seed", "0", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "631202542d3148cc81e51371c47fedf29ed60ce511c759eb068aeab9c940ff1b"


BENCH_MODEL = Path(__file__).resolve().parents[1] / "perfbench" / "model" / "gsm_seed42.json"

# outputs whose bytes pass through the robot-noise convolution, on the fixed
# benchmark model: a map conditioned on robot noise, the robustness sweep,
# whose trials pick their targets on such maps, and plans whose merged
# locations are resolved on joint maps conditioned on the navigation noise
CONVOLVED_OUTPUTS = {
    "map_robot_sigma": (["map", "--belief", "belief.json", "--robot-sigma", "0.05",
                         "--seed", "1"],
                        "08055ce0a8312eb3a8732fca16106d9c033f0c6b729ec10e3a77e860f65bb75d"),
    "plan_separation_0.45": (["plan", "--separation", "0.45", "--seed", "0"],
                             "33a32ddfbf57a37a4d47cc36c4900dbd5c5b372367c8c03e4e12fa5098049c27"),
    "eval_transform": (["eval", "transform", "--seed", "0"],
                       "06b7dc40b4809439eaa1a42d83c387dd47110bfd6071de8f6f3d84b6caef338c"),
    "eval_robustness": (["eval", "robustness", "--seed", "7"],
                        "977dbb1493c482fcce1749865c92a5fd245cbd8db4fb1b2e39cb2d4f0fd1a3b9"),
}


@pytest.mark.parametrize("name", sorted(CONVOLVED_OUTPUTS))
def test_convolved_output_bytes_are_fixed(tmp_path, capsys, name):
    argv, sha = CONVOLVED_OUTPUTS[name]
    (tmp_path / "belief.json").write_text(json.dumps(
        {"mean": [0.14, 0.0, 0.1], "sigma_xy": 0.05, "sigma_psi": 0.1}))
    argv = [str(tmp_path / a) if a == "belief.json" else a for a in argv]
    out = tmp_path / "out.txt"
    assert main(argv + ["--model", str(BENCH_MODEL), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha


GEN_DATA_SHA256 = {
    0: "a5069a8ce3c777ae6c7c3cb1a133b8baea46766112756e30ecca29e892b6a35e",
    3: "f3572e781112972268aef6ca6ebb91a8578d1de46b20c147cf2e4f577663ddb3",
    5: "71a100631b8308a10685c55202e65b3258c0d56e33522cb89c4948a97766bf29",
    23: "8402cf9a455208ce37bec507ad5f81396788281a91acdc360b33cbad7885795e",
    42: "15e19fc906433a6901ba311d9487ea1fb74861bcd0ce328ef22588c2d663bb76",
}


@pytest.mark.parametrize("seed", sorted(GEN_DATA_SHA256))
def test_gen_data_bytes_are_fixed(tmp_path, capsys, seed):
    """`gen-data` writes these bytes; at seed 42 they are the dataset the
    benchmark's fixed model was trained on."""
    out = tmp_path / "data.csv"
    assert main(["gen-data", "--seed", str(seed), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GEN_DATA_SHA256[seed]


# seed 42's model is the benchmark's fixed model, also pinned in test_bench_contract
MODEL_SHA256 = {
    0: "b3ce18a37bffff480300632f25ba103adacb8acdebb185a779b6d511760a3ac3",
    3: "25d32f08f40f6ba9ce6d265331a4e599e912813191dbe5a5dc8cf364cb318588",
    5: "6b99e1569e4aa4c804df67ec4a55b866a0bba126b85a32d4ea4899a3f59b04d3",
    23: "2dcc416db5ba27910a113fd421c50a86e48398ca72a1a8cde05c1f53bf189ddf",
    42: "7b33ba6673e850c61778e51166e7d9e19a3c1c53df1eb76f3e80b2014bc60d7f",
}

# the solver's work behind each pinned model, as the train summary line reports
# it: a change to the pair cache or the selection can move these and no byte
SOLVER_COUNTERS = {
    0: "svm_steps=122157 svm_rows=12270 max_pose_steps=36052 max_kkt_violation=9.96e-11",
    3: "svm_steps=87442 svm_rows=5575 max_pose_steps=8763 max_kkt_violation=9.98e-11",
    5: "svm_steps=71043 svm_rows=5527 max_pose_steps=7933 max_kkt_violation=9.93e-11",
    23: "svm_steps=154199 svm_rows=9354 max_pose_steps=47764 max_kkt_violation=9.96e-11",
    42: "svm_steps=165935 svm_rows=11534 max_pose_steps=89106 max_kkt_violation=9.97e-11",
}


@pytest.mark.parametrize("seed", sorted(MODEL_SHA256))
def test_gen_data_then_train_bytes_are_fixed(tmp_path, capsys, seed):
    data, model = tmp_path / "data.csv", tmp_path / "model.json"
    assert main(["gen-data", "--seed", str(seed), "--out", str(data)]) == 0
    capsys.readouterr()
    assert main(["train", "--seed", str(seed), "--data", str(data), "--out", str(model)]) == 0
    assert hashlib.sha256(model.read_bytes()).hexdigest() == MODEL_SHA256[seed]
    assert f" {SOLVER_COUNTERS[seed]} -> " in capsys.readouterr().out


def test_gen_data_and_train_build_no_trial_record(tmp_path, capsys, monkeypatch):
    """From the simulator to the solver the trials stay columns of grid
    indices and cause codes: with TrialRecord made to raise, gen-data and
    train still write the pinned bytes."""
    class NoRecord:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a TrialRecord was built")

    monkeypatch.setattr(simworld, "TrialRecord", NoRecord)
    data, model = tmp_path / "data.csv", tmp_path / "model.json"
    assert main(["gen-data", "--seed", "0", "--out", str(data)]) == 0
    assert main(["train", "--seed", "0", "--data", str(data), "--out", str(model)]) == 0
    assert hashlib.sha256(model.read_bytes()).hexdigest() == MODEL_SHA256[0]


def test_eval_accuracy_trains_under_its_config(tmp_path, capsys):
    """The SVM constants of the config are the ones the curve trains with."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kernel_sigma": 0.3, "cost_C": 1.0}))
    bodies = []
    for extra in ([], ["--config", str(cfg)]):
        out = tmp_path / "acc.txt"
        assert main(["eval", "accuracy", "--seed", "0", "--out", str(out)] + extra) == 0
        bodies.append(out.read_text().split("\n", 1)[1])
    assert bodies[0] != bodies[1]


def test_eval_accuracy_scores_a_one_class_prefix_as_its_constant_classifier(tmp_path, capsys):
    """At seed 18 the first 20 training trials hold no success, which
    train_svm refuses; that prefix is scored as always predicting failure,
    right on the 129 of 150 test trials that fail, with and without the
    filter."""
    out = tmp_path / "acc.txt"
    assert main(["eval", "accuracy", "--seed", "18", "--out", str(out)]) == 0
    row = next(ln.split() for ln in out.read_text().splitlines() if ln.startswith("20 "))
    assert (row[1], row[3]) == ("0.860", "0.860")


# SVM constants within the config's ranges that the solver cannot use: a
# kernel_sigma whose -2 sigma^2 overflows or underflows, a box bound at or
# below 2e-14, and one that overflows, also as a product of integers that
# Python would keep exact; and in a world without a success,
# where every accuracy-curve prefix holds one class and trains no SVM (eval
# accuracy exited 0 there, with every accuracy 1.000)
UNUSABLE_SVM_CONSTANTS = {
    "sigma_1e200": {"kernel_sigma": 1e200},
    "sigma_1e200_where_no_prefix_trains": {"world": {"corridor_width": 0.0},
                                           "kernel_sigma": 1e200},
    "sigma_1e-300": {"kernel_sigma": 1e-300},
    "cost_1e-20": {"cost_C": 1e-20},
    "weighted_cost_overflows": {"cost_C": 1e300, "class_weight": 1e10},
    "integer_weighted_cost_overflows": {"cost_C": 10**300, "class_weight": 10**300},
}


@pytest.mark.parametrize("name", sorted(UNUSABLE_SVM_CONSTANTS))
def test_unusable_svm_constants_exit_3(artifacts, tmp_path, capsys, name):
    """train and eval accuracy both refuse them as a fault of the config, on
    reading it: train names the config, not the dataset, and exits 3 even
    when its dataset file is missing. Before, the sigmas ended in an
    OverflowError (exit 5) or, at 1e-300, in a model with bias NaN: eval
    accuracy exited 0, and train claimed an empty success region."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(UNUSABLE_SVM_CONSTANTS[name]))
    bare = tmp_path / "bare.csv"  # no header, so no config_hash to match
    bare.write_text("".join(ln for ln in artifacts["data"].read_text().splitlines(True)
                            if not ln.startswith("#")))
    for command in (["train", "--data", str(bare)], ["eval", "accuracy"],
                    ["train", "--data", str(tmp_path / "missing.csv")]):
        out = tmp_path / "out"
        assert main(command + ["--config", str(cfg), "--seed", "0", "--out", str(out)]) == 3
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: config SVM constants: ") and "dataset" not in err
        assert "kernel_sigma" in err if "sigma" in name else "cost_C" in err


def test_eval_robustness_in_a_world_without_a_success_cell_exits_3(artifacts, tmp_path,
                                                                   capsys):
    """A corridor of width 0 passes WorldConfig's checks, but the fixed
    baseline has no success cell to aim at: a config error naming the world,
    not a RuntimeError (exit 5)."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"world": {"corridor_width": 0.0}}))
    rc = main(["eval", "robustness", "--config", str(cfg), "--model", str(artifacts["model"]),
               "--seed", "0", "--out", str(tmp_path / "out")])
    assert rc == 3
    assert "config world {'corridor_width': 0.0}" in capsys.readouterr().err


def test_train_refuses_a_dataset_from_another_config(artifacts, tmp_path, capsys):
    """A dataset header naming another config_hash exits 3 before training;
    the same rows without a header train as before, and the summary line
    reports the SVM solver's work."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"world": {"nav_noise_sigma": 0.02}}))
    data = tmp_path / "d.csv"
    assert main(["gen-data", "--config", str(cfg), "--seed", "0", "--out", str(data)]) == 0
    rc = main(["train", "--data", str(data), "--seed", "0", "--out", str(tmp_path / "m.json")])
    assert rc == 3
    assert "config_hash" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()

    bare = tmp_path / "bare.csv"
    bare.write_text("".join(ln for ln in artifacts["data"].read_text().splitlines(True)
                            if not ln.startswith("#")))
    assert main(["train", "--data", str(bare), "--seed", "0",
                 "--out", str(tmp_path / "bare.json")]) == 0
    assert (tmp_path / "bare.json").read_bytes() == artifacts["model"].read_bytes()
    assert re.search(r"svm_steps=[1-9][0-9]* svm_rows=[1-9][0-9]* max_pose_steps=[1-9][0-9]* "
                     r"max_kkt_violation=[0-9.e+-]+ ", capsys.readouterr().out)


def test_train_refuses_a_dataset_whose_grid_is_too_large(artifacts, tmp_path, capsys):
    """One row at robot_dx 1000 m stretches the extraction grid over the
    dataset's base positions to 15.7 million cells: exit 3 naming the count,
    before any SVM is trained."""
    lines = artifacts["data"].read_text().splitlines()
    head = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    fields = lines[head + 1].split(",")
    fields[2] = "1000"
    lines[head + 1] = ",".join(fields)
    wide = tmp_path / "wide.csv"
    wide.write_text("\n".join(lines) + "\n")
    nx = math.ceil((1000 - 0.15) / 0.01) + 1
    ny = math.ceil((0.78 + 0.78) / 0.01) + 1
    rc = main(["train", "--data", str(wide), "--seed", "0", "--out", str(tmp_path / "m.json")])
    err = capsys.readouterr().err
    assert rc == 3
    assert f"{nx} x {ny} = {nx * ny} cells" in err and str(wide) in err
    assert not (tmp_path / "m.json").exists()


def _train_on_edited_row(artifacts, tmp_path, capsys, values):
    """Exit code and stderr of train on the dataset with the fields of file
    line 36, a trial row, set by column to values."""
    lines = artifacts["data"].read_text().splitlines()
    fields = lines[35].split(",")
    for column, value in values.items():
        fields[column] = value
    lines[35] = ",".join(fields)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    rc = main(["train", "--data", str(bad), "--seed", "0", "--out", str(tmp_path / "m.json")])
    return rc, capsys.readouterr().err


@pytest.mark.parametrize("column, value", [(0, "inf"), (1, "nan"), (1, "inf"), (1, "-inf")])
def test_train_refuses_non_finite_object_features(artifacts, tmp_path, capsys, column, value):
    """A non-finite edge distance or orientation is a bad row, refused with
    its file line, not a one-sample pose or an SVD failure after training."""
    rc, err = _train_on_edited_row(artifacts, tmp_path, capsys, {column: value})
    assert rc == 3
    assert "line 36:" in err and "finite" in err


def test_train_refuses_a_label_that_does_not_go_with_its_cause(artifacts, tmp_path, capsys):
    """A success has cause none, a failure any other cause in CAUSES: an
    unknown label, a success with a failure cause, an unknown cause and a
    failure with cause none are each refused with their file line."""
    for label, cause in [("banana", "none"), ("success", "slip"), ("failure", "gremlins"),
                         ("failure", "none")]:
        rc, err = _train_on_edited_row(artifacts, tmp_path, capsys, {4: label, 5: cause})
        assert rc == 3
        assert "line 36:" in err and repr(label) in err and repr(cause) in err


def test_train_rejects_a_dataset_without_rows(tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_text("# made by hand\nobject_dx,object_dpsi,robot_dx,robot_dy,label,cause\n")
    rc = main(["train", "--data", str(data), "--seed", "0", "--out", str(tmp_path / "m.json")])
    assert rc == 3
    assert "no trial rows" in capsys.readouterr().err


def _first_poses(rows, k):
    """The rows of the first k object poses of a dataset."""
    poses = list(dict.fromkeys(tuple(r.split(",")[:2]) for r in rows))[:k]
    return [r for r in rows if tuple(r.split(",")[:2]) in poses]


def _one_pose_fails(rows):
    """The rows with every success of the first object pose relabeled a slip."""
    pose = ",".join(rows[0].split(",")[:2]) + ","
    return [r.replace(",success,none", ",failure,slip") if r.startswith(pose) else r
            for r in rows]


# (edit of a good dataset's rows, text the error must name)
UNTRAINABLE_DATASETS = {
    "few_poses": (lambda rows: _first_poses(rows, 3), "at least 6 poses"),
    "one_class_pose": (_one_pose_fails, "both classes"),
}


@pytest.mark.parametrize("name", sorted(UNTRAINABLE_DATASETS))
def test_train_rejects_an_untrainable_dataset(artifacts, tmp_path, capsys, name):
    """A well-formed dataset that cannot train a model is a bad input (exit 3)
    naming the file, not a module error."""
    lines = artifacts["data"].read_text().splitlines()
    head = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    edit, reason = UNTRAINABLE_DATASETS[name]
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines[:head + 1] + edit(lines[head + 1:])) + "\n")
    rc = main(["train", "--data", str(bad), "--seed", "0",
               "--out", str(tmp_path / "model.json")])
    err = capsys.readouterr().err
    assert rc == 3
    assert str(bad) in err and reason in err
    assert not (tmp_path / "model.json").exists()


def test_map_merge_cost_pipeline(artifacts, tmp_path, capsys):
    m1 = tmp_path / "m1.txt"
    m2 = tmp_path / "m2.txt"
    rc = main(["map", "--model", str(artifacts["model"]),
               "--belief", str(artifacts["belief"]),
               "--robot-sigma", "0.05", "--seed", "1", "--out", str(m1)])
    assert rc == 0
    rc = main(["map", "--model", str(artifacts["model"]),
               "--belief", str(artifacts["belief"]),
               "--seed", "2", "--out", str(m2)])
    assert rc == 0
    merged = tmp_path / "merged.txt"
    assert main(["merge", str(m1), str(m2), "--seed", "0",
                 "--out", str(merged)]) == 0
    g1, g2, gm = (load_grid_text(p) for p in (m1, m2, merged))
    np.testing.assert_allclose(gm.probs, g1.probs * g2.probs, atol=1e-15)
    # the product of one map is that map
    assert main(["merge", str(m1), "--seed", "0", "--out", str(merged)]) == 0
    np.testing.assert_array_equal(load_grid_text(merged).probs, g1.probs)
    cost = tmp_path / "cost.txt"
    assert main(["cost", str(merged), "--robot-x", "1.5", "--robot-y", "0.0",
                 "--seed", "0", "--out", str(cost)]) == 0
    pgm = tmp_path / "map.pgm"
    assert main(["export-pgm", str(m1), "--seed", "0", "--out", str(pgm)]) == 0
    assert pgm.read_text().startswith("P2")


def test_map_robot_sigma_past_the_grid_extent(artifacts, tmp_path, capsys):
    """At --robot-sigma 0.2 the 6-sigma kernel (48 cells) is wider than the
    37x64 candidate grid on both axes."""
    out = tmp_path / "m.txt"
    assert main(["map", "--model", str(artifacts["model"]), "--belief", str(artifacts["belief"]),
                 "--robot-sigma", "0.2", "--seed", "1", "--out", str(out)]) == 0
    assert load_grid_text(out).probs.shape == (37, 64)


def test_plan_command_reports_merge(artifacts, tmp_path, capsys):
    out = tmp_path / "plan.txt"
    rc = main(["plan", "--model", str(artifacts["model"]),
               "--separation", "0.30", "--seed", "0", "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert "plan A duration" in text
    assert "merge flaw" in text
    assert "plan B duration" in text


def test_plan_refuses_a_separation_whose_grid_is_too_large(artifacts, tmp_path, capsys):
    """At 700 m the plan grid has 37 x 28049 = 1,037,813 cells."""
    out = tmp_path / "plan.txt"
    rc = main(["plan", "--model", str(artifacts["model"]), "--separation", "700",
               "--seed", "0", "--out", str(out)])
    assert rc == 3
    assert f"1037813 cells is above the limit of {MAX_GRID_CELLS}" in capsys.readouterr().err
    assert not out.exists()


def test_eval_transform_checks_every_plan_grid_before_any_map(artifacts, tmp_path, capsys,
                                                             monkeypatch):
    """cell_size 0.0012 passes the config check (979,104 candidate cells), and
    the plan grids of 0.20-0.35 m are within the limit too; that of 0.40 m
    (1,003,920 cells) is not, so the command exits 3 before any map."""
    def no_map(*args, **kwargs):
        raise AssertionError("a map was computed")

    monkeypatch.setattr(planner, "compute_map", no_map)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cell_size": 0.0012}))
    rc = main(["eval", "transform", "--config", str(cfg), "--model", str(artifacts["model"]),
               "--seed", "0", "--out", str(tmp_path / "out")])
    assert rc == 3
    assert "1003920 cells" in capsys.readouterr().err


def test_plan_command_is_the_merge_experiment_point(artifacts, tmp_path, capsys):
    """`arplace plan` runs the merge experiment on the RNG base (seed,);
    transformation_benefit runs separation k on (seed, k)."""
    gsm = GSMModel.load(artifacts["model"])
    world = default_world(3)
    out = tmp_path / "plan.txt"
    assert main(["plan", "--model", str(artifacts["model"]), "--separation", "0.30",
                 "--seed", "3", "--out", str(out)]) == 0
    point = merge_experiment(0.30, gsm, world, (3,))
    text = out.read_text()
    assert f"plan A duration {point.duration_a:.2f} s (2 navigations)" in text
    assert f"plan B duration {point.duration_b:.2f} s (1 navigations)" in text
    (x, y), p = point.flaw.proposed_location
    assert f"joint probability {p:.3f} at ({x:.3f}, {y:.3f})" in text

    swept = transformation_benefit([0.55, 0.30], gsm, world, seed=3)[1]
    alone = merge_experiment(0.30, gsm, world, (3, 1))
    assert swept.flaw.proposed_location == alone.flaw.proposed_location
    assert (swept.duration_a, swept.duration_b) == (alone.duration_a, alone.duration_b)


@pytest.mark.parametrize("argv, flag, config", [
    (["map", "--belief", "belief.json"], ["--samples", "500"], {"n_samples": 500}),
    (["plan", "--separation", "0.45"], ["--threshold", "0.9"], {"merge_threshold": 0.9}),
], ids=["map_samples", "plan_threshold"])
def test_an_overriding_flag_writes_the_bytes_of_its_config_value(artifacts, tmp_path, capsys,
                                                                 argv, flag, config):
    """--samples and --threshold override n_samples and merge_threshold: the
    output, its header's config_hash included, is that of a config file
    holding the same value, and not that of the default config."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    argv = [str(artifacts["belief"]) if a == "belief.json" else a for a in argv]
    argv += ["--model", str(artifacts["model"]), "--seed", "1"]
    by_flag, by_config = tmp_path / "flag.txt", tmp_path / "config.txt"
    assert main(argv + flag + ["--out", str(by_flag)]) == 0
    assert main(argv + ["--config", str(cfg), "--out", str(by_config)]) == 0
    assert by_flag.read_bytes() == by_config.read_bytes()
    header = by_flag.read_text().splitlines()[0]
    assert f"config_hash={PipelineConfig.from_file(cfg).hash()}" in header
    assert f"config_hash={PipelineConfig().hash()}" not in header


def test_plan_command_reports_no_merge_for_distant_cups(tmp_path, capsys):
    """At 0.60 m no joint cell of the fixed model clears the threshold: the
    report ends with the no-merge line and names no plan B."""
    out = tmp_path / "plan.txt"
    assert main(["plan", "--separation", "0.60", "--seed", "0", "--model", str(BENCH_MODEL),
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3 and lines[1].startswith("plan A duration ")
    assert lines[2] == "no merge flaw detected; plan unchanged"


def test_eval_robustness_reports_one_row_per_sweep_point(artifacts, tmp_path, capsys,
                                                         monkeypatch):
    """The sweep runs on the config's cell size and map samples, and each of
    its points is one row of rates, chi-square statistic and p-value."""
    calls = []

    def sweep(spec, gsm, world, seed):
        calls.append((spec, world, seed))
        return [SweepPoint(0.0, {"arplace": 97, "fixed": 95}, 100, 0.1712, 0.679),
                SweepPoint(0.15, {"arplace": 80, "fixed": 41}, 100, 31.27, 2.2e-08)]

    monkeypatch.setattr(cli, "robustness_experiment", sweep)
    out = tmp_path / "rob.txt"
    assert main(["eval", "robustness", "--model", str(artifacts["model"]), "--seed", "3",
                 "--out", str(out)]) == 0
    assert calls == [(SweepSpec(cell_size=0.025, n_map_samples=100), default_world(3), 3)]
    assert out.read_text().splitlines()[1:] == [
        "sigma_obj arplace fixed chi2 p",
        "0.00 0.970 0.950 0.1712 0.679",
        "0.15 0.800 0.410 31.2700 2.2e-08"]


def test_eval_report_rows_follow_the_order_of_the_experiment_points(artifacts, tmp_path,
                                                                    capsys, monkeypatch):
    """eval robustness and eval transform write one row per point of the
    list the experiment returns, in the list's order."""
    def sweep(spec, gsm, world, seed):
        return [SweepPoint(s, {"arplace": 1, "fixed": 1}, 1, 0.0, 1.0)
                for s in reversed(spec.sigma_obj_values)]

    def transform(distances, gsm, world, seed, cell_size, threshold):
        return [TransformPoint(d, None, 48.0) for d in reversed(distances)]

    monkeypatch.setattr(cli, "robustness_experiment", sweep)
    monkeypatch.setattr(cli, "transformation_benefit", transform)
    for experiment, column in (("robustness", ["0.20", "0.15", "0.10", "0.05", "0.00"]),
                               ("transform", [f"{0.60 - 0.05 * k:.2f}" for k in range(9)])):
        out = tmp_path / f"{experiment}.txt"
        assert main(["eval", experiment, "--model", str(artifacts["model"]), "--seed", "0",
                     "--out", str(out)]) == 0
        rows = [ln.split()[0] for ln in out.read_text().splitlines()[2:]
                if not ln.startswith("note:")]
        assert rows == column, experiment


def _default(fn, name):
    return inspect.signature(fn).parameters[name].default


def test_pipeline_config_defaults_are_the_library_defaults():
    """Each PipelineConfig default equals the default of the library code it
    stands for, so a model trained on library defaults and one trained by
    the CLI on the default config cannot drift apart."""
    cfg = PipelineConfig()
    for fn in (train_svm, train_per_pose, accuracy_curve):
        assert (_default(fn, "kernel_sigma"), _default(fn, "cost_C"),
                _default(fn, "positive_class_weight")) == \
            (cfg.kernel_sigma, cfg.cost_C, cfg.class_weight), fn.__name__
    assert _default(train_gsm, "n_landmarks") == _default(optimize_landmarks, "m") == \
        cfg.n_landmarks
    assert _default(train_gsm, "energy_target") == \
        _default(optimize_landmarks, "energy_target") == cfg.energy_target
    assert placemap.DEFAULT_N_SAMPLES == cfg.n_samples
    assert planner.MERGE_THRESHOLD == cfg.merge_threshold
    for fn in (candidate_grid_spec, plan_grid_spec, merge_experiment, transformation_benefit):
        assert _default(fn, "cell_size") == cfg.cell_size, fn.__name__
    assert SweepSpec().cell_size == cfg.cell_size


def test_world_override_via_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"world": {"local_minimum_rate": 0.0}}))
    out = tmp_path / "d.csv"
    rc = main(["gen-data", "--config", str(cfg), "--seed", "0",
               "--out", str(out)])
    assert rc == 0
    assert "local_minimum" not in out.read_text()


def test_console_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "arplace.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "gen-data" in proc.stdout
