"""The benchmark under perfbench/ reaches into the package: its tracer
patches named module and class attributes, and its workloads call the
public functions. These checks keep the package's names and behaviour
within what the benchmark relies on."""

import hashlib
import json
import os
import sys

import pytest

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
sys.path.insert(0, BENCH_DIR)

import tracer  # noqa: E402
import workloads  # noqa: E402


def test_tracer_finds_every_patch_target():
    t = tracer.Tracer()
    with t.patched():
        assert t.missing == []


@pytest.mark.parametrize("workload", [workloads.Query, workloads.Plan])
def test_first_operation_passes_its_check(workload, tmp_path):
    w = workload(1, str(tmp_path))
    _, inp = w.make_input(0)
    out = w.run(inp)
    assert w.check(inp, out) is None


@pytest.mark.parametrize("seed, k", [(509, 470), (336, 487), (424, 513)])
def test_plan_operations_with_an_arrival_error_over_5_cm_pass_their_check(seed, k, tmp_path):
    """The transformed plan's first navigation lands more than 5 cm from its
    target in these operations. Its tasks share one designator, so it still
    navigates once and saves a navigation over the flat plan."""
    w = workloads.Plan(seed, str(tmp_path))
    _, inp = w.make_input(k)
    out = w.run(inp)
    assert w.check(inp, out) is None


def test_train_chain_reproduces_the_fixed_model(tmp_path):
    """gen-data then train on the benchmark's dataset seed writes the very
    bytes the fixed model's provenance record names."""
    w = workloads.Train(1, str(tmp_path))
    _, inp = w.make_input(0)
    out = w.run(inp)
    assert w.check(inp, out) is None
    with open(workloads.PROVENANCE_PATH) as f:
        prov = json.load(f)
    assert hashlib.sha256(out["model_bytes"]).hexdigest() == prov["sha256"]


def test_train_operation_feeds_the_per_layer_counters(tmp_path):
    """The benchmark's layer view of training comes from the tracer's
    wrappers: 16 fits through the module attribute classifier.train_svm,
    16 contours and their 502 support vectors at dataset seed 42. A fit
    that bypassed the attribute would zero these and still train. The
    trial counters and the grasp success rate read Dataset.records and
    executed_count(): 6,912 trials, 1,108 executed, 864 of them successes."""
    t = tracer.Tracer()
    w = workloads.Train(1, str(tmp_path))
    _, inp = w.make_input(0)
    with t.patched():
        out = w.run(inp)
    assert w.check(inp, out) is None
    assert t.counters["classifier.train_svm.calls"] == 16
    assert t.counters["classifier.extract_contour.calls"] == 16
    assert t.counters["classifier.support_vectors"] == 502
    assert t.counters["simworld.trials"] == 6912
    assert t.counters["simworld.trials_executed"] == 1108
    assert w.quality([out])["grasp_success_rate"] == 864 / 1108
