"""Benchmark of the arplace pipeline.

    python3 perfbench/run.py --workload {train,query,plan} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
./src. With --trace 0 the workload runs untraced for S seconds (at least
its minimum operation count) and the last line of standard output is a JSON
object carrying every end-to-end metric of BENCHMARK.json, timings at the
reference speed of speed.py. With --trace 1 a fixed list of operations
(independent of --seconds, so that the counters are exact) runs once
untraced and twice under the span recorder of tracer.py, and the metrics are
the per-layer ones, in raw seconds. The line before the result holds
the machine facts; both are also written, with the spans, under .bench_out/.
Exit status is non-zero, with no result line, when the package or the
benchmark's model file is missing or altered.
"""

from __future__ import annotations

import os
import sys
import time

T0 = time.perf_counter()  # set-up time counts from here: imports, model, warm-up

# all load comes from this one process; keep BLAS to one thread as well
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402

OUT_DIR = ".bench_out"
SETUP_PROBES = 3          # extra cold set-ups in child processes, for the setup_s median
SETUP_KERNEL_REPS = 5     # speed-kernel runs after each set-up
PROBE_TIMEOUT_S = 60
TRACE_OPS = {"train": 1, "query": 30, "plan": 24}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(TRACE_OPS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set the workload up, print the set-up time and exit")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_package():
    """Import arplace from ./src of the checkout, never from elsewhere."""
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "arplace", "__init__.py")):
        raise SystemExit("error: no ./src/arplace here; run from the root of a "
                         "source checkout")
    sys.path.insert(0, src)
    import arplace
    if not os.path.abspath(arplace.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: arplace imported from {arplace.__file__}, not {src}")
    return arplace


def declared_metrics() -> tuple[dict, dict]:
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def machine_facts() -> dict:
    import ctypes
    import numpy
    import scipy
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas_threads = None
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for name in sorted(os.listdir(libs)) if os.path.isdir(libs) else []:
        if "openblas" in name:
            try:
                fn = ctypes.CDLL(os.path.join(libs, name)).scipy_openblas_get_num_threads64_
                fn.restype = ctypes.c_int
                blas_threads = fn()
            except (OSError, AttributeError):
                pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": blas_threads,
            "blas_env": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "platform": platform.platform()}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    v = sorted(values)
    return v[max(0, math.ceil(q * len(v)) - 1)]


def mean_by_key(a: dict, b: dict) -> dict:
    return {n: (a.get(n, 0.0) + b.get(n, 0.0)) / 2.0 for n in a.keys() | b.keys()}


class Outcomes:
    """Attempted / failed bookkeeping shared by both modes."""

    def __init__(self, workload):
        self.w = workload
        self.attempted = 0
        self.failed = 0
        self.digests: dict = {}

    def record(self, key, inp, run) -> object | None:
        """Run one operation, check it, and compare it with any earlier run
        of the same input. Returns the output, or None if it failed."""
        self.attempted += 1
        try:
            out = run(inp)
            err = self.w.check(inp, out)
            d = self.w.digest(out) if err is None else None
        except Exception as e:  # a failing operation is counted, not fatal
            out, err = None, f"{type(e).__name__}: {e}"
        if err is None and self.digests.setdefault(key, d) != d:
            err = "output differs from an earlier run of the same input"
        if err is not None:
            self.failed += 1
            print(f"[{self.w.name}] operation {key!r} failed: {err}", file=sys.stderr)
            return None
        return out


def run_timed(w, seconds: float) -> tuple[dict, Outcomes, dict]:
    """Closed loop: start the next operation only while the expected finish
    stays inside the time budget, and always at least w.min_ops of them.
    The speed kernel runs on a timer throughout (see speed.py); the timings
    are returned at reference speed, and raw in the third value."""
    import speed
    book = Outcomes(w)
    times, ref_times, outs = [], [], []
    k = 0
    with speed.SpeedTrace() as clock:
        start = clock.now()
        while k < w.min_ops or (clock.now() - start + statistics.median(times)) <= seconds:
            key, inp = w.make_input(k)
            t = clock.now()
            out = book.record(key, inp, w.run)
            t_end = clock.now()
            times.append(t_end - t)
            ref_times.append((t, t_end))
            if out is not None:
                outs.append(out)
            k += 1
        wall = clock.now() - start
    ref_times = [clock.at_reference(a, b) for a, b in ref_times]
    for j in range(min(w.repeat_checks, k)):  # repeats of the same seed, untimed
        book.record(*w.make_input(j), w.run)
    if not outs:
        raise RuntimeError("every operation failed")
    ms = [1000.0 * t for t in times]
    ref_ms = [1000.0 * t for t in ref_times]
    raw = {"op_ms_p50": statistics.median(ms), "op_ms_p90": percentile(ms, 0.90),
           "ops_per_s": k / sum(times), "kernel_ms": statistics.median(clock.ms),
           "kernel_samples": len(clock.ms)}
    metrics = {"op_ms_p50": statistics.median(ref_ms), "op_ms_p90": percentile(ref_ms, 0.90),
               "ops_per_s": k / sum(ref_times), "ok_rate": 1.0 - book.failed / book.attempted}
    metrics.update(w.quality(outs))
    print(f"[{w.name}] {k} operations in {wall:.2f} s", file=sys.stderr)
    return metrics, book, raw


def run_traced(w, spans_path: str) -> tuple[dict, Outcomes]:
    """Each operation runs traced, untraced, then traced again. Span times
    are the mean of the two traced passes, so warm-up and drift weigh on
    both sides of the overhead alike; the two passes must give identical
    counters. The spans of the first pass are written to spans_path."""
    import tracer as tr
    from workloads import Plan
    book = Outcomes(w)
    passes = [tr.Tracer(), tr.Tracer()]
    untraced = 0.0
    outs = []
    for k in range(TRACE_OPS[w.name]):
        key, inp = w.make_input(k)
        ok = True
        for step in (passes[0], None, passes[1]):
            def run_op(x, tracer=step):
                nonlocal untraced
                if tracer is None:  # timed over the same region as the traced root span
                    t = time.perf_counter()
                    out = w.run(x)
                    untraced += time.perf_counter() - t
                    return out
                with tracer.patched(), tracer.operation(k):
                    return w.run(x)
            out = book.record(key, inp, run_op)
            ok = ok and out is not None
        if ok:
            outs.append(out)
    first, second = passes
    if first.counters != second.counters:
        book.failed += 1
        diff = {n: (first.counters[n], second.counters[n])
                for n in set(first.counters) | set(second.counters)
                if first.counters[n] != second.counters[n]}
        print(f"[{w.name}] counters differ between traced passes: {diff}", file=sys.stderr)
    if first.missing:
        print(f"[{w.name}] not traced, gone from the package: {first.missing}", file=sys.stderr)
    first.dump(spans_path)

    (incl_a, self_a), (incl_b, self_b) = (p.totals() for p in passes)
    incl, self_s = mean_by_key(incl_a, incl_b), mean_by_key(self_a, self_b)
    c = first.counters
    m = {}
    for name in ("cli.gen_data", "cli.train", "simworld.save_csv", "simworld.load_csv",
                 "simworld.generate_dataset", "classifier.train_per_pose",
                 "classifier.train_svm", "classifier.extract_contour",
                 "shapemodel.train_gsm", "shapemodel.optimize_landmarks",
                 "shapemodel.fit_regression", "shapemodel.boundary_for",
                 "placemap.sample_boundaries", "placemap.compute_map", "placemap.contains",
                 "placemap.apply_robot_uncertainty", "placemap.best_cell",
                 "planner.project", "planner.resolve_location", "planner.detect_merge_flaw"):
        m[name + ".s"] = incl.get(name, 0.0)
    for name in ("classifier.train_svm", "shapemodel.placement_cost", "shapemodel.boundary_for",
                 "placemap.compute_map", "placemap.merge", "planner.resolve_location"):
        m[name + ".calls"] = c[name + ".calls"]
    for name in ("simworld.trials", "simworld.trials_executed", "classifier.support_vectors",
                 "classifier.kernel_evals", "classifier.contour_vertices", "placemap.samples",
                 "placemap.edge_tests", "placemap.apply_robot_uncertainty.calls_direct",
                 "placemap.apply_robot_uncertainty.calls_in_best_cell",
                 "planner.merge_flaws", "planner.navigations"):
        m[name] = c[name]
    m["simworld.filter_useful_ratio"] = (c["simworld.trials_executed"] / c["simworld.trials"]
                                        if c["simworld.trials"] else 0.0)
    m["classifier.train_svm.max_s"] = statistics.mean(p.max_duration("classifier.train_svm")
                                                      for p in passes)
    m["planner.project.self_s"] = self_s.get("planner.project", 0.0)
    m["planner.duration_reduction"] = (Plan.duration_reduction(outs)
                                       if isinstance(w, Plan) and outs else 0.0)
    m["io.dataset_bytes"] = sum(o.get("dataset_bytes", 0) for o in outs)
    m["io.model_bytes"] = sum(o.get("model_file_bytes", 0) for o in outs)
    for layer in tr.LAYERS:
        m[f"layer.{layer}.self_s"] = sum(v for n, v in self_s.items()
                                         if n.startswith(layer + "."))
    m["layer.bench.self_s"] = self_s.get(tr.ROOT, 0.0)
    m["trace.ops"] = TRACE_OPS[w.name]
    m["trace.spans"] = len(first.spans)
    m["trace.untraced_s"] = untraced
    m["trace.traced_s"] = incl[tr.ROOT]
    m["trace.overhead_s"] = incl[tr.ROOT] - untraced
    return m, book


def setup_at_reference(raw_s: float) -> float:
    import speed
    return raw_s * speed.scale([speed.kernel_ms() for _ in range(SETUP_KERNEL_REPS)])


def setup_probe_times(args) -> list[float]:
    """Cold set-up times, at reference speed, of SETUP_PROBES fresh
    processes run one at a time."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    out = []
    for _ in range(SETUP_PROBES):
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if res.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {res.stderr.strip()}")
        out.append(float(res.stdout.strip().splitlines()[-1]))
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import workloads
    e2e_units, layer_units = declared_metrics()
    os.makedirs(OUT_DIR, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        try:
            w = workloads.WORKLOADS[args.workload](args.seed, work_dir)
        except workloads.ProvenanceError as e:
            print(f"error: refusing to run: {e}", file=sys.stderr)
            return 3
        setup_raw = time.perf_counter() - T0
        setup_s = setup_at_reference(setup_raw)
        if args.setup_probe:
            print(repr(setup_s))
            return 0
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        raw = {"setup_s": setup_raw}
        if args.trace:
            metrics, book = run_traced(w, os.path.join(OUT_DIR, f"spans-{tag}.json"))
            units = layer_units
        else:
            metrics, book, raw_times = run_timed(w, args.seconds)
            raw.update(raw_times)
            metrics["setup_s"] = statistics.median([setup_s] + setup_probe_times(args))
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            units = e2e_units
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} are not both "
                           "measured and declared in BENCHMARK.json")
    result = {"correct": book.failed == 0, "attempted": book.attempted,
              "failed": book.failed,
              "metrics": {n: {"value": float(metrics[n]), "unit": units[n]}
                          for n in units}}
    facts = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "machine": machine_facts(), "raw": raw}
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w") as f:
        json.dump({**facts, "result": result}, f, indent=1)
        f.write("\n")
    print(json.dumps(facts))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
