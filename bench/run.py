#!/usr/bin/env python3
"""vertexscreen benchmark: one workload per process, driven through
``vertexscreen.cli.main`` from the source tree of the checkout it sits in.

    python3 bench/run.py --workload exp1-screen --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the package is imported from its
``src/``. BLAS runs one thread. A run measures set-up time in fresh
interpreters, warms up with one tiny pass, then repeats passes of the
workload (every pass uses the same seed) until ``--seconds`` would be
exceeded, with at least two passes. Throughput is units per CPU second:
time the machine gives to other processes or tenants stretches wall time,
not CPU time.
Checks run after the timed passes: sanity floors on each pass's reports,
byte-identical report digests across the passes, and a dcorr spot-check of
``screen.score_vertices`` against ``corr.dcorr``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics, taken from
spans recorded around the package's public functions (see tracer.py and
layers.py), plus the tracing overhead. The last line of standard output is
the JSON result; the lines before it give machine facts, digests and every
metric with its unit. METRICS.md describes each metric and workload.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread, before numpy loads: at these sizes a second thread does not
# shorten a pass, and its spin-waiting makes CPU time depend on host load.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import layers
from tracer import Tracer
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# (name, unit, better); the bounds live in BENCHMARK.json
END_TO_END = [
    ("units_per_cpu_s", "1/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
    ("setup_s", "s", "lower"),
    ("ok_ratio", "ratio", "higher"),
]

SETUP_RUNS = 3
# interpreter start, package import and a first (cold) BLAS and LAPACK call
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import vertexscreen.cli, numpy; "
    "a = numpy.random.default_rng(0).random((256, 256)); numpy.linalg.svd(a @ a)"
)
SPOT_VERTICES = 30
SPOT_CHECKS = 3
SPOT_TOL = 1e-10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "tiny"),
                        help="tiny runs the workloads at toy sizes (self-test only)")
    return parser.parse_args(argv)


def live_children_cpu():
    """CPU time of this process's child processes that are still running."""
    tick = os.sysconf("SC_CLK_TCK")
    me = os.getpid()
    total = 0
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # gone meanwhile
        if int(fields[1]) == me:  # ppid
            total += int(fields[11]) + int(fields[12])  # utime + stime
    return total / tick


def cpu_seconds():
    """CPU time of this process and of its worker processes, reaped or still
    running (so a pool kept alive across passes is counted too)."""
    own, children = (resource.getrusage(who) for who in (resource.RUSAGE_SELF,
                                                          resource.RUSAGE_CHILDREN))
    return (own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime
            + live_children_cpu())


def measure_setup(runs):
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], check=True, timeout=170)
        times.append(time.perf_counter() - start)
    return times


def run_pass(argvs, tracer=None):
    """Run one pass's CLI calls in order; stop at the first non-zero exit."""
    from vertexscreen import cli

    codes = []
    gc.collect()  # every pass starts from a collected heap
    if tracer is not None:
        tracer.install()
    wall0, cpu0 = time.perf_counter(), cpu_seconds()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in argvs:
                codes.append(cli.main(argv))  # looked up per call: the wrapper while traced
                if codes[-1] != 0:
                    break
    finally:
        wall, cpu = time.perf_counter() - wall0, cpu_seconds() - cpu0
        if tracer is not None:
            tracer.uninstall()
    return {"wall": wall, "cpu": cpu, "traced": tracer is not None, "codes": codes,
            "problems": [] if codes == [0] * len(argvs) else [f"exit codes {codes}"]}


def run_passes(workload, args, run_dir, tracer):
    passes = []
    start = time.perf_counter()
    while True:
        index = len(passes)
        out = run_dir / f"pass-{index}"
        traced = tracer is not None and index % 2 == 1
        record = run_pass(workload.argvs(args.seed, str(out), args.size),
                          tracer if traced else None)
        record["out"] = out
        passes.append(record)
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["wall"] for p in passes)
        if len(passes) >= 2 and elapsed + typical > args.seconds:
            return passes


def report_digest(out, names):
    h = hashlib.sha256()
    for name in names:
        h.update(name.encode() + b"\0")
        h.update((out / name).read_bytes())
    return h.hexdigest()


def check_passes(workload, passes, size):
    """Sanity floors and digests per pass; every digest must equal the first."""
    for record in passes:
        record["digest"] = None
        if record["problems"]:
            continue
        try:
            record["problems"] = workload.check(str(record["out"]), size)
            record["digest"] = report_digest(record["out"], workload.outputs())
        except (OSError, ValueError, KeyError, StopIteration) as exc:
            record["problems"] = [f"unreadable report: {exc!r}"]
    reference = passes[0]["digest"]
    for record in passes[1:]:
        if record["digest"] is not None and record["digest"] != reference:
            record["problems"].append("report digest differs from the first pass")


def spot_check(dataset, seed):
    """score_vertices dcorr scores of a few vertices against corr.dcorr."""
    import numpy as np
    from vertexscreen import corr, screen

    rng = np.random.default_rng(seed)
    k = min(SPOT_VERTICES, dataset.n)
    restrict = np.sort(rng.choice(dataset.n, size=k, replace=False))
    scores = screen.score_vertices(dataset, restrict, "dcorr")
    problems = []
    for pos in rng.choice(k, size=min(SPOT_CHECKS, k), replace=False):
        u = restrict[pos]
        reference = corr.dcorr(dataset.graphs[:, u, restrict], dataset.labels, y_metric="discrete")
        if not abs(scores[pos] - reference) <= SPOT_TOL:
            problems.append(f"vertex {u}: score_vertices {scores[pos]!r} vs dcorr {reference!r}")
    return problems


def peak_rss_mib(setup_children_kib):
    """This process's peak RSS, plus the largest worker process's peak when
    the program started workers bigger than the set-up interpreters."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (children if children > setup_children_kib else 0)) / 1024.0


def blas_facts():
    import numpy as np

    facts = {"blas": None, "blas_threads": {}}
    with contextlib.suppress(KeyError, TypeError):  # numpy < 1.26 has no mode="dicts"
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{info['name']} {info['version']}"
    # thread count of each OpenBLAS loaded (numpy and scipy may bundle one each)
    with contextlib.suppress(OSError):
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
        for path in paths:
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(lib, symbol):
                    getter = getattr(lib, symbol)
                    getter.restype = ctypes.c_int
                    facts["blas_threads"][Path(path).name] = getter()
                    break
    return facts


def git_commit(root):
    """HEAD commit when the checkout is a git work tree, else None."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_facts():
    import numpy
    import scipy

    cpu_model = None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **blas_facts(),
        "git_commit": git_commit(ROOT),
        "src_lines": src_lines,
    }


def end_to_end_metrics(workload, size, passes, setup_times, setup_children_kib, ok_ratio):
    cpus = [p["cpu"] for p in passes if not p["traced"]]
    return {
        "units_per_cpu_s": workload.units(size) / statistics.median(cpus),
        "peak_rss_mb": peak_rss_mib(setup_children_kib),
        "setup_s": statistics.median(setup_times),
        "ok_ratio": ok_ratio,
    }


def per_layer_metrics(workload, size, tracer, passes):
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    values = layers.span_metrics(tracer.spans, len(traced))
    values["process.units_per_wall_s"] = (workload.units(size)
                                          / statistics.median(p["wall"] for p in plain))
    values["process.cpu_s"] = statistics.fmean(p["cpu"] for p in plain)
    values["process.cpu_per_wall"] = sum(p["cpu"] for p in plain) / sum(p["wall"] for p in plain)
    values["trace.overhead_ratio"] = (statistics.median(p["wall"] for p in traced)
                                      / statistics.median(p["wall"] for p in plain))
    return values


def main(argv=None):
    args = parse_args(argv)
    # turn SIGTERM into SystemExit so the output directory is removed and a
    # running set-up interpreter is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "vertexscreen" / "__init__.py").is_file():
        print(f"error: no vertexscreen package under {SRC}; run inside a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from vertexscreen import classify, cli, corr, evaluate, graph, screen

    modules = {"graph": graph, "corr": corr, "screen": screen, "classify": classify,
               "evaluate": evaluate, "cli": cli}
    workload = WORKLOADS[args.workload]
    facts = machine_facts()

    setup_times = measure_setup(SETUP_RUNS)
    setup_children_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    tracer = Tracer(modules, layers.ATTR_HOOKS) if args.trace else None
    run_dir = ROOT / ".bench_out" / f"{workload.name}-{os.getpid()}"
    try:
        warm = run_pass(workload.argvs(args.seed, str(run_dir / "warmup"), "tiny"))
        if warm["problems"]:
            print(f"error: warm-up pass failed: {warm['problems']}", file=sys.stderr)
            return 1
        passes = run_passes(workload, args, run_dir, tracer)
        check_passes(workload, passes, args.size)
        spot_problems = spot_check(
            workload.spot_dataset(args.seed, str(passes[-1]["out"]), args.size), args.seed
        )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            run_dir.parent.rmdir()

    units = workload.units(args.size)
    attempted = units * len(passes)
    failed = attempted if spot_problems else units * sum(1 for p in passes if p["problems"])
    for record in passes:
        for problem in record["problems"]:
            print(f"check failed: {problem}", file=sys.stderr)
    for problem in spot_problems:
        print(f"spot-check failed: {problem}", file=sys.stderr)

    if args.trace:
        specs = layers.per_layer_specs()
        values = per_layer_metrics(workload, args.size, tracer, passes)
    else:
        specs = END_TO_END
        values = end_to_end_metrics(workload, args.size, passes, setup_times,
                                    setup_children_kib, (attempted - failed) / attempted)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in specs}

    digests = sorted({p["digest"] for p in passes if p["digest"]})
    print("facts " + json.dumps(facts, sort_keys=True))
    print(f"workload {workload.name} seed {args.seed} size {args.size} passes {len(passes)} "
          f"traced {sum(p['traced'] for p in passes)} units/pass {units}")
    print("pass_wall_s " + " ".join(f"{p['wall']:.3f}{'T' if p['traced'] else ''}" for p in passes))
    print("pass_cpu_s " + " ".join(f"{p['cpu']:.3f}{'T' if p['traced'] else ''}" for p in passes))
    print(f"digest {' '.join(digests) or 'none'}")
    if tracer is not None:
        absent = sorted(layers.needed_functions() - set(tracer.functions))
        print(f"absent {' '.join(absent) or 'none'}")
        counts = layers.module_span_counts(tracer.spans)
        print("spans " + " ".join(f"{k}={v}" for k, v in counts.items()))
    for name, metric in metrics.items():
        print(f"metric {name} {metric['value']!r} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
