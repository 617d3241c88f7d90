"""Benchmark of the prhc package: one workload per process.

    python3 perfbench/run.py --workload quadratic_scale --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`. Set-up (import of `prhc` plus `gen_scenario` for every task) is
timed in several fresh child processes and reported as its median. The
timed loop then repeats one pass over the workload's fixed task list until
`--seconds` have passed, checking every output, and reports the median pass
time. With `--trace 1` the passes alternate between untraced and traced, and
the per-layer metrics come from the traced ones.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the line before it is the run record
(sizes, versions, thread settings, output digest, deterministic counts),
which is also appended to `.bench_build/perfbench/records.jsonl`. A run whose
digest or counts differ from an earlier record of the same code, workload,
seed and sizes reports the mismatch and is not correct.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread unless the caller chose otherwise: on a shared 2-CPU machine
# a second, spinning OpenBLAS thread made the exact quadratic path about 10%
# faster but doubled the spread of repeated task times (CV 0.11 against 0.05).
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RECORDS = ROOT / ".bench_build" / "perfbench" / "records.jsonl"
WORKLOAD_NAMES = ("table1", "quadratic_scale", "oracle")
SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 120
ACCOUNTING_TOL_S = 1e-6


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes, for checking the benchmark itself")
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: time one set-up and print it as JSON")
    return p.parse_args(argv)


def build_tasks(args):
    from workloads import WORKLOADS  # imports prhc and numpy
    wl = WORKLOADS[args.workload]
    sizes = wl.smoke if args.smoke else wl.full
    return wl, sizes, wl.build(args.seed, sizes)


def setup_probe(args) -> int:
    t0 = time.perf_counter()
    build_tasks(args)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


def measure_setup(args) -> list:
    """Set-up time of fresh processes: import of prhc plus gen_scenario."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=True)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def run_pass(wl, sizes, scenarios, tracer=None) -> dict:
    """One pass over every task, checks and summary included in the time."""
    outputs, failed, problems = [], 0, []
    t0 = time.perf_counter()
    for index, sc in enumerate(scenarios):
        if tracer is not None:
            tracer.task = index
        try:
            out = wl.run(sc, sizes)
            task_problems = wl.check(sc, out, sizes)
        except Exception:  # a raising task is counted as failed; the loop goes on
            out = None
            task_problems = [traceback.format_exc(limit=4)]
        if task_problems:
            failed += 1
            out = None
            problems += [f"task {index} (seed {sc.seed}, {sc.cost_kind}, N={sc.N}): {p}"
                         for p in task_problems]
        outputs.append(out)
    payload, cost, pass_problems = wl.summarize(scenarios, outputs, sizes)
    wall = time.perf_counter() - t0
    return {
        "wall": wall, "failed": failed, "problems": problems + pass_problems,
        "digest": hashlib.sha256(payload).hexdigest(), "cost_total": cost,
    }


def source_digest() -> str:
    h = hashlib.sha256()
    for base in (SRC / "prhc", BENCH_DIR):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_sha():
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
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


def blas_record() -> dict:
    import ctypes
    import glob

    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(glob.glob(str(libdir / "*openblas*"))):
        getter = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            threads = int(getter())
    env = {k: os.environ.get(k) for k in
           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {"name": blas.get("name"), "version": blas.get("version"),
            "threads": threads, "env": env}


def run_record(args, wl, sizes) -> dict:
    import numpy as np
    from prhc.harness import worker_count
    try:
        workers = worker_count()
    except ValueError as exc:
        workers = f"invalid: {exc}"
    return {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "sizes": {k: list(v) if isinstance(v, tuple) else v for k, v in sizes.items()},
        "why": wl.why, "note": wl.note,
        "git_sha": git_sha(), "source_digest": source_digest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "PRHC_THREADS": os.environ.get("PRHC_THREADS"), "worker_count": workers,
        "blas": blas_record(),
    }


def compare_with_records(record: dict) -> list:
    """Mismatches against earlier runs of the same code, workload, seed, sizes
    and BLAS thread count."""
    key = ("workload", "seed", "smoke", "sizes", "source_digest")
    problems = []
    if RECORDS.is_file():
        for line in RECORDS.read_text().splitlines():
            old = json.loads(line)
            # BLAS reductions are ordered by thread count, so report bytes may
            # differ in the last digit between thread settings
            if (any(old.get(k) != record[k] for k in key)
                    or old["blas"]["threads"] != record["blas"]["threads"]):
                continue
            if old["digest"] != record["digest"]:
                problems.append(f"output digest {record['digest']} differs from "
                                f"{old['digest']} of an earlier run")
            if old.get("counts") and record.get("counts") and old["counts"] != record["counts"]:
                diff = sorted(k for k in record["counts"]
                              if old["counts"].get(k) != record["counts"][k])
                problems.append(f"deterministic counts differ from an earlier run: {diff}")
    return list(dict.fromkeys(problems))


def layer_metrics(tracer, untraced: list) -> tuple:
    """Per-layer metrics: set-up spans once, plus the mean of the traced passes."""
    from tracing import LATENCY_SPANS, SPAN_NAMES, tail

    setup, passes = tracer.phases[0], tracer.phases[1:]
    counts = [p.span_counts() for p in passes]
    problems = []
    if any(c != counts[0] for c in counts[1:]):
        problems.append("deterministic counts differ between traced passes")
    setup_counts = setup.span_counts()
    total = {k: setup_counts[k] + counts[0][k] for k in counts[0]}

    n_passes = len(passes)
    setup_times = setup.times()
    pass_times = [p.times() for p in passes]
    unattributed = [p.wall - p.root_time() for p in passes]
    for p, gap in zip(passes, unattributed):
        if abs(p.self_time() + gap - p.wall) > ACCOUNTING_TOL_S:
            problems.append(f"trace accounting: self times plus unattributed "
                            f"{p.self_time() + gap!r} != traced wall {p.wall!r}")
    m = {}
    for name in SPAN_NAMES:
        m[f"{name}.calls"] = (total[f"{name}.calls"], "count")
        m[f"{name}.total_s"] = (setup_times[name][0]
                                + sum(t[name][0] for t in pass_times) / n_passes, "s")
        m[f"{name}.self_s"] = (setup_times[name][1]
                               + sum(t[name][1] for t in pass_times) / n_passes, "s")
    for name in ("costs.eval.calls", "costs.eval.rows", "costs.gradient.calls",
                 "costs.envelope_solves", "solver.iterations", "solver.unconverged",
                 "policy.windows", "linsys.stack_dynamics.bytes_computed"):
        m[name] = (total[name], "bytes" if name.endswith("bytes_computed") else "count")
    windows = total["solver.windows"]
    m["solver.converged_ratio"] = (
        (windows - total["solver.unconverged"]) / windows if windows else 1.0, "ratio")
    for name in LATENCY_SPANS:
        samples = [d for p in passes for d in p.durations(name)]
        p50, tail_s, level = tail(samples)
        m[f"{name}.p50_ms"] = (1e3 * p50, "ms")
        m[f"{name}.tail_ms"] = (1e3 * tail_s, "ms")
        m[f"{name}.tail_pct"] = (level, "pct")
        m[f"{name}.samples"] = (len(samples), "count")
    m["trace.overhead_s"] = (statistics.median(p.wall for p in passes)
                             - statistics.median(untraced), "s")
    m["trace.unattributed_s"] = (sum(unattributed) / n_passes, "s")
    setup_only = {f"setup.{name}": v for name, v in setup_counts.items() if v}
    return m, counts[0] | setup_only, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "prhc" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'prhc'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args)
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    setup_samples = measure_setup(args)
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.begin("setup")
        tracer.install()
        try:
            wl, sizes, scenarios = build_tasks(args)
        finally:
            tracer.uninstall()
    else:
        wl, sizes, scenarios = build_tasks(args)

    passes, traced_flags = [], []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        if traced:
            phase = tracer.begin(f"pass{len(passes)}")
            tracer.install()
            try:
                result = run_pass(wl, sizes, scenarios, tracer)
            finally:
                tracer.uninstall()
            phase.wall = result["wall"]
        else:
            result = run_pass(wl, sizes, scenarios)
        passes.append(result)
        traced_flags.append(traced)
        done_kinds = set(traced_flags) == ({False, True} if args.trace else {False})
        if time.perf_counter() - start >= args.seconds and done_kinds:
            break

    attempted = len(scenarios) * len(passes)
    failed = sum(p["failed"] for p in passes)
    problems = [msg for p in passes for msg in p["problems"]]
    digests = sorted({p["digest"] for p in passes})
    if len(digests) > 1:
        problems.append(f"output digest differs between passes: {digests}")
    untraced = [p["wall"] for p, t in zip(passes, traced_flags) if not t]

    record = run_record(args, wl, sizes)
    record.update({
        "tasks": len(scenarios), "passes": len(passes),
        "pass_walls_s": [p["wall"] for p in passes], "traced_passes": traced_flags,
        "setup_samples_s": setup_samples, "digest": passes[0]["digest"],
        "cost_total": passes[0]["cost_total"], "failed_frac": failed / attempted,
    })
    if args.trace:
        layer, counts, trace_problems = layer_metrics(tracer, untraced)
        problems += trace_problems
        record["counts"] = counts
        layer["cost_total"] = (passes[0]["cost_total"], "cost")
        layer["failed_frac"] = (failed / attempted, "ratio")
        metrics = layer
    else:
        metrics = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "wall_s": (statistics.median(untraced), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    problems += compare_with_records(record)
    record["problems"] = problems
    RECORDS.parent.mkdir(parents=True, exist_ok=True)
    with open(RECORDS, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    for msg in problems:
        print(f"perfbench: {msg}", file=sys.stderr)

    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
