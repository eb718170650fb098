"""Run one workload of the etp benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload token_train --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace
1`` runs the workload's timed part once untraced and once with every
layer wrapped, and reports the per-layer metrics, their self times and
the tracing overhead (traced minus untraced wall time). The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it are a
table for people. The exit status is 0 only when every operation passed
its output checks. ``--workload all`` runs each workload in a process of
its own, one after another.

Each run also writes its result, stamped with the environment, and for
traced runs every recorded span, under ``.perfbench_out/`` at the root
of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("token_train", "span_train")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(load_1min: float) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name", "unknown"), "version": blas.get("version", "unknown")},
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "load_1min_at_start": load_1min,
    }


def run_all(args) -> int:
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


def measure(w, seed: int, seconds: float, trace: bool):
    """Run the workload; return (ledger, metrics, spans or None)."""
    import workloads as wl
    from tracing import Tracer, per_layer_metrics

    ledger = wl.Ledger()
    try:
        dataset, docs = wl.setup(w, seed, ledger)
        if not trace:
            wl.timed_part(w, dataset, docs, seed, ledger, seconds)
            return ledger, wl.end_to_end_metrics(ledger), None
        start = time.perf_counter()
        wl.timed_part(w, dataset, docs, seed, ledger, 0.0)
        untraced_s = time.perf_counter() - start
        with Tracer() as tracer:
            start = time.perf_counter()
            with tracer.span("bench.rep"):
                wl.timed_part(w, dataset, docs, seed, ledger, 0.0)
            traced_s = time.perf_counter() - start
        metrics = per_layer_metrics(tracer.spans, tracer.counters, untraced_s, traced_s)
        return ledger, metrics, tracer.spans
    except wl.Aborted as exc:
        print(f"perfbench: {w.name} stopped: {exc}", file=sys.stderr)
        return ledger, {}, None


def print_table(w, metrics: dict, ledger) -> None:
    print(f"# workload {w.name}")
    rows = [(name, value, unit) for name, (value, unit) in metrics.items()]
    rows += [(name, value, "fraction") for name, value in ledger.quality.items()]
    for name, value, unit in rows:
        print(f"{name:36s} {value:>16.6g} {unit}")
    counts = {name: len(values) for name, values in ledger.samples.items()}
    print(f"# samples per metric: {json.dumps(counts, sort_keys=True)}")
    print(f"# operations attempted {ledger.attempted}, failed {ledger.failed}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    load_1min = os.getloadavg()[0]
    for var in BLAS_THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "etp" / "__init__.py").is_file():
        print(f"perfbench: no etp sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads as wl

    w = wl.WORKLOADS[args.workload]
    env = environment(load_1min)
    print(f"# env {json.dumps(env, sort_keys=True)}")
    ledger, metrics, spans = measure(w, args.seed, args.seconds, bool(args.trace))
    correct = ledger.failed == 0
    print_table(w, metrics, ledger)
    result = {
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{w.name}-seed{args.seed}-trace{args.trace}"
    record = {**result, "workload": w.name, "seed": args.seed, "env": env,
              "quality": ledger.quality, "errors": ledger.errors, "samples": ledger.samples}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        with open(OUT_DIR / f"{stem}-spans.jsonl", "w") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.dont_write_bytecode = True
    sys.exit(main())
