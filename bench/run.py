"""The vcslab benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports vcslab from the
checkout's `src` and writes only under `bench/out/`.  The workloads,
their oracles and the inputs left out are described in
`bench/workloads.py`; metric names and units are those of BENCHMARK.json.

Every pass runs in a fresh interpreter, as every `vcslab` command does,
with one caller and one operation at a time (a closed loop), and
VCSLAB_THREADS unset.

--trace 0 times passes until --seconds is used up (at least one) and
reports the end-to-end metrics, medians over the passes:

  cpu_s           CPU time of one pass (all threads)
  op_cpu_p50_ms   median CPU time of one operation, on its own thread
  op_cpu_tail_ms  the same at the highest percentile that keeps ten
                  operations above it (percentile and count in the context)
  setup_s         CPU time to import vcslab.cli and build the registry in a
                  fresh interpreter; median of several interpreters
  peak_rss_mb     peak resident memory of the pass process

They are CPU times because this benchmark runs on shared machines: on a
shared 2-CPU host, wall time of the same default report ranged from
20.6 s to 33.2 s within half an hour while its CPU time ranged from
23.7 s to 26.0 s.  The wall-clock figures are printed in the context
line.

--trace 1 runs one pass untraced and one under the tracer (bench/spans.py)
and reports the per-layer metrics; the difference between the CPU times
of the two passes is the tracing overhead.

attempted and failed count each operation of the workload once, however
many passes ran, so they depend on the seed alone; every pass must give
the outcomes of the first.

The last line of standard output is the result; the line before it holds
the run's context (machine, versions, seed, source identity, outcome
counts by kind and exception type).  The exit code is 0 whenever a
result is printed, and 2 without one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("report-default", "verdict-sweep", "moments-fresh")
SETUP_SAMPLES = 8   # set-up-only interpreters per measured run, besides one per pass
BUDGET_S = 170.0    # a run must end within 180 s
TAIL_BEYOND = 10    # the tail percentile keeps this many samples above it


class BenchError(Exception):
    pass


def spawn(args: list[str], deadline: float) -> dict:
    """Run the worker in a fresh interpreter and return its JSON line."""
    env = dict(os.environ)
    env.pop("VCSLAB_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget used up")
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, *args],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args} did not finish within the time budget")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args} exited {proc.returncode}: {proc.stderr.strip()[-3000:]}")
    return json.loads(lines[-1])


def latency_stats(p, field) -> tuple[float, float, float]:
    """(median, tail, tail percentile) of one pass's operation times.

    field 1 is wall time, field 2 CPU time of the operation's thread.
    Only the kinds of operation the workload times are included.
    """
    lat = sorted(op[field] for op in p["ops"] if op[0] in p["timed_kinds"])
    n = len(lat)
    if n <= TAIL_BEYOND:
        return statistics.median(lat), lat[-1], 100.0
    return statistics.median(lat), lat[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def outcomes(passes) -> dict:
    """Outcome counts by kind of operation, over one pass."""
    by_kind: dict[str, Counter] = defaultdict(Counter)
    for kind, _, _, outcome in passes[0]["ops"]:
        by_kind[kind][outcome] += 1
    return {k: dict(sorted(c.items())) for k, c in sorted(by_kind.items())}


def tally(passes) -> tuple[bool, int, int]:
    """(correct, attempted, failed) over the workload's operations.

    Every pass repeats the same operations on the same inputs, so each
    operation is counted once: attempted and failed depend on the seed
    alone, not on how many passes fit in --seconds.  An operation fails
    if it raised, or returned what its oracle contradicts ("wrong").  A
    wrong result makes the run incorrect, and so does a pass whose
    outcomes differ from the first pass's (failed then counts the worst
    pass); raised errors are failures the program reports itself,
    counted and classified by type in the context line.
    """
    per_pass = [sorted((op[0], op[3]) for op in p["ops"]) for p in passes]
    attempted = len(per_pass[0])
    failed = max(sum(1 for _, outcome in ops if outcome != "ok") for ops in per_pass)
    correct = (
        all(ops == per_pass[0] for ops in per_pass)
        and all(outcome != "wrong" for _, outcome in per_pass[0])
        and all(p["consistent"] for p in passes)
    )
    if len({p.get("report_sha256") for p in passes}) > 1:
        correct = False  # the report must be byte-identical from pass to pass
    return correct, attempted, failed


def source_identity() -> dict:
    """Git commit when the checkout is a repository, and a hash of src/ always."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
            )
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def measure(args, pass_args, deadline) -> tuple[dict, dict, list]:
    setup_samples = 1 if args.tiny else SETUP_SAMPLES
    start = time.monotonic()
    setups = [spawn(["--setup-only"], deadline) for _ in range(setup_samples)]
    passes = []
    while True:
        t0 = time.monotonic()
        passes.append(spawn(pass_args, deadline))
        now = time.monotonic()
        last = now - t0
        if now - start + last > args.seconds or deadline - now < 2.0 * last:
            break
    setups += passes
    cpu = [latency_stats(p, 2) for p in passes]
    wall = [latency_stats(p, 1) for p in passes]
    metrics = {
        "cpu_s": (statistics.median(p["cpu_s"] for p in passes), "s"),
        "op_cpu_p50_ms": (1e3 * statistics.median(s[0] for s in cpu), "ms"),
        "op_cpu_tail_ms": (1e3 * statistics.median(s[1] for s in cpu), "ms"),
        "setup_s": (statistics.median(s["setup_cpu_s"] for s in setups), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }
    extra = {
        "passes": len(passes),
        "setup_samples": len(setups),
        "ops_per_pass": len(passes[0]["ops"]),
        "timed_kinds": passes[0]["timed_kinds"],
        "op_cpu_p50_ms_by_kind": {
            kind: 1e3 * statistics.median(op[2] for op in passes[0]["ops"] if op[0] == kind)
            for kind in sorted({op[0] for op in passes[0]["ops"]})
        },
        "tail_percentile": cpu[0][2],
        "tail_samples_beyond": TAIL_BEYOND,
        # wall-clock figures, which other tenants of the machine inflate
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "op_wall_p50_ms": 1e3 * statistics.median(s[0] for s in wall),
        "op_wall_tail_ms": 1e3 * statistics.median(s[1] for s in wall),
        "setup_wall_s": statistics.median(s["setup_wall_s"] for s in setups),
        "pass_walls_s": [p["wall_s"] for p in passes],
        "pass_cpus_s": [p["cpu_s"] for p in passes],
    }
    return metrics, extra, passes


def trace(args, pass_args, deadline) -> tuple[dict, dict, list]:
    span_file = os.path.join(OUT, f"spans-{args.workload}.jsonl")
    plain = spawn(pass_args, deadline)
    traced = spawn(pass_args + ["--spans", span_file], deadline)
    layers = {k: tuple(v) for k, v in traced["layers"].items()}
    covered, _ = layers.pop("trace.covered_s")
    # CPU time: other load on the machine moves it far less than wall time
    overhead = traced["cpu_s"] - plain["cpu_s"]
    layers["trace.overhead_s"] = (overhead, "s")
    # share of the pass, tracing overhead taken out, that lies inside spans
    layers["trace.coverage"] = ((covered - overhead) / (traced["wall_s"] - overhead), "ratio")
    extra = {
        "untraced_wall_s": plain["wall_s"],
        "traced_wall_s": traced["wall_s"],
        "untraced_cpu_s": plain["cpu_s"],
        "traced_cpu_s": traced["cpu_s"],
        "spans_file": os.path.relpath(span_file, ROOT),
    }
    return layers, extra, [plain, traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="vcslab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test only")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
        if not os.path.isfile(os.path.join(SRC, "vcslab", "__init__.py")):
            raise BenchError(f"no vcslab sources under {SRC}")
        os.makedirs(OUT, exist_ok=True)
        # untimed: the first import in a fresh checkout compiles the bytecode
        versions = spawn(["--setup-only"], deadline)["versions"]
        pass_args = ["--workload", args.workload, "--seed", str(args.seed), "--work-dir", OUT]
        if args.tiny:
            pass_args.append("--tiny")
        metrics, extra, passes = (trace if args.trace else measure)(args, pass_args, deadline)
        units = {m["name"]: m["unit"] for m in declared}
        got = {name: unit for name, (_, unit) in metrics.items()}
        if got != units:
            raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(set(got.items()) ^ set(units.items()))}")
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    correct, attempted, failed = tally(passes)
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "machine": {"nproc": os.cpu_count(), **versions},
        "VCSLAB_THREADS": None,  # unset for every pass, as a user runs vcslab
        "source": source_identity(),
        "outcomes": outcomes(passes),
        "failed_frac": failed / attempted,
        "report_sha256": sorted({p["report_sha256"] for p in passes if "report_sha256" in p}),
        **extra,
    }
    if "predicted" in passes[0]:
        context["predicted_verdicts"] = passes[0]["predicted"]
    if "summary" in passes[0]:
        context["report_summary"] = passes[0]["summary"]
    print(json.dumps({"context": context}))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
