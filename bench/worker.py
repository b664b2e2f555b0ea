"""One pass of one workload in a fresh interpreter; prints one JSON line.

    python3 bench/worker.py --setup-only
    python3 bench/worker.py --workload NAME --seed N --work-dir DIR [--spans FILE] [--tiny]

`bench/run.py` starts this with PYTHONPATH pointing at the checkout's
`src`.  Set-up (importing `vcslab.cli` and building the registry) is
timed before anything else, because every `vcslab` command pays it.
Times are taken twice: wall clock, and CPU time of the process, all of
its threads and any children.
With --spans the pass runs under the tracer and the spans are written to
FILE when the pass ends.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def cpu_time() -> float:
    """CPU seconds of this process, all threads, and of its finished children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--work-dir")
    parser.add_argument("--spans")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    t0, c0 = time.perf_counter(), cpu_time()
    import vcslab.cli
    from vcslab.registry import registry

    registry()
    out = {"setup_wall_s": time.perf_counter() - t0, "setup_cpu_s": cpu_time() - c0}

    if os.path.commonpath([os.path.abspath(vcslab.__file__), SRC]) != SRC:
        print(f"error: vcslab imported from {vcslab.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        import numpy
        import scipy

        out["versions"] = {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        }
        print(json.dumps(out))
        return 0

    import spans
    import workloads

    run = workloads.WORKLOADS[args.workload]
    if args.spans:
        with spans.Tracer(spans.OP_SPANS[args.workload]) as tracer:
            t0, c0 = time.perf_counter(), cpu_time()
            result = run(args.seed, args.work_dir, tiny=args.tiny)
            wall_s, cpu_s = time.perf_counter() - t0, cpu_time() - c0
        tracer.write(args.spans)
        out["layers"] = tracer.layer_metrics(wall_s)
    else:
        t0, c0 = time.perf_counter(), cpu_time()
        result = run(args.seed, args.work_dir, tiny=args.tiny)
        wall_s, cpu_s = time.perf_counter() - t0, cpu_time() - c0
    out["wall_s"] = wall_s
    out["cpu_s"] = cpu_s
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out.update(result)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
