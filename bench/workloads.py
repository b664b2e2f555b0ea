"""Inputs, operations and oracles of the three benchmark workloads.

A pass calls the program only through its public entry points and returns
one record per operation: its kind, its wall and CPU times and its
outcome.  An outcome is "ok" when the operation returned what the oracle
predicts, "raised:<ExceptionType>" when it raised, and "wrong" when it
returned something the oracle contradicts (a `fail` verdict included).
No exception aborts a pass.

The program receives only the generated inputs; the seed stays here.

Why these workloads:

- report-default is the north-star command.  Its 12,796 quadrature
  pieces reduce to 76 distinct exponents, and resolution plus moments
  take about 95% of its time, so a piece cache or deleting the thread
  pool shows here.
- verdict-sweep loads the verdict engine, norms, taxonomy, structure and
  special functions, and quadrature does no work, so a quadrature change
  must leave it unchanged.  It runs (`bench/run.py --workload
  verdict-sweep`) but is not listed in BENCHMARK.json: on a shared 2-CPU
  host the CPU time of one seed's pass ranged from 14.9 s to 26.5 s
  within ten minutes, and its spread over ten seeds reached 23%, against
  3% for report-default, so it cannot hold a regression bound there.
- moments-fresh loads the same quadrature as report-default with little
  reuse (13.5% of its pieces are distinct at seed 7, against 0.6%), so
  the per-piece cost dominates and a cache gains little.  Known failures stay
  visible: when an exponent rounds to about -4e-15 instead of 0, route A
  takes floor(q) = -1 and the routes disagree by about 5e-3
  (QuadratureDisagreement).  verdict-sweep likewise keeps the
  ZeroDivisionError that escapes `run_class_checks` under `kappa 32=0`.

Inputs left out, only because a pass must end (add them back as a
workload once the program bounds them):

- `norm_series` under any kappa override of 1e-3 or less on
  `3d.2dof.gamma1-plain3` and its siblings: at z^2 = 0.1 omega it did not
  return within 10 minutes, because the 2D frontier doubles toward
  4096^2 terms with no time budget.  verdict-sweep sums norm series only
  at the natural ratios and under `kappa 32=0`, which stay clear of it;
  its small-kappa probes go through `class_verdict`, which sums none.
- Route A (Gauss-Laguerre) for exponents q > 600, where a 200-node rule
  is no longer exact, and route B (adaptive Simpson) for q >= 2500,
  where its panel queue outgrows memory.  With frequencies in [0.5, 4]
  and summed indices up to 20 the exponents stay far below; the traced
  run reports the largest as `quadrature.max_exponent`.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import tempfile
import time

from vcslab import cli, convergence, moments
from vcslab.frequencies import FrequencyConfig
from vcslab.registry import registry

OMEGA_LO, OMEGA_HI = 0.5, 4.0
VERDICT_KAPPAS = (0.0, 1e-6, 1e-3, 0.1, 1.0, 10.0)
VERIFY_CHECKS = ["norm", "convergence", "factor", "limits"]
ZEROED_RATIO = (3, 2)  # the criterion-4 override `--kappa 32=0`

# Inputs per pass.  Full sizes are what the benchmark measures; tiny
# sizes only exercise every code path for the self-test.
FULL = {"verdict-sweep": {}, "moments-fresh": {"bases": 1}}
TINY = {
    "report-default": {"argv": ["--nmax", "2"]},
    "verdict-sweep": {"classes": 8},
    "moments-fresh": {"bases": 1, "classes": 8, "n_range": 3},
}


class Recorder:
    """Collects one (kind, wall_s, cpu_s, outcome) record per operation.

    cpu_s is the CPU time of the calling thread: other processes on the
    machine do not inflate it, and on the thread pool it leaves out the
    time a class waits for the interpreter lock.
    """

    def __init__(self):
        self.ops: list[tuple[str, float, float, str]] = []

    def add(self, kind, t0, c0, outcome):
        """Record an operation that started at perf_counter t0 and thread_time c0."""
        self.ops.append((kind, time.perf_counter() - t0, time.thread_time() - c0, outcome))

    def call(self, kind, oracle, fn, *args, **kwargs):
        """Time fn(*args, **kwargs); oracle(result) or oracle(exception) -> outcome."""
        t0, c0 = time.perf_counter(), time.thread_time()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # every failure is classified, none aborts the pass
            self.add(kind, t0, c0, oracle(exc))
            return
        self.add(kind, t0, c0, oracle(result))


def _raised(exc: BaseException) -> str:
    return f"raised:{type(exc).__name__}"


def base_triples(seed: int, count: int, stream: str) -> list[tuple[float, float, float]]:
    """Seeded frequency triples, uniform in [0.5, 4] with 6 decimals.

    Each axis is stratified (a Latin hypercube), so a pass covers the
    range evenly whatever the seed.  No frequency is an integer.
    """
    rng = random.Random(f"{stream}/{seed}")
    width = (OMEGA_HI - OMEGA_LO) / count
    axes = []
    for _ in range(3):
        strata = list(range(count))
        rng.shuffle(strata)
        column = []
        for k in strata:
            w = round(OMEGA_LO + width * (k + rng.random()), 6)
            while w == int(w):
                w = round(OMEGA_LO + width * (k + rng.random()), 6)
            column.append(w)
        axes.append(column)
    return list(zip(*axes))


def rotations(t):
    """The three cyclic rotations of a triple: each tower takes each value once.

    Verdict and moment costs depend strongly on which tower has the
    smallest frequency; rotating keeps that mix fixed, so the seed moves
    the values of a pass but not its cost much.
    """
    return [t, (t[1], t[2], t[0]), (t[2], t[0], t[1])]


def _fc(spec, triple) -> FrequencyConfig:
    return FrequencyConfig(tuple(triple[: spec.dimension]))


def _zeroes_required_group(spec, ratio) -> bool:
    return any(grp and all(p == ratio for p in grp) for grp in convergence.required_positive_ratios(spec))


def _expect_verdicts(verdict: str):
    """Oracle of one run_verification call: every check ends in `verdict`."""

    def oracle(result):
        if isinstance(result, Exception):
            return _raised(result)
        got = [r["verdict"] for r in result["results"]]
        return "ok" if got and all(v == verdict for v in got) else "wrong"

    return oracle


def _predicted_verdict(spec, used, ratio, kappa) -> str:
    """Verdict of class_verdict with ratio pinned to kappa, from the class structure alone.

    Convergent for kappa > 0.  At kappa = 0 a class that also uses the
    reciprocal ratio is undefined (ZeroDivisionError), and one whose
    required-positive group is zeroed diverges.
    """
    if kappa > 0.0:
        return "convergent"
    if (ratio[1], ratio[0]) in used:
        return "ZeroDivisionError"
    return "divergent" if _zeroes_required_group(spec, ratio) else "convergent"


def _expect_status(want: str):
    def oracle(result):
        if isinstance(result, Exception):
            return "ok" if type(result).__name__ == want else _raised(result)
        return "ok" if result.status == want else "wrong"

    return oracle


# -- report-default -------------------------------------------------------


def report_default(seed: int, work_dir: str, tiny: bool = False) -> dict:
    """`vcslab report` at its defaults; one operation is one class's checks.

    The inputs do not depend on the seed.  VCSLAB_THREADS is left as the
    caller's environment has it, so the default thread pool runs.
    """
    rec = Recorder()
    inner = cli.run_class_checks

    def expect_all_pass(result):
        if isinstance(result, Exception):
            return _raised(result)
        return "ok" if all(r["verdict"] == "pass" for r in result) else "wrong"

    def timed(class_id, cfg):
        t0, c0 = time.perf_counter(), time.thread_time()
        try:
            result = inner(class_id, cfg)
        except Exception as exc:
            rec.add("class", t0, c0, _raised(exc))
            raise
        rec.add("class", t0, c0, expect_all_pass(result))
        return result

    argv = ["report"] + (TINY["report-default"]["argv"] if tiny else [])
    expected_classes = len(registry())
    cli.run_class_checks = timed
    try:
        with tempfile.TemporaryDirectory(dir=work_dir) as tmp:
            out = os.path.join(tmp, "report.json")
            try:
                rc = cli.main(argv + ["--out", out])
                error = None
            except Exception as exc:
                rc, error = None, _raised(exc)
            data = b""
            if os.path.exists(out):
                with open(out, "rb") as fh:
                    data = fh.read()
    finally:
        cli.run_class_checks = inner
    summary = json.loads(data)["summary"] if data else {}
    # classes never checked because the command aborted count as failed
    for _ in range(expected_classes - len(rec.ops)):
        rec.ops.append(("class", 0.0, 0.0, error or "not-run"))
    consistent = (
        rc == 0
        and summary.get("classes") == expected_classes
        and summary.get("passed") == summary.get("checks")
    )
    return {
        "ops": rec.ops,
        "timed_kinds": ["class"],
        "consistent": consistent,
        "summary": summary,
        "report_sha256": hashlib.sha256(data).hexdigest(),
    }


# -- verdict-sweep ----------------------------------------------------------


def verdict_sweep(seed: int, work_dir: str, tiny: bool = False) -> dict:
    """Library sweep of the verdict engine over seeded frequency triples.

    Per class and triple: one `run_verification` at the defaults, one with
    `kappa 32=0`, and one `class_verdict` per ratio the class uses at each
    of VERDICT_KAPPAS.  Each class gets its own seeded triple, in its
    three rotations.  Quadrature does no work here.

    All three kinds count as operations for failures, but latency is taken
    over the `class_verdict` calls only: they are five in six of the
    operations, and the two kinds together have no stable median, which
    falls in the gap between fast verdicts (about 2 ms) and verifications
    and slow verdicts (10 to 30 ms).
    """
    size = (TINY if tiny else FULL)["verdict-sweep"]
    specs = registry()[: size.get("classes")]
    bases = base_triples(seed, len(specs), "verdict-sweep")
    rec = Recorder()
    predicted = {"convergent": 0, "divergent": 0, "ZeroDivisionError": 0}
    for i, spec in enumerate(specs):
        used = spec.ratios_used()
        k32_verdict = "undefined" if _zeroes_required_group(spec, ZEROED_RATIO) else "pass"
        for triple in rotations(bases[i]):
            rec.call(
                "verify", _expect_verdicts("pass"), cli.run_verification,
                cli.RunConfig(classes=[spec.id], omegas=list(triple), checks=list(VERIFY_CHECKS)),
            )
            rec.call(
                "verify-k32", _expect_verdicts(k32_verdict), cli.run_verification,
                cli.RunConfig(
                    classes=[spec.id], omegas=list(triple), checks=list(VERIFY_CHECKS),
                    kappa_overrides={ZEROED_RATIO: 0.0},
                ),
            )
            fc = _fc(spec, triple)
            fixed = (1,) * len(spec.fixed)
            for ratio in sorted(used):
                for kappa in VERDICT_KAPPAS:
                    want = _predicted_verdict(spec, used, ratio, kappa)
                    predicted[want] += 1
                    rec.call(
                        "verdict", _expect_status(want), convergence.class_verdict,
                        spec, fc, fixed, overrides={ratio: kappa},
                    )
    return {"ops": rec.ops, "timed_kinds": ["verdict"], "consistent": True, "predicted": predicted}


# -- moments-fresh ----------------------------------------------------------


def moments_fresh(seed: int, work_dir: str, tiny: bool = False) -> dict:
    """`verify_moments` on every class at seeded non-integer frequencies.

    Every class is checked at the same frequency triples: the three
    rotations of one seeded base triple.  The fixed index of each (triple,
    class) is drawn from {0..3}.  Few quadrature pieces repeat, so
    per-piece cost dominates.
    """
    size = (TINY if tiny else FULL)["moments-fresh"]
    n_range = size.get("n_range", 20)
    specs = registry()[: size.get("classes")]
    rng = random.Random(f"moments-fresh-fixed/{seed}")
    rec = Recorder()

    def oracle(result):
        if isinstance(result, Exception):
            return _raised(result)
        return "ok" if result.verdict == "pass" else "wrong"

    frequency_points = [r for t in base_triples(seed, size["bases"], "moments-fresh") for r in rotations(t)]
    for triple in frequency_points:
        for spec in specs:
            fixed = tuple(rng.randrange(4) for _ in spec.fixed)
            rec.call(
                "moments", oracle, moments.verify_moments,
                spec, _fc(spec, triple), fixed, n_range=n_range, tol=1e-8,
            )
    return {"ops": rec.ops, "timed_kinds": ["moments"], "consistent": True}


WORKLOADS = {
    "report-default": report_default,
    "verdict-sweep": verdict_sweep,
    "moments-fresh": moments_fresh,
}
