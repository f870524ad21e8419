"""edgesim benchmark: one workload, one seed, host and simulated metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {train,swarm-apf,swarm-grid} --seed N \
        --seconds S --trace {0,1}

The benchmark imports ``edgesim`` from ``src/`` of the checkout and does all
lazy set-up (import, ``default_params()`` calibration, the LFSR cycle table,
the inputs). It checks the golden cases against pinned digests, then repeats
the seed's pass (see workloads.py) until about S seconds of passes are timed.
Every repeat must reproduce the first pass's digests.

``--trace 0`` reports the end-to-end metrics: ``setup_s``, the median set-up
time of fresh processes started between passes; ``wall_s``, the seconds of a
typical pass, with each case timed against a fixed reference kernel run just
before it to cancel the host's drifting speed (see pass_seconds);
``steps_per_s``, the pass's agent-steps over ``wall_s``; ``peak_rss_mb``; and,
on the printed lines only, ``fail_frac``, the raw ``host_wall_s`` and the
pass's simulated steps, energy and task success.
``--trace 1`` runs every case of a pass untraced and then with spans around
the calls into each edgesim module (spans.py), and reports the per-layer
metrics; the traced digests must equal the untraced ones and the span call
counts must repeat exactly from pass to pass.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Each run is also
appended, with every measured value, to ``.bench_records/runs.jsonl``.
"""

from __future__ import annotations

import os

# The workloads only use tiny matmuls; keep BLAS/OpenMP single-threaded here
# and in the set-up probes (set before numpy is imported).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"
RECORDS = ROOT / ".bench_records" / "runs.jsonl"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
MIN_TRACED_PASSES = 2
# The reference kernel's typical time on the 2-vCPU x86-64 VM the benchmark
# was written on (Python 3.11, numpy 2.4). It only sets the scale of wall_s.
REFERENCE_S = 0.005


def import_program():
    """Import edgesim from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import edgesim

    if Path(edgesim.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"edgesim imported from {edgesim.__file__}, not from {SRC}")


def prepare(workload: str):
    """Do all lazy set-up and build the workload's inputs."""
    from edgesim import macmodel, stochsyn
    from workloads import WORKLOADS

    macmodel.default_params()   # calibration, cached for the process
    stochsyn.Lfsr().bits(1)     # builds the 65535-state LFSR cycle table
    return WORKLOADS[workload]()


def probe_setup(workload: str) -> float:
    """Seconds from spawning a fresh process until its set-up is done."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload]
    t0 = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.wait(timeout=PROBE_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def reference_kernel() -> float:
    """Fixed work that does not touch edgesim: a Python loop over tiny numpy
    operations, the same mix as a simulated step."""
    x = np.arange(4.0)
    acc = 0.0
    for i in range(600):
        acc += float(np.abs(np.clip(x * 0.5 + i, -3.0, 3.0)).sum()) + (i % 7) * 0.5
    return acc


class Ledger:
    """Runs cases, counts the runs attempted and failed, reports each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def fail(self, label: str, reason: str):
        self.failures.append({"case": label, "reason": reason})
        print(f"FAIL {label}: {reason}", flush=True)

    def run(self, case, expected: str | None = None):
        """Run one case. Returns (Outcome or None, (case seconds, seconds of the
        reference kernel run just before it, so both meet the same host))."""
        self.attempted += 1
        t0 = perf_counter()
        reference_kernel()
        t1 = perf_counter()
        try:
            result = case.run()
        except Exception:  # a failing simulation run is counted, not fatal
            timing = (perf_counter() - t1, t1 - t0)
            self.fail(case.label, traceback.format_exc().strip().replace("\n", " | "))
            return None, timing
        timing = (perf_counter() - t1, t1 - t0)
        outcome = case.reduce(result)
        if not (math.isfinite(outcome.energy_pj) and outcome.energy_pj >= 0):
            self.fail(case.label, f"energy {outcome.energy_pj!r} is not finite and >= 0")
        elif expected is not None and outcome.digest != expected:
            self.fail(case.label, f"digest {outcome.digest} != expected {expected}")
        return outcome, timing


def pass_seconds(passes) -> float:
    """Seconds of a typical pass on a host that runs reference_kernel in
    REFERENCE_S: each case's time over the kernel time measured just before
    it, median over the repeats, summed over the cases.

    On a shared 2-vCPU host the same code was seen to run up to 2.4x slower
    for seconds to minutes at a time, with CPU time equal to wall time, so
    the slowdowns come from other tenants and raw times drift by 25% between
    runs minutes apart. The kernel slows with the cases, and it is benchmark
    code, so a change to edgesim moves only the cases' side of the ratio.
    """
    return REFERENCE_S * sum(statistics.median(t / r for t, r in runs)
                             for runs in zip(*passes))


def host_seconds(passes) -> float:
    """Seconds a typical pass took on this host: each case's median time, summed."""
    return sum(statistics.median(t for t, _ in runs) for runs in zip(*passes))


def check_golden(wl, ledger: Ledger) -> list:
    from workloads import GOLDEN

    pinned = GOLDEN[wl.name]
    rows = []
    for case in wl.golden():
        outcome, (host_s, _) = ledger.run(case, pinned[case.label])
        ok = outcome is not None and outcome.digest == pinned[case.label]
        summary = outcome.summary if outcome is not None else "raised"
        print(f"golden {case.label}: {summary} [{'ok' if ok else 'MISMATCH'}]", flush=True)
        rows.append({"case": case.label, "ok": ok, "summary": summary,
                     "digest": outcome.digest if outcome else None, "host_s": host_s})
    return rows


def first_pass(wl, seed: int, ledger: Ledger):
    """Run the seed's pass, building its cases as the quotas ask for them."""
    cases, outcomes, timings = [], [], []
    gen = wl.pass_cases(seed)
    try:
        case = next(gen)
        while True:
            outcome, timing = ledger.run(case)
            cases.append(case)
            outcomes.append(outcome)
            timings.append(timing)
            case = gen.send(outcome)
    except StopIteration:
        pass
    for case, outcome in zip(cases, outcomes):
        print(f"case {case.label}: {outcome.summary if outcome else 'raised'}", flush=True)
    return cases, outcomes, timings


def expected_digest(outcome) -> str:
    return outcome.digest if outcome is not None else ""


def repeat_pass(cases, reference, ledger: Ledger):
    """Run the same cases again; each must reproduce its first-pass digest."""
    return [ledger.run(case, expected_digest(ref))[1] for case, ref in zip(cases, reference)]


def measured_s(passes) -> float:
    """Host seconds spent in the cases of these passes."""
    return sum(t for p in passes for t, _ in p)


def simulated(cases, outcomes) -> dict:
    done = [o for o in outcomes if o is not None]
    decided = [o for c, o in zip(cases, outcomes) if o is None or o.success or not c.cut]
    return {
        "sim_steps": (sum(o.steps for o in done), "count"),
        "sim_energy_pj": (sum(o.energy_pj for o in done), "pJ"),
        "sim_success_frac": (sum(o is not None and o.success for o in decided) / len(decided),
                             "ratio"),
    }


def untraced_run(args, wl, ledger: Ledger, record: dict) -> dict:
    """Repeat the seed's pass for about --seconds of timed work, timing a fresh
    process's set-up between passes so the probes meet different host states."""
    cases, outcomes, timings = first_pass(wl, args.seed, ledger)
    passes, probes = [timings], []
    while measured_s(passes) < args.seconds:
        probes.append(probe_setup(wl.name))
        passes.append(repeat_pass(cases, outcomes, ledger))
    while len(probes) < SETUP_PROBES:
        probes.append(probe_setup(wl.name))
    wall = pass_seconds(passes)
    actions = sum(o.actions for o in outcomes if o is not None)
    record["setup"]["probe_s"] = probes
    record["passes"] = {"cases": [c.label for c in cases], "actions": actions,
                        "case_and_reference_s": passes}
    metrics = {
        "setup_s": (statistics.median(probes), "s"),
        "wall_s": (wall, "s"),
        "steps_per_s": (actions / wall, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "fail_frac": (len(ledger.failures) / ledger.attempted, "ratio"),
        "host_wall_s": (host_seconds(passes), "s"),
    }
    metrics.update(simulated(cases, outcomes))
    return metrics


def traced_run(args, wl, tracer, ledger: Ledger, record: dict) -> tuple[dict, bool]:
    """Repeat the pass running each case untraced and then traced, so both
    meet the same host state; per-layer metrics come from the traced runs."""
    from spans import COUNTERS, SPANS

    cases, outcomes, timings = first_pass(wl, args.seed, ledger)
    plain, traced, snaps = [timings], [], []
    while len(traced) < MIN_TRACED_PASSES or measured_s(plain + traced) < args.seconds:
        tracer.reset()
        plain.append([])
        traced.append([])
        for case, ref in zip(cases, outcomes):
            plain[-1].append(ledger.run(case, expected_digest(ref))[1])
            with tracer.installed():
                traced[-1].append(ledger.run(case, expected_digest(ref))[1])
        snaps.append(tracer.snapshot())
    repeats = all(s["calls"] == snaps[0]["calls"] and s["counters"] == snaps[0]["counters"]
                  for s in snaps)
    if not repeats:
        print("FAIL trace self-test: span call counts differ between traced passes", flush=True)
    record["passes"] = {"cases": [c.label for c in cases],
                        "untraced_case_and_reference_s": plain,
                        "traced_case_and_reference_s": traced, "spans": snaps}

    # a span's share of a traced pass, taken within each pass so host speed cancels
    traced_host_s = [sum(t for t, _ in p) for p in traced]
    calls = snaps[0]["calls"]
    counters = snaps[0]["counters"]
    metrics = {}
    for span in SPANS:
        metrics[f"{span}.calls"] = (calls[span], "count")
        metrics[f"{span}.self_s"] = (statistics.median(s["self_s"][span] for s in snaps), "s")
        metrics[f"{span}.share"] = (statistics.median(
            s["self_s"][span] / wall for s, wall in zip(snaps, traced_host_s)), "ratio")
    for name in COUNTERS:
        metrics[name] = (counters[name], "count")

    def per_call(count, span):
        return count / calls[span] if calls[span] else 0.0

    metrics["stochsyn.bits_per_call"] = (
        per_call(counters["stochsyn.bits_drawn"], "stochsyn.lfsr_draw"), "count")
    metrics["macmodel.energy.elems_per_call"] = (
        per_call(counters["macmodel.energy.elems"], "macmodel.energy"), "count")
    metrics["swarmlab.lpu_mul.elems_per_call"] = (
        per_call(counters["swarmlab.lpu_mul.elems"], "swarmlab.lpu_mul"), "count")
    metrics["trace.wall_s"] = (pass_seconds(traced), "s")
    metrics["trace.overhead"] = (pass_seconds(traced) / pass_seconds(plain), "ratio")
    metrics.update(simulated(cases, outcomes))
    setup = record["setup"]
    metrics["setup.import_s"] = (setup["import_s"], "s")
    metrics["setup.macmodel.default_params.total_s"] = (
        setup["spans"]["total_s"]["macmodel.default_params"], "s")
    metrics["setup.stochsyn.lfsr_draw.total_s"] = (
        setup["spans"]["total_s"]["stochsyn.lfsr_draw"], "s")
    return metrics, repeats


def environment() -> dict:
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_rev": git_rev(),
    }


def git_rev() -> str | None:
    """The checked-out commit, read from .git without running git; None if absent."""
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
    return None


def write_record(record: dict):
    RECORDS.parent.mkdir(exist_ok=True)
    with RECORDS.open("a") as f:
        f.write(json.dumps(record) + "\n")


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=lambda s: int(s, 0), default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up, print 'ready' and exit (used to time set-up)")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    t0 = perf_counter()
    try:
        import_program()
    except ImportError as exc:
        print(f"bench: cannot import edgesim from {SRC}: {exc}", file=sys.stderr)
        return 2
    import_s = perf_counter() - t0
    if args.setup_probe:
        prepare(args.workload)
        print("ready", flush=True)
        return 0

    record = {"time": time.strftime("%Y-%m-%dT%H:%M:%S%z"), "workload": args.workload,
              "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "env": environment()}
    ledger = Ledger()
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        with tracer.installed():
            wl = prepare(args.workload)
        spans = tracer.snapshot()
    else:
        wl = prepare(args.workload)
        spans = None
    record["setup"] = {"import_s": import_s, "in_process_s": perf_counter() - t0,
                       "spans": spans}
    record["golden"] = check_golden(wl, ledger)
    if args.trace:
        metrics, self_test = traced_run(args, wl, tracer, ledger, record)
    else:
        metrics, self_test = untraced_run(args, wl, ledger, record), True

    correct = self_test and not ledger.failures
    record.update(correct=correct, attempted=ledger.attempted,
                  failed=len(ledger.failures), failures=ledger.failures,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    write_record(record)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    # The JSON carries exactly the metrics BENCHMARK.json declares for this mode.
    # The lines above also show fail_frac, which the JSON carries as "failed"
    # over "attempted" (a metric that reads 0 has no relative bound), the
    # simulated metrics of --trace 0 and each span's self time.
    declared = json.loads(BENCHMARK.read_text())["per_layer" if args.trace else "end_to_end"]
    for m in declared:
        if metrics[m["name"]][1] != m["unit"]:
            raise ValueError(f"{m['name']} is measured in {metrics[m['name']][1]}, "
                             f"BENCHMARK.json declares {m['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                    for m in declared},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
