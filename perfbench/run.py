#!/usr/bin/env python3
"""ctlsim benchmark: end-to-end metrics per workload, per-layer metrics when traced.

    python3 perfbench/run.py --workload {cli,scan,pulses} --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --baseline

Run it from the root of a source checkout: ctlsim is imported from ./src,
never from an installed copy, and the run fails without it. The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics; the lines above it print every metric with its unit,
the provenance, and (traced) the Baseline table.

--trace 0 reports the end-to-end metrics, with tracing off:
  setup_s      median of five fresh set-ups (process start, imports, input
               generation, warm-up) up to the point where timing would start
  op_p50_s     median op latency
  op_tail_s    highest percentile of op latency with 10 ops beyond it; the
               timed loop runs past --seconds until 11 ops have been tried
               and, for cli, until its round of subcommands is complete
  ops_per_s    ops completed per second of timed wall time
  peak_rss_mb  peak resident memory; for cli the largest `ctlsim` process
Failures (exceptions, non-zero exits, failed output checks) are reported as
`failed` out of `attempted`, printed as fail_frac.

--trace 1 runs half the time untraced and half with spans around every call
into a ctlsim module, then the Baseline rows and the J_CAP probe with spans
still on, and reports per-layer metrics over everything traced. --baseline
prints the Baseline table alone, each row the median of three.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
SETUP_RUNS = 5
TAIL_BEYOND = 10  # ops op_tail_s needs above its percentile
J_CAP_PROBES = 4

# Workload reasons, metric names and units: BENCHMARK.json is the one source.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WHY = {w["name"]: w["why"] for w in SPEC["workloads"]}
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]


def blas_threads() -> int:
    """Pin the BLAS pool, before numpy loads: the requested count (default 1), capped at nproc."""
    nproc = len(os.sched_getaffinity(0))
    requested = os.environ.get("OMP_NUM_THREADS") or os.environ.get("OPENBLAS_NUM_THREADS") or "1"
    threads = max(1, min(int(requested), nproc))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def provenance(workload: str, seed: int, threads: int) -> dict:
    git = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        git = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "ctlsim").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": git or "unknown (not a git checkout)",
        "src_sha256": digest.hexdigest(),
        "workload": workload,
        "why": WHY[workload],
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas_threads": threads,
    }


class Phase:
    """One timed closed loop: ops first..end-1, their latencies and outputs."""

    def __init__(self, first: int):
        self.first = self.end = first
        self.wall = 0.0
        self.latencies: list[float] = []
        self.outputs: dict[int, object] = {}
        self.errors: dict[int, str] = {}

    @property
    def ops_per_s(self) -> float:
        return len(self.outputs) / self.wall


def timed(wl, first: int, seconds: float, tracer=None, min_ops: int = 0) -> Phase:
    """Run ops back to back for ``seconds``, and on until ``min_ops`` have been
    tried and the last cycle of the workload's op mix is complete."""
    phase = Phase(first)
    t0 = now = time.perf_counter()
    i = first
    while now < t0 + seconds or i - first < min_ops or (i - first) % wl.cycle:
        if tracer is not None:
            tracer.current_op = i
        start = time.perf_counter()
        try:
            phase.outputs[i] = wl.op(i)
        except Exception as exc:  # a failed op is counted, the run goes on
            phase.errors[i] = f"{type(exc).__name__}: {exc}"
        now = time.perf_counter()
        if i in phase.outputs:
            phase.latencies.append(now - start)
        i += 1
    phase.end, phase.wall = i, now - t0
    return phase


def check(wl, phase: Phase) -> None:
    for i, output in phase.outputs.items():
        try:
            failure = wl.check(i, output)
        except Exception as exc:  # malformed output fails the op, not the run
            failure = f"check raised {type(exc).__name__}: {exc}"
        if failure:
            phase.errors[i] = failure


def tail(latencies: list[float]) -> tuple[float, float] | None:
    """(value, percentile) of the highest percentile with TAIL_BEYOND ops
    beyond it, or None when there are too few ops for one."""
    xs = sorted(latencies)
    k = len(xs) - 1 - TAIL_BEYOND
    if k < 0:
        return None
    return xs[k], 100.0 * (k + 1) / len(xs)


def setup_seconds(workload: str, seed: int) -> float:
    """Median wall time of fresh processes that set up and stop before timing."""
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            check=True, stdout=subprocess.DEVNULL, cwd=ROOT,
        )
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def end_to_end(wl, phase: Phase, setup_s: float) -> tuple[dict[str, float], dict[str, str]]:
    """The metrics, and the base printed beside each."""
    n = len(phase.latencies)
    resolved = tail(phase.latencies)
    if resolved is None:
        value, tail_note = max(phase.latencies), f"UNRESOLVED: the maximum of {n} ops, too few for a tail"
    else:
        value, tail_note = resolved[0], f"p{resolved[1]:.1f} of {n} ops, {TAIL_BEYOND} beyond it"
        if resolved[1] < 90.0:
            tail_note += f"; below p90, so not yet a tail: that needs {10 * TAIL_BEYOND} ops"
    if wl.name == "cli":
        rss = max(out[2] for out in phase.outputs.values())
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": setup_s,
        "op_p50_s": statistics.median(phase.latencies),
        "op_tail_s": value,
        "ops_per_s": phase.ops_per_s,
        "peak_rss_mb": rss,
    }
    notes = {
        "setup_s": f"median of {SETUP_RUNS} set-ups",
        "op_p50_s": f"of {n} ops",
        "op_tail_s": tail_note,
        "ops_per_s": f"{len(phase.outputs)} ops in {phase.wall:.2f} s",
        "peak_rss_mb": "largest ctlsim process" if wl.name == "cli" else "this process",
    }
    return metrics, notes


def traced_section(wl, workloads, seconds: float, workdir: Path, seed: int):
    """Untraced half, traced half, then Baseline rows and the J_CAP probe under spans.

    Returns the phases, the per-layer metrics and the base printed beside some.
    """
    import baseline
    from spans import Tracer

    untraced = timed(wl, 0, seconds / 2.0)
    check(wl, untraced)
    tracer = Tracer().install()
    try:
        if wl.name == "cli":
            wl.spans_dir = workdir / "spans"
            wl.spans_dir.mkdir()
        traced = timed(wl, untraced.end, seconds / 2.0, tracer)
        if wl.name == "cli":
            for i, (_, out, _) in traced.outputs.items():
                tracer.current_op = i
                tracer.counters["bytes_out"] += len(out)
                spans_file = wl.spans_dir / f"op-{i}.npz"
                if spans_file.exists():
                    tracer.merge(spans_file)
        tracer.current_op = -2
        rows = baseline.rows(workdir)
        tracer.counters["bytes_out"] += (workdir / "fig3.csv").stat().st_size
        tracer.current_op = -3
        j_cap_errors = workloads.j_cap_probe(seed, J_CAP_PROBES)
    finally:
        tracer.uninstall()
    RESULTS.mkdir(exist_ok=True)
    tracer.write(RESULTS / f"{wl.name}-seed{seed}.spans.npz")
    check(wl, traced)
    phases = [untraced, traced]
    if wl.name == "cli":
        golden = Phase(traced.end)
        failures = wl.golden_failures()
        golden.end = golden.first + len(workloads.GOLDEN)
        golden.errors = {golden.first + k: msg for k, msg in enumerate(failures)}
        phases.append(golden)
    import_s = baseline.import_seconds()
    print(baseline.markdown(import_s, rows))

    metrics = tracer.layer_metrics()
    defects = [wl.defect(i, out) for i, out in traced.outputs.items() if i not in traced.errors]
    metrics.update({
        "cli.import_s": import_s,
        "propagator.max_defect": max(defects + [row["defect"] for row in rows if "defect" in row]),
        "trace.overhead_ops_per_s": traced.ops_per_s - untraced.ops_per_s,
    })
    metrics.update({f"baseline.{row['key']}": row["seconds"] for row in rows})
    notes = {
        "thermal.convergence_errors": f"{j_cap_errors} of the {J_CAP_PROBES} schema-accepted "
                                      "molecule/temperature probes past the J_CAP-safe T_rot raised it",
        "trace.overhead_ops_per_s": f"traced {traced.ops_per_s:.6g} minus untraced {untraced.ops_per_s:.6g} 1/s",
    }
    return phases, {name: metrics[name] for name in PER_LAYER}, notes


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WHY))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", action="store_true", help="print the Baseline table and exit")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.baseline and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ctlsim" / "__init__.py").is_file():
        print(f"run.py: no ctlsim sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    threads = blas_threads()
    sys.path.insert(0, str(SRC))
    import workloads

    workdir = BENCH / ".work" / f"{args.workload or 'baseline'}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.baseline:
            import baseline

            print(baseline.markdown(baseline.import_seconds(), baseline.rows(workdir, repeats=3)))
            return 0
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        wl.warm_up()
        if args.setup_only:
            return 0
        if "ctlsim" in sys.modules and not sys.modules["ctlsim"].__file__.startswith(str(SRC)):
            print("run.py: ctlsim was not imported from ./src", file=sys.stderr)
            return 2
        return report(args, wl, workloads, workdir, threads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(args, wl, workloads, workdir: Path, threads: int) -> int:
    info = provenance(args.workload, args.seed, threads)
    print(f"workload {args.workload}: {WHY[args.workload]}")
    print("provenance " + json.dumps(info))
    if args.trace:
        phases, metrics, notes = traced_section(wl, workloads, args.seconds, workdir, args.seed)
    else:
        setup_s = setup_seconds(args.workload, args.seed)
        phases = [timed(wl, 0, args.seconds, min_ops=TAIL_BEYOND + 1)]
        check(wl, phases[0])
        metrics, notes = end_to_end(wl, phases[0], setup_s)
    attempted = sum(p.end - p.first for p in phases)
    failures = {i: msg for p in phases for i, msg in p.errors.items()}
    for i, msg in sorted(failures.items())[:10]:
        print(f"op {i} failed: {msg}")
    print(f"fail_frac = {len(failures) / attempted:.6g} ratio ({len(failures)} of {attempted} ops)")
    for name, value in metrics.items():
        note = f" ({notes[name]})" if name in notes else ""
        print(f"{name} = {value:.6g} {UNITS[name]}{note}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"provenance": info, "result": result}, indent=2) + "\n", encoding="utf-8"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
