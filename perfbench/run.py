"""Benchmark of gausslab's commands.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 20 --trace 0

Run from any directory; the checkout holding this file provides
`src/gausslab`.  A workload (workloads.py; reasons in NOTES.md) is a
fixed sequence of ops, each one child Python process running a gausslab
command.  A pass runs the sequence once and then checks every op's
output.  `--workload all` runs every workload in turn.

--trace 0 repeats passes while the next one is expected to end within
--seconds (at least one) and reports the end-to-end metrics:
  wall_s       sum over the ops of each op's median wall time
  setup_s      median time for a fresh interpreter to import gausslab.cli,
               sampled a few times before every pass
  peak_rss_mb  median over passes of the largest child peak RSS (wait4)
The machine this was tuned on slows down in bursts of a few seconds, so
medians of many short ops are steadier than one long measurement.

--trace 1 runs one plain pass and one with every op under tracer.py, and
reports the per-layer metrics of the traced pass and the tracing
overhead (traced minus plain wall time).

The last line of standard output is a JSON object with the keys
correct, attempted, failed and metrics.  Exit status: 0 when a result
was printed, 2 when src/gausslab is missing or cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tracer import LAYERS, SPAN_NAMES, span_name
from workloads import WORKLOADS, Op, build_ops, output_bytes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

SETUP_SAMPLES_PER_PASS = 3
RUN_DEADLINE_S = 170.0  # a run must end within 180 s
# BLAS runs single-threaded in every child: on a shared two-core machine a
# second BLAS thread made the large-q dot products slower and less steady,
# and a fixed setting keeps both sides of a comparison alike on any machine
BLAS_THREADS = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


class SetupError(Exception):
    """The program cannot be run at all; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ, **BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], log: Path, timeout_s: float) -> tuple[int, float]:
    """Run one child to its end; (exit code, peak RSS in MB) from wait4."""
    with open(log.with_suffix(".out"), "w") as out, open(log.with_suffix(".err"), "w") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=WORK)
    killer = threading.Timer(max(timeout_s, 0.0), proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def time_setup() -> float:
    """Wall time of one fresh interpreter importing gausslab.cli."""
    start = time.perf_counter()
    try:
        done = subprocess.run([sys.executable, "-c", "import gausslab.cli"], env=child_env(),
                              cwd=WORK, capture_output=True, text=True, timeout=60)
    except subprocess.TimeoutExpired as exc:
        raise SetupError("import gausslab.cli did not finish within 60 s") from exc
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise SetupError(f"import gausslab.cli failed:\n{done.stderr}")
    return elapsed


@dataclass
class Pass:
    """One run of a workload's op sequence."""

    op_wall_s: list[float]
    peak_rss_mb: float
    problems: list[str]  # one line per problem, prefixed with the op
    failed: int
    bytes_written: int

    @property
    def wall_s(self) -> float:
        return sum(self.op_wall_s)


def run_pass(ops: list[Op], deadline: float, trace_dir: Path | None = None) -> Pass:
    for op in ops:
        for path in op.outputs:
            if path.is_dir():
                shutil.rmtree(path)
            else:
                path.unlink(missing_ok=True)
    codes, walls, peaks = [], [], []
    for i, op in enumerate(ops):
        tracing = [] if trace_dir is None else [str(HERE / "tracer.py"), str(trace_dir / f"op{i}.json")]
        start = time.perf_counter()
        code, peak = spawn([sys.executable, *tracing, *op.argv], WORK / f"op{i}",
                           deadline - start)
        walls.append(time.perf_counter() - start)
        codes.append(code)
        peaks.append(peak)

    problems, failed = [], 0
    for i, (op, code) in enumerate(zip(ops, codes)):
        if code != 0:
            stderr = (WORK / f"op{i}.err").read_text().strip().splitlines()[-3:]
            found = [f"exit code {code}", *stderr]
        else:
            try:
                found = op.check((WORK / f"op{i}.out").read_text())
            except (OSError, ValueError, KeyError) as exc:
                found = [f"unreadable output: {exc!r}"]
        failed += bool(found)
        problems += [f"{op.label}: {line}" for line in found]
    return Pass(walls, max(peaks), problems, failed, sum(map(output_bytes, ops)))


def end_to_end_metrics(passes: list[Pass], setup_samples: list[float]) -> dict:
    """End-to-end metrics of the plain passes: name -> (value, unit)."""
    op_medians = [statistics.median(walls) for walls in zip(*(p.op_wall_s for p in passes))]
    return {
        "wall_s": (sum(op_medians), "s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (statistics.median(p.peak_rss_mb for p in passes), "MB"),
    }


def merge_stats(stats: list[dict]) -> dict:
    """Sum the tracer statistics of several processes; union their distinct keys."""
    merged = {"calls": {}, "self_s": {}, "counters": {}, "keys": {}}
    for s in stats:
        for kind in ("calls", "self_s", "counters"):
            for name, value in s[kind].items():
                merged[kind][name] = merged[kind].get(name, 0) + value
        for name, keys in s["keys"].items():
            merged["keys"].setdefault(name, set()).update(keys)
    return merged


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(stats: dict, wall_s: float, plain_wall_s: float, bytes_written: int) -> dict:
    """Per-layer metrics of a traced pass: name -> (value, unit)."""
    calls, self_s, counters, keys = (stats[k] for k in ("calls", "self_s", "counters", "keys"))
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
        out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    for name in ("arith.inverse_table", "distlab.limit_moment"):
        out[f"{name}.distinct_ratio"] = (_ratio(len(keys.get(name, ())), calls.get(name, 0)), "ratio")
    for name, counter in (("gauss_sums.DirectEvaluator.call", "terms"),
                          ("distlab.sample_limit_law", "term_evals"),
                          ("distlab.limit_moment", "term_evals")):
        work = counters.get(f"{name}.{counter}", 0)
        out[f"{name}.{counter}"] = (work, "count")
        out[f"{name}.{counter}_per_s"] = (_ratio(work, self_s.get(name, 0.0)), "1/s")
    for attr in LAYERS["verify"]:
        name = f"{span_name('verify', attr)}.checked"
        out[name] = (counters.get(name, 0), "count")
    out["cli.bytes_written"] = (bytes_written, "bytes")
    out["trace.wall_s"] = (wall_s, "s")
    out["trace.overhead_s"] = (wall_s - plain_wall_s, "s")
    out["trace.self_s_sum"] = (sum(self_s.values()), "s")
    return out


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict  # name -> (value, unit)


def _traced(ops: list[Op], deadline: float) -> tuple[list[Pass], dict, bool]:
    trace_dir = WORK / "trace"
    trace_dir.mkdir()
    plain = run_pass(ops, deadline)
    traced = run_pass(ops, deadline, trace_dir)
    stats = merge_stats([json.loads(p.read_text()) for p in sorted(trace_dir.glob("op*.json"))])
    metrics = layer_metrics(stats, traced.wall_s, plain.wall_s, traced.bytes_written)
    self_sum = metrics["trace.self_s_sum"][0]
    consistent = self_sum <= traced.wall_s
    if not consistent:
        print(f"self times sum to {self_sum:.3f} s, more than the traced wall time {traced.wall_s:.3f} s")
    return [plain, traced], metrics, consistent


def _plain(ops: list[Op], seconds: float, deadline: float) -> tuple[list[Pass], dict]:
    passes, setup_samples = [], []
    start = time.perf_counter()
    while True:
        setup_samples += [time_setup() for _ in range(SETUP_SAMPLES_PER_PASS)]
        passes.append(run_pass(ops, deadline))
        typical = statistics.median(p.wall_s for p in passes)
        now = time.perf_counter()
        if now - start + typical > seconds or now + typical > deadline:
            return passes, end_to_end_metrics(passes, setup_samples)


def run_workload(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> Result:
    ops = build_ops(workload, seed, WORK)
    print(f"workload {workload}: " + "; ".join(op.label for op in ops), flush=True)
    if trace:
        passes, metrics, consistent = _traced(ops, deadline)
    else:
        passes, metrics = _plain(ops, seconds, deadline)
        consistent = True
    for i, p in enumerate(passes, 1):
        walls = " ".join(f"{w:.3f}" for w in p.op_wall_s)
        print(f"  pass {i}: op walls {walls} s, peak RSS {p.peak_rss_mb:.1f} MB, "
              f"{p.failed}/{len(ops)} ops failed", flush=True)
        for line in p.problems:
            print(f"    {line}")
    failed = sum(p.failed for p in passes)
    return Result(failed == 0 and consistent, len(ops) * len(passes), failed, metrics)


def environment(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": BLAS_THREADS,
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gausslab" / "cli.py").is_file():
        print(f"gausslab sources not found under {SRC}", file=sys.stderr)
        return 2
    print("environment: " + json.dumps(environment(args.seed)), flush=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            shutil.rmtree(WORK, ignore_errors=True)
            WORK.mkdir()
            deadline = time.perf_counter() + RUN_DEADLINE_S
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
    except SetupError as exc:
        print(exc, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    metrics = {}
    for name, result in results.items():
        prefix = f"{name}." if len(results) > 1 else ""
        for metric, (value, unit) in result.metrics.items():
            print(f"{name:16} {metric:48} {value:>20.6f} {unit}")
            metrics[prefix + metric] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": all(r.correct for r in results.values()),
        "attempted": sum(r.attempted for r in results.values()),
        "failed": sum(r.failed for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
