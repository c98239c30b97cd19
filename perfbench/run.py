"""nuext benchmark: seeded workloads, end-to-end metrics and a traced run.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from src/ beside this directory.
Each workload is a closed loop with one caller in one worker process whose
BLAS thread count is 1 (worker.py); inputs come from --seed (workloads.py)
and every output is checked against plain-numpy references (reference.py).

--trace 0 prints the end-to-end metrics.  A generator is one input class,
an operation kind and input family, with one operation of each in every
round.  Latencies are measured in "cal", the time of a fixed calibration
kernel run just before and after each operation, because the speed of a
shared machine drifts (see worker.loop_summary):
  op_cost_cal           mean cost of an operation, in cal
  route_cost_gmean_cal  geometric mean over generators of their mean cost
  setup_s               median over SETUP_RUNS fresh workers of the time
                        from before `import nuext` to the end of the first
                        operation
  peak_rss_mb           peak resident memory of the measuring worker
--trace 1 prints the per-layer metrics of tracing.py, per operation, and
writes the spans to .perfbench_out/.

The lines before the last carry the static context (src/ line counts,
versions, BLAS threads) and a summary with the plain, ungated figures:
ops_per_s, latency_p50_ms, latency_p90_ms (where ten samples lie above
it), cal_ms, failure_rate, and abstain_rate (Unknown verdicts over
classify operations).  The last line is {"correct", "attempted", "failed",
"metrics"}.  The exit code is 0 when
every output was correct, 1 when some was not, 2 when nothing could be run.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# the workloads BENCHMARK.json lists, plus flat-support: every grid angle of
# its operators is a peak, which makes refinement and maximizer dedup the
# hotspot.  Its operations take about 0.4 s, too few fit in one run for its
# figures to be steady on a shared machine, so it is run by hand (e.g. with
# --trace 1), not gated.
WORKLOADS = ("classify-2x2", "classify-nxn", "radius-dense", "flat-support")
SETUP_RUNS = 6
DEADLINE_S = 170.0
UNITS = {"op_cost_cal": "cal", "route_cost_gmean_cal": "cal", "setup_s": "s", "peak_rss_mb": "MB"}


class WorkerError(RuntimeError):
    pass


def run_worker(mode: str, args, work_dir: Path, deadline: float) -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode, "--work-dir", str(work_dir),
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError(f"no time left for the {mode} worker")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{mode} worker exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        raise WorkerError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(args, work_dir: Path, deadline: float) -> tuple[dict, dict, dict]:
    # half the fresh workers before the measuring one and half after, so
    # the median spans the run rather than one moment of it
    setups = [run_worker("setup", args, work_dir, deadline) for _ in range(SETUP_RUNS // 2)]
    res = run_worker("measure", args, work_dir, deadline)
    setups += [run_worker("setup", args, work_dir, deadline) for _ in range(SETUP_RUNS - len(setups))]
    attempted = res["attempted"] + sum(s["attempted"] for s in setups)
    failed = res["failed"] + sum(s["failed"] for s in setups)
    metrics = {
        "op_cost_cal": res["op_cost_cal"],
        "route_cost_gmean_cal": res["route_cost_gmean_cal"],
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    plain = {
        "ops_per_s": (res["ops_per_s"], "1/s"),
        "latency_p50_ms": (res["latency_p50_ms"], "ms"),
        "latency_p90_ms": (res["latency_p90_ms"], "ms"),
        "cal_ms": (res["cal_ms"], "ms"),
        "failure_rate": (failed / attempted, "ratio"),
        "abstain_rate": (res["unknown"] / res["classify_ops"] if res["classify_ops"] else None, "ratio"),
    }
    summary = {
        "ops": res["ops"],
        "rounds": res["rounds"],
        "busy_s": res["busy_s"],
        "samples_above_p90": res["samples_above_p90"],
        "setup_samples_s": [s["setup_s"] for s in setups],
        "ungated": {k: {"value": v, "unit": u} for k, (v, u) in plain.items() if v is not None},
        "problems": [p for s in setups for p in s["problems"]] + res["problems"],
    }
    metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}
    return res["context"], summary, {"attempted": attempted, "failed": failed, "metrics": metrics}


def trace(args, work_dir: Path, deadline: float) -> tuple[dict, dict, dict]:
    res = run_worker("trace", args, work_dir, deadline)
    summary = {
        "untraced": res["untraced"],
        "traced": res["traced"],
        "failure_rate": res["failed"] / res["attempted"],
        "self_ms_by_op_kind": res["self_ms_by_op_kind"],
        "spans_file": res["spans_file"],
        "spans": res["spans"],
        "problems": res["problems"],
    }
    return res["context"], summary, {
        "attempted": res["attempted"], "failed": res["failed"], "metrics": res["layers"],
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="nuext benchmark")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "nuext" / "__init__.py").is_file():
        print(f"error: no nuext package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work_dir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        run = trace if args.trace else measure
        context, summary, result = run(args, work_dir, deadline)
    except (WorkerError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    correct = result["failed"] == 0
    print(json.dumps({"context": context}))
    print(json.dumps({"summary": {"workload": args.workload, "seed": args.seed, **summary}}))
    print(json.dumps({
        "correct": correct, "attempted": result["attempted"],
        "failed": result["failed"], "metrics": result["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
