"""One benchmark worker process: the single caller of a closed loop.

    python3 perfbench/worker.py --workload W --seed N --seconds S \
        --mode setup|measure|trace --work-dir DIR

run.py starts it with PYTHONPATH pointing at the checkout's src/ and the
BLAS thread count set to 1.  For every operation the worker first draws
the input and computes its reference enclosure (untimed), then times the
call into nuext, then checks the output (untimed).  It prints one JSON
object as its last line of standard output.

- setup:   time from before `import nuext` to the end of the first
           operation, in this fresh process.
- measure: warm up on the first operation, then run whole rounds until the
           time spent inside operations reaches --seconds, timing a fixed
           calibration kernel before each operation (loop_summary).
- trace:   half the time untraced, then the same input stream again with
           every layer wrapped (tracing.py); per-layer metrics per operation
           and the spans file.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import reference as ref
from workloads import Op, rounds

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
KIND_EXIT = {"Extreme": 0, "NotExtreme": 1, "Unknown": 2}


# ------------------------------------------------------------ JSON matrices


def matrix_to_doc(m: np.ndarray, label: str) -> dict:
    return {
        "n": int(m.shape[0]),
        "data": [[[float(z.real), float(z.imag)] for z in row] for row in m],
        "label": label,
    }


def matrix_from_doc(doc: dict) -> np.ndarray:
    data = np.array(doc["data"], dtype=float)
    return data[..., 0] + 1j * data[..., 1]


# ------------------------------------------------------------ operations


class Runner:
    """Prepares, executes and checks operations against one nuext import."""

    def __init__(self, work_dir: Path):
        self.in_path = work_dir / "in.json"
        self.out_path = work_dir / "report.json"
        self.nuext = None

    def load(self) -> None:
        import nuext
        import nuext.cli

        if Path(nuext.__file__).resolve().parent != SRC / "nuext":
            raise ImportError(f"nuext imported from {nuext.__file__}, not from {SRC}")
        self.nuext = nuext

    def prepare(self, op: Op) -> ref.Enclosure:
        if op.kind == "cli_classify":
            self.in_path.write_text(json.dumps(matrix_to_doc(op.t, op.family)))
            self.out_path.unlink(missing_ok=True)
        return ref.radius_enclosure(op.t)

    def execute(self, op: Op):
        nx = self.nuext
        if op.kind == "classify":
            return nx.classify(op.t)
        if op.kind == "radius_value":
            return nx.radius_value(op.t)
        if op.kind == "radius_sweep":
            return nx.radius_sweep(op.t)
        return nx.cli.main(["classify", str(self.in_path), "--out", str(self.out_path)])

    def check(self, op: Op, enc: ref.Enclosure, out) -> tuple[list[str], str | None]:
        """Problems found in the output, and the verdict kind if any."""
        if op.kind == "radius_value":
            return ref.check_radius(out, enc), None
        if op.kind == "radius_sweep":
            problems = ref.check_radius(out.value, enc)
            return problems + ref.check_maximizers(op.t, out.value, out.maximizers), None
        if op.kind == "classify":
            w = out.witness
            parts = None if w is None else (w.t, w.A, w.B)
            return ref.check_verdict(op.t, enc, op.label, out.kind, out.scale, parts), out.kind
        report = json.loads(self.out_path.read_text())["verdict"]
        kind = report["kind"]
        problems = []
        if KIND_EXIT.get(kind) != out:
            problems.append(f"exit code {out} for verdict {kind}")
        parts = None
        if "witness" in report:
            w = report["witness"]
            parts = (float(w["t"]), matrix_from_doc(w["A"]), matrix_from_doc(w["B"]))
        problems += ref.check_verdict(op.t, enc, op.label, kind, float(report["scale"]), parts)
        return problems, kind


class Tally:
    """Latencies and outcomes of a run of operations.

    Latencies are kept in order with their generator (an operation kind and
    input family, with one operation of each in every round), and with the
    calibration times taken before each operation and after the last.
    """

    def __init__(self):
        self.rounds = 0
        self.samples: list[tuple[str, float]] = []
        self.cal_ms: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.classify_ops = 0
        self.unknown = 0
        self.problems: list[str] = []

    def record(self, op: Op, problems: list[str], kind: str | None) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"{op.kind} {op.family}: {'; '.join(problems)}")
        if op.kind in ("classify", "cli_classify"):
            self.classify_ops += 1
            self.unknown += kind == "Unknown"

    @property
    def ops(self) -> int:
        return len(self.samples)


def run_one(
    runner: Runner, op: Op, tally: Tally, tracer=None, op_id: int = 0, cold: bool = False
) -> float:
    """Time one operation (with `cold`, the nuext import too) and check it."""
    enc = runner.prepare(op)
    root = tracer.start_op(op_id, op.kind) if tracer is not None else None
    t0 = time.perf_counter_ns()
    try:
        if cold:
            runner.load()
        out = runner.execute(op)
        error = None
    except Exception as exc:  # any exception is a failed operation
        out, error = None, exc
    finally:
        dt_ms = (time.perf_counter_ns() - t0) / 1e6
        if root is not None:
            tracer.end(root)
    if error is not None:
        problems, kind = [f"raised {type(error).__name__}: {error}"], None
    else:
        try:
            problems, kind = runner.check(op, enc, out)
        except (KeyError, ValueError, TypeError, OSError) as exc:
            problems, kind = [f"unreadable output: {type(exc).__name__}: {exc}"], None
    tally.record(op, problems, kind)
    return dt_ms


CAL_H = np.array([[[1.0, 0.3], [0.3, -0.5]]] * 8)


def calibrate() -> float:
    """Milliseconds for a fixed kernel of interpreter and small-numpy work
    that does not touch nuext: the machine's speed at this moment."""
    t0 = time.perf_counter_ns()
    acc = 0
    for i in range(2000):
        acc += i * i
    for _ in range(20):
        np.linalg.eigvalsh(CAL_H)
    return (time.perf_counter_ns() - t0) / 1e6


def closed_loop(runner: Runner, workload: str, seed: int, seconds: float, tracer=None) -> Tally:
    """Whole rounds of the seeded stream until operations took `seconds`,
    with a calibration before each operation and after the last."""
    tally = Tally()
    busy_ms = 0.0
    for rnd in rounds(workload, seed):
        for op in rnd:
            tally.cal_ms.append(calibrate())
            ms = run_one(runner, op, tally, tracer, tally.ops)
            tally.samples.append((f"{op.kind} {op.family}", ms))
            busy_ms += ms
        tally.rounds += 1
        if busy_ms / 1e3 >= seconds:
            tally.cal_ms.append(calibrate())
            return tally
    raise AssertionError("round stream ended")


# ------------------------------------------------------------ reporting


def loop_summary(t: Tally) -> dict:
    """Throughput and latency of a closed loop, plain and calibrated.

    On a shared 2-vCPU virtual machine the speed switches between levels up
    to 3x apart and stays at one for seconds to minutes, so plain
    throughput of one workload moved by 30% between consecutive runs.  Each
    latency is therefore also divided by the mean of the calibration times
    just before and after it; in that unit ("cal") the run-to-run range on
    classify-2x2 fell from 19% to 6%.
    - op_cost_cal: mean calibrated cost of an operation (one over the
      throughput at calibration speed).
    - route_cost_gmean_cal: geometric mean over generators of their mean
      calibrated cost, so every route weighs the same.
    Plain figures: ops_per_s over the time spent inside operations,
    latency_p50_ms and latency_p90_ms over all operations (p90 only with at
    least ten samples above it), and cal_ms, the median calibration time.
    """
    lat = [ms for _, ms in t.samples]
    by_generator: dict[str, list[float]] = defaultdict(list)
    for i, (gen, ms) in enumerate(t.samples):
        by_generator[gen].append(2.0 * ms / (t.cal_ms[i] + t.cal_ms[i + 1]))
    costs = [c for v in by_generator.values() for c in v]
    route_costs = [statistics.fmean(v) for v in by_generator.values()]
    ordered = sorted(lat)
    above = len(lat) - math.ceil(0.9 * len(lat))
    return {
        "ops": len(lat),
        "rounds": t.rounds,
        "busy_s": sum(lat) / 1e3,
        "op_cost_cal": statistics.fmean(costs),
        "route_cost_gmean_cal": math.exp(statistics.fmean(map(math.log, route_costs))),
        "ops_per_s": len(lat) * 1e3 / sum(lat),
        "latency_p50_ms": statistics.median(ordered),
        "latency_p90_ms": ordered[-above - 1] if above >= 10 else None,
        "samples_above_p90": above,
        "cal_ms": statistics.median(t.cal_ms),
    }


def static_context() -> dict:
    lines = {
        p.relative_to(SRC).as_posix(): len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted(SRC.rglob("*.py"))
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "src_lines": lines,
        "src_lines_total": sum(lines.values()),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def mode_setup(runner: Runner, workload: str, seed: int) -> dict:
    tally = Tally()
    setup_ms = run_one(runner, next(rounds(workload, seed))[0], tally, cold=True)
    return {
        "setup_s": setup_ms / 1e3,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
    }


def mode_measure(runner: Runner, workload: str, seed: int, seconds: float) -> dict:
    runner.load()
    warm = Tally()
    run_one(runner, next(rounds(workload, seed))[0], warm)
    tally = closed_loop(runner, workload, seed, seconds)
    return {
        **loop_summary(tally),
        "attempted": warm.attempted + tally.attempted,
        "failed": warm.failed + tally.failed,
        "classify_ops": tally.classify_ops,
        "unknown": tally.unknown,
        "problems": warm.problems + tally.problems,
        "peak_rss_mb": peak_rss_mb(),
        "context": static_context(),
    }


def mode_trace(runner: Runner, workload: str, seed: int, seconds: float, spans_path: Path) -> dict:
    from tracing import Tracer

    runner.load()
    warm = Tally()
    run_one(runner, next(rounds(workload, seed))[0], warm)
    plain = closed_loop(runner, workload, seed, seconds / 2)
    with Tracer() as tracer:
        traced = closed_loop(runner, workload, seed, seconds / 2, tracer)
    overhead = loop_summary(plain)["op_cost_cal"] / loop_summary(traced)["op_cost_cal"]
    layers = tracer.layer_metrics(traced.ops, traced.classify_ops, traced.unknown, overhead)
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(spans_path)
    return {
        "untraced": loop_summary(plain),
        "traced": loop_summary(traced),
        "attempted": warm.attempted + plain.attempted + traced.attempted,
        "failed": warm.failed + plain.failed + traced.failed,
        "problems": warm.problems + plain.problems + traced.problems,
        "layers": layers,
        "self_ms_by_op_kind": tracer.by_op_kind(),
        "spans_file": spans_path.relative_to(ROOT).as_posix(),
        "spans": len(tracer.spans),
        "context": static_context(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--mode", choices=["setup", "measure", "trace"], required=True)
    p.add_argument("--work-dir", type=Path, required=True)
    a = p.parse_args(argv)
    runner = Runner(a.work_dir)
    if a.mode == "setup":
        result = mode_setup(runner, a.workload, a.seed)
    elif a.mode == "measure":
        result = mode_measure(runner, a.workload, a.seed, a.seconds)
    else:
        spans = ROOT / ".perfbench_out" / f"spans-{a.workload}-seed{a.seed}.jsonl"
        result = mode_trace(runner, a.workload, a.seed, a.seconds, spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
