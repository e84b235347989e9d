"""patcol benchmark: run one workload and print every metric, then one JSON line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload sigma-grid --seed 1 --seconds 10 --trace 0

Each repetition runs in a fresh worker process (``worker.py``): set-up
imports patcol and builds the inputs, then the workload's fixed batch runs
once.  Repetitions continue until ``--seconds`` have passed (at least one);
a few set-up-only processes come first, so set-up time is a median of
several.  Batch and set-up times are rescaled to a reference machine speed
sampled while they run (``speed.py``); the times as measured are printed too.  Every answer is checked; a wrong one makes
the exit code 1.  With ``--trace 1`` traced and untraced repetitions
alternate, the per-layer metrics come from the traced ones, and the tracing
overhead is the difference of their median batch times.  Workloads, metrics
and the layer table are described in perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import reference
import workloads
from tracer import PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
RUN_LIMIT_S = 170  # a run that would take longer is stopped and fails
SETUP_SAMPLES = 10  # extra set-up-only processes, so set-up time is a median of several


class RepFailed(Exception):
    pass


def run_worker(workload: str, seed: int, mode: str, index: int, deadline: float) -> dict:
    """One fresh worker process in its own scratch directory; mode is plain, traced or setup."""
    workdir = os.path.join(WORK, f"{workload}-{seed}-{index}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), mode, workdir]
    # A session of its own, so a worker that overruns is stopped with every process it started.
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise RepFailed(f"{mode} worker {index} did not finish within the run's {RUN_LIMIT_S}s") from exc
    if proc.returncode != 0:
        raise RepFailed(f"{mode} worker {index} exited with {proc.returncode}:\n{stderr[-2000:]}")
    rep = json.loads(stdout.strip().splitlines()[-1])
    rep["traced"] = mode == "traced"
    return rep


def check_answer(op: dict, ans: dict, oracle: dict) -> str | None:
    """None when the answer is right, else what is wrong with it."""
    kind = op["kind"]
    if "error" in ans:
        return f"raised {ans['error']}"
    if kind == "gap":
        return None if ans == {"hits": 0, "unresolved": 0} else f"expected no hits and nothing unresolved, got {ans}"
    if kind == "tight":
        want = {"verdict": "true", "k": op["expect_k"]}
        return None if ans == want else f"expected {want}, got {ans}"
    if kind == "cli":
        errors = reference.check_cli(op, ans)
        return "; ".join(errors) if errors else None
    got, want = ans["answer"], op["expect"]
    if got == "unknown":
        return None if op["frontier"] else "ran out of budget"
    if got == "feasible":
        if not ans.get("witness_ok"):
            return "witness fails validation"
        return "expected infeasible" if want == "infeasible" else None
    if want is None:
        if op["id"] not in oracle:
            spec = oracle["graphs"][op["graph"]]
            oracle[op["id"]] = reference.colourable(spec["vertices"], spec["edges"], op["k"], spec["Q"])
        want = "feasible" if oracle[op["id"]] else "infeasible"
    return None if want == "infeasible" else f"expected {want}, got infeasible"


def unresolved(op: dict, ans: dict) -> bool:
    """Ended "unknown" (budget) or raised: the numerator of fail_frac."""
    if "error" in ans:
        return True
    if op["kind"] == "cli":
        return ans.get("rc") != 0
    return ans.get("answer") == "unknown"


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.perf_counter() + RUN_LIMIT_S
    if not os.path.isfile(os.path.join(SRC, "patcol", "__init__.py")):
        print(f"error: no patcol sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    # Compile patcol's bytecode once, as any earlier use would have.
    subprocess.run([sys.executable, "-c", "import patcol.cli"], env=dict(os.environ, PYTHONPATH=SRC), check=True)

    plan = workloads.plan(args.workload, args.seed)
    ops = plan["ops"]
    reps: list[dict] = []
    try:
        setups = [run_worker(args.workload, args.seed, "setup", i, deadline) for i in range(SETUP_SAMPLES)]
        started = time.perf_counter()
        while len(reps) < (2 if args.trace else 1) or time.perf_counter() - started < args.seconds:
            mode = "traced" if args.trace and len(reps) % 2 == 0 else "plain"
            reps.append(run_worker(args.workload, args.seed, mode, SETUP_SAMPLES + len(reps), deadline))
    except RepFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    oracle = {"graphs": plan["graphs"]}
    wrong: list[str] = []
    for rep in reps:
        for op, ans in zip(ops, rep["answers"]):
            problem = check_answer(op, ans, oracle)
            if problem:
                wrong.append(f"{op['id']}: {problem}")
        if args.workload == "cli-batch" and rep["catalog_records"] != len(ops):
            wrong.append(f"catalogue holds {rep['catalog_records']} records after {len(ops)} commands")

    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    latencies = [x for r in plain for x in r["latencies"]]
    setups += plain
    frontier = sum(1 for op in ops if op.get("frontier"))
    unresolved_ops = sum(unresolved(op, ans) for r in reps for op, ans in zip(ops, r["answers"]))
    values = {
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "setup_s": statistics.median(r["setup_s"] for r in setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }
    reported = [
        ("wall_s", values["wall_s"], "s", f"median of {len(plain)} repetitions, at reference speed"),
        ("wall_raw_s", statistics.median(r["wall_raw_s"] for r in plain), "s", f"median of {len(plain)} repetitions, as measured"),
        ("setup_s", values["setup_s"], "s", f"median of {len(setups)} set-ups ({SETUP_SAMPLES} in set-up-only processes), at reference speed"),
        ("setup_raw_s", statistics.median(r["setup_raw_s"] for r in setups), "s", f"median of {len(setups)} set-ups, as measured"),
        ("peak_rss_mb", values["peak_rss_mb"], "MB", f"median of {len(plain)} repetitions"),
        ("op_p50_ms", 1000 * statistics.median(latencies), "ms", f"over {len(latencies)} operations"),
        ("op_p90_ms", 1000 * percentile(latencies, 90), "ms", f"over {len(latencies)} operations"),
        (
            "fail_frac",
            unresolved_ops / (len(ops) * len(reps)),
            "ratio",
            f"{unresolved_ops} unknown or raised of {len(ops) * len(reps)} operations ({frontier} frontier per batch)",
        ),
        ("probe_ms", statistics.median(r["probe_ms"] for r in plain), "ms", f"median speed-probe sample; {plain[0]['probe_reference_ms']:g} ms at reference speed"),
    ]
    print(f"patcol benchmark: workload {args.workload}, seed {args.seed}, {len(ops)} operations per batch")
    print(f"  repetitions: {len(plain)} untraced, {len(traced)} traced, each in a fresh process")
    for name, value, unit, basis in reported:
        print(f"  {name:<28} {value:>14.6f} {unit:<6} {basis}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    if args.trace:
        layers = {name: statistics.median(r["layers"][name] for r in traced) for name, _ in PER_LAYER}
        layers["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - values["wall_s"]
        units = dict(PER_LAYER, **{"trace.overhead_s": "s"})
        for name, value in layers.items():
            print(f"  {name:<28} {value:>14.6f} {units[name]:<6} median of {len(traced)} traced repetitions")
        metrics = {name: {"value": value, "unit": units[name]} for name, value in layers.items()}
    for line in wrong[:20]:
        print(f"wrong answer: {line}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not wrong,
                "attempted": len(ops) * len(reps),
                "failed": len(wrong),
                "metrics": metrics,
            }
        )
    )
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
