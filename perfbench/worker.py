"""One repetition of one workload, in a fresh process.

Usage: python3 perfbench/worker.py WORKLOAD SEED MODE WORKDIR

Set-up imports patcol and builds every input of the plan; the batch then
runs each operation once, in plan order, timing each.  Witnesses are
validated inside the operation (a caller who wants certainty does the same).
The result is one JSON line on stdout.  MODE is "plain", "traced" (every
public patcol function is wrapped first, and the spans are written to
WORKDIR/spans.jsonl) or "setup" (stop after set-up).
"""
from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time

import workloads
import speed
from tracer import Tracer, layer_metrics, read_spans, rescale, write_spans

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
CATALOG = "catalog.jsonl"


class Engines:
    """The patcol modules, imported at set-up so the import is part of it."""

    def __init__(self) -> None:
        sys.path.insert(0, SRC)
        from patcol import analysis, budget, colouring, hypergraph, partitions, sigma_engine

        self.analysis = analysis
        self.budget = budget
        self.colouring = colouring
        self.hypergraph = hypergraph
        self.partitions = partitions
        self.sigma_engine = sigma_engine

    def patterns(self, r: int, q_set) -> object:
        return self.partitions.PatternSet.of(r, q_set)


def build_graph(spec: dict, e: Engines, workdir: str):
    kind = spec["kind"]
    hg = e.hypergraph
    if kind == "edges":
        return hg.make_hypergraph(spec["r"], spec["vertices"], spec["edges"])
    if kind == "sigma":
        return hg.SigmaHypergraph(spec["n"], spec["r"], spec["q"], e.patterns(spec["r"], spec["Sigma"]))
    if kind == "sigma_explicit":
        s = hg.SigmaHypergraph(spec["n"], spec["r"], spec["q"], e.patterns(spec["r"], spec["Sigma"]))
        return hg.build_sigma_explicit(s)
    if kind == "ramsey":
        return hg.build_ramsey(spec["n"], spec["r"], spec["p"])
    if kind == "file":
        h = hg.make_hypergraph(spec["r"], spec["vertices"], spec["edges"])
        hg.write_hypergraph(h, os.path.join(workdir, spec["id"]))
        return None
    raise ValueError(f"unknown graph kind {kind!r}")


def _verdict(flag) -> str:
    return {True: "true", False: "false"}.get(flag, "unknown")


def prepare(op: dict, graphs: dict, specs: dict, e: Engines, workdir: str, trace: bool):
    """A no-argument callable doing the operation's timed work, returning its answer."""
    kind = op["kind"]
    budget_s = workloads.FRONTIER_BUDGET_S if op.get("frontier") else workloads.SAFETY_BUDGET_S
    BudgetExceeded, Deadline = e.budget.BudgetExceeded, e.budget.Deadline

    def decided(decide, valid) -> dict:
        """Answer of a decision returning a witness or None; valid() checks the witness."""
        try:
            witness = decide()
        except BudgetExceeded:
            return {"answer": "unknown"}
        if witness is None:
            return {"answer": "infeasible"}
        return {"answer": "feasible", "witness_ok": valid(witness)}

    if kind == "gap":
        q_set, sigma = e.patterns(op["r"], op["Q"]), e.patterns(op["r"], op["Sigma"])

        def run():
            rep = e.analysis.gap_witness_search(
                op["r"], q_set, [op["n"]], [op["q"]], sigma_sets=[sigma], budget_s=budget_s
            )
            return {"hits": len(rep.hits), "unresolved": len(rep.unresolved)}

        return run
    if kind == "tight":
        s, q_set = graphs[op["graph"]], e.patterns(graphs[op["graph"]].r, op["Q"])

        def run():
            rep = e.analysis.check_tight(s, q_set, budget_s=budget_s)
            return {"verdict": _verdict(rep.verdict), "k": rep.k}

        return run
    if kind == "sigma_k":
        s, k = graphs[op["graph"]], op["k"]
        return lambda: decided(
            lambda: e.sigma_engine.sigma_exists_k(s, s.edge_types, k, deadline=Deadline(budget_s)),
            lambda d: d.k == k and bool(e.sigma_engine.dist_valid(d, s.edge_types, s.edge_types)),
        )
    if kind == "explicit_k":
        h, k = graphs[op["graph"]], op["k"]
        q_set = e.patterns(h.r, specs[op["graph"]]["Q"])
        return lambda: decided(
            lambda: e.colouring.exists_k_colouring(h, k, q_set, deadline=Deadline(budget_s)),
            lambda w: w.k == k and len(set(w.colours)) == k and bool(e.colouring.is_valid(h, w, q_set)),
        )
    if kind == "ramsey":
        spec, h, k = specs[op["graph"]], graphs[op["graph"]], op["k"]
        q_set = e.patterns(h.r, spec["Q"])

        def run():
            rep = e.analysis.ramsey_check(spec["n"], spec["r"], spec["p"], k, q_set, budget_s=budget_s)
            if rep.colourable is None:
                return {"answer": "unknown"}
            if not rep.colourable:
                return {"answer": "infeasible"}
            w = rep.witness
            ok = w is not None and w.k <= k and bool(e.colouring.is_valid(h, w, q_set))
            return {"answer": "feasible", "witness_ok": ok}

        return run
    if kind == "cli":
        env = dict(os.environ, PYTHONPATH=SRC)
        if trace:
            prefix = [sys.executable, os.path.join(HERE, "traced_cli.py"), "spans-cli.jsonl"]
        else:
            prefix = [sys.executable, "-m", "patcol.cli"]
        argv = prefix + op["cmd"] + ["--catalog", CATALOG]

        def run():
            proc = subprocess.run(argv, cwd=workdir, env=env, capture_output=True, text=True, timeout=120)
            try:
                out = json.loads(proc.stdout)
            except json.JSONDecodeError:
                out = None
            return {"rc": proc.returncode, "out": out}

        return run
    raise ValueError(f"unknown operation kind {kind!r}")


def check_cli_outputs(plan: dict, answers: list[dict], e: Engines, workdir: str) -> dict:
    """Checks that need patcol: Ramsey witnesses and the catalogue's record count."""
    for op, ans in zip(plan["ops"], answers):
        out = ans.get("out")
        if op.get("check") == "ramsey" and isinstance(out, dict) and out.get("witness"):
            h = e.hypergraph.build_ramsey(op["n"], 2, 3)
            w = e.colouring.Colouring.of(out["witness"]["colours"], out["witness"]["k"])
            ans["witness_ok"] = w.k <= op["k"] and bool(e.colouring.is_valid(h, w, e.patterns(3, workloads.no_mono(3))))
    with open(os.path.join(workdir, CATALOG), "r", encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    return {"catalog_records": len(records)}


def main() -> int:
    workload, seed, mode, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]
    trace = mode == "traced"
    plan = workloads.plan(workload, seed)
    is_cli = workload == "cli-batch"

    probe = speed.start_probe() if is_cli else speed.slice_probe()
    setup_probe = speed.slice_probe()
    setup_probe.tick()  # machine speed just before set-up
    t0 = time.perf_counter()
    e = Engines()
    tracer = Tracer(probe)
    if trace:
        tracer.install()
    specs = plan["graphs"]
    graphs = {gid: build_graph(dict(spec, id=gid), e, workdir) for gid, spec in specs.items()}
    if is_cli:
        open(os.path.join(workdir, CATALOG), "w").close()
    runs = [prepare(op, graphs, specs, e, workdir, trace) for op in plan["ops"]]
    setup_raw_s = time.perf_counter() - t0
    setup_probe.tick()  # and just after
    setup = {"setup_raw_s": setup_raw_s, "setup_s": setup_raw_s * setup_probe.factor(0, len(setup_probe.samples))}
    if mode == "setup":
        print(json.dumps(setup))
        return 0

    answers, latencies, windows, cli_spans, process_s = [], [], [], [], 0.0
    if is_cli:
        probe.tick()
    else:
        probe.start()
    t1, spent_before = time.perf_counter(), probe.spent
    for run in runs:
        # A command's speed is the mean of the slices just before and just after it.
        first = len(probe.samples) - (probe.per_tick if is_cli else 0)
        spent = probe.spent
        started = time.perf_counter()
        try:
            answer = run()
        except Exception as exc:  # a raising operation is recorded as failed, not fatal
            answer = {"answer": "error", "error": repr(exc)[:300]}
        latencies.append(time.perf_counter() - started - (probe.spent - spent))
        answers.append(answer)
        if is_cli:
            probe.tick()
        windows.append((first, len(probe.samples)))
        if is_cli and trace:
            # The command's spans take its speed factor; they carry no probe marks of their own.
            factor = probe.factor(*windows[-1])
            process_s += latencies[-1] * factor
            offset = len(tracer.spans) + len(cli_spans)
            spans_path = os.path.join(workdir, "spans-cli.jsonl")
            for s in read_spans(spans_path):
                s["id"] += offset
                s["parent"] = None if s["parent"] is None else s["parent"] + offset
                s["probe_open"], s["probe_close"] = windows[-1]
                cli_spans.append(s)
            os.remove(spans_path)
    wall_raw_s = time.perf_counter() - t1 - (probe.spent - spent_before)
    probe.stop()
    tracer.active = False
    # Frontier operations run for their budget, a wall-clock time, so they are not rescaled.
    wall_s = sum(
        dt if op.get("frontier") else dt * probe.factor(*window)
        for op, dt, window in zip(plan["ops"], latencies, windows)
    )

    who = resource.RUSAGE_CHILDREN if is_cli else resource.RUSAGE_SELF
    result = {
        **setup,
        "wall_s": wall_s,
        "wall_raw_s": wall_raw_s,
        "probe_ms": 1000 * statistics.median(probe.samples) if probe.samples else 0.0,
        "probe_reference_ms": 1000 * probe.reference_s,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "latencies": latencies,
        "answers": answers,
    }
    if is_cli:
        result.update(check_cli_outputs(plan, answers, e, workdir))
    if trace:
        spans = [s.to_json_dict() for s in tracer.spans] + cli_spans
        rescale(spans, lambda s: probe.factor(s["probe_open"], s["probe_close"]))
        result["layers"] = layer_metrics(spans, process_s)
        write_spans(os.path.join(workdir, "spans.jsonl"), spans)
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
