"""Workload plans: the inputs and operations of each benchmark workload.

A plan is plain data derived from the seed alone, so ``run.py`` (which never
imports patcol) and each worker process (which builds the inputs with patcol)
see the same operations.  Every operation carries its expected answer, or
``None`` where the answer is established after the run: a feasible answer is
proven by its validated witness, an infeasible one by the independent search
in ``reference.py``.

Operations marked ``frontier`` run under FRONTIER_BUDGET_S, far below the
time today's engines need for them, so they are expected to end "unknown";
an engine that decides one must still give the true answer.
"""
from __future__ import annotations

import json
import random
from itertools import combinations
from math import comb

WORKLOADS = ("sigma-grid", "sigma-tight", "explicit-mix", "cli-batch")

FRONTIER_BUDGET_S = 1.0
# Every other decision gets a generous budget so a regression ends as a wrong
# "unknown" answer instead of a run that never finishes.
SAFETY_BUDGET_S = 60.0

# Random explicit instances: a fixed number per (pattern set, vertex count),
# each with exactly this share of the possible edges.  Fixing the strata
# keeps the total work of the batch close across seeds.
RANDOM_EDGE_SHARE = 0.3
RANDOM_SHAPES = {3: (9, 10, 11), 4: (9, 10)}
RANDOM_PER_SHAPE = 2

CLI_ROUNDS = 12  # nine commands per round


def partitions_of(r: int) -> list[tuple[int, ...]]:
    """Partitions of r, largest first (benchmark-side, independent of patcol)."""
    out: list[tuple[int, ...]] = []

    def rec(left: int, cap: int, acc: tuple[int, ...]) -> None:
        if left == 0:
            out.append(acc)
            return
        for part in range(min(left, cap), 0, -1):
            rec(left - part, part, acc + (part,))

    rec(r, r, ())
    return out


def pattern_sets(r: int) -> list[list[list[int]]]:
    """Every non-empty set of partitions of r, smallest sets first."""
    parts = sorted(partitions_of(r))
    return [[list(p) for p in members] for size in range(1, len(parts) + 1) for members in combinations(parts, size)]


def no_mono(u: int) -> list[list[int]]:
    """Every pattern of an u-vertex edge except the monochromatic one."""
    return [list(p) for p in partitions_of(u) if len(p) > 1]


def _decision(op_id: str, kind: str, graph: str, k: int, expect: str | None, frontier: bool = False) -> dict:
    return {"id": op_id, "kind": kind, "graph": graph, "k": k, "expect": expect, "frontier": frontier}


def _plan_sigma_grid(rng: random.Random) -> dict:
    ops = [
        {"id": f"gap n={n} q={q} S={sig}", "kind": "gap", "r": 4, "Q": [[3, 1]], "n": n, "q": q, "Sigma": sig}
        for n in range(1, 6)
        for q in range(1, 5)
        for sig in pattern_sets(4)
    ]
    rng.shuffle(ops)
    return {"graphs": {}, "ops": ops}


def _plan_sigma_tight(rng: random.Random) -> dict:
    graphs = {}
    ops = []
    for q_set in ([[3, 1]], [[2, 2]], [[3, 1], [2, 2]]):
        gid = f"H(8,4,10|{q_set})"
        graphs[gid] = {"kind": "sigma", "n": 8, "r": 4, "q": 10, "Sigma": q_set}
        ops.append({"id": f"tight {gid}", "kind": "tight", "graph": gid, "Q": q_set, "expect_k": 8})
    for q_set in ([[4, 1]], [[3, 2]]):
        gid = f"H(10,5,17|{q_set})"
        graphs[gid] = {"kind": "sigma", "n": 10, "r": 5, "q": 17, "Sigma": q_set}
        for k, expect in ((9, "infeasible"), (10, "feasible"), (11, "infeasible")):
            ops.append(_decision(f"sigma {gid} k={k}", "sigma_k", gid, k, expect))
    # Tightness of H(2r, r, (r-1)^2+1) puts its whole spectrum at k = 2r = 12.
    gid = "H(12,6,26|[[5, 1]])"
    graphs[gid] = {"kind": "sigma", "n": 12, "r": 6, "q": 26, "Sigma": [[5, 1]]}
    ops.append(_decision(f"sigma {gid} k=11", "sigma_k", gid, 11, "infeasible", frontier=True))
    # Fixed order: peak memory (about 0.5 GB) moves with the order of these operations.
    return {"graphs": graphs, "ops": ops}


# Spectra of H(3,3,9) and H(9,3,3) with edge types and Q = {(3), (1,1,1)}, as
# decided by the distribution engine (which agrees with the explicit engine
# wherever the latter finishes).
_EXTREME_FEASIBLE = {(3, 9): {1, 3, 11, 19, 27}, (9, 3): {1, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27}}


def _plan_explicit_mix(rng: random.Random) -> dict:
    graphs: dict[str, dict] = {}
    ops: list[dict] = []
    index = 0
    for r, sizes in RANDOM_SHAPES.items():
        for q_set in pattern_sets(r):
            for nv in sizes:
                for _ in range(RANDOM_PER_SHAPE):
                    subsets = list(combinations(range(nv), r))
                    edges = sorted(rng.sample(subsets, round(RANDOM_EDGE_SHARE * len(subsets))))
                    gid = f"random#{index}"
                    index += 1
                    graphs[gid] = {"kind": "edges", "r": r, "vertices": nv, "edges": [list(e) for e in edges], "Q": q_set}
                    ops += [_decision(f"{gid} k={k}", "explicit_k", gid, k, None) for k in range(1, nv + 1)]
    # Ramsey bundles with every non-monochromatic pattern allowed.
    # R(3,3)=6, R(3,3,3)=17 and R(4,4;3)=13 fix the answers.
    for n, r, p, k, expect, frontier in (
        (5, 2, 3, 3, "feasible", False),
        (6, 2, 3, 3, "feasible", False),
        (7, 2, 3, 3, "feasible", False),
        (8, 2, 3, 3, "feasible", False),
        (6, 2, 3, 2, "infeasible", False),
        (6, 3, 4, 2, "feasible", False),
        (7, 3, 4, 2, "feasible", False),
        (9, 2, 3, 3, "feasible", True),
    ):
        gid = f"ramsey(n={n},r={r},p={p})"
        graphs[gid] = {"kind": "ramsey", "n": n, "r": r, "p": p, "Q": no_mono(comb(p, r))}
        ops.append(_decision(f"{gid} k<={k}", "ramsey", gid, k, expect, frontier))
    extreme = [[3], [1, 1, 1]]
    for (n, q), ks, frontier_ks in (
        ((3, 9), [1, 2, 3, 4, 5, 6, 7, 8, 11, 19, 26, 27], [9, 10]),
        ((9, 3), [1, 2, 3, 4, 5, 6, 7, 8, 9, 27], []),
    ):
        gid = f"H({n},3,{q}|{extreme})"
        graphs[gid] = {"kind": "sigma_explicit", "n": n, "r": 3, "q": q, "Sigma": extreme, "Q": extreme}
        for k in ks + frontier_ks:
            expect = "feasible" if k in _EXTREME_FEASIBLE[(n, q)] else "infeasible"
            ops.append(_decision(f"{gid} k={k}", "explicit_k", gid, k, expect, k in frontier_ks))
    rng.shuffle(ops)
    return {"graphs": graphs, "ops": ops}


def _plan_cli_batch(rng: random.Random) -> dict:
    """Rounds of nine commands; the seed draws parameters and the order."""
    graphs: dict[str, dict] = {}
    units: list[list[dict]] = []
    for i in range(CLI_ROUNDS):
        r = rng.randint(3, 8)
        units.append([{"cmd": ["partitions", "--r", str(r)], "check": "partitions", "r": r}])

        r = rng.randint(3, 6)
        q_set = rng.sample(partitions_of(r), rng.randint(1, 2))
        which = rng.choice(("rd", "ex"))
        units.append([{"cmd": ["closure", "--r", str(r), f"--{which}", _json(q_set)], "check": "closure", "r": r, "which": which, "Q": q_set}])

        r = rng.randint(3, 6)
        q_set = rng.sample(partitions_of(r), rng.randint(1, len(partitions_of(r))))
        units.append([{"cmd": ["classify", "--r", str(r), "--Q", _json(q_set)], "check": "classify", "r": r, "Q": q_set}])

        n = rng.randint(5, 7)
        q_set = rng.sample(partitions_of(3), rng.randint(1, 3))
        built = f"complete-{i}.json"
        units.append(
            [
                {"cmd": ["build", "--kind", "complete", "--n", str(n), "--r", "3", "--out", built], "check": "build", "n": n, "r": 3, "file": built},
                {"cmd": ["spectrum", "--file", built, "--Q", _json(q_set)], "check": "spectrum_complete", "n": n, "r": 3, "Q": q_set},
            ]
        )

        # Brute-force clique on a random 3-uniform hypergraph written in set-up.
        nv = rng.randint(8, 11)
        edges = sorted(rng.sample(list(combinations(range(nv), 3)), round(0.6 * comb(nv, 3))))
        gid = f"clique-{i}.json"
        graphs[gid] = {"kind": "file", "r": 3, "vertices": nv, "edges": [list(e) for e in edges]}
        units.append([{"cmd": ["clique", "--file", gid], "check": "clique", "r": 3, "vertices": nv, "edges": [list(e) for e in edges]}])

        n, q = rng.choice(((2, 3), (3, 2), (2, 4), (4, 2)))
        sig = rng.sample(partitions_of(3), rng.randint(1, 3))
        q_set = rng.sample(partitions_of(3), rng.randint(1, 3))
        units.append(
            [
                {
                    "cmd": ["spectrum", "--sigma", f"n={n},r=3,q={q}", "--Sigma", _json(sig), "--Q", _json(q_set)],
                    "check": "spectrum_sigma",
                    "n": n,
                    "r": 3,
                    "q": q,
                    "Sigma": sig,
                    "Q": q_set,
                }
            ]
        )

        units.append([{"cmd": ["tight", "--sigma", "n=6,r=3,q=5", "--Sigma", "[[2,1]]"], "check": "tight", "k": 6}])

        k = rng.choice((2, 3))
        units.append(
            [
                {
                    "cmd": ["ramsey", "--n", "6", "--r", "2", "--p", "3", "--k", str(k), "--Q", _json(no_mono(3))],
                    "check": "ramsey",
                    "colourable": "true" if k == 3 else "false",
                    "n": 6,
                    "k": k,
                }
            ]
        )
    rng.shuffle(units)
    ops = [dict(op, id=f"cli#{i} {' '.join(op['cmd'][:1])}", kind="cli") for i, op in enumerate(c for unit in units for c in unit)]
    return {"graphs": graphs, "ops": ops}


def _json(value) -> str:
    return json.dumps(value, separators=(",", ":"))


_PLANNERS = {
    "sigma-grid": _plan_sigma_grid,
    "sigma-tight": _plan_sigma_tight,
    "explicit-mix": _plan_explicit_mix,
    "cli-batch": _plan_cli_batch,
}


def plan(workload: str, seed: int) -> dict:
    """The workload's inputs ("graphs") and operations ("ops") for this seed."""
    return _PLANNERS[workload](random.Random(f"{workload}:{seed}"))
