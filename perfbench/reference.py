"""Independent reference answers the benchmark checks patcol against.

Nothing here imports patcol.  The searches are deliberately plain: vertices
in index order, colour classes opened in first-use order, and an edge tested
against the allowed patterns as its vertices get coloured.
"""
from __future__ import annotations

from itertools import combinations

from workloads import partitions_of


def _pattern(counts) -> tuple[int, ...]:
    return tuple(sorted((c for c in counts if c), reverse=True))


def _can_grow_into(partial: tuple[int, ...], allowed) -> bool:
    """Can more vertices turn these colour counts into an allowed pattern?"""
    return any(len(p) >= len(partial) and all(a >= b for a, b in zip(p, partial)) for p in allowed)


def colourable(vertices: int, edges, k: int, allowed) -> bool:
    """Is there a colouring using exactly k colours with every edge pattern allowed?"""
    allowed = [tuple(p) for p in allowed]
    members = set(allowed)
    by_vertex = [[] for _ in range(vertices)]
    for e in edges:
        for v in e:
            by_vertex[v].append(e)
    colour = [-1] * vertices

    def fits(v: int) -> bool:
        for e in by_vertex[v]:
            counts = [0] * k
            complete = True
            for u in e:
                if colour[u] < 0:
                    complete = False
                else:
                    counts[colour[u]] += 1
            pattern = _pattern(counts)
            if complete and pattern not in members:
                return False
            if not complete and not _can_grow_into(pattern, allowed):
                return False
        return True

    def place(v: int, opened: int) -> bool:
        if opened + (vertices - v) < k:
            return False
        if v == vertices:
            return opened == k
        for c in range(min(opened + 1, k)):
            colour[v] = c
            if fits(v) and place(v + 1, max(opened, c + 1)):
                return True
        colour[v] = -1
        return False

    return place(0, 0)


def spectrum(vertices: int, edges, allowed) -> list[int]:
    """Feasible colour counts, by listing every set partition of the vertices."""
    members = {tuple(p) for p in allowed}
    found: set[int] = set()
    colour = [0] * vertices

    def visit(v: int, opened: int) -> None:
        if v == vertices:
            if all(_pattern(_counts(e, colour, opened)) in members for e in edges):
                found.add(opened)
            return
        for c in range(opened + 1):
            colour[v] = c
            visit(v + 1, max(opened, c + 1))

    visit(0, 0)
    return sorted(found)


def _counts(edge, colour, k: int) -> list[int]:
    counts = [0] * k
    for u in edge:
        counts[colour[u]] += 1
    return counts


def sigma_edges(n: int, r: int, q: int, types) -> list[tuple[int, ...]]:
    """Edges of H(n, r, q | types): r-subsets whose class-intersection sizes form an allowed type."""
    wanted = {tuple(t) for t in types}
    out = []
    for sub in combinations(range(n * q), r):
        per_class: dict[int, int] = {}
        for v in sub:
            per_class[v // q] = per_class.get(v // q, 0) + 1
        if _pattern(per_class.values()) in wanted:
            out.append(sub)
    return out


def clique_number(vertices: int, r: int, edges) -> int:
    """Largest vertex set all of whose r-subsets are edges (smaller sets count)."""
    edge_set = {tuple(e) for e in edges}
    best = min(vertices, r - 1)
    for size in range(vertices, best, -1):
        for sub in combinations(range(vertices), size):
            if all(e in edge_set for e in combinations(sub, r)):
                return size
    return best


def merge_closure(q_set) -> set[tuple[int, ...]]:
    """Every partition reached by merging parts of a member (any number of times)."""
    out: set[tuple[int, ...]] = set()

    def merges(parts: tuple[int, ...]) -> None:
        p = _pattern(parts)
        if p in out:
            return
        out.add(p)
        for i, j in combinations(range(len(p)), 2):
            merges(p[:i] + p[i + 1 : j] + p[j + 1 :] + (p[i] + p[j],))

    for p in q_set:
        merges(tuple(p))
    return out


def split_closure(q_set) -> set[tuple[int, ...]]:
    """Every partition reached by splitting parts off as singletons: a -> (b, 1, ..., 1)."""
    out: set[tuple[int, ...]] = set()
    for p in q_set:
        choices = [[(b,) + (1,) * (a - b) for b in range(1, a + 1)] for a in p]

        def pick(i: int, acc: tuple[int, ...]) -> None:
            if i == len(choices):
                out.add(_pattern(acc))
                return
            for c in choices[i]:
                pick(i + 1, acc + c)

        pick(0, ())
    return out


def _as_set(q_set) -> set[tuple[int, ...]]:
    return {tuple(p) for p in q_set}


def expected_cli(op: dict) -> dict:
    """Fields the command's JSON output must contain, computed independently."""
    check = op["check"]
    if check == "partitions":
        return {"count": len(partitions_of(op["r"])), "partitions": _as_set(partitions_of(op["r"]))}
    if check == "closure":
        close = merge_closure if op["which"] == "rd" else split_closure
        return {"result": close(op["Q"])}
    if check == "classify":
        q_set = _as_set(op["Q"])
        r = op["r"]
        chain = {(r - j,) + (1,) * j for j in range(r)}
        flags = {
            "reduction_closed": merge_closure(q_set) == q_set,
            "expansion_closed": split_closure(q_set) == q_set,
            "simply_closed": chain <= q_set,
        }
        return dict(flags, robust=any(flags.values()))
    if check == "build":
        n, r = op["n"], op["r"]
        return {"r": r, "vertices": n, "edges": len(list(combinations(range(n), r)))}
    if check == "spectrum_complete":
        n, r = op["n"], op["r"]
        return {"feasible": spectrum(n, list(combinations(range(n), r)), op["Q"]), "unknown": []}
    if check == "spectrum_sigma":
        n, r, q = op["n"], op["r"], op["q"]
        return {"feasible": spectrum(n * q, sigma_edges(n, r, q, op["Sigma"]), op["Q"]), "unknown": []}
    if check == "clique":
        return {"omega": clique_number(op["vertices"], op["r"], op["edges"])}
    if check == "tight":
        return {"verdict": "true", "k": op["k"]}
    if check == "ramsey":
        return {"colourable": op["colourable"]}
    raise ValueError(f"unknown check {check!r}")


def check_cli(op: dict, answer: dict) -> list[str]:
    """Mismatches between one command's recorded answer and the reference."""
    if answer.get("rc") != 0:
        return [f"exit code {answer.get('rc')}"]
    out = answer.get("out")
    if not isinstance(out, dict):
        return ["no JSON object on stdout"]
    errors = []
    for key, want in expected_cli(op).items():
        got = out.get(key)
        if isinstance(want, set):
            got = _as_set(got or [])
        if got != want:
            errors.append(f"{key}: expected {want}, got {got}")
    if op["check"] == "ramsey" and op["colourable"] == "true" and answer.get("witness_ok") is not True:
        errors.append("ramsey witness is not a valid colouring")
    return errors
