"""Acceptance suite: one test per criterion, one printed line per criterion.

Each test asserts the criterion's exact expected values and its stated time
bound.  Lines are written to the real stdout so they stay visible under
pytest's capture; run with -s to see them inline.
"""
import random
import sys
import time
from itertools import combinations

from patcol.analysis import canonical_tight_instance, check_tight, ramsey_check, recolour_merge_top, recolour_split, simply_closed_colouring
from patcol.clique import brute_force_clique, omega_sigma
from patcol.colouring import Colouring, classical_chromatic_number, exists_k_colouring, is_valid, spectrum
from patcol.hypergraph import (
    SigmaHypergraph,
    build_complete,
    build_grid,
    build_sigma_explicit,
    make_hypergraph,
)
from patcol.partitions import (
    PatternSet,
    chain,
    classify_robust,
    enumerate_partitions,
    ex_closure,
    monochromatic,
    rainbow,
    rd_closure,
)
from patcol.sigma_engine import sigma_exists_k, sigma_spectrum


def pset(r, *parts):
    return PatternSet.of(r, parts)


def conclude(num: int, name: str, started: float, bound_s: float, failures: list[str]) -> None:
    elapsed = time.perf_counter() - started
    status = "PASS" if not failures and elapsed < bound_s else "FAIL"
    print(f"ACCEPTANCE {num:02d} {status} {name} ({elapsed:.2f}s, bound {bound_s:.0f}s)", file=sys.__stdout__)
    assert elapsed < bound_s, f"criterion {num} took {elapsed:.2f}s, bound {bound_s}s"
    assert not failures, f"criterion {num}: " + "; ".join(failures)


def test_criterion_01_closure_golden_sets():
    t0 = time.perf_counter()
    failures = []
    rd = set(rd_closure(pset(6, (3, 1, 1, 1))))
    want_rd = {(3, 1, 1, 1), (4, 1, 1), (3, 2, 1), (5, 1), (4, 2), (3, 3), (6,)}
    if rd != want_rd:
        failures.append(f"reduction closure mismatch: {sorted(rd)}")
    ex = set(ex_closure(pset(6, (3, 3))))
    want_ex = {(3, 3), (3, 2, 1), (2, 2, 1, 1), (3, 1, 1, 1), (2, 1, 1, 1, 1), (1,) * 6}
    if ex != want_ex:
        failures.append(f"expansion closure mismatch: {sorted(ex)}")
    conclude(1, "closure golden sets", t0, 1.0, failures)


def test_criterion_02_robustness_classification():
    t0 = time.perf_counter()
    failures = []
    rep = classify_robust(pset(4, (3, 1)))
    if rep.robust or rep.reduction_closed or rep.expansion_closed or rep.simply_closed:
        failures.append("{(3,1)} at r=4 must fail every closure flag")
    for r in range(2, 7):
        if not classify_robust(chain(r)).simply_closed:
            failures.append(f"chain at r={r} must be simply closed")
        full = classify_robust(enumerate_partitions(r))
        if not (full.reduction_closed and full.expansion_closed):
            failures.append(f"full pattern set at r={r} must be closed both ways")
    conclude(2, "robustness classification", t0, 1.0, failures)


def test_criterion_03_grid_gap():
    t0 = time.perf_counter()
    failures = []
    q31 = pset(4, (3, 1))
    h = build_grid(4, 2, 2, q31, q31, 4)
    spec = spectrum(h, q31, k_max=4)
    if 2 not in spec.feasible:
        failures.append("2 missing from the grid spectrum")
    if 4 not in spec.feasible:
        failures.append("4 missing from the grid spectrum")
    if 3 in spec.feasible:
        failures.append("3 must not be feasible on the grid")
    conclude(3, "grid spectrum gap", t0, 60.0, failures)


def test_criterion_04_single_type_spectra():
    t0 = time.perf_counter()
    failures = []
    q31 = pset(4, (3, 1))
    cases = [
        (3, 3, (3, 1), {3}),
        (2, 2, (2, 2), {2}),
        (3, 2, (2, 2), set()),
        (3, 2, (2, 1, 1), set()),
        (4, 3, (1, 1, 1, 1), {2, 3, 4}),
        (2, 4, (4,), {2, 3, 4}),
    ]
    for n, q, sigma, want in cases:
        t_case = time.perf_counter()
        s = SigmaHypergraph(n, 4, q, pset(4, sigma))
        got = set(sigma_spectrum(s, q31).feasible)
        if got != want:
            failures.append(f"H({n},4,{q}|{sigma}): got {sorted(got)}, want {sorted(want)}")
        if time.perf_counter() - t_case > 60.0:
            failures.append(f"H({n},4,{q}|{sigma}) exceeded its 60s bound")
    conclude(4, "single-type spectra", t0, 360.0, failures)


def test_criterion_05_extreme_pair_gap_instances():
    t0 = time.perf_counter()
    failures = []
    qmr = pset(3, (3,), (1, 1, 1))
    k9 = build_complete(9, 3)
    for k, want in ((1, True), (9, True), (3, False)):
        got = exists_k_colouring(k9, k, qmr) is not None
        if got != want:
            failures.append(f"complete 9-vertex instance: k={k} expected {want}, got {got}")
    # H(9,3,3) has its gap at k=3.  H(3,3,9) is 3-colourable (one colour per
    # class: within-class triples are (3), cross-class triples (1,1,1)); its
    # gap is at k=2, where one colour spans two classes and a transversal
    # meets the pattern (2,1).
    expected = {
        (9, 3): ((1, True), (27, True), (3, False)),
        (3, 9): ((1, True), (27, True), (3, True), (2, False)),
    }
    for (n, q), table in expected.items():
        s = SigmaHypergraph(n, 3, q, qmr)
        for k, want in table:
            got = sigma_exists_k(s, qmr, k) is not None
            if got != want:
                failures.append(f"H({n},3,{q}): k={k} expected {want}, got {got}")
    s = SigmaHypergraph(3, 3, 9, qmr)
    class_wise = Colouring.of(tuple(s.class_of(v) for v in range(s.vertex_count)), 3)
    if not is_valid(build_sigma_explicit(s), class_wise, qmr):
        failures.append("H(3,3,9): the class-wise 3-colouring is rejected")
    conclude(5, "extreme-pair gap instances", t0, 300.0, failures)


def test_criterion_06_tight_colourability():
    t0 = time.perf_counter()
    failures = []
    q = pset(3, (2, 1))
    report = check_tight(SigmaHypergraph(6, 3, 5, q), q)
    if report.verdict is not True:
        failures.append(f"verdict {report.verdict}")
    if report.k != 6:
        failures.append(f"k={report.k}, want 6")
    for flag_name in ("spectrum_singleton", "unique_up_to_relabel", "equal_class_sizes", "minimal_over_q"):
        if getattr(report, flag_name) is not True:
            failures.append(f"{flag_name} is {getattr(report, flag_name)}")
    conclude(6, "tight colourability", t0, 600.0, failures)


def test_criterion_07_clique_equivalence():
    t0 = time.perf_counter()
    failures = []
    universe3 = sorted(enumerate_partitions(3))
    type_sets = [
        PatternSet(3, frozenset(c))
        for size in range(1, len(universe3) + 1)
        for c in combinations(universe3, size)
    ]
    for n in range(1, 5):
        for q in range(1, 5):
            for types in type_sets:
                if n < types.most_parts() or q < types.largest_part():
                    continue
                s = SigmaHypergraph(n, 3, q, types)
                got = omega_sigma(s).omega
                want = brute_force_clique(build_sigma_explicit(s))
                if got != want:
                    failures.append(f"(n={n},q={q},{sorted(types.members)}): k-full {got} vs brute {want}")
    if omega_sigma(SigmaHypergraph(3, 3, 3, pset(3, (2, 1)))).omega != 4:
        failures.append("desk instance clique number must be 4")
    for r in (3, 4):
        universe = sorted(enumerate_partitions(r))
        middle = [p for p in universe if p not in (monochromatic(r), rainbow(r))]
        for size in range(1, len(middle) + 1):
            for c in combinations(middle, size):
                types = PatternSet(r, frozenset(c))
                s = SigmaHypergraph(
                    max(3, types.most_parts()), r, max(3, types.largest_part()), types
                )
                if omega_sigma(s).omega > (r - 1) ** 2:
                    failures.append(f"bound broken at r={r}, {sorted(types.members)}")
    conclude(7, "clique number equivalence and bound", t0, 300.0, failures)


def test_criterion_08_sparse_high_chromatic_instance():
    t0 = time.perf_counter()
    failures = []
    s = SigmaHypergraph(3, 3, 3, pset(3, (2, 1)))
    h = build_sigma_explicit(s)
    chi = classical_chromatic_number(h)
    if chi != 3:
        failures.append(f"classical chromatic number {chi}, want 3")
    omega = omega_sigma(s).omega
    if omega != 4 or omega > 4:
        failures.append(f"clique number {omega} must be 4 and within (r-1)^2=4")
    # The family: chromatic number m grows while the clique number stays 4.
    classical = pset(3, (2, 1), (1, 1, 1))
    for m in range(3, 10):
        s = SigmaHypergraph(m, 3, m, pset(3, (2, 1)))
        feasible = sigma_spectrum(s, classical, k_max=m).feasible
        if feasible != (m,):
            failures.append(f"H({m},3,{m}): feasible counts up to {m} are {feasible}, want ({m},)")
        if omega_sigma(s).omega != 4:
            failures.append(f"H({m},3,{m}): clique number {omega_sigma(s).omega}, want 4")
    conclude(8, "sparse instances with chromatic m and clique 4", t0, 60.0, failures)


def test_criterion_09_engine_equivalence():
    t0 = time.perf_counter()
    failures = []
    rng = random.Random(20260808)
    disagreements = 0
    for _ in range(200):
        r = rng.choice([2, 3, 4])
        n, q = rng.randint(1, 3), rng.randint(1, 3)
        universe = sorted(enumerate_partitions(r))
        types = PatternSet(r, frozenset(rng.sample(universe, rng.randint(1, len(universe)))))
        allowed = PatternSet(r, frozenset(rng.sample(universe, rng.randint(1, len(universe)))))
        s = SigmaHypergraph(n, r, q, types)
        h = build_sigma_explicit(s)
        for k in range(1, n * q + 1):
            if (sigma_exists_k(s, allowed, k) is not None) != (
                exists_k_colouring(h, k, allowed) is not None
            ):
                disagreements += 1
                failures.append(f"disagreement at n={n} r={r} q={q} k={k}")
    if disagreements:
        failures.append(f"{disagreements} disagreements in 200 sampled instances")
    conclude(9, "distribution engine matches explicit engine", t0, 600.0, failures)


def test_criterion_10_robust_means_no_gap():
    t0 = time.perf_counter()
    failures = []
    rng = random.Random(31337)
    robust_by_r = {}
    for r in (3, 4):
        universe = sorted(enumerate_partitions(r))
        robust_by_r[r] = [
            PatternSet(r, frozenset(c))
            for size in range(1, len(universe) + 1)
            for c in combinations(universe, size)
            if classify_robust(PatternSet(r, frozenset(c))).robust
        ]
    for trial in range(100):
        r = rng.choice([3, 4])
        nv = rng.randint(r, 10)
        pool = list(combinations(range(nv), r))
        edges = rng.sample(pool, min(len(pool), rng.randint(0, 12)))
        h = make_hypergraph(r, nv, edges)
        for q in robust_by_r[r]:
            rep = classify_robust(q)
            spec = spectrum(h, q)
            if spec.gap_status == "gap":
                failures.append(f"gap under robust set {sorted(q.members)} on trial {trial}")
            for k in spec.feasible:
                c = exists_k_colouring(h, k, q)
                if rep.reduction_closed and k >= 2:
                    merged = recolour_merge_top(c, h, q)
                    if not is_valid(h, merged, q).ok:
                        failures.append(f"merge broke validity on trial {trial}")
                if rep.expansion_closed and k < nv:
                    split = recolour_split(c, h, q)
                    if not is_valid(h, split, q).ok:
                        failures.append(f"split broke validity on trial {trial}")
            if rep.simply_closed:
                for k in range(1, nv + 1):
                    if not is_valid(h, simply_closed_colouring(h, k), q).ok:
                        failures.append(f"distinguished-vertex colouring invalid on trial {trial}")
    conclude(10, "robust pattern sets admit no gaps", t0, 600.0, failures)


def test_criterion_11_bundle_colourability():
    t0 = time.perf_counter()
    failures = []
    no_mono = enumerate_partitions(3).without(monochromatic(3))
    if ramsey_check(6, 2, 3, 2, no_mono).colourable is not False:
        failures.append("15-vertex bundle instance must not be 2-colourable")
    if ramsey_check(5, 2, 3, 2, no_mono).colourable is not True:
        failures.append("10-vertex bundle instance must be 2-colourable")
    conclude(11, "bundle-hypergraph desk checks", t0, 60.0, failures)


def test_criterion_12_tight_theorem_table():
    # Every non-empty Q without the monochromatic and rainbow patterns, at r = 3 and 4.
    t0 = time.perf_counter()
    failures = []
    checked = 0
    for r in (3, 4):
        middle = sorted(enumerate_partitions(r).without(monochromatic(r)).without(rainbow(r)))
        for size in range(1, len(middle) + 1):
            for members in combinations(middle, size):
                q = PatternSet.of(r, members)
                report = check_tight(canonical_tight_instance(q), q)
                checked += 1
                if report.verdict is not True:
                    failures.append(f"r={r} Q={sorted(members)}: verdict {report.verdict}")
    if checked != 8:
        failures.append(f"{checked} pattern sets checked, want 1 at r=3 and 7 at r=4")
    conclude(12, "tight theorem at r = 3 and 4", t0, 60.0, failures)
