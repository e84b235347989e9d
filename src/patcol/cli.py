"""Command-line interface: construct, colour, analyse, catalogue.

All results are JSON on standard output, rendered canonically (sorted keys)
so identical inputs give byte-identical output.  Exit codes: 0 when the
computation completed, 2 on invalid input, 3 when some verdict stayed
"unknown" because a time budget ran out.

Pattern-set flags accept inline JSON (e.g. ``--Q "[[3,1]]"``) or ``@file``
references; class-structured hypergraphs are given by parameters
(``--sigma "n=3,r=4,q=3"``) and are only materialised by ``build --kind sigma
--explicit``.
Each input is read, decoded and checked once, before the computation; JSON
that cannot be decoded (malformed, not UTF-8, nested too deep) is an error
naming its flag or file.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from typing import TYPE_CHECKING

from . import __version__
from .partitions import (
    FAMILY_KINDS,
    PatternSet,
    as_partition,
    build_family,
    classify_robust,
    enumerate_partitions,
    ex_closure,
    load_json,
    rd_closure,
)

# The engines (analysis, clique, colouring, hypergraph, sigma_engine) are
# imported inside the handlers that run them, and the catalogue only under
# --catalog, so a cold process pays only for the modules its command needs.
if TYPE_CHECKING:
    from .hypergraph import Hypergraph, SigmaHypergraph

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_UNKNOWN = 3


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _check_settings(args) -> None:
    """Check the setting flags the command takes, where given; the handlers read them from ``args``."""
    budget, cap = getattr(args, "budget_s", None), getattr(args, "edge_cap", None)
    if budget is not None and not 0 <= budget <= sys.float_info.max:
        raise ValueError(f"--budget must be a finite number >= 0, got {budget}")
    if cap is not None and cap < 1:
        raise ValueError(f"--edge-cap must be an integer >= 1, got {cap}")
    if args.catalog_path == "":
        raise ValueError("--catalog must be a non-empty path")


# The pattern-set flags (argparse destinations).
_PATTERN_FLAGS = ("Q", "Sigma", "rd", "ex", "row_patterns", "col_patterns")


def _sigma_params(text: str) -> tuple[int, int, int]:
    vals = {}
    for item in text.split(","):
        key, _, raw = item.partition("=")
        key = key.strip()
        if key not in ("n", "r", "q") or not raw.strip().isdecimal():
            raise ValueError(f"bad structure parameters {text!r}; expected n=..,r=..,q=..")
        if key in vals:
            raise ValueError(f"structure parameters {text!r} repeat {key}")
        vals[key] = int(raw)
    missing = {"n", "r", "q"} - vals.keys()
    if missing:
        raise ValueError(f"structure parameters {text!r} missing {sorted(missing)}")
    return vals["n"], vals["r"], vals["q"]


def _refuse(args, where: str, names) -> None:
    """Reject the flags among ``names`` that were given: the command ignores them, so they would pass unnoticed."""
    if given := [n for n in dict.fromkeys(names) if (v := getattr(args, n, None)) is not None and v is not False]:
        raise ValueError(f"{where} takes no {', '.join('--' + n.replace('_', '-') for n in given)}")


def _read_inputs(args: argparse.Namespace) -> None:
    """Read, decode and check each pattern flag once; the handlers read the result."""
    for key in _PATTERN_FLAGS:
        text = getattr(args, key, None)
        if text is not None:  # inline JSON or an @file
            raw, source = (_read(text[1:]), text[1:]) if text.startswith("@") else (text, "--" + key.replace("_", "-"))
            data = load_json(raw, source)
            if not isinstance(data, list):
                raise ValueError(f"expected a JSON array of partitions, got {text!r}")
            setattr(args, key, [as_partition(p) for p in data])


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def _structure(args) -> tuple[Hypergraph | SigmaHypergraph, dict]:
    """The hypergraph given by --file (named by the sha256 of its content), or by --sigma with --Sigma, and its name."""
    if getattr(args, "file", None) is not None:
        import hashlib
        import warnings

        from .hypergraph import parse_hypergraph

        _refuse(args, f"{args.command} --file", ["sigma", "Sigma"])
        raw = _read(args.file)
        with warnings.catch_warnings(record=True) as caught:  # one line each, like the catalogue's warnings
            warnings.simplefilter("always")
            h = parse_hypergraph(raw, args.file)
        for w in caught:
            print(f"warning: {w.message}", file=sys.stderr)
        return h, {"file": hashlib.sha256(raw).hexdigest()}
    from .hypergraph import SigmaHypergraph

    if args.sigma is None or args.Sigma is None:
        raise ValueError("give --file, or --sigma n=..,r=..,q=.. with --Sigma")
    n, r, q = _sigma_params(args.sigma)
    s = SigmaHypergraph(n, r, q, PatternSet.of(r, args.Sigma))
    return s, s.key()


# Each handler returns its payload, whether a verdict stayed unknown, and the
# inputs its computation read, in canonical form: the catalogue digests these
# with the command name, so a flag the computation never reads cannot split it.
def _cmd_partitions(args) -> tuple[dict, bool, dict]:
    ps = enumerate_partitions(args.r)
    return {"r": args.r, "count": len(ps), "partitions": ps.to_json()}, False, {"r": args.r}


def _cmd_closure(args) -> tuple[dict, bool, dict]:
    if (args.rd is None) == (args.ex is None):
        raise ValueError("give exactly one of --rd or --ex")
    which = "rd" if args.rd is not None else "ex"
    seed = PatternSet.of(args.r, args.rd if which == "rd" else args.ex)
    closed = rd_closure(seed) if which == "rd" else ex_closure(seed)
    payload = {"r": args.r, "closure": which, "input": seed.to_json(), "result": closed.to_json()}
    return payload, False, {"r": args.r, which: seed.to_json()}


def _cmd_classify(args) -> tuple[dict, bool, dict]:
    q = PatternSet.of(args.r, args.Q)
    report = classify_robust(q)
    return {"r": args.r, "Q": q.to_json(), **report.to_json()}, False, {"r": args.r, "Q": q.to_json()}


# The flags each build kind needs, then the ones it may take (argparse destinations).
_BUILD_FLAGS = {
    "complete": (("n", "r"), ("out",)),
    "ramsey": (("n", "r", "p"), ("out",)),
    "grid": (("rows", "cols", "cell_size", "row_patterns", "col_patterns", "r"), ("out",)),
    "family": (("family", "r"), ("alpha", "beta", "s", "t", "a", "b")),
    "sigma": (("sigma", "Sigma"), ("explicit", "out")),
}


def _cmd_build(args) -> tuple[dict, bool, dict]:
    needs, takes = _BUILD_FLAGS[args.kind]
    missing = [f"--{name.replace('_', '-')}" for name in needs if getattr(args, name) is None]
    if missing:
        raise ValueError(f"build --kind {args.kind} needs {', '.join(missing)}")
    ignored = [name for pair in _BUILD_FLAGS.values() for name in pair[0] + pair[1] if name not in needs + takes]
    _refuse(args, f"build --kind {args.kind}", ignored)
    if args.out == "":
        raise ValueError("--out must be a non-empty path")
    # The flags the kind reads, as given; the pattern flags as built, below.
    inputs = {"kind": args.kind, **{n: getattr(args, n) for n in needs + takes if getattr(args, n) is not None}}
    if args.kind == "family":
        _refuse(args, "build --kind family", ["edge_cap"])
        fam = build_family(args.family, args.r, **{name: inputs[name] for name in takes if name in inputs})
        return {"r": args.r, "family": args.family, "patterns": fam.to_json()}, False, inputs
    from .hypergraph import build_complete, build_grid, build_ramsey, build_sigma_explicit, write_hypergraph

    # Without --edge-cap the library's default applies; the cap can only refuse the run, which is not catalogued.
    cap = {} if args.edge_cap is None else {"edge_cap": args.edge_cap}
    if args.kind == "complete":
        h = build_complete(args.n, args.r, **cap)
    elif args.kind == "ramsey":
        h = build_ramsey(args.n, args.r, args.p, **cap)
    elif args.kind == "grid":
        rp = PatternSet.of(args.r, args.row_patterns)
        cp = PatternSet.of(args.r, args.col_patterns)
        h = build_grid(args.rows, args.cols, args.cell_size, rp, cp, args.r, **cap)
        inputs.update(row_patterns=rp.to_json(), col_patterns=cp.to_json())
    else:  # sigma
        s, _ = _structure(args)
        inputs.update(sigma=[s.n, s.r, s.q], Sigma=s.edge_types.to_json())
        if not args.explicit:
            _refuse(args, "build --kind sigma without --explicit", ["out", "edge_cap"])
            return {
                "kind": "sigma",
                **s.key(),
                "vertices": s.vertex_count,
                "unrealizable_types": s.unrealizable_types().to_json(),
            }, False, inputs
        h = build_sigma_explicit(s, **cap)
    if args.out:
        write_hypergraph(h, args.out)
        return {"written": args.out, "r": h.r, "vertices": h.vertex_count, "edges": len(h.edges)}, False, inputs
    return h.to_json_dict(), False, inputs


def _cmd_spectrum(args) -> tuple[dict, bool, dict]:
    h, inputs = _structure(args)
    q = PatternSet.of(h.r, args.Q)
    if args.file:  # the engine follows the input: explicit edges, or the distribution search
        from .colouring import spectrum
    else:
        from .sigma_engine import sigma_spectrum as spectrum
    spec = spectrum(h, q, k_max=args.k_max, budget_s=args.budget_s)
    inputs.update(Q=q.to_json(), k_max=spec.probed_max, budget_s=args.budget_s)
    return spec.to_json_dict(), bool(spec.unknown), inputs


def _cmd_clique(args) -> tuple[dict, bool, dict]:
    from .clique import brute_force_clique, omega_sigma

    h, inputs = _structure(args)
    if not args.file:
        _refuse(args, "clique --sigma", ["vertex_cap"])
        return {"method": "k-full", **omega_sigma(h).to_json_dict()}, False, inputs
    # Without --vertex-cap the library's default applies; the cap can only refuse the run, which is not catalogued.
    omega = brute_force_clique(h, **({} if args.vertex_cap is None else {"vertex_cap": args.vertex_cap}))
    return {"method": "brute-force", "omega": omega}, False, inputs


def _cmd_tight(args) -> tuple[dict, bool, dict]:
    from .analysis import check_tight

    s, inputs = _structure(args)
    q = PatternSet.of(s.r, args.Sigma if args.Q is None else args.Q)
    report = check_tight(s, q, budget_s=args.budget_s)
    return report.to_json_dict(), report.verdict is None, {**inputs, "Q": q.to_json(), "budget_s": args.budget_s}


def _cmd_gaps(args) -> tuple[dict, bool, dict]:
    from .analysis import gap_witness_search

    q = PatternSet.of(args.r, args.Q)
    sigma_sets = None if args.Sigma is None else [PatternSet.of(args.r, [p]) for p in args.Sigma]
    n_range, q_range = range(args.n_min, args.n_max + 1), range(args.q_min, args.q_max + 1)
    report = gap_witness_search(args.r, q, n_range, q_range, sigma_sets, k_max=args.k_max, budget_s=args.budget_s)
    # A k_max at or above the largest vertex count, n_max * q_max, caps no spectrum of the grid.
    k_max = None if args.k_max is None or args.k_max >= args.n_max * args.q_max else args.k_max
    grid = {"n": [args.n_min, args.n_max], "q": [args.q_min, args.q_max], "Sigma": args.Sigma}
    inputs = {"r": args.r, "Q": q.to_json(), **grid, "k_max": k_max, "budget_s": args.budget_s}
    return report.to_json_dict(), bool(report.unresolved), inputs


def _cmd_ramsey(args) -> tuple[dict, bool, dict]:
    from math import comb

    from .analysis import ramsey_check

    q = PatternSet.of(comb(args.p, args.r), args.Q)
    report = ramsey_check(args.n, args.r, args.p, args.k, q, budget_s=args.budget_s)
    inputs = {"n": args.n, "r": args.r, "p": args.p, "k": args.k, "Q": q.to_json(), "budget_s": args.budget_s}
    return report.to_json_dict(), report.colourable is None, inputs


def _cmd_verify(args) -> tuple[dict, bool, dict]:
    from .analysis import LEMMA_BUDGET_S, verify_lemma_constructions

    budget_s = LEMMA_BUDGET_S if args.budget_s is None else args.budget_s
    payload = verify_lemma_constructions(args.r, budget_s=budget_s)
    inputs = {"suite": args.suite, "r": args.r, "budget_s": budget_s}
    return payload, any(rep["verdict"] == "unknown" for rep in payload["reports"]), inputs


class _Parser(argparse.ArgumentParser):
    """Reports a usage error in one line, without the usage block, and exits 2."""

    def error(self, message: str):
        self.exit(EXIT_INVALID, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--catalog", dest="catalog_path", help="append results to this catalogue file")
    search = argparse.ArgumentParser(add_help=False, parents=[common])  # the commands that run a search
    search.add_argument("--budget", type=float, dest="budget_s", help="time budget per search, seconds")

    parser = _Parser(prog="patcol", description=__doc__)
    parser.add_argument("--version", action="version", version=f"patcol {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partitions", parents=[common], help="enumerate partitions of r")
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(handler=_cmd_partitions)

    p = sub.add_parser("closure", parents=[common], help="reduction or expansion closure")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--rd", help="pattern set to close under part merging")
    p.add_argument("--ex", help="pattern set to close under part splitting")
    p.set_defaults(handler=_cmd_closure)

    p = sub.add_parser("classify", parents=[common], help="robustness flags of a pattern set")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--Q", required=True)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("build", parents=[common], help="construct hypergraphs and pattern families")
    p.add_argument("--kind", required=True, choices=["complete", "sigma", "grid", "ramsey", "family"])
    p.add_argument("--n", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--rows", type=int)
    p.add_argument("--cols", type=int)
    p.add_argument("--cell-size", type=int, dest="cell_size")
    p.add_argument("--row-patterns", dest="row_patterns")
    p.add_argument("--col-patterns", dest="col_patterns")
    p.add_argument("--sigma", help="structure parameters n=..,r=..,q=..")
    p.add_argument("--Sigma", help="allowed edge types")
    p.add_argument("--explicit", action="store_true", help="materialise the edge set")
    p.add_argument("--family", choices=list(FAMILY_KINDS))
    for name in _BUILD_FLAGS["family"][1]:
        p.add_argument(f"--{name}", type=int)
    p.add_argument("--out", help="write hypergraph JSON here instead of stdout")
    p.add_argument("--edge-cap", type=int, dest="edge_cap", help="most edges to build (by default the library's cap)")
    p.set_defaults(handler=_cmd_build)

    p = sub.add_parser("spectrum", parents=[search], help="feasible colour counts and gaps")
    p.add_argument("--file", help="explicit hypergraph JSON file")
    p.add_argument("--sigma", help="structure parameters n=..,r=..,q=..")
    p.add_argument("--Sigma", help="allowed edge types")
    p.add_argument("--Q", required=True, help="allowed colour patterns")
    p.add_argument("--k-max", type=int, dest="k_max")
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("clique", parents=[common], help="clique number")
    p.add_argument("--file", help="explicit hypergraph JSON file (brute force)")
    p.add_argument("--sigma", help="structure parameters n=..,r=..,q=..")
    p.add_argument("--Sigma", help="allowed edge types")
    p.add_argument("--vertex-cap", type=int, dest="vertex_cap", help="brute-force vertex cap (--file only)")
    p.set_defaults(handler=_cmd_clique)

    p = sub.add_parser("tight", parents=[search], help="tight colourability report")
    p.add_argument("--sigma", required=True, help="structure parameters n=..,r=..,q=..")
    p.add_argument("--Sigma", required=True, help="allowed edge types")
    p.add_argument("--Q", help="allowed colour patterns (defaults to the edge types)")
    p.set_defaults(handler=_cmd_tight)

    p = sub.add_parser("gaps", parents=[search], help="search a parameter grid for spectrum gaps")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--Q", required=True)
    p.add_argument("--n-min", type=int, dest="n_min", default=1)
    p.add_argument("--n-max", type=int, dest="n_max", required=True)
    p.add_argument("--q-min", type=int, dest="q_min", default=1)
    p.add_argument("--q-max", type=int, dest="q_max", required=True)
    p.add_argument("--Sigma", help="restrict to these single-type edge sets (array of partitions)")
    p.add_argument("--k-max", type=int, dest="k_max")
    p.set_defaults(handler=_cmd_gaps)

    p = sub.add_parser("ramsey", parents=[search], help="bundle-hypergraph colourability check")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--Q", required=True)
    p.set_defaults(handler=_cmd_ramsey)

    p = sub.add_parser("verify", parents=[search], help="run a verification suite")
    p.add_argument("--suite", required=True, choices=["lemmas"])
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(handler=_cmd_verify)

    return parser


def _catalogue(args, payload: dict, inputs: dict, wall_time_s: float) -> None:
    if not args.catalog_path:
        return
    from .catalog import CatalogEntry, catalog_append, digest_inputs

    entry = CatalogEntry(
        input_digest=digest_inputs({"command": args.command, **inputs}),
        result=payload,
        engine_version=__version__,
        wall_time_s=round(wall_time_s, 6),
        command=args.command,
    )
    catalog_append(entry, args.catalog_path)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_settings(args)
        start = time.perf_counter()
        _read_inputs(args)
        payload, has_unknown, inputs = args.handler(args)
        _emit(payload)
        _catalogue(args, payload, inputs, time.perf_counter() - start)
    except (ValueError, OSError) as exc:  # the cap exceptions are ValueErrors too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    return EXIT_UNKNOWN if has_unknown else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
