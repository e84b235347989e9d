"""Pattern-constrained colourings of uniform hypergraphs.

Library layout:

- partitions: colour-pattern algebra (enumeration, closures, robustness,
  named families)
- hypergraph: explicit hypergraphs, constructors and file I/O
- budget: budgets, target checks, and settling colour counts into spectra
  and gap calls (shared by both engines)
- colouring: vertex colourings, the explicit exact search and its spectra
- sigma_engine: distribution-level engine for class-structured hypergraphs
- clique: clique numbers via capacity vectors, plus the brute-force oracle
- analysis: tight colourability, recolouring transformers, gap searches
- catalog: append-only result store
- cli: command-line entry point

``import patcol`` loads no submodule: the names in ``__all__`` are resolved
on first use (PEP 562), so a CLI command loads only the modules it runs.
"""

__version__ = "0.4.0"

# Each lazily re-exported name with the submodule that defines it.
_EXPORTS = {
    "Colouring": "colouring",
    "Spectrum": "budget",
    "Hypergraph": "hypergraph",
    "SigmaHypergraph": "hypergraph",
    "Partition": "partitions",
    "PatternSet": "partitions",
}

__all__ = ["__version__", *sorted(_EXPORTS)]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value
