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
"""

__version__ = "0.5.0"
