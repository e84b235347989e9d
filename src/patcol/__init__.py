"""Pattern-constrained colourings of uniform hypergraphs.

Library layout:

- partitions: colour-pattern algebra (enumeration, closures, robustness,
  named families)
- hypergraph: explicit hypergraphs, constructors and file I/O
- colouring: vertex colourings, exact search, spectra
- sigma_engine: distribution-level engine for class-structured hypergraphs
- clique: clique numbers via capacity vectors, plus the brute-force oracle
- analysis: tight colourability, recolouring transformers, gap searches
- catalog: append-only result store
- cli: command-line entry point
"""

__version__ = "0.4.0"

from .colouring import Colouring, Spectrum
from .hypergraph import Hypergraph, SigmaHypergraph
from .partitions import Partition, PatternSet

__all__ = [
    "__version__",
    "Colouring",
    "Hypergraph",
    "Partition",
    "PatternSet",
    "SigmaHypergraph",
    "Spectrum",
]
