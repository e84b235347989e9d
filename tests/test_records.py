"""Result records are NamedTuples; PatternSet and SigmaHypergraph keep their own rules."""
import copy
import pickle

import pytest

from patcol.catalog import CatalogEntry
from patcol.colouring import Spectrum
from patcol.hypergraph import SigmaHypergraph
from patcol.partitions import PatternSet
from patcol.sigma_engine import DistributionMatrix

Q = PatternSet.of(3, [(2, 1), (1, 1, 1)])

# PatternSet iterates over its members, not its fields, so a record built by
# unpacking it as a tuple would come back wrong without an error.
RECORDS = [
    Q,
    SigmaHypergraph(3, 3, 2, Q),
    Spectrum((2, 4), 5, (5,)),
    DistributionMatrix.from_rows(2, 2, [{0: 2}, {0: 1, 1: 1}]),
    CatalogEntry("abc", {"feasible": [2]}, "0.4.0", 0.5, command="spectrum", conflict=True),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
@pytest.mark.parametrize("roundtrip", [lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy])
def test_pickle_and_copy_roundtrip(record, roundtrip):
    back = roundtrip(record)
    assert type(back) is type(record) and back == record


def test_pattern_set_is_not_a_tuple_and_is_immutable():
    assert not isinstance(Q, tuple)
    assert Q == PatternSet(3, frozenset({(1, 1, 1), (2, 1)})) and hash(Q) == hash(PatternSet(3, Q.members))
    assert Q != PatternSet(4, Q.members) and Q != (3, Q.members)
    with pytest.raises(AttributeError):
        Q.r = 4


def test_records_are_named_tuples():
    spec = Spectrum((2, 4), 5)
    assert spec == ((2, 4), 5, ()) and spec._asdict() == {"feasible": (2, 4), "probed_max": 5, "unknown": ()}
    assert spec._replace(unknown=(3,)).gap_status == "unknown"
    with pytest.raises(AttributeError):
        spec.probed_max = 6


def test_sigma_hypergraph_checks_hold_under_replace():
    s = SigmaHypergraph(3, 3, 2, Q)
    assert s._replace(q=4) == SigmaHypergraph(3, 3, 4, Q)
    with pytest.raises(ValueError, match="positive"):
        s._replace(n=0)
    with pytest.raises(ValueError, match="edge types"):
        s._replace(r=4)
