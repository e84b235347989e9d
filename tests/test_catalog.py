import fcntl
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from patcol.catalog import CatalogEntry, catalog_append, digest_inputs

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

# One writer: says it is ready, waits for a common start time, then makes 25
# appends under one digest, each with its own result; a long result makes
# each line longer than one write buffer.
_WRITER = """
import sys, time
from patcol.catalog import CatalogEntry, catalog_append
print("ready", flush=True)
time.sleep(max(0.0, float(sys.argv[3]) - time.time()))
for i in range(25):
    result = {"writer": sys.argv[2], "i": i, "pad": list(range(2000))}
    catalog_append(CatalogEntry("same", result, "0.0.0", 0.0, command="test"), sys.argv[1])
"""


def writer(path, name: str, start: float, **kwargs) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.Popen([sys.executable, "-c", _WRITER, str(path), name, str(start)], env=env, **kwargs)


def entry(digest="abc", result=1, version="0.1.0", wall=0.5):
    return CatalogEntry(digest, result, version, wall, command="spectrum")


class TestDigest:
    def test_stable_under_key_order(self):
        assert digest_inputs({"a": 1, "b": [2, 3]}) == digest_inputs({"b": [2, 3], "a": 1})

    def test_distinct_inputs_distinct_digests(self):
        assert digest_inputs({"k": 2}) != digest_inputs({"k": 3})


def records(path) -> list[CatalogEntry]:
    return [CatalogEntry.from_json_dict(json.loads(line)) for line in Path(path).read_text().splitlines()]


# A catalogue is queried by the scan in catalog_append: an append with the
# digest of an earlier record and another result is flagged as a conflict,
# and its warning names the earlier record's engine version.
class TestCatalog:
    def test_append_then_query(self, tmp_path, capsys):
        path = str(tmp_path / "cat.ndjson")
        assert catalog_append(entry(), path) == entry()
        assert catalog_append(entry(result=2), path).conflict is True
        assert "(engine 0.1.0)" in capsys.readouterr().err

    def test_query_empty(self, tmp_path):
        # Appending to a missing file creates it with one record.
        path = tmp_path / "missing.ndjson"
        assert catalog_append(entry(), str(path)).conflict is False
        assert records(path) == [entry()]

    def test_same_digest_new_version_keeps_both_newest_wins(self, tmp_path, capsys):
        path = str(tmp_path / "cat.ndjson")
        catalog_append(entry(result=1, version="0.1.0"), path)
        flagged = catalog_append(entry(result=2, version="0.2.0"), path)
        assert flagged.conflict is True
        assert "different result" in capsys.readouterr().err
        # Append-only: both are kept, the newest last.
        assert records(path) == [entry(result=1, version="0.1.0"), flagged]

    def test_same_result_not_flagged(self, tmp_path):
        path = str(tmp_path / "cat.ndjson")
        catalog_append(entry(), path)
        assert catalog_append(entry(), path).conflict is False

    def test_same_tuple_result_not_flagged(self, tmp_path):
        # The earlier record reads back from JSON with a list where this one holds a tuple.
        path = str(tmp_path / "cat.ndjson")
        catalog_append(entry(result={"feasible": (2, 4)}), path)
        assert catalog_append(entry(result={"feasible": (2, 4)}), path).conflict is False

    def test_corrupt_lines_skipped_with_warning(self, tmp_path, capsys):
        # The good line 4 is read after two corrupt lines; the blank line 2 draws no warning.
        path = tmp_path / "cat.ndjson"
        good = json.dumps(entry()._asdict())
        path.write_text("not json at all\n\n{\"half\": true}\n" + good + "\n")
        assert catalog_append(entry(result=2), str(path)).conflict is True
        err = capsys.readouterr().err
        assert err.count("skipping corrupt") == 2
        assert f"{path}:1: skipping corrupt" in err and f"{path}:3: skipping corrupt" in err

    @pytest.mark.parametrize(
        "bad", [b'{"input_digest": "\xff"}', b"[" * 100_000 + b"]" * 100_000], ids=["not-utf8", "deep-nesting"]
    )
    def test_undecodable_line_skipped_with_warning(self, tmp_path, capsys, bad):
        path = tmp_path / "cat.ndjson"
        catalog_append(entry(), str(path))
        with open(path, "ab") as fh:
            fh.write(bad + b"\n")
        assert catalog_append(entry(digest="def"), str(path)).conflict is False
        assert f"warning: {path}:2: skipping corrupt catalogue line" in capsys.readouterr().err
        # The record after the corrupt line is read.
        assert catalog_append(entry(digest="def", result=2), str(path)).conflict is True
        assert len(path.read_bytes().splitlines()) == 4

    @pytest.mark.parametrize(
        "line",
        [b"[1, 2]", b"null", b'"input_digest result engine_version wall_time_s"', b'{"input_digest": "def"}'],
        ids=["list", "null", "string-naming-the-fields", "missing-fields"],
    )
    def test_line_that_is_no_record_skipped_with_warning(self, tmp_path, capsys, line):
        path = tmp_path / "cat.ndjson"
        path.write_bytes(line + b"\n")
        assert catalog_append(entry(digest="def"), str(path)).conflict is False
        assert f"warning: {path}:1: skipping corrupt catalogue line" in capsys.readouterr().err

    def test_concurrent_appends_are_serialised(self, tmp_path):
        path = tmp_path / "cat.ndjson"
        start = time.time() + 0.5
        writers = [writer(path, str(w), start, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL) for w in range(4)]
        for proc in writers:
            assert proc.wait(timeout=60) == 0
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(records) == 100
        assert len({(rec["result"]["writer"], rec["result"]["i"]) for rec in records}) == 100
        # Every scan saw every earlier record, so only the first append found no conflict.
        assert [rec["conflict"] for rec in records] == [False] + [True] * 99

    def test_append_waits_for_the_lock(self, tmp_path):
        path = tmp_path / "cat.ndjson"
        with open(path, "a") as held:
            fcntl.flock(held, fcntl.LOCK_EX)
            proc = writer(path, "0", 0.0, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            assert proc.stdout.readline() == "ready\n"
            time.sleep(0.3)
            assert proc.poll() is None and path.read_text() == ""
        assert proc.wait(timeout=60) == 0
        proc.stdout.close()
        assert len(path.read_text().splitlines()) == 25
