"""Torn-tail-safe journal tailing: the SSE stream's correctness core.

The tailer must deliver every CRC-valid journal record exactly once —
across torn tails (a writer SIGKILLed mid-append), the atomic recovery
rewrite (new inode, possibly shorter file), and a resumed writer
appending to the rewritten file. These tests drive each scenario
byte-for-byte.
"""

from __future__ import annotations

import os

from repro.runtime.journal import RunJournal, _encode_line
from repro.service.tail import JournalTailer, decode_journal_line


def _write(path, records, *, tail=b""):
    with open(path, "wb") as handle:
        for record in records:
            handle.write(_encode_line(record))
        handle.write(tail)


def _append(path, records, *, tail=b""):
    with open(path, "ab") as handle:
        for record in records:
            handle.write(_encode_line(record))
        handle.write(tail)


def _rewrite(path, records, *, tail=b""):
    """An atomic-replace rewrite: new inode, like torn-tail recovery."""
    temp = path.with_suffix(".tmp")
    _write(temp, records, tail=tail)
    os.replace(temp, path)


def _records(n, start=0):
    return [{"type": "job-done", "seq": i, "key": f"k{i}"}
            for i in range(start, start + n)]


class TestBasicTailing:
    def test_missing_file_yields_nothing(self, tmp_path):
        tailer = JournalTailer(tmp_path / "journal.jsonl")
        assert tailer.poll() == []
        assert tailer.emitted == 0

    def test_records_emitted_in_order_exactly_once(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        records = _records(5)
        _write(path, records)
        tailer = JournalTailer(path)
        assert tailer.poll() == records
        assert tailer.poll() == []  # nothing new: nothing re-emitted
        assert tailer.emitted == 5

    def test_incremental_appends_surface_incrementally(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        _write(path, _records(2))
        tailer = JournalTailer(path)
        assert [r["seq"] for r in tailer.poll()] == [0, 1]
        _append(path, _records(3, start=2))
        assert [r["seq"] for r in tailer.poll()] == [2, 3, 4]
        assert tailer.poll() == []


class TestTornTail:
    def test_torn_tail_is_withheld_not_emitted(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        complete = _records(3)
        torn = _encode_line({"type": "job-done", "seq": 3, "key": "k3"})[:-7]
        _write(path, complete, tail=torn)
        tailer = JournalTailer(path)
        assert tailer.poll() == complete  # the torn line never surfaces
        assert tailer.poll() == []

    def test_completed_tail_emitted_once_after_writer_finishes(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        record = {"type": "job-done", "seq": 3, "key": "k3"}
        encoded = _encode_line(record)
        _write(path, _records(3), tail=encoded[: len(encoded) // 2])
        tailer = JournalTailer(path)
        assert len(tailer.poll()) == 3
        # The writer completes the half-written line in place.
        with open(path, "ab") as handle:
            handle.write(encoded[len(encoded) // 2:])
        assert tailer.poll() == [record]
        assert tailer.poll() == []
        assert tailer.emitted == 4

    def test_corrupt_crc_line_blocks_without_duplicates(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        good = _records(2)
        bad = _encode_line({"type": "x"}).replace(b"x", b"y")  # CRC broken
        _write(path, good, tail=bad)
        tailer = JournalTailer(path)
        assert tailer.poll() == good
        # Polling again neither advances past nor re-emits anything.
        assert tailer.poll() == []
        assert decode_journal_line(bad) is None


class TestRecoveryRewrite:
    def test_atomic_rewrite_with_truncated_tail_no_dup_no_drop(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        good = _records(4)
        torn = b"garbage-without-newline"
        _write(path, good, tail=torn)
        tailer = JournalTailer(path)
        assert tailer.poll() == good
        # Recovery: atomic rewrite drops the torn tail (new inode,
        # shorter file), then the resumed writer appends new records.
        _rewrite(path, good)
        _append(path, _records(2, start=4))
        out = tailer.poll()
        assert [r["seq"] for r in out] == [4, 5]  # no re-emission of 0..3
        assert tailer.emitted == 6

    def test_rewrite_detected_by_inode_even_at_same_size(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        good = _records(3)
        _write(path, good)
        tailer = JournalTailer(path)
        assert len(tailer.poll()) == 3
        _rewrite(path, good)  # same bytes, new inode
        _append(path, _records(1, start=3))
        assert [r["seq"] for r in tailer.poll()] == [3]
        assert tailer.emitted == 4

    def test_tailer_attaching_mid_recovery_sees_everything_once(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        _write(path, _records(2), tail=b"\x00\x01torn")
        tailer = JournalTailer(path)
        assert len(tailer.poll()) == 2
        _rewrite(path, _records(2))
        assert tailer.poll() == []  # rewrite alone adds nothing new
        _append(path, _records(3, start=2))
        assert [r["seq"] for r in tailer.poll()] == [2, 3, 4]


class TestAgainstRealJournal:
    """The tailer against files the real RunJournal writes."""

    def test_tail_a_live_run_journal(self, tmp_path):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        journal = RunJournal.create(run_dir, {"kind": "matrix", "matrix_hash": "t"})
        tailer = JournalTailer(RunJournal.journal_path(run_dir))
        first = tailer.poll()
        assert [r["type"] for r in first] == ["run-start"]
        journal.append({"type": "job-done", "key": "a", "seq": 0})
        journal.append({"type": "job-done", "key": "b", "seq": 1})
        assert [r["key"] for r in tailer.poll()] == ["a", "b"]
        journal.append({"type": "run-complete"})
        journal.close()
        assert [r["type"] for r in tailer.poll()] == ["run-complete"]
        assert tailer.poll() == []

    def test_sigkill_style_torn_journal_then_resume_recovery(self, tmp_path):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        journal = RunJournal.create(run_dir, {"kind": "matrix", "matrix_hash": "t"})
        journal.append({"type": "job-done", "key": "a", "seq": 0})
        journal.close()
        path = RunJournal.journal_path(run_dir)
        # SIGKILL mid-append: a half-written line at the tail.
        with open(path, "ab") as handle:
            handle.write(_encode_line({"type": "job-done", "key": "b"})[:-9])
        tailer = JournalTailer(path)
        kinds = [r.get("key", r["type"]) for r in tailer.poll()]
        assert kinds == ["run-start", "a"]
        # Recovery (RunJournal.load) rewrites the file without the tear;
        # the resumed journal then appends the remainder.
        replay = RunJournal.load(run_dir)
        assert replay.truncated_bytes > 0
        resumed = RunJournal(path)
        resumed.append({"type": "job-done", "key": "b", "seq": 1})
        resumed.append({"type": "run-complete"})
        resumed.close()
        tail = [r.get("key", r["type"]) for r in tailer.poll()]
        assert tail == ["b", "run-complete"]  # exactly once, nothing lost


class TestSkipOffset:
    """The reconnect handle: skip N already-delivered records."""

    def test_skip_swallows_the_prefix(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        _write(path, _records(5))
        tailer = JournalTailer(path, skip=2)
        assert [r["seq"] for r in tailer.poll()] == [2, 3, 4]
        assert tailer.emitted == 3

    def test_skip_spans_polls(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        _write(path, _records(3))
        tailer = JournalTailer(path, skip=5)
        assert tailer.poll() == []  # still two records short of the skip
        _append(path, _records(4, start=3))
        assert [r["seq"] for r in tailer.poll()] == [5, 6]

    def test_rewrite_replay_counts_skipped_records_too(self, tmp_path):
        # The recovery rewrite preserves the good prefix — including
        # the records this tailer skipped rather than emitted. The
        # replay swallow must cover both, or the reconnecting client
        # would see its skipped records resurrected as duplicates.
        path = tmp_path / "journal.jsonl"
        _write(path, _records(3))
        tailer = JournalTailer(path, skip=2)
        assert [r["seq"] for r in tailer.poll()] == [2]
        _rewrite(path, _records(5))  # recovery rewrite + two new records
        assert [r["seq"] for r in tailer.poll()] == [3, 4]
        assert tailer.emitted == 3

    def test_zero_skip_is_the_default_stream(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        _write(path, _records(2))
        assert [r["seq"] for r in JournalTailer(path, skip=0).poll()] == [0, 1]
