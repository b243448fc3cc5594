"""Unit tests for the write-ahead run journal (repro.runtime.journal).

Covers the line codec, torn-tail recovery vs. mid-file corruption,
header validation, the replay indexes, and the job-identity functions
that resume keys on.
"""

import dataclasses
import json
import zlib

import pytest

from repro.harness.config import BenchmarkConfig
from repro.runtime.journal import (
    JOURNAL_VERSION,
    JournalError,
    RunJournal,
    _decode_line,
    _encode_line,
    job_key,
    matrix_hash,
)
from repro.runtime.scheduler import expand_matrix


def small_config(**overrides) -> BenchmarkConfig:
    base = dict(
        platforms=["powergraph"],
        datasets=["R1"],
        algorithms=["bfs", "pr"],
        repetitions=2,
    )
    base.update(overrides)
    return BenchmarkConfig(**base)


HEADER = {"kind": "matrix", "matrix_hash": "abc"}


class TestLineCodec:
    def test_round_trip(self):
        record = {"type": "job-done", "key": "k", "result": {"x": 1.5}}
        assert _decode_line(_encode_line(record)) == record

    def test_missing_newline_rejected(self):
        line = _encode_line({"type": "x"})
        assert _decode_line(line[:-1]) is None

    def test_crc_mismatch_rejected(self):
        line = bytearray(_encode_line({"type": "x", "n": 1}))
        line[-3] ^= 0x01  # flip a payload bit; the CRC no longer matches
        assert _decode_line(bytes(line)) is None

    def test_non_dict_payload_rejected(self):
        payload = json.dumps([1, 2, 3], separators=(",", ":"))
        crc = zlib.crc32(payload.encode()) & 0xFFFFFFFF
        assert _decode_line(f"{crc:08x} {payload}\n".encode()) is None


class TestJournalRoundTrip:
    def test_create_append_load(self, tmp_path):
        journal = RunJournal.create(tmp_path, HEADER)
        journal.append({"type": "attempt-start", "key": "a", "seq": 0})
        journal.append_many(
            [
                {"type": "job-done", "key": "a", "seq": 0},
                {"type": "run-complete"},
            ]
        )
        journal.close()

        replay = RunJournal.load(tmp_path)
        assert replay.header["kind"] == "matrix"
        assert replay.header["version"] == JOURNAL_VERSION
        assert [r["type"] for r in replay.records] == [
            "attempt-start", "job-done", "run-complete",
        ]
        assert replay.truncated_bytes == 0
        assert replay.complete

    def test_create_refuses_existing_journal(self, tmp_path):
        RunJournal.create(tmp_path, HEADER).close()
        with pytest.raises(JournalError, match="already exists"):
            RunJournal.create(tmp_path, HEADER)

    def test_load_without_journal_raises(self, tmp_path):
        with pytest.raises(JournalError, match="no journal.jsonl"):
            RunJournal.load(tmp_path)

    def test_open_appends_after_existing_records(self, tmp_path):
        RunJournal.create(tmp_path, HEADER).close()
        RunJournal.load(tmp_path)
        with RunJournal(RunJournal.journal_path(tmp_path)) as journal:
            journal.append({"type": "job-done", "key": "a"})
        replay = RunJournal.load(tmp_path)
        assert [r["type"] for r in replay.records] == ["job-done"]


class TestRecovery:
    def _journal_with_tail(self, tmp_path, tail: bytes):
        journal = RunJournal.create(tmp_path, HEADER)
        journal.append({"type": "job-done", "key": "a"})
        journal.close()
        path = RunJournal.journal_path(tmp_path)
        path.write_bytes(path.read_bytes() + tail)
        return path

    def test_torn_tail_is_truncated(self, tmp_path):
        path = self._journal_with_tail(tmp_path, b'deadbeef {"type":')
        replay = RunJournal.load(tmp_path)
        assert replay.truncated_bytes > 0
        assert [r["type"] for r in replay.records] == ["job-done"]
        # Recovery rewrote the file: a second load sees a clean log.
        assert RunJournal.load(tmp_path).truncated_bytes == 0
        assert b"deadbeef" not in path.read_bytes()

    def test_torn_tail_without_newline_prefix(self, tmp_path):
        # A tear mid-line: the last good record ends, then half a write.
        good = _encode_line({"type": "run-complete"})
        self._journal_with_tail(tmp_path, good[: len(good) // 2])
        replay = RunJournal.load(tmp_path)
        assert replay.truncated_bytes > 0
        assert not replay.complete

    def test_mid_file_corruption_raises(self, tmp_path):
        journal = RunJournal.create(tmp_path, HEADER)
        journal.append({"type": "attempt-start", "key": "a"})
        journal.append({"type": "job-done", "key": "a"})
        journal.close()
        path = RunJournal.journal_path(tmp_path)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = b"00000000 {broken}\n"  # valid lines follow: not a tail
        path.write_bytes(b"".join(lines))
        with pytest.raises(JournalError, match="corrupt"):
            RunJournal.load(tmp_path)

    def test_missing_header_raises(self, tmp_path):
        path = RunJournal.journal_path(tmp_path)
        journal = RunJournal(path)
        journal.append({"type": "job-done", "key": "a"})
        journal.close()
        with pytest.raises(JournalError, match="run-start"):
            RunJournal.load(tmp_path)

    def test_version_mismatch_raises(self, tmp_path):
        path = RunJournal.journal_path(tmp_path)
        journal = RunJournal(path)
        journal.append({"type": "run-start", "version": 99})
        journal.close()
        with pytest.raises(JournalError, match="version"):
            RunJournal.load(tmp_path)


class TestReplayIndexes:
    def test_indexes_by_record_type(self, tmp_path):
        journal = RunJournal.create(tmp_path, HEADER)
        journal.append_many(
            [
                {"type": "job-scheduled", "key": "a"},
                {"type": "attempt-start", "key": "a", "attempt": 1},
                {"type": "attempt-failed", "key": "a", "attempt": 1},
                {"type": "attempt-start", "key": "a", "attempt": 2},
                {"type": "job-done", "key": "a"},
                {"type": "attempt-start", "key": "b", "attempt": 1},
                {"type": "job-failed", "key": "b"},
            ]
        )
        journal.close()
        replay = RunJournal.load(tmp_path)
        assert set(replay.completed) == {"a"}
        assert len(replay.records) == 7
        assert not replay.complete

    @pytest.mark.parametrize(
        "header, records",
        [
            ({"kind": "full-run", "seed": 0}, []),
            ({"kind": "experiment", "seed": 0}, []),
            (HEADER, [{"type": "serial-job", "key": "k", "result": {}}]),
        ],
        ids=["full-run", "experiment", "serial-job"],
    )
    def test_sequential_journal_of_an_older_build_is_refused(
        self, tmp_path, header, records
    ):
        # Written by the serial path this build no longer has: replaying
        # it as a job list would match nothing and re-run everything.
        journal = RunJournal.create(tmp_path, header)
        journal.append_many(records)
        journal.close()
        with pytest.raises(JournalError, match="predates this build"):
            RunJournal.load(tmp_path)


class TestJobIdentity:
    def test_job_key_ignores_matrix_position(self):
        spec = expand_matrix(small_config())[0]
        moved = dataclasses.replace(spec, seq=spec.seq + 100)
        assert job_key(spec) == job_key(moved)

    def test_job_key_depends_on_outcome_inputs(self):
        spec = expand_matrix(small_config())[-1]
        assert job_key(spec) != job_key(
            dataclasses.replace(spec, run_index=spec.run_index + 1)
        )
        assert job_key(spec) != job_key(
            dataclasses.replace(spec, seed=spec.seed + 1)
        )

    def test_matrix_hash_tracks_config_and_jobs(self):
        config = small_config()
        specs = expand_matrix(config)
        assert matrix_hash(config, specs) == matrix_hash(config, specs)
        other = small_config(repetitions=3)
        assert matrix_hash(config, specs) != matrix_hash(
            other, expand_matrix(other)
        )

    def test_untagged_keys_are_the_ones_older_journals_recorded(self):
        # Pinned from the build before job lists carried an experiment
        # tag: a matrix journal in a service spool must still resume.
        config = small_config()
        specs = expand_matrix(config)
        assert job_key(specs[0]) == (
            "ae9d009788b61a26895e621e3b64730aec4631f88f7e82d27a8bebf2e2884f73"
        )
        assert job_key(specs[-1]) == (
            "2bd06362eb178201547dc071737d19b686882b91261419a8204d80f9a2c041d6"
        )
        assert matrix_hash(config, specs) == (
            "757641c0d20a35f6a1ade308377b471598674e31d733bcc04c3fee240ba641ba"
        )

    def test_experiment_tag_is_part_of_the_identity_when_set(self):
        spec = expand_matrix(small_config())[-1]
        tagged = dataclasses.replace(spec, experiment="variability")
        assert job_key(tagged) != job_key(spec)
        assert job_key(tagged) != job_key(
            dataclasses.replace(spec, experiment="stress-test")
        )
