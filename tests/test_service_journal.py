"""Tests for the crash-safe fleet journal: append/replay round trips,
sequence continuation across reopen, torn-tail tolerance, staged
compaction (including a crash between the rename and the unlinks), and
the stats the readiness probe reports."""

import json

import pytest

from repro.service.journal import SNAPSHOT_TYPE, FleetJournal


@pytest.fixture
def journal(tmp_path):
    return FleetJournal(tmp_path / "journal")


def _entries(n, kind="submit"):
    return [{"type": kind, "fleet_id": f"fleet-{i:04d}"}
            for i in range(n)]


# ---------------------------------------------------------------------------
# Append + replay
# ---------------------------------------------------------------------------

def test_append_replay_round_trip(journal):
    for entry in _entries(3):
        journal.append(entry)
    replayed = journal.replay()
    assert [e["fleet_id"] for e in replayed] == \
        ["fleet-0000", "fleet-0001", "fleet-0002"]
    assert [e["seq"] for e in replayed] == [1, 2, 3]


def test_sequence_continues_across_reopen(journal):
    for entry in _entries(2):
        journal.append(entry)
    reopened = FleetJournal(journal.directory)
    assert reopened.append({"type": "ack"}) == 3


def test_empty_directory_replays_nothing(tmp_path):
    assert FleetJournal(tmp_path / "fresh").replay() == []


# ---------------------------------------------------------------------------
# Crash tolerance
# ---------------------------------------------------------------------------

def test_torn_final_line_is_dropped_not_fatal(journal):
    for entry in _entries(2):
        journal.append(entry)
    # A crash mid-append leaves a partial JSON line at the tail.
    with journal.segments()[-1].open("a") as handle:
        handle.write('{"type": "ack", "fleet')
    reopened = FleetJournal(journal.directory)
    replayed = reopened.replay()
    assert len(replayed) == 2
    assert reopened.dropped_lines == 1


def test_non_dict_lines_are_dropped(journal):
    journal.append({"type": "submit", "fleet_id": "fleet-0001"})
    with journal.segments()[-1].open("a") as handle:
        handle.write('"just a string"\n[1, 2, 3]\n')
    assert len(journal.replay()) == 1
    assert journal.dropped_lines == 2


# ---------------------------------------------------------------------------
# Compaction
# ---------------------------------------------------------------------------

def test_compact_replaces_segments_with_a_snapshot(journal):
    for entry in _entries(5):
        journal.append(entry)
    assert journal.appended_since_compact == 5
    journal.compact(_entries(2))
    segments = journal.segments()
    assert len(segments) == 1
    assert journal.appended_since_compact == 0
    # The new segment leads with the snapshot marker.
    head = json.loads(segments[0].read_text().splitlines()[0])
    assert head["type"] == SNAPSHOT_TYPE
    assert [e["fleet_id"] for e in journal.replay()] == \
        ["fleet-0000", "fleet-0001"]


def test_appends_after_compaction_replay_in_order(journal):
    journal.append({"type": "submit", "fleet_id": "old"})
    journal.compact([{"type": "submit", "fleet_id": "kept"}])
    journal.append({"type": "ack", "fleet_id": "kept"})
    assert [(e["type"], e["fleet_id"]) for e in journal.replay()] == \
        [("submit", "kept"), ("ack", "kept")]


def test_crash_between_replace_and_unlink_is_harmless(journal):
    """Staged compaction's worst case: the compacted segment landed
    but the old segments survive.  The snapshot marker must make
    replay discard them."""
    for entry in _entries(3):
        journal.append(entry)
    old_segment = journal.segments()[-1]
    stale = old_segment.read_text()
    journal.compact([{"type": "submit", "fleet_id": "fleet-0001"}])
    # Resurrect the pre-compaction segment, as if unlink never ran.
    old_segment.write_text(stale)
    replayed = FleetJournal(journal.directory).replay()
    assert [e["fleet_id"] for e in replayed] == ["fleet-0001"]


def test_snapshots_never_appear_in_replay(journal):
    journal.compact(_entries(1))
    assert all(e.get("type") != SNAPSHOT_TYPE
               for e in journal.replay())


# ---------------------------------------------------------------------------
# Stats + helpers
# ---------------------------------------------------------------------------

def test_stats_report_lag_and_sizes(journal):
    for entry in _entries(4):
        journal.append(entry)
    stats = journal.stats()
    assert stats["segments"] == 1
    assert stats["entries"] == 4
    assert stats["lag"] == 4
    assert stats["bytes"] > 0
    assert stats["fsync"] is False
    journal.compact([])
    assert journal.stats()["lag"] == 0


def test_iter_types_filters(journal):
    journal.append({"type": "submit", "fleet_id": "f"})
    journal.append({"type": "lease", "fleet_id": "f"})
    journal.append({"type": "ack", "fleet_id": "f"})
    kinds = [e["type"] for e in journal.iter_types("submit", "ack")]
    assert kinds == ["submit", "ack"]


def test_sync_flushes_without_error(journal):
    journal.append({"type": "submit", "fleet_id": "f"})
    journal.sync()   # must not raise, segment + dir fsynced


def test_fsync_mode_appends_are_replayable(tmp_path):
    journal = FleetJournal(tmp_path / "durable", fsync=True)
    journal.append({"type": "submit", "fleet_id": "f"})
    assert journal.stats()["fsync"] is True
    assert len(journal.replay()) == 1
