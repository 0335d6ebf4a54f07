"""Crash-safe append-only journal of fleet-broker state.

The durability layer under ``python -m repro serve``: every state
transition the broker must not forget — a fleet submitted, a lease
granted, a result acked, a fleet completed — is appended to an on-disk
journal *before* the transition is acknowledged to the caller.  A
restarted server replays the journal and carries on: completed runs
are never re-evaluated (their records are re-verified from the fleet
store by content identity), in-flight leases are simply not restored
(the runs return to the queue), and half-submitted garbage from a
crash mid-append is ignored.

Format — segmented NDJSON::

    <dir>/
      segment-000001.ndjson     # one JSON object per line
      segment-000002.ndjson     # the live (append) segment

* **Appends** go to the highest-numbered segment: one
  ``json.dumps`` line per entry, each call's lines in one write,
  flushed (and optionally fsynced) before it returns.  A torn final
  line — the signature of a crash mid-write — is detected on replay
  and dropped; every whole line is replayed.
* **Compaction** is staged: the compacted state is written to a brand
  new segment through a temp file and one atomic :func:`os.replace`,
  *then* the older segments are unlinked.  The first entry of a
  compacted segment is a ``snapshot`` marker; replay discards
  everything older when it meets one, so a crash between the replace
  and the unlinks only costs disk, never correctness.
* **Entries** are self-describing dicts with a monotonically
  increasing ``seq`` — idempotent to replay, ordered by construction.

The journal knows nothing about brokers; it stores and replays dicts.
:meth:`repro.service.broker.FleetBroker.recover` owns the semantics.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Iterator, Union

__all__ = ["FleetJournal", "SNAPSHOT_TYPE"]

SEGMENT_PREFIX = "segment-"
SEGMENT_SUFFIX = ".ndjson"

#: Entry type that marks the head of a compacted segment: replay
#: discards everything read before it.
SNAPSHOT_TYPE = "snapshot"


def _segment_index(path: Path) -> int:
    return int(path.name[len(SEGMENT_PREFIX):-len(SEGMENT_SUFFIX)])


class FleetJournal:
    """One append-only journal directory.

    Not internally locked: the broker serializes appends under its own
    condition (journal writes must be ordered with the state changes
    they record, so a second lock would only add a lock-order hazard).
    ``fsync=True`` makes every append durable against power loss, not
    just process death; the CLI turns it on for ``--state`` servers,
    tests leave it off for speed.
    """

    def __init__(self, directory: Union[str, Path], *,
                 fsync: bool = False) -> None:
        self.directory = Path(directory)
        self.fsync = fsync
        self.directory.mkdir(parents=True, exist_ok=True)
        self._seq = 0
        #: appends since the last compaction — the "journal lag" a
        #: readiness probe reports (how much replay a restart would do
        #: beyond the last snapshot).
        self.appended_since_compact = 0
        #: torn/corrupt lines dropped by the last replay.
        self.dropped_lines = 0
        segments = self.segments()
        self._live = segments[-1] if segments \
            else self.directory / f"{SEGMENT_PREFIX}000001{SEGMENT_SUFFIX}"
        # Continue the sequence from what is already on disk.
        for entry in self.replay():
            self._seq = max(self._seq, int(entry.get("seq", 0)))

    # -- segments ---------------------------------------------------------

    def segments(self) -> list[Path]:
        """Segment files in replay (numeric) order."""
        return sorted(
            (p for p in self.directory.glob(
                f"{SEGMENT_PREFIX}*{SEGMENT_SUFFIX}")
             if p.name[len(SEGMENT_PREFIX):-len(SEGMENT_SUFFIX)].isdigit()),
            key=_segment_index)

    def stats(self) -> dict[str, Any]:
        """Vitals for the readiness probe."""
        segments = self.segments()
        return {
            "directory": str(self.directory),
            "segments": len(segments),
            "bytes": sum(p.stat().st_size for p in segments
                         if p.exists()),
            "entries": self._seq,
            "lag": self.appended_since_compact,
            "dropped_lines": self.dropped_lines,
            "fsync": self.fsync,
        }

    # -- writing ----------------------------------------------------------

    def append(self, *entries: dict[str, Any]) -> int:
        """Durably append entries, one line and one ``seq`` each;
        returns the last sequence number.

        The lines go out in one write and are flushed (and fsynced
        when configured) before this returns — an ack the broker sends
        after ``append`` is an ack the journal already remembers.
        """
        lines = []
        for entry in entries:
            self._seq += 1
            lines.append(json.dumps(dict(entry, seq=self._seq),
                                    sort_keys=True) + "\n")
        with self._live.open("a") as handle:
            handle.write("".join(lines))
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
        self.appended_since_compact += len(lines)
        return self._seq

    def sync(self) -> None:
        """Force the live segment (and its directory entry) to disk —
        the drain path's final barrier before exit."""
        if self._live.exists():
            fd = os.open(self._live, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
        dir_fd = os.open(self.directory, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)

    def compact(self, entries: list[dict[str, Any]]) -> Path:
        """Replace the whole journal with ``entries`` + a snapshot head.

        Staged: the new segment is written complete to a temp file and
        atomically renamed into place as the *next* segment index,
        then every older segment is unlinked.  Replay after a crash at
        any point between those steps still reconstructs the same
        state — the snapshot marker discards whatever older segments
        survive.
        """
        old = self.segments()
        next_index = (_segment_index(old[-1]) + 1) if old else 1
        target = self.directory / (
            f"{SEGMENT_PREFIX}{next_index:06d}{SEGMENT_SUFFIX}")
        staging = target.with_name(f".{target.name}.tmp")
        with staging.open("w") as handle:
            self._seq += 1
            head = {"type": SNAPSHOT_TYPE, "seq": self._seq}
            handle.write(json.dumps(head, sort_keys=True) + "\n")
            for entry in entries:
                self._seq += 1
                handle.write(json.dumps(dict(entry, seq=self._seq),
                                        sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(staging, target)
        for stale in old:
            stale.unlink(missing_ok=True)
        self._live = target
        self.appended_since_compact = 0
        return target

    # -- reading ----------------------------------------------------------

    def replay(self) -> list[dict[str, Any]]:
        """Every surviving entry, oldest first.

        A line that does not parse is dropped (counted in
        ``dropped_lines``): the torn tail a crash mid-append leaves is
        the expected case, any other corruption loses one entry, not
        the journal.  A snapshot marker discards everything replayed
        before it — that is what makes staged compaction crash-safe.
        """
        self.dropped_lines = 0
        entries: list[dict[str, Any]] = []
        for segment in self.segments():
            for line in segment.read_text().splitlines():
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except ValueError:
                    self.dropped_lines += 1
                    continue
                if not isinstance(entry, dict):
                    self.dropped_lines += 1
                    continue
                if entry.get("type") == SNAPSHOT_TYPE:
                    entries = []
                    continue
                entries.append(entry)
        return entries

    def iter_types(self, *types: str) -> Iterator[dict[str, Any]]:
        """Replayed entries filtered to the given ``type`` values."""
        wanted = set(types)
        for entry in self.replay():
            if entry.get("type") in wanted:
                yield entry

