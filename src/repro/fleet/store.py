"""Durable, versioned, checksummed session-state stores.

A :class:`SessionSnapshot` wraps one session's guard-state payload (see
:meth:`repro.core.GuardSupervisor.snapshot`) with a monotonically
increasing version and a SHA-256 checksum over the canonical JSON bytes.
Stores keep every version they are given; :meth:`SessionStore.load`
returns the newest snapshot that *verifies*, walking back through older
versions when the newest is corrupt — a torn or bit-flipped write costs
at most one checkpoint interval of progress, never the session.  The
checksum is verified before any JSON is parsed, so a torn row is just
one more corrupt row.

Two backends share the interface: :class:`InMemorySessionStore` (tests,
single-process fleets) and :class:`SqliteSessionStore` (crash-durable
file-backed storage via the stdlib ``sqlite3``).  A snapshot carries the
canonical JSON its checksum was computed over, and both backends store
exactly that text, so what comes back is exactly what a file round-trip
would produce — the in-memory store cannot accidentally share mutable
state with the session.  ``save`` takes one snapshot or a batch and
writes a batch all-or-none: the fleet checkpoints every session due on a
tick in one transaction.

:class:`RetryingSessionStore` wraps any backend with the bounded
retry/backoff policy from :class:`repro.fleet.FleetConfig`
(``REPRO_FLEET_STORE_RETRIES`` / ``REPRO_FLEET_STORE_BACKOFF_S``),
turning transient I/O errors into :class:`repro.errors.SessionStoreError`
only after the policy is exhausted.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
import time
from contextlib import closing
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.errors import SessionStoreError, SnapshotIntegrityError


def canonical_payload(payload: Dict[str, Any]) -> str:
    """The canonical JSON encoding checksums are computed over.

    Payloads are trees built afresh for each call, so the encoder skips
    ``json``'s circular-reference bookkeeping (one dict insert and delete
    per container, which nearly doubled the cost of a checkpoint's long
    transition log).  The text is the same; a payload that contains
    itself raises :class:`RecursionError` instead of :class:`ValueError`.
    """
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), check_circular=False
    )


def payload_checksum(encoded: str) -> str:
    """SHA-256 hex digest of a canonically encoded payload."""
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class SessionSnapshot:
    """One versioned, checksummed session checkpoint.

    ``encoded`` is the payload's canonical JSON as stored: the checksum
    covers exactly these characters, and stores write them as they are.
    ``payload`` is that JSON decoded, parsed on first read.  A snapshot
    created from checkpoint text parses nothing unless someone reads it,
    and one a store reads back (constructed from its row, unverified)
    parses nothing before :meth:`verify` has had the chance to reject
    torn or corrupted text.
    """

    session_id: str
    version: int
    checksum: str
    encoded: str = field(repr=False)
    _payload: Optional[Dict[str, Any]] = field(
        default=None, repr=False, compare=False
    )
    #: Set by :meth:`SessionStore.load`: the newest version stored for the
    #: session, verifiable or not.  After a fallback it is above
    #: ``version``, and the session's next checkpoint is numbered past it.
    newest_stored: Optional[int] = field(default=None, repr=False, compare=False)

    @property
    def payload(self) -> Dict[str, Any]:
        """The decoded payload (parsed from ``encoded`` on first read)."""
        if self._payload is None:
            object.__setattr__(self, "_payload", json.loads(self.encoded))
        return self._payload

    @classmethod
    def create(
        cls,
        session_id: str,
        version: int,
        payload: Optional[Dict[str, Any]] = None,
        *,
        encoded: Optional[str] = None,
    ) -> "SessionSnapshot":
        """Build a snapshot from its payload or its canonical JSON.

        Give exactly one of ``payload`` (encoded once, with
        :func:`canonical_payload`, for the checksum) and ``encoded``
        (already canonical text, checksummed as given).
        """
        if (payload is None) == (encoded is None):
            raise TypeError("give exactly one of payload and encoded")
        if encoded is None:
            encoded = canonical_payload(payload)
        return cls(
            session_id=session_id,
            version=version,
            checksum=payload_checksum(encoded),
            encoded=encoded,
            _payload=payload,
        )

    def verify(self) -> None:
        """Raise :class:`SnapshotIntegrityError` unless checksum matches."""
        actual = payload_checksum(self.encoded)
        if actual != self.checksum:
            raise SnapshotIntegrityError(
                f"snapshot {self.session_id} v{self.version}: checksum "
                f"mismatch (stored {self.checksum[:12]}..., "
                f"payload {actual[:12]}...)"
            )


#: What :meth:`SessionStore.save` accepts: one snapshot or a batch.
Snapshots = Union[SessionSnapshot, Sequence[SessionSnapshot]]


def _as_batch(snapshots: Snapshots) -> List[SessionSnapshot]:
    """``save``'s argument as a list of snapshots."""
    if isinstance(snapshots, SessionSnapshot):
        return [snapshots]
    return list(snapshots)


def _already_stored(batch: List[SessionSnapshot]) -> str:
    """The error message for a batch that repeats a stored version."""
    if len(batch) == 1:
        return (
            f"session {batch[0].session_id!r} already has "
            f"version {batch[0].version}"
        )
    return (
        f"batch of {len(batch)} snapshots not written: one of its "
        "sessions already has its version"
    )


class SessionStore:
    """Interface shared by every session-store backend."""

    def save(self, snapshots: Snapshots) -> None:
        """Persist one snapshot or a batch, all or none.

        A version is written at most once: when any snapshot repeats a
        stored version (or another snapshot of the same batch), the store
        raises :class:`SessionStoreError` and writes none of the batch.
        """
        raise NotImplementedError

    def load(self, session_id: str) -> Optional[SessionSnapshot]:
        """The newest snapshot of ``session_id`` that verifies.

        Falls back to older versions when newer ones fail their checksum.
        Returns ``None`` when the session has no stored snapshots at all;
        raises :class:`SnapshotIntegrityError` when snapshots exist but
        *none* verifies (the session cannot be trusted to resume).
        """
        versions = self.versions(session_id)
        if not versions:
            return None
        for version in sorted(versions, reverse=True):
            snapshot = self.load_version(session_id, version)
            try:
                snapshot.verify()
            except SnapshotIntegrityError:
                continue
            return replace(snapshot, newest_stored=max(versions))
        raise SnapshotIntegrityError(
            f"session {session_id!r}: all {len(versions)} stored "
            "snapshot(s) failed checksum verification"
        )

    def load_version(self, session_id: str, version: int) -> SessionSnapshot:
        """One exact stored version (unverified)."""
        raise NotImplementedError

    def versions(self, session_id: str) -> List[int]:
        """All stored versions of ``session_id``, ascending."""
        raise NotImplementedError

    def session_ids(self) -> List[str]:
        """Every session with at least one stored snapshot, sorted."""
        raise NotImplementedError

    def delete(self, session_id: str) -> None:
        """Drop every snapshot of ``session_id``."""
        raise NotImplementedError

    def corrupt_latest(self, session_id: str) -> bool:
        """Chaos hook: flip one byte in the newest stored payload.

        Returns whether anything was corrupted.  Used by the
        ``store_corrupt`` fleet fault to prove the fallback path.
        """
        raise NotImplementedError

    @staticmethod
    def _flipped(encoded: str) -> str:
        """The encoded payload with one character corrupted."""
        middle = len(encoded) // 2
        return encoded[:middle] + ("X" if encoded[middle] != "X" else "Y") + (
            encoded[middle + 1 :]
        )


class InMemorySessionStore(SessionStore):
    """Dict-backed store; payloads round-trip through canonical JSON."""

    def __init__(self) -> None:
        self._rows: Dict[str, Dict[int, tuple]] = {}

    def save(self, snapshots: Snapshots) -> None:
        batch = _as_batch(snapshots)
        # Check every version before inserting any: all or none.
        seen = set()
        for snapshot in batch:
            key = (snapshot.session_id, snapshot.version)
            if key in seen or snapshot.version in self._rows.get(key[0], {}):
                raise SessionStoreError(_already_stored([snapshot]))
            seen.add(key)
        for snapshot in batch:
            rows = self._rows.setdefault(snapshot.session_id, {})
            rows[snapshot.version] = (snapshot.encoded, snapshot.checksum)

    def load_version(self, session_id: str, version: int) -> SessionSnapshot:
        encoded, checksum = self._rows[session_id][version]
        return SessionSnapshot(session_id, version, checksum=checksum, encoded=encoded)

    def versions(self, session_id: str) -> List[int]:
        return sorted(self._rows.get(session_id, {}))

    def session_ids(self) -> List[str]:
        return sorted(sid for sid, rows in self._rows.items() if rows)

    def delete(self, session_id: str) -> None:
        self._rows.pop(session_id, None)

    def corrupt_latest(self, session_id: str) -> bool:
        rows = self._rows.get(session_id)
        if not rows:
            return False
        version = max(rows)
        encoded, checksum = rows[version]
        rows[version] = (self._flipped(encoded), checksum)
        return True


class SqliteSessionStore(SessionStore):
    """File-backed store on the stdlib ``sqlite3`` (crash durable).

    ``save`` writes a whole batch on one connection with one
    ``executemany`` and one commit, so a checkpoint tick pays for one
    transaction however many sessions it persists; a batch that fails
    rolls back and leaves no snapshot of it visible.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self._connect() as conn:
            conn.execute(
                "CREATE TABLE IF NOT EXISTS snapshots ("
                " session_id TEXT NOT NULL,"
                " version INTEGER NOT NULL,"
                " payload TEXT NOT NULL,"
                " checksum TEXT NOT NULL,"
                " PRIMARY KEY (session_id, version))"
            )

    def _connect(self) -> sqlite3.Connection:
        # A fresh connection per operation: the store is used across
        # fork boundaries (crash-recovery tests), where a shared
        # connection object would be unsafe.
        return sqlite3.connect(self.path)

    def save(self, snapshots: Snapshots) -> None:
        batch = _as_batch(snapshots)
        try:
            # The inner context commits on success and rolls the whole
            # batch back on any error; the outer one closes the connection.
            with closing(self._connect()) as conn, conn:
                conn.executemany(
                    "INSERT INTO snapshots VALUES (?, ?, ?, ?)",
                    [
                        (s.session_id, s.version, s.encoded, s.checksum)
                        for s in batch
                    ],
                )
        except sqlite3.IntegrityError:
            raise SessionStoreError(_already_stored(batch)) from None

    def load_version(self, session_id: str, version: int) -> SessionSnapshot:
        with self._connect() as conn:
            row = conn.execute(
                "SELECT payload, checksum FROM snapshots"
                " WHERE session_id = ? AND version = ?",
                (session_id, version),
            ).fetchone()
        if row is None:
            raise SessionStoreError(
                f"session {session_id!r} has no version {version}"
            )
        return SessionSnapshot(session_id, version, checksum=row[1], encoded=row[0])

    def versions(self, session_id: str) -> List[int]:
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT version FROM snapshots WHERE session_id = ?"
                " ORDER BY version",
                (session_id,),
            ).fetchall()
        return [row[0] for row in rows]

    def session_ids(self) -> List[str]:
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT DISTINCT session_id FROM snapshots ORDER BY session_id"
            ).fetchall()
        return [row[0] for row in rows]

    def delete(self, session_id: str) -> None:
        with self._connect() as conn:
            conn.execute(
                "DELETE FROM snapshots WHERE session_id = ?", (session_id,)
            )

    def corrupt_latest(self, session_id: str) -> bool:
        with self._connect() as conn:
            row = conn.execute(
                "SELECT version, payload FROM snapshots"
                " WHERE session_id = ? ORDER BY version DESC LIMIT 1",
                (session_id,),
            ).fetchone()
            if row is None:
                return False
            conn.execute(
                "UPDATE snapshots SET payload = ?"
                " WHERE session_id = ? AND version = ?",
                (self._flipped(row[1]), session_id, row[0]),
            )
        return True


class RetryingSessionStore(SessionStore):
    """Bounded retry/backoff around a backend's I/O.

    Transient failures (``sqlite3.OperationalError`` — locked database,
    interrupted write — and ``OSError``) are retried up to ``retries``
    extra times with ``backoff_s`` sleeps between attempts, then surfaced
    as :class:`SessionStoreError`.  Integrity failures are *not* retried:
    a bad checksum will not get better by asking again.  A batch ``save``
    is retried as a whole: the backend wrote none of it.
    """

    _TRANSIENT = (sqlite3.OperationalError, OSError)

    def __init__(
        self, store: SessionStore, retries: int = 2, backoff_s: float = 0.01
    ) -> None:
        self.store = store
        self.retries = retries
        self.backoff_s = backoff_s

    def _attempt(self, operation, *args):
        for attempt in range(self.retries + 1):
            try:
                return operation(*args)
            except self._TRANSIENT as exc:
                if attempt >= self.retries:
                    raise SessionStoreError(
                        f"store operation failed after {attempt + 1} "
                        f"attempt(s): {type(exc).__name__}: {exc}"
                    ) from exc
                time.sleep(self.backoff_s)

    def save(self, snapshots: Snapshots) -> None:
        self._attempt(self.store.save, snapshots)

    def load(self, session_id: str) -> Optional[SessionSnapshot]:
        return self._attempt(self.store.load, session_id)

    def load_version(self, session_id: str, version: int) -> SessionSnapshot:
        return self._attempt(self.store.load_version, session_id, version)

    def versions(self, session_id: str) -> List[int]:
        return self._attempt(self.store.versions, session_id)

    def session_ids(self) -> List[str]:
        return self._attempt(self.store.session_ids)

    def delete(self, session_id: str) -> None:
        self._attempt(self.store.delete, session_id)

    def corrupt_latest(self, session_id: str) -> bool:
        return self._attempt(self.store.corrupt_latest, session_id)
