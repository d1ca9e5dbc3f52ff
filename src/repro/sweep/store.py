"""Content-addressed on-disk store of experiment results.

Every sweep work unit — one replication of a per-round scenario, or one
whole periodic/protocol scenario — is stored under the SHA-256 of its
canonical key (:func:`repro.spec.canon.unit_hash`).  The layout is git-like::

    <root>/
        store.json                  # {"schema": "repro.sweep-store/v1"}
        objects/
            3f/
                3fa4...e1.json      # {"schema", "key", "result"}

Entries are self-describing: each object carries the canonical key it was
computed from, so the store can be audited (and garbage-collected) without
any external index, and a corrupted or tampered entry is detected on read —
the payload must parse, validate as a ``repro.scenario-result/v1`` envelope,
and re-hash to its own file name.  Writes go through a temp file +
``os.replace`` so concurrent sweep processes never observe a torn object.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from repro._codec import DecodeError, decode_fields, loads
from repro.spec.canon import canonical_json
from repro.spec.runner import ExperimentResult
from repro.spec.scenario import SpecError

__all__ = [
    "AuditIssue",
    "AuditReport",
    "ResultStore",
    "StoreError",
    "STORE_SCHEMA",
    "ENTRY_SCHEMA",
]

#: Schema identifier of the store root marker.
STORE_SCHEMA = "repro.sweep-store/v1"
#: Schema identifier of every stored object.
ENTRY_SCHEMA = "repro.sweep-entry/v1"
#: Schema identifier of an audit report (``repro store verify --json``).
AUDIT_SCHEMA = "repro.store-audit/v1"


class StoreError(RuntimeError):
    """A store entry is corrupt, tampered with, or unreadable."""


@dataclass(frozen=True)
class _Entry:
    """The decoded shape of one stored object (besides its ``schema``)."""

    key: Dict[str, object]
    result: ExperimentResult


def _atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` via a same-directory temp file + rename.

    ``os.replace`` is atomic on POSIX and Windows, so concurrent writers
    racing on the same path both succeed and readers only ever observe a
    complete file — never a torn write.
    """
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name[:8]}-", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


@dataclass
class AuditIssue:
    """One problem found by :meth:`ResultStore.audit`."""

    #: ``corrupt`` (addressable object failing validation), ``orphan``
    #: (a file that is not a content-addressed object), or ``marker``
    #: (a bad ``store.json``).
    kind: str
    path: str
    detail: str
    healed: bool = False

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation."""
        return {
            "kind": self.kind,
            "path": self.path,
            "detail": self.detail,
            "healed": self.healed,
        }


@dataclass
class AuditReport:
    """Everything one :meth:`ResultStore.audit` pass found."""

    root: str
    #: Files examined under ``objects/`` (objects, temp leftovers, strays).
    checked: int = 0
    #: Objects that parsed, re-hashed to their address, and validated.
    valid: int = 0
    issues: List[AuditIssue] = field(default_factory=list)
    healed: bool = False

    @property
    def corrupt(self) -> List[AuditIssue]:
        """Addressable objects that failed validation."""
        return [issue for issue in self.issues if issue.kind == "corrupt"]

    @property
    def orphans(self) -> List[AuditIssue]:
        """Files under ``objects/`` that are not content-addressed objects."""
        return [issue for issue in self.issues if issue.kind == "orphan"]

    @property
    def ok(self) -> bool:
        """Whether the store is clean (no issues found)."""
        return not self.issues

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready report (``repro.store-audit/v1``)."""
        return {
            "schema": AUDIT_SCHEMA,
            "root": self.root,
            "checked": self.checked,
            "valid": self.valid,
            "corrupt": len(self.corrupt),
            "orphans": len(self.orphans),
            "ok": self.ok,
            "healed": self.healed,
            "issues": [issue.to_dict() for issue in self.issues],
        }


class ResultStore:
    """Content-addressed result store rooted at a directory.

    The store is created lazily on first write; reads against a
    non-existent root simply miss.  ``put``/``load`` speak plain dicts (the
    JSON forms) so worker processes never have to pickle result objects.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    @property
    def objects_dir(self) -> Path:
        """Directory holding the content-addressed objects."""
        return self.root / "objects"

    def path_for(self, key_hash: str) -> Path:
        """Object path of a unit hash (two-level fan-out, git style)."""
        if len(key_hash) < 3 or not all(c in "0123456789abcdef" for c in key_hash):
            raise StoreError(f"malformed store key {key_hash!r}")
        return self.objects_dir / key_hash[:2] / f"{key_hash}.json"

    @property
    def marker_path(self) -> Path:
        """Path of the ``store.json`` root marker."""
        return self.root / "store.json"

    def _ensure_root(self) -> None:
        self.objects_dir.mkdir(parents=True, exist_ok=True)
        marker = self.marker_path
        if not marker.exists():
            # Atomic like every other store write: concurrent first-writers
            # race on creating the marker, and a reader must never see a
            # partially written one.
            _atomic_write_text(
                marker, json.dumps({"schema": STORE_SCHEMA}, indent=2) + "\n"
            )

    # ------------------------------------------------------------------
    # Read / write
    # ------------------------------------------------------------------
    def put(
        self, key_hash: str, key: Dict[str, object], result: Dict[str, object]
    ) -> Path:
        """Store one result envelope under its unit hash, atomically.

        ``key`` is the canonical unit-key object (stored alongside the
        result so entries are auditable); ``result`` is the
        ``repro.scenario-result/v1`` dict.  Returns the object path.
        """
        entry = {"schema": ENTRY_SCHEMA, "key": key, "result": result}
        path = self.path_for(key_hash)
        self._ensure_root()
        path.parent.mkdir(parents=True, exist_ok=True)
        _atomic_write_text(path, json.dumps(entry, indent=2) + "\n")
        return path

    def load(
        self, key_hash: str, strict: bool = True
    ) -> Optional[Dict[str, object]]:
        """Load the result dict stored under ``key_hash``.

        Returns ``None`` on a miss.  A present-but-invalid entry (torn
        write, truncation, hand edit) raises :class:`StoreError` naming the
        file and the problem; with ``strict=False`` it is reported as a
        miss instead, so sweeps self-heal by recomputing and overwriting.
        """
        path = self.path_for(key_hash)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError as err:
            if strict:
                raise StoreError(f"store entry {path} is unreadable ({err})") from err
            return None
        try:
            entry = self._validate_entry(key_hash, path, raw)
        except StoreError:
            if strict:
                raise
            return None
        return entry["result"]

    def _validate_entry(self, key_hash: str, path: Path, raw: bytes) -> Dict:
        try:
            entry = loads(raw, "entry")
            decode_fields(_Entry, entry, "entry", complete=True, schema_id=ENTRY_SCHEMA)
        except SpecError as err:
            raise StoreError(
                f"store entry {path} is corrupt: result envelope is invalid ({err})"
            ) from None
        except DecodeError as err:
            raise StoreError(f"store entry {path} is corrupt: {err}") from None
        try:
            canonical = canonical_json(entry["key"])
        except (ValueError, RecursionError) as err:  # e.g. a NaN in the key
            raise StoreError(
                f"store entry {path} is corrupt: its key is not canonical JSON ({err})"
            ) from None
        digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        if digest != key_hash:
            raise StoreError(
                f"store entry {path} is corrupt: its key hashes to "
                f"{digest[:12]}..., not the addressed {key_hash[:12]}... "
                "(tampered or misfiled entry)"
            )
        return entry

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __contains__(self, key_hash: str) -> bool:
        return self.path_for(key_hash).is_file()

    def hashes(self) -> List[str]:
        """All well-formed object hashes present on disk, sorted.

        Stray files under ``objects/`` whose names are not SHA-256 hex
        digests are not objects and are ignored.
        """
        if not self.objects_dir.is_dir():
            return []
        return sorted(
            path.stem
            for path in self.objects_dir.glob("*/*.json")
            if len(path.stem) == 64
            and all(c in "0123456789abcdef" for c in path.stem)
            and path.parent.name == path.stem[:2]
        )

    def entries(self, strict: bool = False) -> Iterator[Tuple[str, Dict]]:
        """Yield ``(hash, entry)`` for every valid object.

        With ``strict=False`` (the default) corrupt or vanished entries are
        skipped; with ``strict=True`` the first bad entry raises.
        """
        for key_hash in self.hashes():
            path = self.path_for(key_hash)
            try:
                entry = self._validate_entry(key_hash, path, path.read_bytes())
            except OSError as err:
                if strict:
                    raise StoreError(
                        f"store entry {path} is unreadable ({err})"
                    ) from err
                continue
            except StoreError:
                if strict:
                    raise
                continue
            yield key_hash, entry

    def __len__(self) -> int:
        return len(self.hashes())

    # ------------------------------------------------------------------
    # Audit
    # ------------------------------------------------------------------
    def _is_object_path(self, path: Path) -> bool:
        stem = path.stem
        return (
            path.suffix == ".json"
            and len(stem) == 64
            and all(c in "0123456789abcdef" for c in stem)
            and path.parent.name == stem[:2]
            and path.parent.parent == self.objects_dir
        )

    def audit(self, heal: bool = False) -> AuditReport:
        """Offline integrity audit of the whole store (``repro store verify``).

        Walks every file under ``objects/``, reparses and re-hashes each
        entry through the same validation that guards reads, and reports:

        * **corrupt** — an addressable object whose payload fails to parse,
          validate as a result envelope, or re-hash to its file name;
        * **orphan** — any file that is not a content-addressed object:
          leftover ``.tmp`` files from crashed writers, misfiled objects
          (wrong fan-out directory), or stray files;
        * **marker** — a missing or malformed ``store.json``.

        With ``heal=True`` corrupt and orphaned files are deleted (units
        recompute on the next request — the stored results are pure
        functions of their keys) and the marker is rewritten.  A
        non-existent root is vacuously clean.
        """
        report = AuditReport(root=str(self.root))
        if not self.root.is_dir():
            return report
        marker = self.marker_path
        marker_ok = False
        try:
            data = loads(marker.read_bytes(), "store.json")
            marker_ok = isinstance(data, dict) and data.get("schema") == STORE_SCHEMA
            detail = f"store marker does not declare schema {STORE_SCHEMA!r}"
        except FileNotFoundError:
            detail = "store marker store.json is missing"
        except (OSError, DecodeError) as err:
            detail = f"store marker is unreadable ({err})"
        if not marker_ok:
            report.issues.append(AuditIssue("marker", str(marker), detail))
        if self.objects_dir.is_dir():
            for path in sorted(self.objects_dir.rglob("*")):
                if not path.is_file():
                    continue
                report.checked += 1
                if not self._is_object_path(path):
                    kind = "leftover temp file" if path.suffix == ".tmp" else "stray file"
                    report.issues.append(
                        AuditIssue(
                            "orphan",
                            str(path),
                            f"{kind}: not a content-addressed object",
                        )
                    )
                    continue
                try:
                    self._validate_entry(path.stem, path, path.read_bytes())
                except OSError as err:
                    report.issues.append(
                        AuditIssue("corrupt", str(path), f"unreadable ({err})")
                    )
                except StoreError as err:
                    report.issues.append(AuditIssue("corrupt", str(path), str(err)))
                else:
                    report.valid += 1
        if heal:
            for issue in report.issues:
                if issue.kind == "marker":
                    self._ensure_root()
                    if not marker_ok and marker.exists():
                        _atomic_write_text(
                            marker,
                            json.dumps({"schema": STORE_SCHEMA}, indent=2) + "\n",
                        )
                    issue.healed = True
                    continue
                try:
                    os.unlink(issue.path)
                    issue.healed = True
                except OSError:
                    pass
            report.healed = True
        return report
