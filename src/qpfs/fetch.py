"""Acquisition of the two UCI credit benchmark files.

`fetch` downloads each file, checks its structure (row and column counts),
and verifies its SHA-256 digest against the registry.  Registry entries
without a pinned digest are verified structurally and the observed digest
is written next to the data file (trust on first use) so later fetches can
detect drift.  Offline use: place the files under the data directory
yourself; every command accepts local paths.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from .errors import DataError

UCI_BASE = "https://archive.ics.uci.edu/ml/machine-learning-databases/statlog"


@dataclass(frozen=True)
class DatasetSource:
    key: str
    url: str
    filename: str
    n_rows: int
    n_cols: int
    sha256: str | None = None      # pinned digest when known


SOURCES = {
    "german": DatasetSource(
        key="german",
        url=f"{UCI_BASE}/german/german.data",
        filename="german.data",
        n_rows=1000,
        n_cols=21,
    ),
    "australian": DatasetSource(
        key="australian",
        url=f"{UCI_BASE}/australian/australian.dat",
        filename="australian.dat",
        n_rows=690,
        n_cols=15,
    ),
}


def validate_structure(text: str, source: DatasetSource) -> None:
    rows = [line for line in text.splitlines() if line.strip()]
    if len(rows) != source.n_rows:
        raise DataError(
            f"{source.key}: expected {source.n_rows} rows, got {len(rows)}"
        )
    for i, line in enumerate(rows, start=1):
        if len(line.split()) != source.n_cols:
            raise DataError(
                f"{source.key}, line {i}: expected {source.n_cols} columns,"
                f" got {len(line.split())}"
            )


def sha256_digest(data: bytes) -> str:
    import hashlib              # here, not at import: only fetch checks digests

    return hashlib.sha256(data).hexdigest()


def _read_digest(path: Path) -> str:
    """The digest a ``<file>.sha256`` records: its first field, 64 hex digits."""
    try:
        fields = path.read_bytes().split()
    except OSError as exc:
        raise DataError(f"cannot read digest file {path}: {exc}") from exc
    if not fields or not re.fullmatch(rb"[0-9a-fA-F]{64}", fields[0]):
        raise DataError(f"digest file {path} does not start with a SHA-256 hex digest")
    return fields[0].decode("ascii").lower()


def fetch_dataset(key: str, data_dir, force: bool = False, timeout: float = 30.0) -> Path:
    """Download one dataset into ``data_dir``; returns the file path.

    Skips the download when the file already exists (unless ``force``).
    Verifies structure always and the digest when one is pinned or recorded
    from a previous fetch.  Writes the data file only after a download, and
    the digest file only then or when it is absent, so a verified file in a
    read-only directory fetches without a write.
    """
    if key not in SOURCES:
        raise DataError(f"unknown dataset {key!r}; expected one of {sorted(SOURCES)}")
    source = SOURCES[key]
    data_dir = Path(data_dir)
    try:
        data_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot create data directory {data_dir}: {exc}") from exc
    target = data_dir / source.filename
    digest_file = data_dir / (source.filename + ".sha256")

    download = force or not target.exists()
    if not download:
        origin = target
        try:
            payload = target.read_bytes()
        except OSError as exc:
            raise DataError(f"cannot read {target}: {exc}") from exc
    else:
        import urllib.request       # here, not at import: only fetch needs http.client

        origin = source.url
        try:
            with urllib.request.urlopen(source.url, timeout=timeout) as resp:
                payload = resp.read()
        except OSError as exc:                          # URLError is an OSError
            raise DataError(
                f"cannot download {source.url}: {exc}. Offline? Place the file at"
                f" {target} manually; all commands accept local paths."
            ) from exc

    try:
        text = payload.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{source.key}: {origin} is not valid UTF-8: {exc}") from exc
    validate_structure(text, source)

    observed = sha256_digest(payload)
    expected = source.sha256
    if expected is None and digest_file.exists():
        expected = _read_digest(digest_file)
    if expected is not None and observed != expected:
        raise DataError(
            f"{source.key}: SHA-256 mismatch (expected {expected}, got {observed})"
        )

    try:
        if download:
            target.write_bytes(payload)
        if download or not digest_file.exists():
            digest_file.write_text(f"{observed}  {source.filename}\n", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot write into data directory {data_dir}: {exc}") from exc
    return target
