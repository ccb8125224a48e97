"""Acquisition of the two UCI credit benchmark files.

`fetch` downloads each file, checks its structure (row and column counts),
and verifies its SHA-256 digest against the registry.  Registry entries
without a pinned digest are verified structurally and the observed digest
is written next to the data file (trust on first use) so later fetches can
detect drift.  Offline use: place the files under the data directory
yourself; every command accepts local paths.
"""

from __future__ import annotations

import hashlib
import urllib.error
import urllib.request
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
    k_published: int
    sha256: str | None = None      # pinned digest when known


SOURCES = {
    "german": DatasetSource(
        key="german",
        url=f"{UCI_BASE}/german/german.data",
        filename="german.data",
        n_rows=1000,
        n_cols=21,
        k_published=7,
    ),
    "australian": DatasetSource(
        key="australian",
        url=f"{UCI_BASE}/australian/australian.dat",
        filename="australian.dat",
        n_rows=690,
        n_cols=15,
        k_published=6,
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
    return hashlib.sha256(data).hexdigest()


def fetch_dataset(key: str, data_dir, force: bool = False, timeout: float = 30.0) -> Path:
    """Download one dataset into ``data_dir``; returns the file path.

    Skips the download when the file already exists (unless ``force``).
    Verifies structure always and the digest when one is pinned or recorded
    from a previous fetch.
    """
    if key not in SOURCES:
        raise DataError(f"unknown dataset {key!r}; expected one of {sorted(SOURCES)}")
    source = SOURCES[key]
    data_dir = Path(data_dir)
    data_dir.mkdir(parents=True, exist_ok=True)
    target = data_dir / source.filename
    digest_file = data_dir / (source.filename + ".sha256")

    if target.exists() and not force:
        origin = target
        payload = target.read_bytes()
    else:
        origin = source.url
        try:
            with urllib.request.urlopen(source.url, timeout=timeout) as resp:
                payload = resp.read()
        except (urllib.error.URLError, OSError) as exc:
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
        expected = digest_file.read_text().split()[0]
    if expected is not None and observed != expected:
        raise DataError(
            f"{source.key}: SHA-256 mismatch (expected {expected}, got {observed})"
        )

    target.write_bytes(payload)
    digest_file.write_text(f"{observed}  {source.filename}\n")
    return target
