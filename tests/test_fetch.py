"""Dataset acquisition: structural validation and digest verification.

The download path needs a network; everything else is exercised offline by
pre-placing files (fetch skips the download when the target exists).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qpfs
from qpfs.cli import main
from qpfs.errors import DataError
from qpfs.fetch import SOURCES, fetch_dataset, sha256_digest, validate_structure

from conftest import write_uci_like_files


@pytest.fixture()
def populated_dir(tmp_path):
    return write_uci_like_files(tmp_path / "data")    # exact real-file shapes


class TestValidateStructure:
    def test_accepts_correct_shape(self, populated_dir):
        text = (populated_dir / "german.data").read_text()
        validate_structure(text, SOURCES["german"])

    def test_rejects_wrong_row_count(self):
        with pytest.raises(DataError, match="rows"):
            validate_structure("a b\n" * 5, SOURCES["german"])

    def test_rejects_wrong_column_count_naming_line(self, populated_dir):
        lines = (populated_dir / "german.data").read_text().splitlines()
        lines[3] = "too few cells"
        with pytest.raises(DataError, match="line 4"):
            validate_structure("\n".join(lines), SOURCES["german"])


class TestFetchOffline:
    def test_existing_file_validated_and_digest_recorded(self, populated_dir):
        path = fetch_dataset("german", populated_dir)
        assert path == populated_dir / "german.data"
        digest_file = populated_dir / "german.data.sha256"
        assert digest_file.exists()
        recorded = digest_file.read_text().split()[0]
        assert recorded == sha256_digest(path.read_bytes())

    def test_second_fetch_verifies_recorded_digest(self, populated_dir):
        fetch_dataset("australian", populated_dir)
        fetch_dataset("australian", populated_dir)    # digest match: no error

    def test_tampered_file_detected(self, populated_dir):
        fetch_dataset("german", populated_dir)
        target = populated_dir / "german.data"
        lines = target.read_text().splitlines()
        lines[0] = lines[1]                            # same shape, new bytes
        target.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="SHA-256 mismatch"):
            fetch_dataset("german", populated_dir)

    def test_malformed_existing_file_rejected(self, tmp_path):
        data_dir = tmp_path / "d"
        data_dir.mkdir()
        (data_dir / "german.data").write_text("not nearly enough rows\n")
        with pytest.raises(DataError, match="columns|rows"):
            fetch_dataset("german", data_dir)

    def test_non_utf8_existing_file_is_a_data_error(self, populated_dir, capsys):
        target = populated_dir / "german.data"
        target.write_bytes(b"\xff" + target.read_bytes())
        with pytest.raises(DataError, match=f"german: {target} is not valid UTF-8"):
            fetch_dataset("german", populated_dir)
        assert main(["fetch", "--data-dir", str(populated_dir), "--only", "german"]) == 3
        assert str(target) in capsys.readouterr().err

    def test_data_dir_that_is_a_file_is_a_data_error(self, tmp_path, capsys, no_network):
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        with pytest.raises(DataError, match="cannot create data directory"):
            fetch_dataset("german", taken)
        assert main(["fetch", "--data-dir", str(taken), "--only", "german"]) == 3
        assert str(taken) in capsys.readouterr().err
        assert taken.read_text() == "not a directory\n"

    def test_failed_write_is_a_data_error(self, populated_dir, tmp_path, capsys,
                                          no_network):
        # a dangling link: the digest file looks absent, and writing it fails
        digest_file = populated_dir / "german.data.sha256"
        digest_file.symlink_to(tmp_path / "missing" / "german.data.sha256")
        with pytest.raises(DataError, match="cannot write into data directory"):
            fetch_dataset("german", populated_dir)
        assert main(["fetch", "--data-dir", str(populated_dir), "--only", "german"]) == 3
        assert str(digest_file) in capsys.readouterr().err

    def test_unreadable_existing_file_is_a_data_error(self, tmp_path, capsys, no_network):
        data_dir = tmp_path / "d"
        target = data_dir / "german.data"
        target.mkdir(parents=True)                  # exists, but read_bytes fails
        with pytest.raises(DataError, match=f"cannot read {target}"):
            fetch_dataset("german", data_dir)
        assert main(["fetch", "--data-dir", str(data_dir), "--only", "german"]) == 3
        assert str(target) in capsys.readouterr().err

    def test_unreadable_digest_file_is_a_data_error(self, populated_dir, capsys,
                                                   no_network):
        digest_file = populated_dir / "german.data.sha256"
        digest_file.mkdir()
        with pytest.raises(DataError, match=f"cannot read digest file {digest_file}"):
            fetch_dataset("german", populated_dir)
        assert main(["fetch", "--data-dir", str(populated_dir), "--only", "german"]) == 3
        assert str(digest_file) in capsys.readouterr().err

    @pytest.mark.parametrize("content", [b"", b"  \n", b"deadbeef  german.data\n",
                                         b"\xff" * 64 + b"\n", b"g" * 64 + b"\n"],
                             ids=["empty", "blank", "short", "not-utf8", "not-hex"])
    def test_empty_or_malformed_digest_file_is_a_data_error(self, populated_dir, capsys,
                                                            no_network, content):
        digest_file = populated_dir / "german.data.sha256"
        digest_file.write_bytes(content)
        with pytest.raises(DataError, match=f"digest file {digest_file} does not start"):
            fetch_dataset("german", populated_dir)
        assert main(["fetch", "--data-dir", str(populated_dir), "--only", "german"]) == 3
        assert str(digest_file) in capsys.readouterr().err
        assert digest_file.read_bytes() == content          # left as it was

    def test_upper_case_digest_verifies(self, populated_dir, no_network):
        observed = sha256_digest((populated_dir / "german.data").read_bytes())
        digest_file = populated_dir / "german.data.sha256"
        digest_file.write_text(observed.upper() + "  german.data\n")
        fetch_dataset("german", populated_dir)
        assert digest_file.read_text() == observed.upper() + "  german.data\n"   # kept

    def test_verified_file_fetches_without_a_write(self, populated_dir, monkeypatch,
                                                  no_network):
        path = fetch_dataset("german", populated_dir)       # records the digest
        before = {p.name: p.read_bytes() for p in populated_dir.iterdir()}

        def refuse(self, *args, **kwargs):
            raise PermissionError(f"read-only: {self}")
        monkeypatch.setattr(Path, "write_bytes", refuse)
        monkeypatch.setattr(Path, "write_text", refuse)
        assert fetch_dataset("german", populated_dir) == path
        assert main(["fetch", "--data-dir", str(populated_dir), "--only", "german"]) == 0
        assert {p.name: p.read_bytes() for p in populated_dir.iterdir()} == before

    def test_unknown_dataset_key(self, tmp_path):
        with pytest.raises(DataError, match="unknown dataset"):
            fetch_dataset("martian", tmp_path)


def loaded_after_importing_the_cli(*modules: str) -> str:
    """Which of ``modules`` a fresh interpreter holds after ``import qpfs.cli``."""
    src = str(Path(qpfs.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = f"import sys, qpfs.cli; print(sorted(m for m in {modules!r} if m in sys.modules))"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    return result.stdout.strip()


def test_importing_the_cli_loads_no_http_client():
    """Only a download needs urllib.request, and with it http.client and ssl."""
    assert loaded_after_importing_the_cli("http.client", "urllib.request", "ssl") == "[]"


def test_importing_the_cli_loads_no_hashlib():
    """Only fetch checks a digest."""
    assert loaded_after_importing_the_cli("hashlib") == "[]"
