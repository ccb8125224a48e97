"""Dataset acquisition: structural validation and digest verification.

The download path needs a network; everything else is exercised offline by
pre-placing files (fetch skips the download when the target exists).
"""

import pytest

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

    def test_unknown_dataset_key(self, tmp_path):
        with pytest.raises(DataError, match="unknown dataset"):
            fetch_dataset("martian", tmp_path)
