"""Schema parsing, CSV loading, missing handling, and discretization."""

import math
import warnings

import numpy as np
import pytest

from qpfs import infotheory, ingest
from qpfs.cli import main
from qpfs.errors import DataError, SchemaError
from qpfs.ingest import (ColumnSpec, DiscretizationPolicy, binary_target,
                         column_median, column_mode, discretize, equal_frequency_codes,
                         dense_codes, equal_width_codes, load_csv, load_schema,
                         parse_schema_text, resolve_missing)

from conftest import (SYNTH_SCHEMA_TEXT, bin_counts, dataset_from_rows,
                      synthetic_credit_dataset, write_synthetic_files)
from oracles import oracle_first_fault


def basic_columns():
    return [
        ColumnSpec("x", "continuous"),
        ColumnSpec("c", "categorical"),
        ColumnSpec("y", "binary", "target"),
    ]


class TestSchema:
    def test_parse_roundtrip(self):
        cols = parse_schema_text(SYNTH_SCHEMA_TEXT)
        assert [c.name for c in cols] == ["x0", "x1", "x2", "c0", "c1", "b0", "label"]
        assert cols[-1].role == "target"
        assert cols[-1].positive_label == "1"

    def test_parse_error_names_line(self):
        text = "a continuous feature\nbad-line\nc binary target\n"
        with pytest.raises(SchemaError) as exc:
            parse_schema_text(text, source="s.schema")
        assert "line 2" in str(exc.value)

    def test_exactly_one_target_required(self):
        with pytest.raises(SchemaError):
            parse_schema_text("a continuous feature\nb categorical feature\n")
        with pytest.raises(SchemaError):
            parse_schema_text("a binary target\nb binary target\n")

    def test_target_must_be_binary(self):
        with pytest.raises(SchemaError):
            parse_schema_text("a continuous feature\nb categorical target\n")

    def test_unknown_kind_rejected(self):
        with pytest.raises(SchemaError):
            parse_schema_text("a numeric feature\nb binary target\n")

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            parse_schema_text("a continuous feature\na binary target\n")
        text = "a continuous feature\nb categorical\n# c binary\n\na binary target\n"
        with pytest.raises(SchemaError,
                           match="^s.schema, line 5: duplicate column name 'a'$"):
            parse_schema_text(text, source="s.schema")

    def test_feature_column_required(self, tmp_path, capsys):
        with pytest.raises(SchemaError, match="^s.schema: no feature column$"):
            parse_schema_text("# the target alone\ny binary target positive=2\n",
                              source="s.schema")
        data, schema = write_synthetic_files(tmp_path, n=40)
        schema.write_text("label binary target\n")
        data.write_text("".join(line.split(",")[-1] + "\n"
                                for line in data.read_text().splitlines()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")       # no numpy RuntimeWarning on the way
            assert main(["inspect", "--data", str(data), "--schema", str(schema)]) == 2
        assert f"{schema}: no feature column" in capsys.readouterr().err

    def test_non_utf8_schema_file_is_a_schema_error(self, tmp_path, capsys):
        data, schema = write_synthetic_files(tmp_path, n=40)
        schema.write_bytes(b"x0 continuous feature\n\xff\xfe binary target\n")
        with pytest.raises(SchemaError, match=f"cannot read schema file {schema}"):
            load_schema(schema)
        assert main(["select", "--data", str(data), "--schema", str(schema)]) == 2
        assert str(schema) in capsys.readouterr().err

    def test_leading_bom_is_not_part_of_the_first_name(self, tmp_path):
        schema = tmp_path / "s.schema"
        schema.write_text("\ufeff" + SYNTH_SCHEMA_TEXT, encoding="utf-8")
        assert load_schema(schema) == parse_schema_text(SYNTH_SCHEMA_TEXT)


class TestLoadCsv:
    def test_loads_rows_in_file_order(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1.5,A,1\n2.5,B,2\n0.5,A,1\n")
        data = load_csv(p, basic_columns())
        assert data.n_samples == 3
        assert data.n_features == 2
        assert data.rows[0] == (1.5, "A", "1")
        assert data.rows[2] == (0.5, "A", "1")
        assert data.row_ids.tolist() == [0, 1, 2]

    def test_missing_markers_recorded_not_dropped(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1.0,?,1\n,B,2\n")
        data = load_csv(p, basic_columns())
        assert data.rows[0][1] is None
        assert data.rows[1][0] is None
        assert data.n_samples == 2

    def test_whitespace_delimiter(self, tmp_path):
        p = tmp_path / "d.dat"
        p.write_text("1.0 A 1\n2.0 B 2\n")
        data = load_csv(p, basic_columns(), delimiter=None)
        assert data.rows[0] == (1.0, "A", "1")

    def test_header_skipped(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,c,y\n1.0,A,1\n")
        data = load_csv(p, basic_columns(), header=True)
        assert data.n_samples == 1

    def test_zero_rows_is_error(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,c,y\n")
        with pytest.raises(DataError, match="zero data rows"):
            load_csv(p, basic_columns(), header=True)

    def test_wrong_arity_names_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1.0,A,1\n2.0,B\n")
        with pytest.raises(DataError, match="line 2"):
            load_csv(p, basic_columns())

    def test_non_numeric_in_continuous_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1.0,A,1\noops,B,2\n")
        with pytest.raises(DataError, match="non-numeric"):
            load_csv(p, basic_columns())

    @pytest.mark.parametrize("spelling", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_continuous_cell_rejected(self, tmp_path, capsys, spelling):
        data, schema = write_synthetic_files(tmp_path, seed=3, n=120)
        lines = data.read_text().splitlines()
        cells = lines[2].split(",")
        cells[1] = spelling                          # line 3, column x1
        lines[2] = ",".join(cells)
        data.write_text("\n".join(lines) + "\n")

        with pytest.raises(DataError) as exc:
            load_csv(data, load_schema(schema))
        assert str(data) in str(exc.value)
        assert "line 3" in str(exc.value) and "'x1'" in str(exc.value)

        code = main(["evaluate", "--data", str(data), "--schema", str(schema),
                     "--method", "maxrel", "--k", "2", "--folds", "4"])
        assert code == 3
        assert "line 3" in capsys.readouterr().err

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(DataError):
            load_csv(tmp_path / "absent.csv", basic_columns())

    @pytest.mark.parametrize("text, columns", [
        # a categorical first cell would gain a phantom '\ufeffA' category
        ("A,1.0,1\nA,2.5,2\nB,0.5,1\n", [ColumnSpec("c", "categorical"),
                                         ColumnSpec("x", "continuous"),
                                         ColumnSpec("y", "binary", "target")]),
        # a continuous one would not parse
        ("1.0,A,1\n2.5,A,2\n0.5,B,1\n", basic_columns()),
    ], ids=["categorical-first", "continuous-first"])
    def test_leading_bom_is_not_data(self, tmp_path, text, columns):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text("\ufeff" + text, encoding="utf-8")
        expected, observed = load_csv(plain, columns), load_csv(marked, columns)
        assert observed.rows == expected.rows
        assert observed.categories == expected.categories

    def test_non_utf8_file_is_a_data_error(self, tmp_path, capsys):
        data, schema = write_synthetic_files(tmp_path, n=40)
        data.write_bytes(b"\xff\xfe1,2\n")
        with pytest.raises(DataError, match=f"cannot read data file {data}"):
            load_csv(data, load_schema(schema))
        assert main(["select", "--data", str(data), "--schema", str(schema)]) == 3
        assert str(data) in capsys.readouterr().err


class TestMalformedCells:
    """Seeded fuzz over ``load_csv``: one or several malformed cells or lines per file.

    Every rejection must name the file and the line, and a malformed cell
    must also name its column.  Small parse blocks put the fault on either
    side of a block boundary.  With several faults, the first one that
    ``oracle_first_fault`` finds row by row must be the one reported.
    """

    KINDS = ("too-many", "too-few", "non-numeric", "non-finite", "missing-label",
             "third-label", "third-binary-value")
    SCHEMA = [ColumnSpec("x", "continuous"), ColumnSpec("c", "categorical"),
              ColumnSpec("z", "continuous"), ColumnSpec("b", "binary"),
              ColumnSpec("y", "binary", "target")]

    def clean_lines(self, rng, n):
        lines = []
        for i in range(n):
            label = "good" if i % 3 else "bad"
            flag = "yes" if i % 2 else "no"
            lines.append([f"{rng.normal():.4f}", str(rng.choice(["A", "B", "?"])),
                          f"{rng.uniform(0, 9):.2f}", str(rng.choice([flag, "?"])), label])
        return lines

    def add_fault(self, lines, kind, rng, delimiter):
        """Make one line of ``lines`` malformed; its index and the faulty column, if any."""
        row = int(rng.integers(0, len(lines)))
        column = None
        if kind == "too-many":
            lines[row].append("1.0")
        elif kind == "too-few":
            lines[row].pop(int(rng.integers(0, len(lines[row]))))
        elif kind == "non-numeric":
            column = str(rng.choice(["x", "z"]))
            lines[row][0 if column == "x" else 2] = str(rng.choice(
                ["abc", "1.2.3", "--1", "0x1f", "1,5" if delimiter is None else "1e"]))
        elif kind == "non-finite":
            column = str(rng.choice(["x", "z"]))
            lines[row][0 if column == "x" else 2] = str(rng.choice(
                ["nan", "NaN", "inf", "-inf", "Infinity", "1e999", "-1e400"]))
        elif kind == "missing-label":
            column = "y"
            lines[row][4] = "?" if delimiter is None else str(rng.choice(["?", ""]))
        else:                                # after both labels have been seen
            column = "y" if kind == "third-label" else "b"
            row = int(rng.integers(2, len(lines)))
            for earlier, flag in ((0, "no"), (1, "yes")):
                lines[earlier][3] = flag
            lines[row][4 if column == "y" else 3] = "ugly"
        return row, column

    @pytest.mark.parametrize("block_cells", [4, 20, 1 << 14])
    @pytest.mark.parametrize("delimiter", [",", None])
    def test_fault_named_with_file_line_and_column(self, tmp_path, monkeypatch,
                                                   block_cells, delimiter):
        monkeypatch.setattr(ingest, "PARSE_BLOCK_CELLS", block_cells)
        rng = np.random.default_rng(block_cells + (delimiter is None))
        sep = " " if delimiter is None else delimiter
        for case in range(42):
            kind = self.KINDS[case % len(self.KINDS)]
            lines = self.clean_lines(rng, int(rng.integers(3, 30)))
            row, column = self.add_fault(lines, kind, rng, delimiter)
            path = tmp_path / f"case{case}.dat"
            path.write_text("\n".join(sep.join(cells) for cells in lines) + "\n")

            with pytest.raises(DataError) as exc:
                load_csv(path, self.SCHEMA, delimiter=delimiter)
            message = str(exc.value)
            assert str(path) in message, (kind, message)
            assert f"line {row + 1}:" in message, (kind, row, message)
            if column is not None:
                assert f"column {column!r}" in message, (kind, message)

    @pytest.mark.parametrize("block_cells", [4, 20, 1 << 14])
    @pytest.mark.parametrize("delimiter", [",", None])
    def test_first_of_several_faults_is_reported(self, tmp_path, monkeypatch, block_cells,
                                                 delimiter):
        monkeypatch.setattr(ingest, "PARSE_BLOCK_CELLS", block_cells)
        rng = np.random.default_rng([block_cells, delimiter is None, 2])
        sep = " " if delimiter is None else delimiter
        for case in range(60):
            lines = self.clean_lines(rng, int(rng.integers(3, 30)))
            # cell faults first: a ragged line has no cell at every column index
            for kind in sorted(rng.integers(0, len(self.KINDS), int(rng.integers(2, 4))),
                               reverse=True):
                self.add_fault(lines, self.KINDS[kind], rng, delimiter)
            text = "\n".join(sep.join(cells) for cells in lines) + "\n"
            path = tmp_path / f"case{case}.dat"
            path.write_text(text)
            first = oracle_first_fault(text.splitlines(), self.SCHEMA, delimiter)
            if first is None:                # a later fault undid an earlier one
                load_csv(path, self.SCHEMA, delimiter=delimiter)
                continue

            row, column = first
            with pytest.raises(DataError) as exc:
                load_csv(path, self.SCHEMA, delimiter=delimiter)
            message = str(exc.value)
            assert message.startswith(f"{path}, line {row + 1}: "), (text, message)
            if column is None:
                assert ": expected 5 cells, got " in message, (text, message)
            else:
                assert f"column {column!r}" in message, (text, message)

    def test_earliest_fault_in_the_file_wins(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1.0,A,1\n2.0,B,?\nbad,B,2\n3.0,B\n")
        with pytest.raises(DataError, match="line 2: missing label in target column 'y'"):
            load_csv(p, basic_columns())
        p.write_text("1.0,A,1\ninf,B,2\nabc,A,1\n")      # non-finite above a non-number
        with pytest.raises(DataError, match="line 2: non-numeric or non-finite value 'inf'"
                                            " in continuous column 'x'"):
            load_csv(p, basic_columns())

    @pytest.mark.parametrize("cell, message", [
        ("oops", "non-numeric or non-finite value 'oops'"),
        ("nan", "non-numeric or non-finite value 'nan'"),
        (" 1e999 ", "non-numeric or non-finite value '1e999'"),
    ])
    def test_fault_after_a_missing_marker_in_a_continuous_column(self, tmp_path, cell,
                                                                 message):
        p = tmp_path / "d.csv"
        p.write_text(f"?,A,1\n 2.5 ,B,2\n,A,1\n{cell},B,2\n")
        with pytest.raises(DataError, match=f"line 4: {message} in continuous column 'x'"):
            load_csv(p, basic_columns())

    def test_missing_markers_in_a_continuous_column_read_as_nan(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("?,A,1\n 2.5 ,B,2\n,A,1\n-0.0,B,2\n")
        values = load_csv(p, basic_columns()).arrays[0]
        assert np.array_equal(values, [np.nan, 2.5, np.nan, -0.0], equal_nan=True)
        assert np.signbit(values[3])

    def test_loads_without_numpy_strings_module(self, tmp_path, monkeypatch):
        # numpy.strings exists only from NumPy 2.0; the declared floor is 1.23
        monkeypatch.delattr(np, "strings", raising=False)
        p = tmp_path / "d.csv"
        p.write_text("?,A,1\n2.0, B ,2\n3.0,?,1\n")
        data = load_csv(p, basic_columns())
        assert data.rows == [(None, "A", "1"), (2.0, "B", "2"), (3.0, None, "1")]

    def test_third_label_first_seen_in_a_later_block(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ingest, "PARSE_BLOCK_CELLS", 6)          # two rows per block
        p = tmp_path / "d.csv"
        p.write_text("1.0,A,1\n2.0,B,1\n3.0,A,2\n4.0,A,1\n5.0,B,3\n")
        with pytest.raises(DataError) as exc:
            load_csv(p, basic_columns())
        assert "line 5: third distinct label '3' in target column 'y'" in str(exc.value)
        assert "'1', '2' seen before" in str(exc.value)


class TestNumericParse:
    """A clean file goes through numpy's tokenizer; a cell or line it would
    read otherwise than ``float`` and ``str.split`` sends the whole file to
    the cell-by-cell parser, whose faults name the line and column."""

    SCHEMA = [ColumnSpec("x", "continuous"), ColumnSpec("c", "categorical"),
              ColumnSpec("z", "continuous"), ColumnSpec("y", "binary", "target")]
    CLEAN = [["1.5", "A", "-2e3", "0"], ["+.25", "#b", " 7 ", "1"], ["-0.0", "A", "3", "1"]]

    def load(self, tmp_path, monkeypatch, lines, delimiter):
        """(load_csv's result or error message, whether it parsed cell by cell)."""
        sep = " " if delimiter is None else delimiter
        path = tmp_path / "d.dat"
        path.write_text("\n".join(sep.join(cells) for cells in lines) + "\n")
        calls = []
        parse_cells = ingest._parse_cells
        monkeypatch.setattr(ingest, "_parse_cells",
                            lambda *args: calls.append(args) or parse_cells(*args))
        try:
            result = load_csv(path, self.SCHEMA, delimiter=delimiter)
        except DataError as exc:
            result = str(exc).split(", ", 1)[1]
        return result, bool(calls)

    @staticmethod
    def clean(delimiter):
        return [[cell.strip() if delimiter is None else cell for cell in cells]
                for cells in TestNumericParse.CLEAN]

    @pytest.mark.parametrize("delimiter", [",", None])
    def test_clean_file_is_tokenized_like_the_cell_parser(self, tmp_path, monkeypatch,
                                                          delimiter):
        data, fell_back = self.load(tmp_path, monkeypatch, self.clean(delimiter), delimiter)
        assert not fell_back
        assert data.rows == [(1.5, "A", -2000.0, "0"), (0.25, "#b", 7.0, "1"),
                             (-0.0, "A", 3.0, "1")]       # '#' starts no comment
        assert np.signbit(data.arrays[0][2])
        assert all(a.flags.c_contiguous for a in data.arrays)
        monkeypatch.setattr(ingest, "_parse_clean", lambda *args: None)
        by_cells = load_csv(tmp_path / "d.dat", self.SCHEMA, delimiter=delimiter)
        for got, want in zip(data.arrays, by_cells.arrays):
            assert got.tobytes() == want.tobytes() and got.dtype == want.dtype
        assert data.categories == by_cells.categories

    @pytest.mark.parametrize("delimiter", [",", None])
    @pytest.mark.parametrize("row, column, cell, expected", [
        (1, 0, "1_0", [(1.5, "A", -2000.0, "0"), (10.0, "#b", 7.0, "1"),
                       (-0.0, "A", 3.0, "1")]),
        (2, 2, "?", [(1.5, "A", -2000.0, "0"), (0.25, "#b", 7.0, "1"),
                     (-0.0, "A", None, "1")]),
        (1, 2, "#7", "line 2: non-numeric or non-finite value '#7' in continuous column 'z'"),
        (2, 0, "inf", "line 3: non-numeric or non-finite value 'inf' in continuous column 'x'"),
        (1, None, "extra", "line 2: expected 4 cells, got 5"),
        (2, None, None, "line 3: expected 4 cells, got 3"),
    ])
    def test_fault_or_odd_cell_falls_back_for_the_whole_file(self, tmp_path, monkeypatch,
                                                             delimiter, row, column, cell,
                                                             expected):
        lines = self.clean(delimiter)
        if column is not None:
            lines[row][column] = cell
        elif cell is None:
            lines[row].pop(1)                        # a missing cell
        else:
            lines[row].append(cell)                  # an extra cell
        result, fell_back = self.load(tmp_path, monkeypatch, lines, delimiter)
        assert fell_back
        assert (result if isinstance(result, str) else result.rows) == expected

    @pytest.mark.parametrize("delimiter", [",", None, "\t"])
    def test_random_files_load_alike_through_either_parser(self, tmp_path, monkeypatch,
                                                           delimiter):
        rng = np.random.default_rng([7, len(delimiter or "")])
        formats = [repr, lambda v: format(v, ".6g"), lambda v: str(int(v)), lambda v: f" {v:.3e} "]
        labels = ["A11", "x", "?", "", "#", "1.0", " b "] if delimiter else ["A11", "x", "?", "#"]
        sep = " " if delimiter is None else delimiter
        path = tmp_path / "r.dat"
        for _ in range(40):
            kinds = rng.choice(["continuous", "categorical", "binary"], int(rng.integers(1, 6)))
            schema = ([ColumnSpec(f"c{j}", str(kind)) for j, kind in enumerate(kinds)]
                      + [ColumnSpec("y", "binary", "target")])
            lines = []
            for _ in range(int(rng.integers(1, 30))):
                value = float(rng.standard_normal() * 10.0 ** rng.integers(-300, 300))
                cells = [formats[int(rng.integers(4))](value) if kind == "continuous"
                         else str(rng.choice(labels[:3] if kind == "binary" else labels))
                         for kind in kinds]
                lines.append(sep.join(cells + [str(rng.integers(2))]))
            path.write_text("\n".join(lines) + "\n")
            loaded = [load_csv(path, schema, delimiter=delimiter)]
            with monkeypatch.context() as patch:
                patch.setattr(ingest, "_parse_clean", lambda *args: None)
                loaded.append(load_csv(path, schema, delimiter=delimiter))
            for got, want in zip(*(data.arrays for data in loaded)):
                assert got.tobytes() == want.tobytes() and got.dtype == want.dtype
            assert loaded[0].categories == loaded[1].categories

    def test_empty_continuous_cell_falls_back(self, tmp_path, monkeypatch):
        lines = self.clean(",")
        lines[0][0] = ""
        data, fell_back = self.load(tmp_path, monkeypatch, lines, ",")
        assert fell_back
        assert data.rows[0] == (None, "A", -2000.0, "0")

    def test_delimiter_of_two_characters_is_split_by_python(self, tmp_path, monkeypatch):
        data, fell_back = self.load(tmp_path, monkeypatch, self.clean(","), ";;")
        assert fell_back
        assert data.rows[1] == (0.25, "#b", 7.0, "1")


class TestBinaryTarget:
    def test_positive_label_respected(self):
        cols = [ColumnSpec("x", "continuous"),
                ColumnSpec("y", "binary", "target", positive_label="1")]
        data = dataset_from_rows(cols, [(0.0, "1"), (1.0, "2"), (2.0, "1")])
        assert binary_target(data).tolist() == [1, 0, 1]

    def test_default_larger_label_is_positive(self):
        cols = [ColumnSpec("x", "continuous"), ColumnSpec("y", "binary", "target")]
        data = dataset_from_rows(cols, [(0.0, "1"), (1.0, "2")])
        assert binary_target(data).tolist() == [0, 1]

    def test_more_than_two_labels_rejected(self):
        cols = [ColumnSpec("x", "continuous"), ColumnSpec("y", "binary", "target")]
        data = dataset_from_rows(cols, [(0.0, "1"), (1.0, "2"), (2.0, "3")])
        with pytest.raises(DataError):
            binary_target(data)

    def test_missing_target_rejected(self):
        cols = [ColumnSpec("x", "continuous"), ColumnSpec("y", "binary", "target")]
        data = dataset_from_rows(cols, [(0.0, "1"), (1.0, None)])
        with pytest.raises(DataError):
            binary_target(data)


class TestMissingResolution:
    def test_impute_median_and_mode(self):
        cols = basic_columns()
        rows = [(1.0, "A", "0"), (None, "B", "1"), (3.0, None, "0"), (10.0, "A", "1")]
        out = resolve_missing(dataset_from_rows(cols, rows), DiscretizationPolicy())
        assert out.rows[1][0] == 3.0          # median of (1, 3, 10)
        assert out.rows[2][1] == "A"          # mode
        assert out.n_samples == 4

    def test_impute_mode_for_continuous_when_asked(self):
        cols = basic_columns()
        rows = [(2.0, "A", "0"), (2.0, "B", "1"), (None, "A", "0"), (9.0, "A", "1")]
        policy = DiscretizationPolicy(missing_policy="impute-mode")
        out = resolve_missing(dataset_from_rows(cols, rows), policy)
        assert out.rows[2][0] == 2.0

    def test_drop_row_preserves_row_ids(self):
        cols = basic_columns()
        rows = [(1.0, "A", "0"), (None, "B", "1"), (3.0, "C", "0"), (4.0, None, "1")]
        policy = DiscretizationPolicy(missing_policy="drop-row")
        out = resolve_missing(dataset_from_rows(cols, rows), policy)
        assert out.row_ids.tolist() == [0, 2]

    def test_all_missing_column_is_error(self):
        cols = basic_columns()
        rows = [(None, "A", "0"), (None, "B", "1")]
        with pytest.raises(DataError, match="all-missing"):
            resolve_missing(dataset_from_rows(cols, rows), DiscretizationPolicy())

    def test_mode_tie_goes_to_earliest_seen(self):
        assert column_mode(["Q", "P", "Q", "P"]) == "Q"

    def test_median_of_huge_middle_pair_stays_finite(self):
        assert column_median(np.array([1.5e308, 1e308, -3.0, 1.7e308])) == 1.25e308
        assert column_median(np.array([3.0, 1.0, 2.0, 10.0])) == 2.5
        assert column_median(np.array([-1.7e308, 1e308, -1.7e308])) == -1.7e308
        cols = [ColumnSpec("x", "continuous"), ColumnSpec("y", "binary", "target")]
        rows = [(1e308, "0"), (1.5e308, "1"), (None, "0")]
        filled = resolve_missing(dataset_from_rows(cols, rows), DiscretizationPolicy())
        assert filled.arrays[0].tolist() == [1e308, 1.5e308, 1.25e308]

    def test_median_equals_np_median_bit_for_bit(self):
        # signed zeros (np.median's mean adds onto +0.0), middle pairs whose
        # sum overflows (then a/2 + b/2), subnormals and wide scales
        pool = np.array([0.0, -0.0, 1e308, -1e308, 1.7e308, -1.7e308, 5e-324, -5e-324,
                         2.2e-308, -1.0, 1.0, 3.5, 0.1, 0.2])
        rng = np.random.default_rng(23)
        for trial in range(20_000):
            n = int(rng.integers(1, 61))
            if trial % 3 == 0:
                values = rng.choice(pool, n)
            elif trial % 3 == 1:
                values = rng.normal(size=n) * 10.0 ** int(rng.integers(-320, 308))
            else:
                values = np.where(rng.random(n) < 0.5, rng.choice(pool, n),
                                  rng.normal(size=n))
            with np.errstate(over="ignore"):
                want = float(np.median(values))
            if math.isinf(want):
                a, b = np.sort(values)[n // 2 - 1:n // 2 + 1]
                want = float(a / 2 + b / 2)
            got = column_median(values)
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), values


class TestBinning:
    def test_median_split(self):
        codes, nb = equal_frequency_codes(np.array([1.0, 2.0, 3.0, 4.0]), 2)
        assert codes.tolist() == [0, 0, 1, 1]
        assert nb == 2

    def test_first_appearance_coding(self):
        codes, sizes, counts = dense_codes(["A", "B", "A", "C"], first_appearance=True)
        assert codes.tolist() == [0, 1, 0, 2]
        assert sizes.tolist() == [3] and counts.tolist() == [2, 1, 1]

    def test_quantile_occupancy_balanced(self):
        # independent oracle: sort the column and count quantile buckets
        rng = np.random.default_rng(7)
        values = rng.permutation(1000).astype(float)    # all distinct
        codes, nb = equal_frequency_codes(values, 10)
        occupancy = np.bincount(codes)
        assert nb == 10
        assert np.all(np.abs(occupancy - 100) <= 1)
        # oracle cross-check: bucket of each value by its sorted position
        position = np.argsort(np.argsort(values))
        assert np.array_equal(codes, position * 10 // 1000)

    def test_ties_go_to_lower_bin(self):
        codes, nb = equal_frequency_codes(np.array([1.0, 1.0, 1.0, 2.0, 2.0, 3.0]), 3)
        assert codes.tolist() == [0, 0, 0, 1, 1, 2]

    def test_equal_width_compacts_empty_bins(self):
        values = np.array([0.0, 0.1, 0.2, 9.9, 10.0])
        codes, nb = equal_width_codes(values, 5)
        assert sorted(set(codes.tolist())) == list(range(nb))
        assert codes[-1] == nb - 1


class TestDiscretize:
    def test_codes_have_no_gaps_and_rows_align(self):
        data = synthetic_credit_dataset(seed=2, n=150)
        policy = DiscretizationPolicy(n_bins=5)
        dd = discretize(data, policy)
        assert dd.feature_codes.shape == (150, 6)
        for j in range(dd.n_features):
            observed = sorted(set(dd.feature_codes[:, j].tolist()))
            assert observed == list(range(bin_counts(dd)[j]))
        assert resolve_missing(data, policy).row_ids.tolist() == list(range(150))

    def test_deterministic(self):
        data = synthetic_credit_dataset(seed=3, n=100)
        a = discretize(data, DiscretizationPolicy())
        b = discretize(data, DiscretizationPolicy())
        assert np.array_equal(a.feature_codes, b.feature_codes)
        assert np.array_equal(a.target, b.target)

    def test_constant_continuous_column_single_bin(self, caplog):
        cols = [ColumnSpec("x", "continuous"), ColumnSpec("y", "binary", "target")]
        rows = [(5.0, "0"), (5.0, "1"), (5.0, "0")]
        with caplog.at_level("WARNING", logger="qpfs.ingest"):
            dd = discretize(dataset_from_rows(cols, rows), DiscretizationPolicy())
        assert bin_counts(dd)[0] == 1
        assert "single bin" in caplog.text

        # "t" is not constant, but its 50 zeros in 1000 rows share the ones'
        # bucket under 10 equal-frequency bins; equal-width keeps two bins
        cols = [ColumnSpec("x", "continuous"), ColumnSpec("t", "continuous"),
                ColumnSpec("y", "binary", "target")]
        rows = [(5.0, float(i >= 50), str(i % 2)) for i in range(1000)]
        for method, counts in (("equal-frequency", [1, 1]), ("equal-width", [1, 2])):
            caplog.clear()
            with caplog.at_level("WARNING", logger="qpfs.ingest"):
                dd = discretize(dataset_from_rows(cols, rows), DiscretizationPolicy(method=method))
            assert bin_counts(dd).tolist() == counts
            warned = [r.getMessage() for r in caplog.records if "single bin" in r.getMessage()]
            assert len(warned) == counts.count(1)
            assert "'x'" in warned[0]
            assert ("'t'" in warned[-1]) == (counts[1] == 1)

    def test_binary_column_with_three_values_rejected(self):
        cols = [ColumnSpec("b", "binary"), ColumnSpec("y", "binary", "target")]
        rows = [("a", "0"), ("b", "1"), ("c", "0")]
        with pytest.raises(DataError, match="binary"):
            discretize(dataset_from_rows(cols, rows), DiscretizationPolicy())

    @pytest.mark.parametrize("values", [
        [-1e308, 1e308, 0.0, 5.0, -5.0],                 # max - min overflows
        [0.0, 5e-324, 1e-323, 0.0, 5e-324],              # width underflows to 0
    ])
    def test_equal_width_without_float64_width_names_column(self, tmp_path, capsys,
                                                            values):
        cols = [ColumnSpec("x", "continuous"), ColumnSpec("y", "binary", "target")]
        rows = [(v, str(i % 2)) for i, v in enumerate(values)]
        with pytest.raises(DataError, match="continuous column 'x': range"):
            discretize(dataset_from_rows(cols, rows), DiscretizationPolicy(method="equal-width"))
        ranks = discretize(dataset_from_rows(cols, rows), DiscretizationPolicy(n_bins=5))
        order = np.argsort(values, kind="stable")
        assert np.all(np.diff(ranks.feature_codes[order, 0]) >= 0)

        data, schema = tmp_path / "x.csv", tmp_path / "x.schema"
        data.write_text("".join(f"{v!r},{y}\n" for v, y in rows))
        schema.write_text("x continuous feature\ny binary target positive=1\n")
        code = main(["select", "--data", str(data), "--schema", str(schema),
                     "--binning", "equal-width", "--method", "maxrel", "--k", "1"])
        assert code == 3
        assert "continuous column 'x': range" in capsys.readouterr().err

    def test_needs_two_rows(self):
        cols = [ColumnSpec("x", "continuous"), ColumnSpec("y", "binary", "target")]
        with pytest.raises(DataError):
            discretize(dataset_from_rows(cols, [(1.0, "0")]), DiscretizationPolicy())

    def test_single_label_target_rejected(self):
        cols = [ColumnSpec("x", "continuous"), ColumnSpec("y", "binary", "target")]
        rows = [(1.0, "0"), (2.0, "0")]
        with pytest.raises(DataError):
            discretize(dataset_from_rows(cols, rows), DiscretizationPolicy())

    def test_row_order_preserved_under_shuffle(self):
        # continuous bins are rank-derived (order-independent); categorical
        # codes depend on first appearance, so only the partition must match
        data = synthetic_credit_dataset(seed=4, n=80)
        dd = discretize(data, DiscretizationPolicy(n_bins=4))
        perm = np.random.default_rng(0).permutation(80)
        shuffled = data.subset(list(perm))
        dd2 = discretize(shuffled, DiscretizationPolicy(n_bins=4))
        for j in range(dd.n_features):
            a = dd.feature_codes[perm, j]
            b = dd2.feature_codes[:, j]
            if data.feature_columns[j].kind == "continuous":
                assert np.array_equal(a, b)
            else:
                canon_a = dense_codes(a, first_appearance=True)[0]
                canon_b = dense_codes(b, first_appearance=True)[0]
                assert np.array_equal(canon_a, canon_b)
        assert np.array_equal(dd.target[perm], dd2.target)

    def test_policy_validation(self):
        with pytest.raises(SchemaError):
            DiscretizationPolicy(n_bins=1)
        with pytest.raises(SchemaError):
            DiscretizationPolicy(method="mystery")
        with pytest.raises(SchemaError):
            DiscretizationPolicy(missing_policy="ignore")


class TestDiscretizeMemo:
    def test_same_policy_same_instance_other_policy_another(self):
        data = synthetic_credit_dataset(seed=5, n=120)
        policy = DiscretizationPolicy(n_bins=4)
        dd = discretize(data, policy)
        assert discretize(data, policy) is dd
        assert discretize(data, DiscretizationPolicy(n_bins=4)) is dd    # equal policy
        other = discretize(data, DiscretizationPolicy(n_bins=5))
        assert other is not dd
        assert discretize(data, DiscretizationPolicy(n_bins=5)) is other
        assert discretize(data) is discretize(data, DiscretizationPolicy())

    def test_derived_datasets_start_with_no_memo(self):
        data = synthetic_credit_dataset(seed=5, n=120)
        dd = discretize(data, DiscretizationPolicy())
        same_rows = data.subset(np.arange(data.n_samples))
        resolved = resolve_missing(data, DiscretizationPolicy())
        for derived in (same_rows, resolved):
            assert derived._discretized == {}
            again = discretize(derived, DiscretizationPolicy())
            assert again is not dd
            assert np.array_equal(again.feature_codes, dd.feature_codes)

    def test_failure_is_not_cached(self):
        cols = [ColumnSpec("b", "binary"), ColumnSpec("y", "binary", "target")]
        data = dataset_from_rows(cols, [("a", "0"), ("b", "1"), ("c", "0")])
        for _ in range(2):
            with pytest.raises(DataError, match="binary"):
                discretize(data, DiscretizationPolicy())
        assert data._discretized == {}

    def test_shared_arrays_are_read_only(self):
        dd = discretize(synthetic_credit_dataset(seed=5, n=120), DiscretizationPolicy())
        with pytest.raises(ValueError):
            dd.feature_codes[0, 0] = 1
        with pytest.raises(ValueError):
            dd.target[0] = 1 - dd.target[0]
        with pytest.raises(ValueError):
            infotheory.information(dd)[0, 0] = 0.0


class TestRealGerman:
    def test_load_counts(self, german_dataset):
        assert german_dataset.n_samples == 1000
        assert german_dataset.n_features == 20

    def test_loan_amount_equal_frequency_occupancy(self, german_dataset):
        # verify by sorting the column and counting quantile-bucket occupancy
        amounts = german_dataset.arrays[german_dataset.column_index("credit_amount")]
        codes, nb = equal_frequency_codes(amounts, 10)
        distinct_ok = np.unique(amounts).size == amounts.size
        occupancy = np.bincount(codes)
        tolerance = 1 if distinct_ok else int(np.max(np.unique(amounts,
                                              return_counts=True)[1]))
        assert nb == 10
        assert np.all(np.abs(occupancy - 100) <= tolerance)


class TestRealAustralian:
    def test_load_counts(self, australian_dataset):
        assert australian_dataset.n_samples == 690
        assert australian_dataset.n_features == 14


class TestFileRoundtrip:
    def test_synthetic_files_load(self, tmp_path):
        data_path, schema_path = write_synthetic_files(tmp_path, seed=5, n=60)
        from qpfs.ingest import load_schema
        schema = load_schema(schema_path)
        data = load_csv(data_path, schema)
        assert data.n_samples == 60
        assert data.n_features == 6
