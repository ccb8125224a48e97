"""Command-line behavior: subcommands, config merging, exit codes, artifacts."""

import json
import warnings

import numpy as np
import pytest

from qpfs import qp
from qpfs.cli import main, read_config_file

from conftest import write_synthetic_files, write_uci_like_files

EXIT_OK, EXIT_CONFIG, EXIT_DATA, EXIT_NUMERICAL = 0, 2, 3, 4


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def synth_files(tmp_path):
    return write_synthetic_files(tmp_path, seed=21, n=240)


@pytest.fixture()
def toy_files(tmp_path):
    # f0 == label, f1 exactly independent: hand-computable Q and F
    lines = []
    for _ in range(25):
        for a, b, c in (("0", "0", "0"), ("0", "1", "0"), ("1", "0", "1"), ("1", "1", "1")):
            lines.append(f"{a} {b} {c}")
    data = tmp_path / "toy.dat"
    data.write_text("\n".join(lines) + "\n")
    schema = tmp_path / "toy.schema"
    schema.write_text("f0 categorical feature\nf1 categorical feature\n"
                      "label binary target positive=1\n")
    return data, schema


@pytest.fixture()
def duplicate_files(tmp_path):
    # high-relevance feature duplicated exactly; weaker independent feature
    rng = np.random.default_rng(17)
    n = 300
    y = (rng.random(n) < 0.4).astype(int)
    f0 = (y ^ (rng.random(n) < 0.12)).astype(int)
    f2 = (y ^ (rng.random(n) < 0.30)).astype(int)
    noise = rng.integers(0, 4, n)
    rows = [f"{a} {a} {b} {c} {t}" for a, b, c, t in zip(f0, f2, noise, y)]
    data = tmp_path / "dup.dat"
    data.write_text("\n".join(rows) + "\n")
    schema = tmp_path / "dup.schema"
    schema.write_text("f0 categorical feature\nf1 categorical feature\n"
                      "f2 categorical feature\nnoise categorical feature\n"
                      "label binary target positive=1\n")
    return data, schema


class TestSelect:
    def test_quadratic_prints_alpha_and_k_features(self, capsys, synth_files, tmp_path):
        data, schema = synth_files
        out_dir = tmp_path / "out"
        code, out, _ = run(capsys, "select", "--data", str(data), "--schema", str(schema),
                           "--method", "quadratic", "--k", "3", "--out", str(out_dir))
        assert code == EXIT_OK
        assert "alpha = " in out
        body = [l for l in out.splitlines() if "\t" in l]
        assert len(body) == 4                      # header + 3 features
        assert (out_dir / "selection.txt").exists()
        assert (out_dir / "weights.txt").exists()

    def test_maxrel_k1_finds_target_copy(self, capsys, duplicate_files):
        data, schema = duplicate_files
        code, out, _ = run(capsys, "select", "--data", str(data), "--schema", str(schema),
                           "--delimiter", "whitespace", "--method", "maxrel", "--k", "1")
        assert code == EXIT_OK
        assert out.splitlines()[-1].startswith("f0\t")

    def test_alpha_extremes_rank_differently(self, capsys, duplicate_files):
        data, schema = duplicate_files
        tops = {}
        for alpha in ("0", "1"):
            code, out, _ = run(capsys, "select", "--data", str(data),
                               "--schema", str(schema), "--delimiter", "whitespace",
                               "--method", "quadratic", "--k", "2", "--alpha", alpha)
            assert code == EXIT_OK
            tops[alpha] = [l.split("\t")[0] for l in out.splitlines() if "\t" in l][1]
        assert tops["1"] == "f0"                   # pure relevance
        assert tops["0"] != tops["1"]              # redundancy-only demotes f0/f1

    def test_every_method_runs(self, capsys, synth_files):
        data, schema = synth_files
        for method in ("quadratic", "mrmr", "maxrel", "infogain", "relieff", "cfs"):
            code, _, err = run(capsys, "select", "--data", str(data),
                               "--schema", str(schema), "--method", method, "--k", "2")
            assert code == EXIT_OK, (method, err)

    def test_discretization_and_relieff_flags(self, capsys, synth_files):
        data, schema = synth_files
        code, out, _ = run(capsys, "select", "--data", str(data), "--schema", str(schema),
                           "--method", "relieff", "--k", "2",
                           "--binning", "equal-width", "--bins", "6",
                           "--missing", "drop-row",
                           "--relieff-neighbors", "5", "--relieff-iterations", "50",
                           "--seed", "4")
        assert code == EXIT_OK
        assert len([l for l in out.splitlines() if "\t" in l]) == 3

    def test_named_dataset_missing_points_to_fetch(self, capsys, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        code, _, err = run(capsys, "select", "--name", "german", "--data-dir", str(empty))
        assert code == EXIT_DATA
        assert "qpfs fetch" in err


class TestInspect:
    def test_toy_matches_hand_computed_mi(self, capsys, toy_files, tmp_path):
        data, schema = toy_files
        out_dir = tmp_path / "ins"
        code, out, _ = run(capsys, "inspect", "--data", str(data), "--schema", str(schema),
                           "--delimiter", "whitespace", "--q-diagonal", "entropy",
                           "--out", str(out_dir))
        assert code == EXIT_OK
        # hand computation: H(f0)=H(f1)=1 bit, MI(f0,f1)=0, F=(1,0);
        # with the entropy diagonal Qbar = Fbar = 0.5, so alpha = 0.5
        assert "alpha = 0.500000" in out
        q_lines = (out_dir / "Q.txt").read_text().strip().splitlines()
        assert q_lines[1].split("\t") == ["f0", "1", "0"]
        assert q_lines[2].split("\t") == ["f1", "0", "1"]
        f_lines = (out_dir / "F.txt").read_text().strip().splitlines()
        assert f_lines == ["f0\t1", "f1\t0"]

    def test_toy_zero_diagonal_default_alpha(self, capsys, toy_files):
        # under the default zero diagonal the toy has Qbar = 0, so alpha = 0
        data, schema = toy_files
        code, out, _ = run(capsys, "inspect", "--data", str(data), "--schema", str(schema),
                           "--delimiter", "whitespace")
        assert code == EXIT_OK
        assert "alpha = 0.000000" in out

    def test_zero_diagonal_dump(self, toy_files, tmp_path, capsys):
        data, schema = toy_files
        out_dir = tmp_path / "ins0"
        code, _, _ = run(capsys, "inspect", "--data", str(data), "--schema", str(schema),
                         "--delimiter", "whitespace", "--q-diagonal", "zero",
                         "--out", str(out_dir))
        assert code == EXIT_OK
        q_lines = (out_dir / "Q.txt").read_text().strip().splitlines()
        assert q_lines[1].split("\t") == ["f0", "0", "0"]


    @pytest.mark.parametrize("flag, value", [
        ("--method", "mrmr"), ("--k", "1"), ("--relieff-neighbors", "3"),
        ("--relieff-iterations", "5"), ("--seed", "4")])
    def test_flags_it_does_not_read_rejected(self, capsys, toy_files, flag, value):
        # inspect builds the quadratic problem only: no method, k or ReliefF
        data, schema = toy_files
        with pytest.raises(SystemExit) as exc:
            main(["inspect", "--data", str(data), "--schema", str(schema), flag, value])
        assert exc.value.code == EXIT_CONFIG
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    def test_config_keys_of_other_commands_skipped(self, capsys, toy_files, tmp_path):
        data, schema = toy_files
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"data = {data}\nschema = {schema}\ndelimiter = whitespace\n"
                       "method = mrmr\nk = 1\nrelieff_neighbors = 3\n"
                       "relieff_iterations = 5\nseed = 4\n")
        code, out, err = run(capsys, "inspect", "--config", str(cfg))
        assert code == EXIT_OK, err
        assert "alpha = 0.000000" in out


class TestEvaluateCommand:
    def test_prints_three_rates_and_persists(self, capsys, synth_files, tmp_path):
        data, schema = synth_files
        out_dir = tmp_path / "ev"
        code, out, _ = run(capsys, "evaluate", "--data", str(data), "--schema", str(schema),
                           "--method", "maxrel", "--k", "2", "--folds", "4",
                           "--out", str(out_dir))
        assert code == EXIT_OK
        for token in ("test_error", "type1_error", "type2_error"):
            assert token in out
        payload = json.loads((out_dir / "report.json").read_text())
        assert set(payload) >= {"test_error", "type1_error", "type2_error", "per_fold"}

    def test_repeated_seed_identical_bytes(self, capsys, synth_files, tmp_path):
        data, schema = synth_files
        blobs = []
        for sub in ("a", "b"):
            out_dir = tmp_path / sub
            code, _, _ = run(capsys, "evaluate", "--data", str(data),
                             "--schema", str(schema), "--method", "quadratic",
                             "--k", "2", "--folds", "4", "--cv-seed", "77",
                             "--out", str(out_dir))
            assert code == EXIT_OK
            blobs.append((out_dir / "report.json").read_bytes())
        assert blobs[0] == blobs[1]

    def test_stratified_from_config_and_flag_reaches_report(self, capsys, synth_files,
                                                            tmp_path):
        data, schema = synth_files
        cfg = tmp_path / "unstratified.cfg"
        cfg.write_text("stratified = false\n")
        base = ["evaluate", "--data", str(data), "--schema", str(schema),
                "--method", "maxrel", "--k", "2", "--folds", "4"]
        cases = {"default": [], "config": ["--config", str(cfg)],
                 "flag": ["--no-stratified"], "flag-wins": ["--config", str(cfg), "--stratified"]}
        stratified = {}
        for case, extra in cases.items():
            out_dir = tmp_path / case
            code, _, err = run(capsys, *base, *extra, "--out", str(out_dir))
            assert code == EXIT_OK, (case, err)
            payload = json.loads((out_dir / "report.json").read_text())
            stratified[case] = payload["protocol"]["stratified"]
        assert stratified == {"default": True, "config": False, "flag": False,
                              "flag-wins": True}

    def test_huge_finite_continuous_values_evaluate_cleanly(self, capsys, tmp_path):
        # the training mean and std of "x" overflow float64 unless it is rescaled
        rng = np.random.default_rng(0)
        values = [1e308, 1.5e308, -1.7e308, 3.0]
        y = rng.integers(0, 2, 120)
        x = rng.integers(0, 4, 120)
        z = rng.normal(size=120) + y
        data = tmp_path / "big.csv"
        data.write_text("".join(f"{values[a]!r},{b!r},{c}\n"
                                for a, b, c in zip(x, z.tolist(), y)))
        schema = tmp_path / "big.schema"
        schema.write_text("x continuous feature\nz continuous feature\n"
                          "label binary target positive=1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "evaluate", "--data", str(data),
                                 "--schema", str(schema), "--method", "maxrel",
                                 "--k", "2", "--folds", "4")
        assert code == EXIT_OK, err
        assert "test_error" in out

    def test_report_records_every_setting(self, capsys, synth_files, tmp_path):
        data, schema = synth_files
        out_dir = tmp_path / "ev"
        code, _, _ = run(capsys, "evaluate", "--data", str(data), "--schema", str(schema),
                         "--method", "relieff", "--k", "2", "--folds", "4",
                         "--missing", "drop-row", "--seed", "5", "--out", str(out_dir))
        assert code == EXIT_OK
        payload = json.loads((out_dir / "report.json").read_text())
        assert payload["selection"]["method"] == "relieff"
        assert payload["selection"]["seed"] == 5
        assert payload["selection"]["policy"]["missing_policy"] == "drop-row"
        assert payload["protocol"]["n_folds"] == 4
        assert payload["protocol"]["strict"] is False
        assert "version" in payload

    def test_missing_dataset_file_names_path(self, capsys, tmp_path):
        schema = tmp_path / "s.schema"
        schema.write_text("x continuous feature\ny binary target\n")
        code, _, err = run(capsys, "evaluate", "--data", str(tmp_path / "nope.csv"),
                           "--schema", str(schema))
        assert code == EXIT_DATA
        assert "nope.csv" in err

    def test_strict_mode_runs(self, capsys, synth_files):
        data, schema = synth_files
        code, out, _ = run(capsys, "evaluate", "--data", str(data), "--schema", str(schema),
                           "--method", "maxrel", "--k", "2", "--folds", "4", "--strict")
        assert code == EXIT_OK
        assert "test_error" in out


class TestReproduceCommand:
    def test_both_tables_with_deltas(self, capsys, tmp_path):
        data_dir = write_uci_like_files(tmp_path / "d", n_german=260, n_australian=220)
        out_dir = tmp_path / "rep"
        code, out, _ = run(capsys, "reproduce", "--data-dir", str(data_dir),
                           "--out", str(out_dir), "--folds", "4")
        assert code == EXIT_OK
        for key in ("german", "australian"):
            table = (out_dir / f"table_{key}.txt").read_text()
            assert len([l for l in table.splitlines()[2:] if l.strip()]) == 7  # header + 6 rows
            assert (out_dir / f"delta_{key}.txt").exists()
        results = json.loads((out_dir / "results.json").read_text())
        assert set(results["datasets"]) == {"german", "australian"}
        assert set(results["datasets"]["german"]) == {
            "quadratic", "relieff", "infogain", "cfs", "mrmr", "maxrel"}

    def test_only_one_dataset(self, capsys, tmp_path):
        data_dir = write_uci_like_files(tmp_path / "d", n_german=260, n_australian=220)
        out_dir = tmp_path / "rep"
        code, out, _ = run(capsys, "reproduce", "--data-dir", str(data_dir),
                           "--only", "german", "--out", str(out_dir), "--folds", "4")
        assert code == EXIT_OK
        assert (out_dir / "table_german.txt").exists()
        assert not (out_dir / "table_australian.txt").exists()

    def test_deterministic_across_runs(self, capsys, tmp_path):
        data_dir = write_uci_like_files(tmp_path / "d", n_german=260, n_australian=220)
        blobs = []
        for sub in ("r1", "r2"):
            out_dir = tmp_path / sub
            code, _, _ = run(capsys, "reproduce", "--data-dir", str(data_dir),
                             "--out", str(out_dir), "--folds", "4", "--cv-seed", "99")
            assert code == EXIT_OK
            blobs.append((out_dir / "results.json").read_bytes())
        assert blobs[0] == blobs[1]

    def test_run_record_tells_settings_apart(self, capsys, tmp_path):
        data_dir = write_uci_like_files(tmp_path / "d", n_german=200, n_australian=200)
        runs = {}
        for case, extra in {"default": [], "unstratified": ["--no-stratified"],
                            "drop-row": ["--missing", "drop-row"]}.items():
            out_dir = tmp_path / case
            code, _, err = run(capsys, "reproduce", "--data-dir", str(data_dir), "--only",
                               "german", "--out", str(out_dir), "--folds", "3", *extra)
            assert code == EXIT_OK, err
            runs[case] = json.loads((out_dir / "results.json").read_text())["run"]
        assert runs["default"]["protocol"]["stratified"] is True
        assert runs["unstratified"]["protocol"]["stratified"] is False
        assert runs["default"]["selection"]["policy"]["missing_policy"] == "impute-median"
        assert runs["drop-row"]["selection"]["policy"]["missing_policy"] == "drop-row"
        assert runs["default"] != runs["unstratified"]
        assert runs["default"] != runs["drop-row"]
        assert not {"method", "k"} & set(runs["default"]["selection"])

    @pytest.mark.parametrize("flag, value", [("--method", "mrmr"), ("--k", "3")])
    def test_per_table_selection_flags_rejected(self, capsys, tmp_path, flag, value):
        # every table sets its own method and k, so the flags would be ignored
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", "--data-dir", str(tmp_path), flag, value])
        assert exc.value.code == EXIT_CONFIG
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    def test_config_method_and_k_skipped_as_other_commands_keys(self, capsys, tmp_path):
        data_dir = write_uci_like_files(tmp_path / "d", n_german=200, n_australian=200)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("method = mrmr\nk = 3\n")
        blobs = []
        for sub, extra in (("plain", []), ("cfg", ["--config", str(cfg)])):
            code, _, err = run(capsys, "reproduce", "--data-dir", str(data_dir), "--only",
                               "german", "--folds", "3", "--out", str(tmp_path / sub),
                               *extra)
            assert code == EXIT_OK, err
            blobs.append((tmp_path / sub / "results.json").read_bytes())
        assert blobs[0] == blobs[1]

    def test_missing_data_dir(self, capsys, tmp_path):
        code, _, err = run(capsys, "reproduce", "--data-dir", str(tmp_path / "void"))
        assert code == EXIT_DATA
        assert "fetch" in err


class TestConfigAndErrors:
    def test_corrupted_schema_names_line(self, capsys, tmp_path, synth_files):
        data, _ = synth_files
        bad = tmp_path / "bad.schema"
        bad.write_text("x0 continuous feature\nwhat even is this line\n")
        code, _, err = run(capsys, "select", "--data", str(data), "--schema", str(bad),
                           "--k", "1")
        assert code == EXIT_CONFIG
        assert "line 2" in err

    @pytest.mark.parametrize("command", ["select", "evaluate"])
    @pytest.mark.parametrize("label, message", [
        ("?", "missing label in target column 'label'"),
        ("", "missing label in target column 'label'"),
        ("7", "third distinct label '7' in target column 'label'"),
    ])
    def test_bad_target_label_exits_data_naming_line(self, capsys, synth_files, command,
                                                     label, message):
        data, schema = synth_files
        lines = data.read_text().splitlines()
        labels = [line.rsplit(",", 1)[1] for line in lines]
        row = max(labels.index("0"), labels.index("1")) + 1     # both labels seen before
        lines[row] = lines[row].rsplit(",", 1)[0] + "," + label
        data.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, command, "--data", str(data), "--schema", str(schema),
                             "--method", "maxrel", "--k", "2")
        assert code == EXIT_DATA
        assert f"{data}, line {row + 1}: {message}" in err

    def test_uncertified_qp_exits_numerical(self, capsys, monkeypatch, synth_files):
        def degenerate(Q, f, max_iter):
            raise qp._Degenerate("singular")
        monkeypatch.setattr(qp, "_solve_active_set", degenerate)
        monkeypatch.setattr(qp, "_solve_projected_gradient",
                            lambda Q, f, max_iter: (np.full(f.shape, np.nan), max_iter))
        data, schema = synth_files
        code, out, err = run(capsys, "select", "--data", str(data), "--schema", str(schema),
                             "--method", "quadratic", "--k", "2")
        assert code == EXIT_NUMERICAL
        assert "numerical failure: no solver reached KKT tolerance" in err

    @pytest.mark.parametrize("flag, value, name", [
        ("--relieff-neighbors", "-3", "relieff_neighbors"),
        ("--relieff-neighbors", "0", "relieff_neighbors"),
        ("--relieff-iterations", "0", "relieff_iterations"),
    ])
    def test_invalid_relieff_setting_exits_config(self, capsys, synth_files,
                                                  flag, value, name):
        data, schema = synth_files
        code, out, err = run(capsys, "select", "--data", str(data), "--schema", str(schema),
                             "--method", "relieff", "--k", "2", flag, value)
        assert code == EXIT_CONFIG
        assert name in err and value in err
        assert out == ""

    def test_config_file_supplies_values_flags_win(self, capsys, synth_files, tmp_path):
        data, schema = synth_files
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"data = {data}\nschema = {schema}\nmethod = maxrel\nk = 3\n")
        code, out, _ = run(capsys, "select", "--config", str(cfg))
        assert code == EXIT_OK
        assert len([l for l in out.splitlines() if "\t" in l]) == 4   # k=3 from config

        code, out, _ = run(capsys, "select", "--config", str(cfg), "--k", "1")
        assert code == EXIT_OK
        assert len([l for l in out.splitlines() if "\t" in l]) == 2   # flag wins

    def test_unknown_config_key_rejected_other_commands_keys_skipped(
            self, capsys, synth_files, tmp_path):
        data, schema = synth_files
        cfg = tmp_path / "run.cfg"
        shared = f"data = {data}\nschema = {schema}\nmethod = maxrel\nk = 2\nfolds = 4\n"
        cfg.write_text(shared)                  # folds belongs to evaluate/reproduce
        code, _, err = run(capsys, "select", "--config", str(cfg))
        assert code == EXIT_OK, err

        cfg.write_text(shared + "methd = quadratic\n")
        code, _, err = run(capsys, "select", "--config", str(cfg))
        assert code == EXIT_CONFIG
        assert "'methd'" in err and str(cfg) in err

    def test_config_value_checked_by_flag_choices(self, capsys, tmp_path):
        data_dir = write_uci_like_files(tmp_path / "d", n_german=260, n_australian=220)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("error_convention = bogus\n")
        code, _, err = run(capsys, "reproduce", "--data-dir", str(data_dir),
                           "--only", "german", "--folds", "4", "--config", str(cfg),
                           "--out", str(tmp_path / "rep"))
        assert code == EXIT_CONFIG
        assert "error_convention" in err and "bogus" in err

    def test_non_utf8_config_file_exits_config(self, capsys, synth_files, tmp_path):
        data, schema = synth_files
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"k = 2\nmethod = \xff\n")
        code, _, err = run(capsys, "select", "--data", str(data), "--schema", str(schema),
                           "--config", str(cfg))
        assert code == EXIT_CONFIG
        assert f"cannot read config file {cfg}" in err

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_empty_delimiter_exits_config(self, capsys, synth_files, tmp_path, source):
        data, schema = synth_files
        cfg = tmp_path / "run.cfg"
        cfg.write_text("delimiter =\n")
        setting = ["--delimiter", ""] if source == "flag" else ["--config", str(cfg)]
        code, _, err = run(capsys, "select", "--data", str(data), "--schema", str(schema),
                           "--k", "1", *setting)
        assert code == EXIT_CONFIG
        assert "delimiter must not be empty" in err

    @pytest.mark.parametrize("command", ["select", "evaluate", "inspect", "reproduce"])
    def test_out_naming_a_file_exits_config(self, capsys, tmp_path, command):
        data_dir = write_uci_like_files(tmp_path / "d", n_german=120, n_australian=100)
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        dataset = (["--only", "german"] if command == "reproduce"
                   else ["--name", "german"])
        folds = ["--folds", "2"] if command in ("evaluate", "reproduce") else []
        code, _, err = run(capsys, command, "--data-dir", str(data_dir), *dataset, *folds,
                           "--out", str(taken))
        assert code == EXIT_CONFIG
        assert "cannot write" in err and str(taken) in err
        assert taken.read_text() == "not a directory\n"

    def test_config_parse_error(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just words\n")
        with pytest.raises(Exception):
            read_config_file(cfg)

    def test_bad_alpha_rejected(self, capsys, synth_files):
        data, schema = synth_files
        code, _, err = run(capsys, "select", "--data", str(data), "--schema", str(schema),
                           "--method", "quadratic", "--k", "2", "--alpha", "1.5")
        assert code == EXIT_CONFIG

    def test_no_dataset_given(self, capsys):
        code, _, err = run(capsys, "select", "--k", "1")
        assert code == EXIT_CONFIG
        assert "--name" in err or "paths" in err

    def test_fetch_offline_fails_with_hint(self, capsys, tmp_path):
        code, _, err = run(capsys, "fetch", "--data-dir", str(tmp_path / "dl"),
                           "--only", "german")
        # conftest's guard makes the download fail: the error names the
        # manual-placement path
        assert code == EXIT_DATA
        assert "Place the file at" in err
        assert str(tmp_path / "dl" / "german.data") in err
