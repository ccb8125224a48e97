"""Logistic-regression training, CV evaluation, and report generation."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from qpfs import evaluation
from qpfs.errors import ConfigError, DataError
from qpfs.cli import delta_table, report_table, results_payload, to_json
from qpfs.evaluation import (ENCODINGS, CvProtocol, DesignEncoder, EvaluationReport,
                             evaluate, fold_assignment, predict_proba, train_logistic)
from qpfs.ingest import ColumnSpec, DiscretizationPolicy, binary_target
from qpfs.pipeline import METHODS, SelectionConfig, reproduce_tables, select_features

from conftest import dataset_from_rows, synthetic_credit_dataset
from oracles import oracle_loglik_and_grad, oracle_sigmoid, oracle_train_logistic


class TestTrainLogistic:
    def test_separable_single_feature(self):
        X = np.array([[0.0], [0.0], [1.0], [1.0], [0.0], [1.0]])
        y = np.array([0, 0, 1, 1, 0, 1], float)
        beta = train_logistic(X, y, ridge=1e-4)
        p = predict_proba(X, beta)
        assert np.all((p > 0.5) == (y == 1))
        assert np.all(np.isfinite(beta))

    def test_all_zero_features_gives_label_mean(self):
        X = np.zeros((10, 2))
        y = np.array([1, 0, 0, 1, 0, 0, 0, 1, 0, 0], float)
        beta = train_logistic(X, y, ridge=1e-4)
        p = predict_proba(X, beta)
        assert p[0] == pytest.approx(y.mean(), abs=1e-10)
        assert beta[1] == 0.0 and beta[2] == 0.0

    def test_gradient_norm_at_solution(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 3))
        y = (rng.random(200) < 0.4).astype(float)
        beta = train_logistic(X, y, ridge=1e-6)
        _, grad = oracle_loglik_and_grad(X, y, beta, 1e-6)
        assert np.linalg.norm(grad) <= 1e-8

    def test_monte_carlo_consistency(self):
        # known Bernoulli generative model; estimates within 3 standard errors
        rng = np.random.default_rng(11)
        n = 10_000
        X = rng.normal(size=(n, 2))
        true = np.array([0.3, -0.8, 0.5])
        eta = true[0] + X @ true[1:]
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
        beta = train_logistic(X, y, ridge=1e-6)
        Xd = np.column_stack([np.ones(n), X])
        p = predict_proba(X, beta)
        fisher = Xd.T @ ((p * (1 - p))[:, None] * Xd)
        se = np.sqrt(np.diag(np.linalg.inv(fisher)))
        assert np.all(np.abs(beta - true) <= 3 * se)

    def test_finite_difference_gradient(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(60, 3))
        y = (rng.random(60) < 0.5).astype(float)
        for _ in range(20):
            beta = rng.normal(scale=0.8, size=4)
            _, grad = oracle_loglik_and_grad(X, y, beta, ridge=1e-3)
            fd = np.empty_like(grad)
            h = 1e-6
            for i in range(beta.size):
                up = beta.copy(); up[i] += h
                dn = beta.copy(); dn[i] -= h
                fd[i] = (oracle_loglik_and_grad(X, y, up, 1e-3)[0]
                         - oracle_loglik_and_grad(X, y, dn, 1e-3)[0]) / (2 * h)
            assert np.allclose(fd, grad, rtol=1e-5, atol=1e-7)

    def test_single_label_rejected(self):
        with pytest.raises(DataError):
            train_logistic(np.zeros((4, 1)), np.ones(4))

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(100, 2))
        y = (rng.random(100) < 0.5).astype(float)
        assert np.array_equal(train_logistic(X, y), train_logistic(X, y))


def test_sigmoid_matches_the_two_exp_oracle_bit_for_bit():
    rng = np.random.default_rng(9)
    for _ in range(2000):
        n = int(rng.integers(1, 1200))
        eta = rng.normal(size=n) * 10.0 ** rng.uniform(-1.0, np.log10(800.0))
        zeros = rng.random(n) < 0.1
        eta[zeros] = np.where(rng.random(int(zeros.sum())) < 0.5, 0.0, -0.0)
        assert evaluation._sigmoid(eta).tobytes() == oracle_sigmoid(eta).tobytes()


class TestIrlsOracle:
    """``train_logistic`` reuses the accepted iterate's probabilities; the
    coefficients must equal those of the fit that recomputes them."""

    @staticmethod
    def design(seed, n):
        rng = np.random.default_rng(seed)
        y = (rng.random(n) < 0.4).astype(float)
        return rng, y

    def check(self, X, y, ridge, expect_path=None):
        paths = set()
        want = oracle_train_logistic(X, y, ridge, paths)
        assert np.array_equal(train_logistic(X, y, ridge=ridge), want)
        if expect_path is not None:
            assert expect_path in paths

    @pytest.mark.parametrize("seed", range(3))
    def test_ridge_zero(self, seed):
        rng, y = self.design(seed, 200)
        X = rng.normal(size=(200, 3)) + 0.5 * y[:, None]
        self.check(X, y, 0.0)

    @pytest.mark.parametrize("seed", range(3))
    def test_rank_deficient_design_takes_lstsq(self, seed):
        rng, y = self.design(seed, 200)
        x = rng.normal(size=(200, 2)) + y[:, None]
        self.check(np.column_stack([x, x[:, 0]]), y, 0.0, expect_path="lstsq")

    def test_near_separable_takes_terminal_phase(self):
        rng, y = self.design(0, 1000)
        X = np.column_stack([np.where(y == 1, 2.0, -2.0) + rng.normal(size=1000),
                             rng.normal(size=(1000, 3))])
        self.check(X, y, 1e-6, expect_path="terminal")


def oracle_fold_assignment(row_ids, labels, n_folds, seed, stratified=True):
    """The dict-returning ``fold_assignment``: stable row key -> fold."""
    keys = np.asarray(row_ids)
    fold_of = {}
    rng = np.random.default_rng(seed)
    groups = [np.unique(keys)] if not stratified else [
        np.sort(keys[labels == cls]) for cls in (0, 1)
    ]
    for group in groups:
        dealt = group[rng.permutation(group.size)]
        fold_of.update(zip(dealt.tolist(), (np.arange(group.size) % n_folds).tolist()))
    return fold_of


class TestFoldAssignment:
    def test_stratified_balances_classes(self):
        rng = np.random.default_rng(3)
        labels = (rng.random(200) < 0.3).astype(int)
        keys = np.arange(200)
        folds = fold_assignment(keys, labels, 10, seed=5)
        assert folds.dtype == np.int64 and folds.shape == keys.shape
        for f in range(10):
            members = labels[folds == f]
            assert (members == 0).any() and (members == 1).any()

    def test_shuffle_invariant(self):
        rng = np.random.default_rng(4)
        labels = (rng.random(100) < 0.4).astype(int)
        keys = np.arange(100)
        a = fold_assignment(keys, labels, 5, seed=9)
        perm = rng.permutation(100)
        b = fold_assignment(keys[perm], labels[perm], 5, seed=9)
        assert np.array_equal(a[perm], b)

    @pytest.mark.parametrize("stratified", [True, False])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dict_oracle_through_keys(self, seed, stratified):
        rng = np.random.default_rng(40 + seed)
        n = int(rng.integers(20, 300))
        keys = rng.choice(10 * n, size=n, replace=False)     # distinct, shuffled, gappy
        labels = (rng.random(n) < rng.uniform(0.2, 0.6)).astype(int)
        n_folds = int(rng.integers(2, 11))
        folds = fold_assignment(keys, labels, n_folds, seed, stratified)
        fold_of = oracle_fold_assignment(keys, labels, n_folds, seed, stratified)
        assert np.array_equal(folds, [fold_of[k] for k in keys.tolist()])

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be non-negative, got -1"):
            fold_assignment(np.arange(10), np.arange(10) % 2, 2, -1)


def constant_feature_dataset(n_bad=300, n_good=700, seed=3):
    rng = np.random.default_rng(seed)
    labels = np.array([1] * n_bad + [0] * n_good)
    rng.shuffle(labels)
    cols = [ColumnSpec("x", "continuous"), ColumnSpec("y", "binary", "target")]
    rows = [(0.0, str(v)) for v in labels]
    return dataset_from_rows(cols, rows, name="constant")


class TestEvaluate:
    def test_forced_majority_oracle(self):
        # 300 of 1000 bad; intercept-only model predicts the majority class,
        # so every bad case is missed and no good case is flagged
        report = evaluate(constant_feature_dataset(), {"x": [0]}, CvProtocol(seed=1))["x"]
        assert report.test_error == pytest.approx(0.300, abs=1e-12)
        assert report.type1_error == 0.0
        assert report.type2_error == 1.0

    def test_convention_swap_is_exact(self):
        data = synthetic_credit_dataset(seed=6, n=300)
        base = evaluate(data, {"x0,c0": [0, 3]}, CvProtocol(n_folds=5, seed=2))["x0,c0"]
        flipped = evaluate(data, {"x0,c0": [0, 3]},
                           CvProtocol(n_folds=5, seed=2, convention="good-positive"))["x0,c0"]
        assert flipped.type1_error == base.type2_error
        assert flipped.type2_error == base.type1_error
        assert flipped.test_error == base.test_error

    def test_fold_level_weighted_average_identity(self):
        data = synthetic_credit_dataset(seed=7, n=240)
        from qpfs.ingest import binary_target
        y = binary_target(data)
        protocol = CvProtocol(n_folds=6, seed=11)
        report = evaluate(data, {"x0,c0,b0": [0, 3, 5]}, protocol)["x0,c0,b0"]
        folds = fold_assignment(data.row_ids, y, 6, 11)
        for f, (test, t1, t2) in enumerate(report.per_fold):
            members = folds == f
            n0 = int(((y == 0) & members).sum())
            n1 = int(((y == 1) & members).sum())
            assert test == pytest.approx((t1 * n0 + t2 * n1) / (n0 + n1), abs=1e-12)

    def test_mean_lies_between_fold_extremes(self):
        data = synthetic_credit_dataset(seed=8, n=300)
        report = evaluate(data, {"x0,c0": [0, 3]}, CvProtocol(n_folds=5, seed=3))["x0,c0"]
        tests = [t for t, _, _ in report.per_fold]
        assert min(tests) <= report.test_error <= max(tests)
        for value in (report.test_error, report.type1_error, report.type2_error):
            assert 0.0 <= value <= 1.0

    def test_duplicate_feature_leaves_labels_unchanged(self):
        # exact copy of a selected feature: ridge splits the coefficient but
        # decisions at the 0.5 threshold stay identical for tiny ridge
        rng = np.random.default_rng(9)
        n = 120
        y = (rng.random(n) < 0.4).astype(int)
        x = 1.1 * y + rng.normal(0, 1, n)
        cols = [ColumnSpec("x", "continuous"), ColumnSpec("x_copy", "continuous"),
                ColumnSpec("y", "binary", "target")]
        rows = [(float(x[i]), float(x[i]), str(y[i])) for i in range(n)]
        data = dataset_from_rows(cols, rows, name="dup")
        reports = evaluate(data, {"single": [0], "doubled": [0, 1]},
                           CvProtocol(n_folds=4, seed=5, ridge=1e-6))
        single, doubled = reports["single"], reports["doubled"]
        assert single.per_fold == doubled.per_fold

    def test_shuffle_invariance_with_stable_keys(self):
        data = synthetic_credit_dataset(seed=10, n=200)
        report = evaluate(data, {"x0,c0": [0, 3]}, CvProtocol(n_folds=5, seed=7))["x0,c0"]
        perm = np.random.default_rng(0).permutation(200)
        shuffled = data.subset(list(perm))
        report2 = evaluate(shuffled, {"x0,c0": [0, 3]}, CvProtocol(n_folds=5, seed=7))["x0,c0"]
        assert report.per_fold == report2.per_fold
        assert report.test_error == report2.test_error

    def test_strict_selector_runs_per_fold(self):
        data = synthetic_credit_dataset(seed=11, n=200)
        calls = []

        def reselect(train):
            calls.append(train.n_samples)
            return {"x0,c0": [0, 3]}

        report = evaluate(data, {"x0,c0": [0, 3]}, CvProtocol(n_folds=5, seed=1, strict=True),
                          reselect)["x0,c0"]
        assert len(calls) == 5
        assert all(c < 200 for c in calls)
        assert 0.0 <= report.test_error <= 1.0

    def test_reselect_runs_only_under_a_strict_protocol(self):
        data = synthetic_credit_dataset(seed=11, n=200)
        calls = []

        def reselect(train):
            calls.append(train.n_samples)
            return {"x0,c0": [1]}

        protocol = CvProtocol(n_folds=5, seed=1)
        got = evaluate(data, {"x0,c0": [0, 3]}, protocol, reselect)
        assert calls == []
        assert got == evaluate(data, {"x0,c0": [0, 3]}, protocol)

    @pytest.mark.parametrize("returned, named", [
        ({"b": [0]}, r"missing \['a'\], extra \['b'\]"),
        ({}, r"missing \['a'\], extra \[\]")], ids=["renamed", "empty"])
    def test_reselect_returning_other_methods_rejected(self, returned, named):
        data = synthetic_credit_dataset(seed=11, n=200)
        with pytest.raises(ConfigError, match=f"fold 0: reselect returned .*{named}"):
            evaluate(data, {"a": [0, 1]}, CvProtocol(n_folds=5, strict=True),
                     lambda train: returned)

    @pytest.mark.parametrize("selected, message", [
        ([], "empty feature selection for method 'a'"),
        ([0, 99], "method 'a' selects feature 99, outside 0..5"),
        ([-1, 2], "method 'a' selects feature -1, outside 0..5"),
        ([0, 3, 0], "method 'a' selects feature 0 twice"),
    ], ids=["empty", "too-large", "negative", "repeated"])
    def test_bad_selection_named_with_its_method(self, selected, message):
        data = synthetic_credit_dataset(seed=11, n=200)
        assert data.n_features == 6
        with pytest.raises(DataError, match=f"^{message}$"):
            evaluate(data, {"b": [1], "a": selected}, CvProtocol(n_folds=5))
        fold_message = message.replace("'a'", "'a' in fold 0")
        with pytest.raises(DataError, match=f"^{fold_message}$"):
            evaluate(data, {"b": [1], "a": [0, 1]}, CvProtocol(n_folds=5, strict=True),
                     lambda train: {"b": [1], "a": selected})

    def test_strict_protocol_without_reselect_rejected(self):
        data = synthetic_credit_dataset(seed=11, n=200)
        with pytest.raises(ConfigError, match="reselect"):
            evaluate(data, {"x0,c0": [0, 3]}, CvProtocol(n_folds=5, strict=True))

    @pytest.mark.parametrize("bad", [{"n_folds": 1}, {"encoding": "binary"},
                                     {"ridge": -1.0}, {"ridge": float("nan")},
                                     {"convention": "bogus"}])
    def test_protocol_rejects_bad_settings(self, bad):
        with pytest.raises(ConfigError):
            CvProtocol(**bad)

    def test_empty_selection_rejected(self):
        with pytest.raises(DataError):
            evaluate(constant_feature_dataset(), {"none": []}, CvProtocol())

    def test_empty_selection_names_its_method(self):
        data = synthetic_credit_dataset(seed=11, n=120)
        with pytest.raises(DataError, match="empty feature selection for method 'mrmr'"):
            evaluate(data, {"quadratic": [0, 3], "mrmr": [], "cfs": [1]}, CvProtocol())


class TestEncoder:
    def make(self):
        cols = [ColumnSpec("x", "continuous"), ColumnSpec("c", "categorical"),
                ColumnSpec("y", "binary", "target")]
        rows = [(1.0, "A", "0"), (2.0, "B", "1"), (3.0, "A", "0"), (None, None, "1")]
        return dataset_from_rows(cols, rows)

    def test_one_hot_drop_first_and_unseen_zero(self):
        data = self.make()
        enc = DesignEncoder(data, [0, 1]).fit([0, 1, 2])
        X = enc.transform([0, 1, 2, 3])
        # continuous standardized on train; categorical: reference category A
        assert X.shape == (4, 2)
        assert X[:3, 0] == pytest.approx((np.array([1, 2, 3]) - 2.0) / np.std([1, 2, 3]))
        assert X[0, 1] == 0.0 and X[1, 1] == 1.0
        # missing row: median-imputed continuous, mode-imputed category (A -> 0)
        assert X[3, 0] == pytest.approx(0.0)
        assert X[3, 1] == 0.0

    def test_fit_imports_no_numpy_ma(self):
        # np.median imports numpy.ma on its first call; the median of a
        # continuous column with missing cells does not need it
        src = str(Path(evaluation.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        code = ("import sys, numpy as np\n"
                "from qpfs.evaluation import DesignEncoder\n"
                "from qpfs.ingest import ColumnSpec, Dataset\n"
                "columns = [ColumnSpec('x', 'continuous'),"
                " ColumnSpec('y', 'binary', 'target')]\n"
                "arrays = [np.array([1.0, np.nan, 3.0, 2.0]), np.array([0, 1, 0, 1])]\n"
                "data = Dataset(columns, arrays, [(), ('0', '1')])\n"
                "DesignEncoder(data, [0]).fit(np.arange(4))\n"
                "print('numpy.ma' in sys.modules)\n")
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                text=True, check=True)
        assert result.stdout.strip() == "False"

    def test_ordinal_encoding(self):
        data = self.make()
        enc = DesignEncoder(data, [1], encoding="code-as-ordinal").fit([0, 1, 2])
        X = enc.transform([0, 1, 2])
        assert X.shape == (3, 1)
        assert X[0, 0] == X[2, 0]          # both category A


class TestReports:
    def run_reports(self):
        data_a = synthetic_credit_dataset(seed=12, n=200, name="alpha")
        data_b = synthetic_credit_dataset(seed=13, n=180, name="beta")
        return reproduce_tables({"alpha": (data_a, 3), "beta": (data_b, 2)},
                                protocol=CvProtocol(n_folds=4, seed=21))

    def test_reproduce_tables_shape(self):
        all_reports = self.run_reports()
        assert set(all_reports) == {"alpha", "beta"}
        for reports in all_reports.values():
            assert set(reports) == {"quadratic", "mrmr", "maxrel", "infogain",
                                    "relieff", "cfs"}
            for rep in reports.values():
                assert isinstance(rep, EvaluationReport)
                assert 0.0 <= rep.test_error <= 1.0

    def test_table_and_json_formatting(self):
        all_reports = self.run_reports()
        table = report_table("alpha", 3, all_reports["alpha"])
        assert table.count("\n") == 9           # header + blank + column row + 6 methods
        assert "Information Gain" in table
        blob = to_json(results_payload(all_reports, {}))
        assert '"quadratic"' in blob and '"test_error"' in blob

    def test_json_deterministic(self):
        a = to_json(results_payload(self.run_reports(), {}))
        b = to_json(results_payload(self.run_reports(), {}))
        assert a == b

    def test_delta_table(self):
        all_reports = self.run_reports()
        reference = {"quadratic": [0.2, 0.2, 0.2], "maxrel": [0.3, 0.3, 0.3]}
        delta = delta_table("alpha", all_reports["alpha"], reference)
        assert "Quadratic" in delta and "MaxRel" in delta
        assert "+" in delta or "-" in delta


# ---------------------------------------------------------------------------
# Method-major evaluation, as it stood before the methods shared each fold's
# encoding: the oracle for the fold-major `evaluate` and `reproduce_tables`
# ---------------------------------------------------------------------------

def oracle_evaluate(data, selected, protocol, method="", strict_selector=None):
    """One method's cross-validation with its own encoder in every fold."""
    order = np.argsort(data.row_ids, kind="stable")
    data = data.subset(order)
    y = binary_target(data)
    folds = fold_assignment(data.row_ids, y, protocol.n_folds, protocol.seed,
                            protocol.stratified)
    per_fold = []
    for f in range(protocol.n_folds):
        train_pos = np.flatnonzero(folds != f)
        test_pos = np.flatnonzero(folds == f)
        fold_selected = selected
        if strict_selector is not None:
            fold_selected = strict_selector(data.subset(train_pos))
        encoder = DesignEncoder(data, list(fold_selected), protocol.encoding).fit(train_pos)
        X_train = encoder.transform(train_pos)
        X_test = encoder.transform(test_pos)
        # looked up on the module so a test can count these fits too
        beta = evaluation.train_logistic(X_train, y[train_pos], ridge=protocol.ridge)
        pred = (predict_proba(X_test, beta) > 0.5).astype(int)
        per_fold.append(evaluation._confusion_rates(y[test_pos], pred, protocol.convention))
    triples = np.array(per_fold)
    return EvaluationReport(
        method=method, dataset=data.name, k=len(selected),
        test_error=float(triples[:, 0].mean()), type1_error=float(triples[:, 1].mean()),
        type2_error=float(triples[:, 2].mean()), per_fold=per_fold)


def oracle_reproduce_tables(datasets, base_config, protocol):
    """Every method of every dataset, one full cross-validation after another."""
    tables = {}
    for name, (data, k) in datasets.items():
        tables[name] = {}
        for method in METHODS:
            config = replace(base_config, method=method, k=k)
            selected = select_features(data, config).result.selected
            strict_selector = None
            if protocol.strict:
                def strict_selector(train, config=config):
                    return select_features(train, config).result.selected
            tables[name][method] = oracle_evaluate(data, selected, protocol, method,
                                                   strict_selector)
    return tables


def with_missing_cells(data, rng, rate=0.06):
    """The same table with a share of its feature cells blanked out."""
    target = data.columns.index(data.target_column)
    rows = [tuple(None if j != target and rng.random() < rate else cell
                  for j, cell in enumerate(row)) for row in data.rows]
    return dataset_from_rows(data.columns, rows, name=data.name)


class TestFoldMajorOracle:
    @pytest.fixture()
    def betas(self, monkeypatch):
        """Every train_logistic result, in call order."""
        fits = []

        def recording(*args, **kwargs):
            fits.append(train_logistic(*args, **kwargs))
            return fits[-1]
        monkeypatch.setattr(evaluation, "train_logistic", recording)
        return fits

    @pytest.mark.parametrize("missing", ["impute-median", "drop-row"])
    @pytest.mark.parametrize("encoding", ENCODINGS)
    @pytest.mark.parametrize("strict", [False, True])
    def test_reports_and_fits_equal_method_major_oracle(self, betas, strict, encoding,
                                                        missing):
        rng = np.random.default_rng(31)
        datasets = {"alpha": (with_missing_cells(
                        synthetic_credit_dataset(seed=14, n=150, name="alpha"), rng), 3),
                    "beta": (with_missing_cells(
                        synthetic_credit_dataset(seed=15, n=130, name="beta"), rng), 2)}
        config = SelectionConfig(policy=DiscretizationPolicy(missing_policy=missing))
        protocol = CvProtocol(n_folds=3, seed=8, encoding=encoding, strict=strict)

        got = reproduce_tables(datasets, config, protocol)
        fold_major = list(betas)
        want = oracle_reproduce_tables(datasets, config, protocol)
        method_major = betas[len(fold_major):]

        assert got == want
        n_d, n_m, n_f = len(datasets), len(METHODS), protocol.n_folds
        assert len(fold_major) == len(method_major) == n_d * n_m * n_f
        for d in range(n_d):
            for m in range(n_m):
                for f in range(n_f):
                    assert np.array_equal(fold_major[(d * n_f + f) * n_m + m],
                                          method_major[(d * n_m + m) * n_f + f])

    @pytest.mark.parametrize("encoding", ENCODINGS)
    def test_single_training_category_is_a_zero_width_block(self, betas, encoding):
        # "rare" is "B" in one row only: the fold that tests that row trains on
        # "A" alone, so its one-hot block there has no columns.
        data = synthetic_credit_dataset(seed=16, n=120)
        columns = data.columns[:-1] + [ColumnSpec("rare", "categorical"), data.columns[-1]]
        rows = [row[:-1] + ("B" if i == 17 else "A", row[-1])
                for i, row in enumerate(data.rows)]
        data = dataset_from_rows(columns, rows, name="rare")
        rare = data.n_features - 1
        protocol = CvProtocol(n_folds=4, seed=3, encoding=encoding)
        folds = fold_assignment(data.row_ids, binary_target(data), 4, 3)
        train = np.flatnonzero(folds != folds[17])
        width = DesignEncoder(data, [rare], encoding).fit(train).columns([rare]).size
        assert width == (0 if encoding == "one-hot" else 1)

        selections = {"alone": [rare], "first": [rare, 0, 3], "last": [5, 1, rare],
                      "without": [2, 4]}
        got = evaluate(data, selections, protocol)
        assert len(betas) == len(selections) * protocol.n_folds
        for method, selected in selections.items():
            assert got[method] == oracle_evaluate(data, selected, protocol, method)
