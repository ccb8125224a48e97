"""Logistic-regression training, CV evaluation, and report generation."""

import numpy as np
import pytest

from qpfs.errors import ConfigError, DataError
from qpfs.evaluation import (CvProtocol, DesignEncoder, EvaluationReport, evaluate,
                             fold_assignment, format_delta_table, format_report_table,
                             loglik_and_grad, predict_proba, reports_to_json,
                             train_logistic)
from qpfs.ingest import ColumnSpec, Dataset
from qpfs.pipeline import reproduce_tables

from conftest import synthetic_credit_dataset


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
        _, grad = loglik_and_grad(X, y, beta, 1e-6)
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
            _, grad = loglik_and_grad(X, y, beta, ridge=1e-3)
            fd = np.empty_like(grad)
            h = 1e-6
            for i in range(beta.size):
                up = beta.copy(); up[i] += h
                dn = beta.copy(); dn[i] -= h
                fd[i] = (loglik_and_grad(X, y, up, 1e-3)[0]
                         - loglik_and_grad(X, y, dn, 1e-3)[0]) / (2 * h)
            assert np.allclose(fd, grad, rtol=1e-5, atol=1e-7)

    def test_single_label_rejected(self):
        with pytest.raises(DataError):
            train_logistic(np.zeros((4, 1)), np.ones(4))

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(100, 2))
        y = (rng.random(100) < 0.5).astype(float)
        assert np.array_equal(train_logistic(X, y), train_logistic(X, y))


class TestFoldAssignment:
    def test_stratified_balances_classes(self):
        rng = np.random.default_rng(3)
        labels = (rng.random(200) < 0.3).astype(int)
        keys = np.arange(200)
        fold_of = fold_assignment(keys, labels, 10, seed=5)
        for f in range(10):
            members = [k for k in keys if fold_of[k] == f]
            assert any(labels[k] == 0 for k in members)
            assert any(labels[k] == 1 for k in members)

    def test_shuffle_invariant(self):
        rng = np.random.default_rng(4)
        labels = (rng.random(100) < 0.4).astype(int)
        keys = np.arange(100)
        a = fold_assignment(keys, labels, 5, seed=9)
        perm = rng.permutation(100)
        b = fold_assignment(keys[perm], labels[perm], 5, seed=9)
        assert a == b


def constant_feature_dataset(n_bad=300, n_good=700, seed=3):
    rng = np.random.default_rng(seed)
    labels = np.array([1] * n_bad + [0] * n_good)
    rng.shuffle(labels)
    cols = [ColumnSpec("x", "continuous"), ColumnSpec("y", "binary", "target")]
    rows = [(0.0, str(v)) for v in labels]
    return Dataset(cols, rows, name="constant")


class TestEvaluate:
    def test_forced_majority_oracle(self):
        # 300 of 1000 bad; intercept-only model predicts the majority class,
        # so every bad case is missed and no good case is flagged
        report = evaluate(constant_feature_dataset(), [0], CvProtocol(seed=1))
        assert report.test_error == pytest.approx(0.300, abs=1e-12)
        assert report.type1_error == 0.0
        assert report.type2_error == 1.0

    def test_convention_swap_is_exact(self):
        data = synthetic_credit_dataset(seed=6, n=300)
        base = evaluate(data, [0, 3], CvProtocol(n_folds=5, seed=2))
        flipped = evaluate(data, [0, 3],
                           CvProtocol(n_folds=5, seed=2, convention="good-positive"))
        assert flipped.type1_error == base.type2_error
        assert flipped.type2_error == base.type1_error
        assert flipped.test_error == base.test_error

    def test_fold_level_weighted_average_identity(self):
        data = synthetic_credit_dataset(seed=7, n=240)
        from qpfs.ingest import binary_target
        y = binary_target(data)
        protocol = CvProtocol(n_folds=6, seed=11)
        report = evaluate(data, [0, 3, 5], protocol)
        fold_of = fold_assignment(data.row_ids, y, 6, 11)
        for f, (test, t1, t2) in enumerate(report.per_fold):
            members = np.array([fold_of[int(k)] == f for k in data.row_ids])
            n0 = int(((y == 0) & members).sum())
            n1 = int(((y == 1) & members).sum())
            assert test == pytest.approx((t1 * n0 + t2 * n1) / (n0 + n1), abs=1e-12)

    def test_mean_lies_between_fold_extremes(self):
        data = synthetic_credit_dataset(seed=8, n=300)
        report = evaluate(data, [0, 3], CvProtocol(n_folds=5, seed=3))
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
        data = Dataset(cols, rows, name="dup")
        single = evaluate(data, [0], CvProtocol(n_folds=4, seed=5, ridge=1e-6))
        doubled = evaluate(data, [0, 1], CvProtocol(n_folds=4, seed=5, ridge=1e-6))
        assert single.per_fold == doubled.per_fold

    def test_shuffle_invariance_with_stable_keys(self):
        data = synthetic_credit_dataset(seed=10, n=200)
        report = evaluate(data, [0, 3], CvProtocol(n_folds=5, seed=7))
        perm = np.random.default_rng(0).permutation(200)
        shuffled = data.subset(list(perm))
        report2 = evaluate(shuffled, [0, 3], CvProtocol(n_folds=5, seed=7))
        assert report.per_fold == report2.per_fold
        assert report.test_error == report2.test_error

    def test_strict_selector_runs_per_fold(self):
        data = synthetic_credit_dataset(seed=11, n=200)
        calls = []

        def selector(train):
            calls.append(train.n_samples)
            return [0, 3]

        report = evaluate(data, [0, 3], CvProtocol(n_folds=5, seed=1),
                          strict_selector=selector)
        assert len(calls) == 5
        assert all(c < 200 for c in calls)
        assert 0.0 <= report.test_error <= 1.0

    @pytest.mark.parametrize("bad", [{"n_folds": 1}, {"encoding": "binary"},
                                     {"ridge": -1.0}, {"ridge": float("nan")},
                                     {"convention": "bogus"}])
    def test_protocol_rejects_bad_settings(self, bad):
        with pytest.raises(ConfigError):
            CvProtocol(**bad)

    def test_empty_selection_rejected(self):
        with pytest.raises(DataError):
            evaluate(constant_feature_dataset(), [], CvProtocol())


class TestEncoder:
    def make(self):
        cols = [ColumnSpec("x", "continuous"), ColumnSpec("c", "categorical"),
                ColumnSpec("y", "binary", "target")]
        rows = [(1.0, "A", "0"), (2.0, "B", "1"), (3.0, "A", "0"), (None, None, "1")]
        return Dataset(cols, rows)

    def test_one_hot_drop_first_and_unseen_zero(self):
        data = self.make()
        enc = DesignEncoder(data, [0, 1]).fit(data, [0, 1, 2])
        X = enc.transform(data, [0, 1, 2, 3])
        # continuous standardized on train; categorical: reference category A
        assert X.shape == (4, 2)
        assert X[:3, 0] == pytest.approx((np.array([1, 2, 3]) - 2.0) / np.std([1, 2, 3]))
        assert X[0, 1] == 0.0 and X[1, 1] == 1.0
        # missing row: median-imputed continuous, mode-imputed category (A -> 0)
        assert X[3, 0] == pytest.approx(0.0)
        assert X[3, 1] == 0.0

    def test_ordinal_encoding(self):
        data = self.make()
        enc = DesignEncoder(data, [1], encoding="code-as-ordinal").fit(data, [0, 1, 2])
        X = enc.transform(data, [0, 1, 2])
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
        table = format_report_table("alpha", 3, all_reports["alpha"])
        assert table.count("\n") == 9           # header + blank + column row + 6 methods
        assert "Information Gain" in table
        blob = reports_to_json(all_reports)
        assert '"quadratic"' in blob and '"test_error"' in blob

    def test_json_deterministic(self):
        a = reports_to_json(self.run_reports())
        b = reports_to_json(self.run_reports())
        assert a == b

    def test_delta_table(self):
        all_reports = self.run_reports()
        reference = {"quadratic": [0.2, 0.2, 0.2], "maxrel": [0.3, 0.3, 0.3]}
        delta = format_delta_table("alpha", all_reports["alpha"], reference)
        assert "Quadratic" in delta and "MaxRel" in delta
        assert "+" in delta or "-" in delta
