"""Spot checks on the real German credit data (skip when not fetched).

The published-number tolerances live in the acceptance suite; these cover
the remaining dataset-specific behaviors: estimator spot checks against
the independent oracle and cross-module identities on real inputs.
"""

import numpy as np
import pytest

from qpfs.baselines import information_gain, max_rel
from qpfs.infotheory import build_redundancy_matrix, build_relevance_vector
from qpfs.ingest import DiscretizationPolicy, discretize
from qpfs.pipeline import SelectionConfig, select_features

from oracles import brute_force_mi_bits, contingency, entropy


@pytest.fixture(scope="module")
def german_discretized(german_dataset):
    return discretize(german_dataset, DiscretizationPolicy())


class TestGermanInformation:
    def test_redundancy_matrix_spot_entries(self, german_discretized):
        dd = german_discretized
        Q = build_redundancy_matrix(dd)
        assert Q.shape == (20, 20)
        assert np.array_equal(Q, Q.T)
        rng = np.random.default_rng(0)
        for _ in range(3):
            i, j = rng.choice(20, size=2, replace=False)
            table = contingency(dd.feature_codes[:, i], dd.feature_codes[:, j])
            assert Q[i, j] == pytest.approx(
                brute_force_mi_bits(table), abs=1e-12)
        for i in range(20):
            assert Q[i, i] == pytest.approx(
                entropy(dd.feature_codes[:, i]), abs=0)

    def test_relevance_matches_information_gain_top_feature(self, german_discretized):
        dd = german_discretized
        F = build_relevance_vector(dd)
        ig = information_gain(F, 20)
        assert np.array_equal(F, ig.scores)
        assert int(np.argmax(F)) == ig.selected[0]

    def test_quadratic_selects_seven(self, german_dataset):
        out = select_features(german_dataset, SelectionConfig(method="quadratic", k=7))
        assert len(out.result.selected) == 7
        assert len(set(out.result.selected)) == 7

    def test_maxrel_equals_infogain_selection(self, german_discretized):
        dd = german_discretized
        F = build_relevance_vector(dd)
        assert max_rel(F, 7).selected == information_gain(F, 7).selected
