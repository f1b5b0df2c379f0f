"""Property-based tests for the prediction stack."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cascades.types import Cascade
from repro.embedding.model import EmbeddingModel
from repro.prediction.features import EXTENDED_FEATURES, extract_features
from repro.prediction.pointprocess import SelfExcitingSizePredictor
from repro.prediction.regression import RidgeRegression, r2_score
from repro.prediction.svm import LinearSVM, _pegasos_lockstep, fit_many

N = 8
K = 3


@st.composite
def model_strategy(draw):
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    return EmbeddingModel(
        rng.uniform(0, 2, (N, K)), rng.uniform(0, 2, (N, K))
    )


@st.composite
def prefix_strategy(draw):
    size = draw(st.integers(min_value=0, max_value=N))
    nodes = draw(st.permutations(list(range(N))).map(lambda p: p[:size]))
    times = sorted(
        draw(
            st.lists(
                st.floats(min_value=0, max_value=1, allow_nan=False),
                min_size=size,
                max_size=size,
            )
        )
    )
    return Cascade(list(nodes), times)


class TestFeatureProperties:
    @given(model_strategy(), prefix_strategy())
    @settings(max_examples=60)
    def test_features_finite_nonnegative(self, model, prefix):
        f = extract_features(model, prefix, EXTENDED_FEATURES)
        assert np.all(np.isfinite(f))
        assert np.all(f >= 0)  # non-negative embeddings => non-negative stats

    @given(model_strategy(), prefix_strategy())
    @settings(max_examples=60)
    def test_norm_dominates_max(self, model, prefix):
        f = extract_features(model, prefix, ["normA", "maxA"])
        assert f[0] >= f[1] - 1e-12  # ||v||_2 >= max component for v >= 0

    @given(model_strategy(), prefix_strategy())
    @settings(max_examples=60)
    def test_adding_adopter_grows_sums(self, model, prefix):
        if prefix.size >= N or prefix.size == 0:
            return
        missing = next(
            v for v in range(N) if v not in set(prefix.nodes.tolist())
        )
        bigger = Cascade(
            np.concatenate([prefix.nodes, [missing]]),
            np.concatenate([prefix.times, [prefix.times[-1] + 1.0]]),
        )
        f_small = extract_features(model, prefix, ["maxA"])
        f_big = extract_features(model, bigger, ["maxA"])
        assert f_big[0] >= f_small[0] - 1e-12


class TestPointProcessProperties:
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=0.9, allow_nan=False),
            min_size=1,
            max_size=8,
            unique=True,
        )
    )
    @settings(max_examples=60)
    def test_prediction_at_least_observed(self, times):
        times = sorted(times)
        c = Cascade(list(range(len(times))), times)
        pp = SelfExcitingSizePredictor(omega=3.0)
        assert pp.predict_final_size(c, 1.0) >= c.size - 1e-9

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=0.9, allow_nan=False),
            min_size=2,
            max_size=8,
            unique=True,
        )
    )
    @settings(max_examples=60)
    def test_branching_in_unit_range(self, times):
        c = Cascade(list(range(len(times))), sorted(times))
        pp = SelfExcitingSizePredictor(omega=3.0, max_branching=0.95)
        p = pp.branching_factor(c, 1.0)
        assert 0.0 <= p <= 0.95


class TestRegressionProperties:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=30)
    def test_r2_nonincreasing_in_noise(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(80, 2))
        y_clean = X @ np.array([1.0, -2.0]) + 3.0
        scores = []
        for noise in (0.1, 5.0):
            y = y_clean + rng.normal(scale=noise, size=80)
            m = RidgeRegression(lam=1e-4).fit(X, y)
            scores.append(r2_score(y, m.predict(X)))
        assert scores[0] >= scores[1] - 1e-9

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=30)
    def test_svm_predicts_valid_labels(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(30, 3))
        y = rng.choice([-1.0, 1.0], size=30)
        if np.unique(y).size < 2:
            return
        svm = LinearSVM(n_epochs=3, seed=0).fit(X, y)
        pred = svm.predict(X)
        assert set(np.unique(pred)) <= {-1, 1}


@st.composite
def lockstep_fits(draw):
    """1–5 independent fits of one width but unequal rows, epochs and
    class weights — the shape of a cross-validated threshold sweep."""
    d = draw(st.integers(min_value=1, max_value=4))
    fit_intercept = draw(st.booleans())
    lam = draw(st.sampled_from([1e-3, 1e-2, 0.5]))
    fits = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        n = draw(st.integers(min_value=1, max_value=25))
        rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
        X = rng.normal(scale=draw(st.sampled_from([0.1, 1.0, 30.0])), size=(n, d))
        X[rng.random((n, d)) < 0.1] = 0.0  # exact zeros: signed-zero steps
        y = rng.choice([-1.0, 1.0], size=n)
        weight = draw(st.one_of(
            st.none(),
            st.just("balanced"),
            st.fixed_dictionaries({-1: st.floats(0.0, 5.0), 1: st.floats(0.0, 5.0)}),
        ))
        svm = LinearSVM(lam=lam, n_epochs=draw(st.integers(1, 4)), class_weight=weight,
                        fit_intercept=fit_intercept, seed=draw(st.integers(0, 2**31 - 1)))
        fits.append((svm, X, y))
    return fits


def _twin(svm):
    return LinearSVM(lam=svm.lam, n_epochs=svm.n_epochs, class_weight=svm.class_weight,
                     fit_intercept=svm.fit_intercept, seed=svm.seed)


class TestLockstepProperties:
    @given(lockstep_fits())
    @settings(max_examples=80, deadline=None)
    def test_lockstep_rows_equal_single_fits(self, fits):
        models = [svm for svm, _, _ in fits]
        Xs = [X for _, X, _ in fits]
        ys = [y for _, _, y in fits]
        # the seed is an int, so each twin re-draws the very same order
        orders = [svm.epoch_order(y.size) for svm, _, y in fits]
        fit_many(models, Xs, ys, orders)
        problems = [svm._problem(X, y) for svm, X, y in fits]
        batch = _pegasos_lockstep(problems, orders, models[0].lam)  # F = 1 too
        for f, (svm, X, y) in enumerate(fits):
            alone = _twin(svm).fit(X, y)
            assert np.array_equal(svm.w, alone.w) and svm.b == alone.b
            row = np.append(alone.w, alone.b) if svm.fit_intercept else alone.w
            assert np.array_equal(batch[f], row)
