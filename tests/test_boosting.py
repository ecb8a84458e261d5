import math

import numpy as np
import pytest

from blindboost import boosting
from blindboost.boosting import (
    BoostedModel,
    LinearClassifier,
    alpha,
    apply_and_indicate,
    boost_ds,
    boost_lmc,
    boost_rlc,
    evaluate_candidate,
    fit_lmc,
    gen_rlc,
    model_from_json,
    model_to_json,
    stratified_folds,
    update_weights,
    weighted_error,
)
from blindboost.encoding import FixedPointParams, fold_labels, Dataset
from blindboost.errors import (
    DegenerateError,
    DimensionMismatch,
    FoldTooSmall,
    InvalidBaseClassifier,
    PoolExhaustedWarning,
)


def separable_blobs(n=120, k=2, seed=0, gap=4.0):
    rng = np.random.default_rng(seed)
    half = n // 2
    Xp = rng.normal(gap / 2, 1.0, size=(half, k))
    Xn = rng.normal(-gap / 2, 1.0, size=(n - half, k))
    X = np.vstack([Xp, Xn])
    y = np.concatenate([np.ones(half, dtype=np.int8),
                        -np.ones(n - half, dtype=np.int8)])
    perm = rng.permutation(n)
    return X[perm], y[perm]


# ---------------------------------------------------------------------------
# base pieces


def test_gen_rlc_ranges():
    rng = np.random.default_rng(0)
    w = gen_rlc(2, rng)
    assert w.shape == (3,)
    assert np.all(np.abs(w[:2]) <= 1.0)
    assert abs(w[2]) <= 2.0


def test_gen_rlc_distribution_monte_carlo():
    rng = np.random.default_rng(1)
    draws = np.array([gen_rlc(3, rng) for _ in range(10_000)])
    assert np.all(np.abs(draws.mean(axis=0)) < 0.05)
    assert draws[:, 3].min() < -2 + 0.01 * 4
    assert draws[:, 3].max() > 2 - 0.01 * 4
    assert np.all(draws[:, :3] >= -1) and np.all(draws[:, :3] <= 1)


def test_gen_rlc_deterministic():
    a = gen_rlc(4, np.random.default_rng(7))
    b = gen_rlc(4, np.random.default_rng(7))
    assert np.array_equal(a, b)


def test_apply_and_indicate():
    Z = np.array([[1.0, 1.0, 1.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    w = np.array([1.0, 0.0, 0.0])
    ind = apply_and_indicate(Z, w)
    assert ind.tolist() == [1, 0, 0]  # zero dot product counts as wrong


def test_apply_and_indicate_dim_mismatch():
    with pytest.raises(DimensionMismatch):
        apply_and_indicate(np.ones((2, 3)), np.ones(2))


def test_weighted_error_cases():
    delta = np.full(4, 0.25)
    assert weighted_error(np.array([1, 1, 1, 1]), delta) == 0.0
    assert weighted_error(np.array([1, 0, 1, 0]), delta) == 0.5
    rng = np.random.default_rng(3)
    ind = rng.integers(0, 2, size=50).astype(np.uint8)
    d = rng.dirichlet(np.ones(50))
    brute = sum(d[i] for i in range(50) if ind[i] == 0)
    assert math.isclose(weighted_error(ind, d), brute, rel_tol=1e-12)


def test_alpha_closed_forms():
    assert math.isclose(alpha(0.25), 0.5 * math.log(3), rel_tol=1e-12)
    assert math.isclose(alpha(0.1), 0.5 * math.log(9), rel_tol=1e-12)
    with pytest.raises(InvalidBaseClassifier):
        alpha(0.5)
    with pytest.raises(DegenerateError):
        alpha(1e-12)


def test_update_weights_hand_computed():
    delta = np.array([0.5, 0.5])
    ind = np.array([1, 0])
    new = update_weights(delta, ind, 0.5 * math.log(3))
    assert np.allclose(new, [0.25, 0.75], atol=1e-12)
    assert math.isclose(new.sum(), 1.0, rel_tol=1e-12)


def test_update_weights_all_correct_is_identity():
    delta = np.array([0.2, 0.3, 0.5])
    new = update_weights(delta, np.ones(3, dtype=np.uint8), 1.0)
    assert np.allclose(new, delta)


def test_adaboost_fixed_point_invariant():
    # after the update, the accepted classifier's weighted error is 0.5
    rng = np.random.default_rng(4)
    for _ in range(50):
        delta = rng.dirichlet(np.ones(30))
        ind = rng.integers(0, 2, size=30).astype(np.uint8)
        step = evaluate_candidate(delta, ind)
        if step.decision == "reject":
            continue
        assert abs(weighted_error(step.indicators, step.delta) - 0.5) < 1e-9


def test_evaluate_candidate_flip_path():
    delta = np.full(4, 0.25)
    bad = np.array([0, 0, 0, 1], dtype=np.uint8)  # error 0.75
    step = evaluate_candidate(delta, bad)
    assert step.decision == "accept_flipped"
    assert math.isclose(step.effective_error, 0.25)
    assert step.indicators.tolist() == [1, 1, 1, 0]


def test_evaluate_candidate_rejects_exact_half():
    delta = np.full(4, 0.25)
    step = evaluate_candidate(delta, np.array([1, 0, 1, 0], dtype=np.uint8))
    assert step.decision == "reject"
    assert np.array_equal(step.delta, delta)


def test_evaluate_candidate_all_correct_clamped():
    delta = np.full(4, 0.25)
    step = evaluate_candidate(delta, np.ones(4, dtype=np.uint8))
    assert step.decision == "accept"
    assert step.alpha == 0.5 * math.log((1 - 1e-10) / 1e-10)


# ---------------------------------------------------------------------------
# trainers


def test_boost_rlc_separable_blobs():
    X, y = separable_blobs(seed=5)
    Z = fold_labels(Dataset(X, y)).Z
    res = boost_rlc(Z, tau=20, p_max=60, rng=np.random.default_rng(5))
    acc = (res.model.predict(X) == y).mean()
    assert acc >= 0.95
    assert res.accepted == 20


def test_boost_rlc_acceptance_ratio_near_one():
    X, y = separable_blobs(n=300, k=4, seed=6, gap=1.0)
    Z = fold_labels(Dataset(X, y)).Z
    res = boost_rlc(Z, tau=100, p_max=200, rng=np.random.default_rng(6))
    assert res.p_used / res.accepted <= 1.05


def test_boost_rlc_determinism():
    X, y = separable_blobs(seed=7)
    Z = fold_labels(Dataset(X, y)).Z
    r1 = boost_rlc(Z, 10, 20, np.random.default_rng(42))
    r2 = boost_rlc(Z, 10, 20, np.random.default_rng(42))
    assert r1.alphas_equal(r2) if hasattr(r1, "alphas_equal") else \
        r1.model.alphas == r2.model.alphas
    for c1, c2 in zip(r1.model.classifiers, r2.model.classifiers):
        assert np.array_equal(c1.w, c2.w)


def test_boost_rlc_training_error_bound():
    # training error of H <= prod_t 2 sqrt(e_t (1 - e_t))
    X, y = separable_blobs(n=200, k=3, seed=8, gap=2.0)
    Z = fold_labels(Dataset(X, y)).Z
    res = boost_rlc(Z, tau=40, p_max=120, rng=np.random.default_rng(8))
    bound = np.prod([2 * math.sqrt(e * (1 - e)) for e in res.errors])
    train_err = (res.model.predict(X) != y).mean()
    assert train_err <= bound + 1e-12


def test_boost_rlc_pool_exhausted_warns():
    # a dataset of identical rows with opposite labels leaves every candidate
    # at e == 0.5 exactly: nothing is accepted
    Z = np.array([[1.0, 1.0], [-1.0, -1.0]] * 4)
    with pytest.warns(PoolExhaustedWarning):
        res = boost_rlc(Z, tau=3, p_max=6, rng=np.random.default_rng(9))
    assert res.accepted == 0


def test_boost_rlc_fixed_point_path_close_to_float():
    X, y = separable_blobs(n=200, k=3, seed=10, gap=2.0)
    Z = fold_labels(Dataset(X, y)).Z
    fp = FixedPointParams.for_dimension(Z.shape[1])
    rf = boost_rlc(Z, 30, 90, np.random.default_rng(10))
    rq = boost_rlc(Z, 30, 90, np.random.default_rng(10), fp=fp)
    acc_f = (rf.model.predict(X) == y).mean()
    acc_q = (rq.model.predict(X) == y).mean()
    assert abs(acc_f - acc_q) <= 0.02


def test_boost_ds_perfect_single_feature():
    X = np.array([[0.1], [0.2], [0.9], [1.4]])
    y = np.array([1, 1, -1, -1], dtype=np.int8)
    model = boost_ds(X, y, tau=1)
    assert len(model.classifiers) == 1
    assert (model.predict(X) == y).all()
    assert model.alphas[0] == 0.5 * math.log((1 - 1e-10) / 1e-10)


def test_boost_ds_separable_blobs():
    X, y = separable_blobs(seed=11)
    model = boost_ds(X, y, tau=10)
    assert (model.predict(X) == y).mean() >= 0.95


def test_boost_ds_matches_bruteforce_stump():
    # first stump equals the argmin over a brute-force threshold sweep
    rng = np.random.default_rng(12)
    X = rng.normal(size=(60, 3))
    y = rng.choice([-1, 1], size=60).astype(np.int8)
    model = boost_ds(X, y, tau=1)
    stump = model.classifiers[0]
    best = 1.0
    delta = np.full(60, 1 / 60)
    for j in range(3):
        for thr in np.unique(X[:, j]).tolist() + [X[:, j].max() + 1]:
            for pol in (1, -1):
                pred = pol * np.where(X[:, j] < thr, 1.0, -1.0)
                err = delta[pred != y].sum()
                best = min(best, err)
    got_err = delta[stump.predict(X) != y].sum()
    assert math.isclose(got_err, best, abs_tol=1e-12)


def test_lmc_centroids_match_direct_mean():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(40, 2))
    y = rng.choice([-1, 1], size=40).astype(np.int8)
    delta = np.full(40, 1 / 40)
    clf = fit_lmc(X, y, delta)
    m_pos = X[y == 1].mean(axis=0)
    m_neg = X[y == -1].mean(axis=0)
    assert np.allclose(clf.w[:-1], m_pos - m_neg)
    assert math.isclose(clf.w[-1], -float((m_pos - m_neg) @ (m_pos + m_neg)) / 2)


def test_lmc_optimal_on_symmetric_gaussians():
    X, y = separable_blobs(n=400, seed=14, gap=3.0)
    single = boost_lmc(X, y, tau=1)
    many = boost_lmc(X, y, tau=10)
    acc1 = (single.predict(X) == y).mean()
    acc10 = (many.predict(X) == y).mean()
    assert acc1 >= 0.9
    assert acc10 <= acc1 + 0.02  # boosting adds essentially nothing


# ---------------------------------------------------------------------------
# prediction / folds / characterization


def test_predict_single_classifier_sign():
    clf = LinearClassifier(w=np.array([1.0, 0.0]))
    model = BoostedModel(kind="rlc", classifiers=[clf], alphas=[1.0])
    X = np.array([[2.0], [-2.0]])
    assert model.predict(X).tolist() == [1, -1]


def test_predict_empty_model_is_negative():
    model = BoostedModel(kind="rlc", classifiers=[], alphas=[])
    assert model.predict(np.zeros((3, 2))).tolist() == [-1, -1, -1]


def test_stratified_folds_cover_everything():
    y = np.array([1] * 30 + [-1] * 20)
    folds = stratified_folds(y, 5)
    all_idx = np.sort(np.concatenate(folds))
    assert np.array_equal(all_idx, np.arange(50))
    for f in folds:
        assert (y[f] == 1).sum() == 6
        assert (y[f] == -1).sum() == 4
    with pytest.raises(FoldTooSmall):
        stratified_folds(np.array([1, -1]), 5)


def test_identical_records_identical_cvs():
    rng = np.random.default_rng(16)
    X = rng.normal(size=(10, 3))
    X[7] = X[2]
    y = np.ones(10, dtype=np.int8)
    y[7] = y[2] = -1
    Z = fold_labels(Dataset(X, y)).Z
    res = boost_rlc(Z, 10, 30, np.random.default_rng(16))
    cv = res.indicator_history.T  # a record's CV: its indicator bit per tried classifier
    assert np.array_equal(cv[2], cv[7])


def test_model_json_round_trip():
    X, y = separable_blobs(n=60, seed=17)
    model = boost_ds(X, y, tau=4)
    back = model_from_json(model_to_json(model))
    assert back.kind == model.kind
    assert back.alphas == model.alphas
    assert all(a == b for a, b in zip(back.classifiers, model.classifiers))
    assert np.array_equal(back.predict(X), model.predict(X))
    Z = fold_labels(Dataset(X, y)).Z
    fp = FixedPointParams.for_dimension(Z.shape[1])
    rm = boost_rlc(Z, 5, 15, np.random.default_rng(18), fp=fp).model
    back2 = model_from_json(model_to_json(rm))
    assert back2.fixed_point == fp
    assert np.array_equal(back2.predict(X), rm.predict(X))
