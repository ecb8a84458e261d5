"""Plaintext boosting with random linear classifiers, decision stumps and
linear-means baselines.

This module is both the learning logic reused by the two-party protocol (the
weight/acceptance step runs verbatim on the CSP side) and the correctness
oracle the protocol is tested against. A candidate whose weighted error
exceeds 0.5 is accepted negated (its mirror image has error 1 - e); only an
exact 0.5 tie is rejected, which keeps the tried/accepted ratio near 1.
"""

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .encoding import (
    FixedPointParams,
    encode_array,
    ring_indicators,
    ring_matvec,
)
from .errors import (
    DegenerateError,
    DimensionMismatch,
    FoldTooSmall,
    InvalidBaseClassifier,
    PoolExhaustedWarning,
)

EPSILON_FLOOR = 1e-10


# ---------------------------------------------------------------------------
# base classifiers


def gen_rlc(k: int, rng: np.random.Generator) -> np.ndarray:
    """Random hyperplane over the folded space: k coefficients uniform on
    [-1, 1] and an intercept uniform on [-2, 2]."""
    if k < 1:
        raise ValueError("k must be >= 1")
    w = rng.uniform(-1.0, 1.0, size=k)
    b = rng.uniform(-2.0, 2.0)
    return np.append(w, b)


@dataclass(frozen=True)
class Stump:
    feature: int
    threshold: float
    polarity: int  # +1: "x < threshold -> +1"; -1 flips

    def predict(self, X: np.ndarray) -> np.ndarray:
        raw = np.where(X[:, self.feature] < self.threshold, 1.0, -1.0)
        return self.polarity * raw


@dataclass(frozen=True)
class LinearClassifier:
    w: np.ndarray  # over folded space (k coefficients + intercept)

    def predict(self, X: np.ndarray) -> np.ndarray:
        score = X @ self.w[:-1] + self.w[-1]
        return np.where(score > 0, 1.0, -1.0)


@dataclass
class BoostedModel:
    kind: str  # 'rlc' | 'ds' | 'lmc'
    classifiers: list
    alphas: list
    fixed_point: FixedPointParams | None = None

    def decision(self, X: np.ndarray) -> np.ndarray:
        if not self.classifiers:
            return np.zeros(X.shape[0])
        acc = np.zeros(X.shape[0])
        for clf, a in zip(self.classifiers, self.alphas):
            acc += a * clf.predict(X)
        return acc

    def predict(self, X: np.ndarray) -> np.ndarray:
        """sign of the weighted vote; sign(0) = -1 by convention."""
        return np.where(self.decision(X) > 0, 1, -1)


# ---------------------------------------------------------------------------
# AdaBoost core


def apply_and_indicate(Z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """I_i = 1 iff z_i . w > 0 (strict; a zero dot product counts as wrong)."""
    Z = np.asarray(Z)
    w = np.asarray(w)
    if Z.shape[1] != w.shape[0]:
        raise DimensionMismatch(f"{Z.shape} vs {w.shape}")
    return (Z @ w > 0).astype(np.uint8)


def weighted_error(indicators: np.ndarray, delta: np.ndarray) -> float:
    """Weight mass of the misclassified records."""
    indicators = np.asarray(indicators)
    delta = np.asarray(delta)
    if indicators.shape != delta.shape:
        raise DimensionMismatch(f"{indicators.shape} vs {delta.shape}")
    return float(delta[indicators == 0].sum())


def alpha(e: float) -> float:
    """0.5 * ln((1-e)/e); only defined on [EPSILON_FLOOR, 0.5)."""
    if e >= 0.5:
        raise InvalidBaseClassifier(f"weighted error {e} >= 0.5")
    if e < EPSILON_FLOOR:
        raise DegenerateError(f"weighted error {e} below floor")
    return 0.5 * math.log((1.0 - e) / e)


def update_weights(delta: np.ndarray, indicators: np.ndarray, a: float) -> np.ndarray:
    """Misclassified records scaled by e^a, correct ones by e^-a, renormalized."""
    if a <= 0:
        raise ValueError("alpha must be positive")
    factors = np.where(np.asarray(indicators) == 1, math.exp(-a), math.exp(a))
    new = np.asarray(delta) * factors
    return new / new.sum()


@dataclass(frozen=True)
class StepResult:
    decision: str  # 'accept' | 'accept_flipped' | 'reject'
    effective_error: float | None
    alpha: float | None
    delta: np.ndarray     # weights after the step (unchanged on reject)
    indicators: np.ndarray  # indicators of the accepted orientation


def evaluate_candidate(delta: np.ndarray, indicators: np.ndarray) -> StepResult:
    """The Update step shared by the plaintext trainer and the CSP party."""
    e = weighted_error(indicators, delta)
    if e == 0.5:
        return StepResult("reject", None, None, delta, indicators)
    if e > 0.5:
        indicators = (1 - indicators).astype(np.uint8)
        decision = "accept_flipped"
        e_eff = 1.0 - e
    else:
        decision = "accept"
        e_eff = e
    e_eff = max(e_eff, EPSILON_FLOOR)
    a = alpha(e_eff)
    new_delta = update_weights(delta, indicators, a)
    return StepResult(decision, e_eff, a, new_delta, indicators)


# ---------------------------------------------------------------------------
# trainers


@dataclass
class RLCBoostResult:
    model: BoostedModel
    p_used: int
    accepted: int
    indicator_history: np.ndarray  # (p_used, n) uint8, per tried classifier
    errors: list                   # effective error per accepted round


def boost_rlc(Z: np.ndarray, tau: int, p_max: int, rng: np.random.Generator,
              fp: FixedPointParams | None = None) -> RLCBoostResult:
    """Boost random linear classifiers on a folded matrix.

    With `fp` set, indicators come from the fixed-point ring (matching the
    confidential protocol bit for bit); otherwise from exact float dot
    products.
    """
    if tau < 1 or p_max < tau:
        raise ValueError("need p_max >= tau >= 1")
    Z = np.asarray(Z, dtype=np.float64)
    n, dim = Z.shape
    Zq = encode_array(Z, fp) if fp is not None else None

    delta = np.full(n, 1.0 / n)
    classifiers, alphas, errors = [], [], []
    history = np.zeros((p_max, n), dtype=np.uint8)
    p_used = 0
    while p_used < p_max and len(classifiers) < tau:
        w = gen_rlc(dim - 1, rng)
        if fp is not None:
            wq = encode_array(w, fp)
            ind = ring_indicators(ring_matvec(Zq, wq, fp), fp)
        else:
            ind = apply_and_indicate(Z, w)
        history[p_used] = ind
        p_used += 1
        step = evaluate_candidate(delta, ind)
        if step.decision == "reject":
            continue
        delta = step.delta
        w_eff = -w if step.decision == "accept_flipped" else w
        classifiers.append(LinearClassifier(w=w_eff))
        alphas.append(step.alpha)
        errors.append(step.effective_error)
    if len(classifiers) < tau:
        warnings.warn(f"only {len(classifiers)}/{tau} valid classifiers in "
                      f"{p_max} tries", PoolExhaustedWarning, stacklevel=2)
    model = BoostedModel(kind="rlc", classifiers=classifiers, alphas=alphas,
                         fixed_point=fp)
    return RLCBoostResult(model=model, p_used=p_used, accepted=len(classifiers),
                          indicator_history=history[:p_used], errors=errors)


def _stump_scan(xs, ys, ws):
    """Best cut position for one presorted feature column.

    Candidate cuts sit between distinct consecutive sorted values, plus one
    below the minimum; polarity +1 means "x < threshold -> predict +1".
    Returns (cut_min, err_min, cut_max, err_max): the minimum-error cut for
    polarity +1 and the maximum-error cut, whose complement 1-err is the best
    error for polarity -1.
    """
    n = xs.shape[0]
    pos_w = np.where(ys > 0, ws, 0.0)
    neg_w = ws - pos_w
    total_pos = pos_w.sum()
    # err[c] = error of "x < cut_c -> +1" where cut_c sits before sorted
    # position c; c = 0 puts every record on the >= side.
    cum_pos = np.concatenate(([0.0], np.cumsum(pos_w)))
    cum_neg = np.concatenate(([0.0], np.cumsum(neg_w)))
    err = cum_neg + (total_pos - cum_pos)
    valid = np.ones(n + 1, dtype=bool)
    valid[1:n] = xs[1:] != xs[:-1]  # no cut between equal values
    c_min = int(np.argmin(np.where(valid, err, np.inf)))
    c_max = int(np.argmax(np.where(valid, err, -np.inf)))
    return c_min, float(err[c_min]), c_max, float(err[c_max])


def _best_stump(X: np.ndarray, y: np.ndarray, delta: np.ndarray,
                order: np.ndarray) -> tuple:
    """Exhaustively optimal single-feature threshold stump under weights."""
    n, k = X.shape
    best = (math.inf, None)
    for j in range(k):
        idx = order[:, j]
        xs = X[idx, j]
        cut_min, err_min, cut_max, err_max = _stump_scan(xs, y[idx], delta[idx])
        for cut, err, pol in ((cut_min, err_min, 1), (cut_max, 1.0 - err_max, -1)):
            if err < best[0]:
                if cut == 0:
                    thr = xs[0] - 1.0
                elif cut == n:
                    thr = xs[-1] + 1.0
                else:
                    thr = 0.5 * (xs[cut - 1] + xs[cut])
                best = (err, Stump(feature=j, threshold=float(thr), polarity=pol))
    return best[1], best[0]


def boost_ds(X: np.ndarray, y: np.ndarray, tau: int) -> BoostedModel:
    """Classic AdaBoost with exhaustively optimal decision stumps."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int8)
    n = X.shape[0]
    order = np.argsort(X, axis=0, kind="stable")
    delta = np.full(n, 1.0 / n)
    classifiers, alphas = [], []
    for _ in range(tau):
        stump, err = _best_stump(X, y, delta, order)
        if err >= 0.5:
            warnings.warn("no stump beats chance on the current weights",
                          PoolExhaustedWarning, stacklevel=2)
            break
        a = alpha(max(err, EPSILON_FLOOR))
        pred = stump.predict(X)
        ind = (pred == y).astype(np.uint8)
        delta = update_weights(delta, ind, a)
        classifiers.append(stump)
        alphas.append(a)
    return BoostedModel(kind="ds", classifiers=classifiers, alphas=alphas)


def fit_lmc(X: np.ndarray, y: np.ndarray, delta: np.ndarray) -> LinearClassifier:
    """Plane bisecting the weighted class centroids."""
    pos = y == 1
    wp = delta[pos].sum()
    wn = delta[~pos].sum()
    if wp == 0 or wn == 0:
        raise DegenerateError("one class has zero weight")
    m_pos = (delta[pos, None] * X[pos]).sum(axis=0) / wp
    m_neg = (delta[~pos, None] * X[~pos]).sum(axis=0) / wn
    w = m_pos - m_neg
    b = -float(w @ (m_pos + m_neg)) / 2.0
    return LinearClassifier(w=np.append(w, b))


def boost_lmc(X: np.ndarray, y: np.ndarray, tau: int) -> BoostedModel:
    """Boosting with linear-means classifiers (weak-baseline reproduction)."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int8)
    n = X.shape[0]
    delta = np.full(n, 1.0 / n)
    classifiers, alphas = [], []
    for _ in range(tau):
        clf = fit_lmc(X, y, delta)
        ind = (clf.predict(X) == y).astype(np.uint8)
        step = evaluate_candidate(delta, ind)
        if step.decision == "reject":
            break
        if step.decision == "accept_flipped":
            clf = LinearClassifier(w=-clf.w)
        delta = step.delta
        classifiers.append(clf)
        alphas.append(step.alpha)
    return BoostedModel(kind="lmc", classifiers=classifiers, alphas=alphas)


# ---------------------------------------------------------------------------
# evaluation utilities


def stratified_folds(y: np.ndarray, folds: int, seed: int = 42) -> list:
    """Deterministic stratified split; returns one index array per fold."""
    y = np.asarray(y)
    n = len(y)
    if folds < 2:
        raise ValueError("folds must be >= 2")
    if n < folds:
        raise FoldTooSmall(f"{n} records cannot fill {folds} folds")
    rng = np.random.default_rng(seed)
    assignment = np.empty(n, dtype=np.int64)
    for cls in np.unique(y):
        idx = np.flatnonzero(y == cls)
        rng.shuffle(idx)
        assignment[idx] = np.arange(len(idx)) % folds
    return [np.flatnonzero(assignment == f) for f in range(folds)]


# ---------------------------------------------------------------------------
# model serialization


def model_to_json(model: BoostedModel) -> str:
    payload = {
        "kind": model.kind,
        "alphas": model.alphas,
        "fixed_point": None if model.fixed_point is None else {
            "precision_bits": model.fixed_point.precision_bits,
            "ring_bits": model.fixed_point.ring_bits,
        },
        "classifiers": [],
    }
    for clf in model.classifiers:
        if isinstance(clf, Stump):
            payload["classifiers"].append({
                "type": "stump", "feature": clf.feature,
                "threshold": clf.threshold, "polarity": clf.polarity})
        else:
            payload["classifiers"].append({
                "type": "linear", "w": clf.w.tolist()})
    return json.dumps(payload, sort_keys=True)


def model_from_json(text: str) -> BoostedModel:
    payload = json.loads(text)
    classifiers = []
    for c in payload["classifiers"]:
        if c["type"] == "stump":
            classifiers.append(Stump(feature=c["feature"],
                                     threshold=c["threshold"],
                                     polarity=c["polarity"]))
        else:
            classifiers.append(LinearClassifier(w=np.asarray(c["w"])))
    fp = payload["fixed_point"]
    return BoostedModel(
        kind=payload["kind"], classifiers=classifiers, alphas=payload["alphas"],
        fixed_point=None if fp is None else FixedPointParams(**fp))
