"""Experiment orchestration: configured runs that emit JSON + CSV reports.

Reports are bitwise reproducible for a fixed seed (no timing fields, sorted
keys) and validate against the schema files shipped in blindboost/schemas.
"""

import csv
import json
from dataclasses import dataclass, field, fields
from importlib import resources
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ..boosting import BoostedModel, boost_ds, boost_lmc, boost_rlc, stratified_folds
from ..encoding import Dataset, FixedPointParams, fold_labels, standardize, standardize_with
from ..errors import ConfigInvalid
from ..protocol import ProtocolConfig, Seeds, run_learning, transcript_report
from .datasets import gen_synthetic, load_csv
from .leakage import leakage_analysis

# each kind's params and their defaults; a spec's params may hold no other key
_PARAMS = {
    "CV_ACCURACY": {"base": "rlc", "tau": 200, "folds": 10},
    "CONVERGENCE": {"base": "rlc", "tau_max": 200, "folds": 10,
                    "tau_grid": [1, 2, 5, 10, 20, 50, 100, 150, 200]},
    "PRECISION_SWEEP": {"tau": 200, "folds": 10, "bits_grid": [5, 7, 9, 11, 15, 20]},
    "COST_SCALING": {"construction": "he-gc", "tau": 2, "n_grid": [16, 32, 64, 128],
                     "k_grid": [2, 4, 8]},
    "LEAKAGE": {"p": 16, "pair_sample": 1_000_000},
    "BASELINE_COMPARE": {"folds": 10, "tau_rlc": 200, "tau_ds": 75, "tau_lmc": 75},
}

_DATASET_KEYS = {"synthetic": ("n", "k", "seed"),
                 "csv": ("path", "label_column", "label_mapping")}


def _read(obj: dict, key: str, kind: type, default=None):
    """obj[key], or `default` where obj has no `key` (with no default, the
    key is required): the one reader of the fields of a spec and of its
    dataset ref, params and label mapping. ConfigInvalid unless the value's
    type is exactly `kind` (so a bool is no int); a list must hold ints."""
    if key not in obj:
        if default is None:
            raise ConfigInvalid(f"{key!r} is required")
        return default
    value = obj[key]
    if type(value) is not kind or kind is list and any(type(v) is not int for v in value):
        raise ConfigInvalid(f"{key!r} must be of type {kind.__name__}, got {value!r}")
    return value


def _refuse_unknown(obj: dict, known, what: str):
    unknown = sorted(set(obj) - set(known))
    if unknown:
        raise ConfigInvalid(f"{what} has unknown keys {unknown}")


@dataclass
class ExperimentSpec:
    kind: str
    dataset: dict            # {"synthetic": {n, k}} or {"csv": {path, ...}}
    output_dir: str
    seed: int = 42
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        for f in fields(self):
            _read(vars(self), f.name, f.type)
        if self.kind not in _PARAMS:
            raise ConfigInvalid(f"unknown experiment kind {self.kind!r}")

    def resolved_params(self) -> dict:
        """The kind's params: the spec's values, checked, over the defaults."""
        _refuse_unknown(self.params, _PARAMS[self.kind], "params")
        return {key: _read(self.params, key, type(default), default)
                for key, default in _PARAMS[self.kind].items()}

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        spec = json.loads(text)
        if not isinstance(spec, dict):
            raise ConfigInvalid(f"a spec is a JSON object, got {type(spec).__name__}")
        _refuse_unknown(spec, [f.name for f in fields(cls)], "spec")
        missing = [key for key in ("kind", "dataset", "output_dir") if key not in spec]
        if missing:
            raise ConfigInvalid(f"spec lacks {missing}")
        return cls(**spec)


def resolve_dataset(ref: dict, seed: int) -> Dataset:
    if len(ref) != 1 or next(iter(ref)) not in _DATASET_KEYS:
        raise ConfigInvalid(f"dataset ref needs one key, 'synthetic' or 'csv', got {sorted(ref)}")
    kind = next(iter(ref))
    cfg = _read(ref, kind, dict)
    _refuse_unknown(cfg, _DATASET_KEYS[kind], f"the {kind} dataset ref")
    if kind == "synthetic":
        return gen_synthetic(_read(cfg, "n", int, 10_000), _read(cfg, "k", int, 10),
                             _read(cfg, "seed", int, seed))
    mapping = _read(cfg, "label_mapping", dict, {})
    return load_csv(_read(cfg, "path", str), label_column=_read(cfg, "label_column", int, -1),
                    label_mapping={k: _read(mapping, k, int) for k in mapping} or None)


# ---------------------------------------------------------------------------
# cross-validation: one fold loop, with standardization fitted on each
# training split alone


class Fit(NamedTuple):
    model: BoostedModel
    p_used: int | None = None    # rlc only: the classifiers tried ...
    accepted: int | None = None  # ... and accepted


def fit(base: str, train: Dataset, tau: int, seed: int, bits: int | None = None) -> Fit:
    """Boost `tau` rounds of `base` over a standardized training split; RLCs
    are drawn from default_rng(seed), over the b-bit fixed point where
    `bits` is set."""
    if base == "rlc":
        fp = None if bits is None else FixedPointParams.for_dimension(train.k + 1, bits)
        run = boost_rlc(fold_labels(train).Z, tau, 2 * tau, np.random.default_rng(seed), fp=fp)
        return Fit(run.model, run.p_used, run.accepted)
    if base == "ds":
        return Fit(boost_ds(train.X, train.y, tau))
    if base == "lmc":
        return Fit(boost_lmc(train.X, train.y, tau))
    raise ConfigInvalid(f"unknown base learner {base!r}")


def prefix_accuracies(model: BoostedModel, X, y, tau: int) -> list:
    """Accuracy of every prefix ensemble H_0 .. H_tau without retraining;
    H_t = H_T for t past a model of T classifiers that stopped early."""
    scores = np.zeros(len(y))
    accs = [float((np.where(scores > 0, 1, -1) == y).mean())]
    for clf, a in zip(model.classifiers, model.alphas):
        scores += a * clf.predict(X)
        accs.append(float((np.where(scores > 0, 1, -1) == y).mean()))
    return accs + accs[-1:] * (tau + 1 - len(accs))


def cross_validate(ds: Dataset, base: str, tau: int, folds: int, fold_seed: int,
                   fit_seed: int, bits: int | None = None):
    """Each stratified fold's Fit, on stream fit_seed + fold, and the test
    accuracies of its prefixes H_0 .. H_tau as one row of a (folds, tau + 1)
    array. The test split is standardized with the training split's
    statistics."""
    fits, accs = [], []
    for f, test_idx in enumerate(stratified_folds(ds.y, folds, fold_seed)):
        train = standardize(ds.subset(np.setdiff1d(np.arange(ds.n), test_idx)))
        test = standardize_with(ds.subset(test_idx), train)
        fits.append(fit(base, train, tau, fit_seed + f, bits))
        accs.append(prefix_accuracies(fits[-1].model, test.X, test.y, tau))
    return fits, np.array(accs)


def mean_std(accs: np.ndarray) -> tuple:
    """Mean and sample std over the folds of one column of cross_validate."""
    return float(accs.mean()), float(accs.std(ddof=1))


# ---------------------------------------------------------------------------
# experiment bodies


def _exp_cv_accuracy(spec: ExperimentSpec, ds: Dataset, p: dict) -> dict:
    base, tau, folds = p["base"], p["tau"], p["folds"]
    fits, accs = cross_validate(ds, base, tau, folds, spec.seed, spec.seed)
    mean, std = mean_std(accs[:, tau])
    per_fold = accs[:, tau].tolist()
    report = {
        "kind": "CV_ACCURACY", "base": base, "tau": tau, "folds": folds,
        "seed": spec.seed, "n": ds.n, "k": ds.k,
        "accuracy_mean": mean, "accuracy_std": std, "per_fold": per_fold,
    }
    if base == "rlc":
        report["p_used"] = [f.p_used for f in fits]
        report["accepted"] = [f.accepted for f in fits]
        report["p_used_over_tau"] = float(np.mean([f.p_used / max(f.accepted, 1)
                                                   for f in fits]))
    rows = [{"fold": i, "accuracy": a} for i, a in enumerate(per_fold)]
    return report, rows, ["fold", "accuracy"]


def _exp_convergence(spec: ExperimentSpec, ds: Dataset, p: dict) -> dict:
    base, tau_max, folds = p["base"], p["tau_max"], p["folds"]
    _, accs = cross_validate(ds, base, tau_max, folds, spec.seed, spec.seed)
    points = []
    for t in sorted({t for t in p["tau_grid"] if 1 <= t <= tau_max}):
        mean, std = mean_std(accs[:, t])
        points.append({"tau": t, "accuracy_mean": mean, "accuracy_std": std})
    report = {"kind": "CONVERGENCE", "base": base, "folds": folds,
              "seed": spec.seed, "n": ds.n, "k": ds.k, "points": points}
    return report, points, ["tau", "accuracy_mean", "accuracy_std"]


def _exp_precision_sweep(spec: ExperimentSpec, ds: Dataset, p: dict) -> dict:
    tau, folds = p["tau"], p["folds"]
    points = []
    for bits in p["bits_grid"] + [None]:  # None: the real-valued run, reported as 0
        _, accs = cross_validate(ds, "rlc", tau, folds, spec.seed, spec.seed, bits)
        mean, std = mean_std(accs[:, tau])
        points.append({"bits": bits or 0, "accuracy_mean": mean, "accuracy_std": std})
    report = {"kind": "PRECISION_SWEEP", "tau": tau, "folds": folds,
              "seed": spec.seed, "n": ds.n, "k": ds.k, "points": points,
              "real_accuracy": mean}
    return report, points, ["bits", "accuracy_mean", "accuracy_std"]


def _protocol_counters(construction, folded, tau, seeds):
    cfg = ProtocolConfig(construction=construction, tau=tau, p_max=tau, seeds=seeds)
    _, transcript = run_learning(cfg, folded)
    return transcript_report(transcript)


def _exp_cost_scaling(spec: ExperimentSpec, ds: Dataset, p: dict) -> dict:
    construction, tau, n_grid = p["construction"], p["tau"], p["n_grid"]
    seeds = Seeds.derive(spec.seed)

    def row(vary, sub):
        rep = _protocol_counters(construction, fold_labels(sub), tau, seeds)
        cloud, csp = rep["counters"]["cloud"], rep["counters"]["csp"]
        return {"vary": vary, "n": sub.n, "k": sub.k,
                "cloud_he_ops": cloud["he_adds"] + cloud["he_scalar_muls"],
                "cloud_decryptions": cloud["decryptions"],
                "csp_decryptions": csp["decryptions"],
                "gc_bytes": rep["gc_bytes"], "iterations": rep["iterations"]}

    std = standardize(ds)
    if max(n_grid, default=0) > std.n or max(p["k_grid"], default=0) > std.k:
        raise ConfigInvalid(f"n_grid {n_grid} and k_grid {p['k_grid']} must stay within "
                            f"the dataset's n = {std.n} and standardized k = {std.k}")
    rows = [row("n", std.subset(np.arange(n))) for n in n_grid]
    rows += [row("k", Dataset(std.X[:max(n_grid), :k], std.y[:max(n_grid)]))
             for k in p["k_grid"]]
    n_rows = [r for r in rows if r["vary"] == "n"]
    ratios = [n_rows[i + 1]["gc_bytes"] / n_rows[i]["gc_bytes"]
              for i in range(len(n_rows) - 1)]
    report = {"kind": "COST_SCALING", "construction": construction, "tau": tau,
              "seed": spec.seed, "rows": rows,
              "gc_bytes_doubling_ratios": ratios}
    cols = ["vary", "n", "k", "cloud_he_ops", "cloud_decryptions",
            "csp_decryptions", "gc_bytes", "iterations"]
    return report, rows, cols


def _exp_leakage(spec: ExperimentSpec, ds: Dataset, p: dict) -> dict:
    rep = leakage_analysis(ds, p["p"], spec.seed, p["pair_sample"])
    report = {"kind": "LEAKAGE", "seed": spec.seed, "n": ds.n, "k": ds.k,
              **rep.to_dict()}
    rows = [vars(b) for b in rep.buckets]
    return report, rows, ["hamming", "count", "mean_distance", "std_distance",
                          "reliable"]


def _exp_baseline_compare(spec: ExperimentSpec, ds: Dataset, p: dict) -> dict:
    folds = p["folds"]
    results = {}
    for base in ("rlc", "ds", "lmc"):
        tau = p[f"tau_{base}"]
        _, accs = cross_validate(ds, base, tau, folds, spec.seed, spec.seed)
        mean, std = mean_std(accs[:, tau])
        results[base] = {"tau": tau, "accuracy_mean": mean, "accuracy_std": std}
    report = {"kind": "BASELINE_COMPARE", "folds": folds, "seed": spec.seed,
              "n": ds.n, "k": ds.k, "results": results}
    rows = [{"base": b, **v} for b, v in sorted(results.items())]
    return report, rows, ["base", "tau", "accuracy_mean", "accuracy_std"]


_BODIES = {
    "CV_ACCURACY": _exp_cv_accuracy,
    "CONVERGENCE": _exp_convergence,
    "PRECISION_SWEEP": _exp_precision_sweep,
    "COST_SCALING": _exp_cost_scaling,
    "LEAKAGE": _exp_leakage,
    "BASELINE_COMPARE": _exp_baseline_compare,
}


def _check_precision_sweep(report: dict):
    b7 = next((pt for pt in report["points"] if pt["bits"] == 7), None)
    if b7 and abs(b7["accuracy_mean"] - report["real_accuracy"]) > 0.02:
        return "7-bit accuracy deviates from the real-valued run by more than 2 points"


def _check_cost_scaling(report: dict):
    ns = [r["n"] for r in report["rows"] if r["vary"] == "n"]
    for ratio, n0, n1 in zip(report["gc_bytes_doubling_ratios"], ns, ns[1:]):
        if abs(ratio / (n1 / n0) - 1) > 0.05:
            return f"GC bytes did not grow with n (ratio {ratio:.3f}, n ratio {n1 / n0:.3f})"


def _check_leakage(report: dict):
    ident = next((b for b in report["buckets"] if b["hamming"] == 0), None)
    if ident and abs(ident["mean_distance"] - report["global_mean"]) >= report["global_std"]:
        return "identical-CV bucket deviates from the global mean distance by one std or more"


# the acceptance check of each kind that has one: why its report fails, or
# None where the check holds
CHECKS = {
    "PRECISION_SWEEP": _check_precision_sweep,
    "COST_SCALING": _check_cost_scaling,
    "LEAKAGE": _check_leakage,
}


def validate_report(kind: str, report: dict):
    import jsonschema

    schema_name = kind.lower() + ".schema.json"
    with resources.files("blindboost.schemas").joinpath(schema_name).open() as fh:
        schema = json.load(fh)
    jsonschema.validate(report, schema)


def run_experiment(spec: ExperimentSpec):
    """Execute one experiment; writes <kind>.json and <kind>.csv, returns the
    report dict."""
    params = spec.resolved_params()
    ds = resolve_dataset(spec.dataset, spec.seed)
    report, rows, columns = _BODIES[spec.kind](spec, ds, params)
    validate_report(spec.kind, report)
    out = Path(spec.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{spec.kind.lower()}.json").write_text(
        json.dumps(report, sort_keys=True, indent=2) + "\n")
    with (out / f"{spec.kind.lower()}.csv").open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)
    return report
