import json
import math
import warnings

import numpy as np
import pytest

from blindboost.errors import ConfigInvalid, InsufficientPairsWarning
from blindboost.harness.datasets import gen_synthetic
from blindboost.harness.experiments import (
    ExperimentSpec,
    cross_validate,
    prefix_accuracies,
    resolve_dataset,
    run_experiment,
)
from blindboost.harness.leakage import leakage_analysis
from blindboost.boosting import boost_ds
from blindboost.encoding import Dataset
from blindboost.shares import MASK_SECURITY_BITS


def test_spec_validation():
    with pytest.raises(ConfigInvalid):
        ExperimentSpec(kind="NOPE", dataset={}, output_dir="x")
    with pytest.raises(ConfigInvalid):
        resolve_dataset({"nope": {}}, seed=0)
    with pytest.raises(ConfigInvalid, match="'path' is required"):
        resolve_dataset({"csv": {}}, seed=0)


def test_cv_accuracy_reproducible(tmp_path):
    spec = dict(kind="CV_ACCURACY",
                dataset={"synthetic": {"n": 300, "k": 4, "seed": 5}},
                seed=11, params={"base": "rlc", "tau": 20, "folds": 3})
    r1 = run_experiment(ExperimentSpec(output_dir=str(tmp_path / "a"), **spec))
    r2 = run_experiment(ExperimentSpec(output_dir=str(tmp_path / "b"), **spec))
    j1 = (tmp_path / "a" / "cv_accuracy.json").read_text()
    j2 = (tmp_path / "b" / "cv_accuracy.json").read_text()
    assert j1 == j2  # bitwise reproducible
    assert r1 == r2
    assert (tmp_path / "a" / "cv_accuracy.csv").exists()


def test_convergence_prefix_matches_full(tmp_path):
    ds = gen_synthetic(300, 4, seed=2)
    from blindboost.encoding import standardize
    std = standardize(Dataset(ds.X, ds.y))
    model = boost_ds(std.X, std.y, tau=20)
    accs = prefix_accuracies(model, std.X, std.y, 25)
    import blindboost.boosting as bb
    m5 = bb.BoostedModel(kind="ds", classifiers=model.classifiers[:5],
                         alphas=model.alphas[:5])
    assert accs[5] == float((m5.predict(std.X) == std.y).mean())
    assert accs[20] == float((model.predict(std.X) == std.y).mean())
    # H_0 votes -1 everywhere; past the model's 20 classifiers H_t = H_20
    assert accs[0] == float((std.y == -1).mean())
    assert len(accs) == 26 and accs[21:] == [accs[20]] * 5


def test_convergence_experiment(tmp_path):
    spec = ExperimentSpec(kind="CONVERGENCE",
                          dataset={"synthetic": {"n": 300, "k": 4, "seed": 5}},
                          output_dir=str(tmp_path), seed=3,
                          params={"base": "rlc", "tau_max": 30,
                                  "tau_grid": [0, 1, 5, 15, 30, 40], "folds": 3})
    report = run_experiment(spec)
    taus = [pt["tau"] for pt in report["points"]]
    assert taus == [1, 5, 15, 30]  # grid points outside 1 .. tau_max are dropped
    # accuracy should not get dramatically worse with more classifiers
    assert report["points"][-1]["accuracy_mean"] >= \
        report["points"][0]["accuracy_mean"] - 0.05


@pytest.mark.parametrize("base", ["rlc", "ds", "lmc"])
def test_convergence_end_point_is_the_cv_accuracy(tmp_path, base):
    # a fold whose model stopped before tau_max (lmc here) still counts at
    # every later point, with H_tau = H_T
    common = dict(dataset={"synthetic": {"n": 300, "k": 4, "seed": 5}}, seed=11)
    cv = run_experiment(ExperimentSpec(
        kind="CV_ACCURACY", output_dir=str(tmp_path / "cv"),
        params={"base": base, "tau": 15, "folds": 3}, **common))
    conv = run_experiment(ExperimentSpec(
        kind="CONVERGENCE", output_dir=str(tmp_path / "conv"),
        params={"base": base, "tau_max": 15, "tau_grid": [1, 5, 15], "folds": 3}, **common))
    end = conv["points"][-1]
    assert end["tau"] == 15
    assert (end["accuracy_mean"], end["accuracy_std"]) == \
        (cv["accuracy_mean"], cv["accuracy_std"])


def test_cv_constant_label_dataset_majority_rate():
    rng = np.random.default_rng(15)
    ds = Dataset(rng.normal(size=(40, 2)), np.ones(40, dtype=np.int8))
    _, accs = cross_validate(ds, "ds", 3, 4, fold_seed=42, fit_seed=0)
    assert accs[:, 3].mean() == 1.0


def test_precision_sweep_experiment(tmp_path):
    spec = ExperimentSpec(kind="PRECISION_SWEEP",
                          dataset={"synthetic": {"n": 400, "k": 4, "seed": 6}},
                          output_dir=str(tmp_path), seed=4,
                          params={"tau": 25, "folds": 3, "bits_grid": [5, 7]})
    report = run_experiment(spec)
    bits = [pt["bits"] for pt in report["points"]]
    assert bits == [5, 7, 0]
    b7 = report["points"][1]["accuracy_mean"]
    assert abs(b7 - report["real_accuracy"]) <= 0.05


def test_cost_scaling_experiment(tmp_path):
    spec = ExperimentSpec(kind="COST_SCALING",
                          dataset={"synthetic": {"n": 64, "k": 8, "seed": 7}},
                          output_dir=str(tmp_path), seed=5,
                          params={"construction": "he-gc", "tau": 1,
                                  "n_grid": [8, 16, 32], "k_grid": [2, 4]})
    report = run_experiment(spec)
    for ratio in report["gc_bytes_doubling_ratios"]:
        assert abs(ratio - 2.0) < 0.1
    # HE+GC packs u into slots of 2L + ceil(log2 d) + sigma + 1 bits under a
    # 512-bit N. The users shift their values into their slots, so Cloud
    # folds its d columns once with n - chunks adds per column; per trial it
    # multiplies and adds d times per chunk and adds one packed mask per chunk
    for r in report["rows"]:
        d = r["k"] + 1
        L = 2 * 7 + math.ceil(math.log2(d)) + 1
        slots = 511 // (2 * L + math.ceil(math.log2(d)) + MASK_SECURITY_BITS + 1)
        chunks, iters = -(-r["n"] // slots), r["iterations"]
        assert r["cloud_he_ops"] == (r["n"] - chunks) * d \
            + iters * (2 * chunks * d + chunks)
        assert r["csp_decryptions"] == chunks * iters


def test_leakage_experiment_duplicates_bucket_zero():
    ds = gen_synthetic(120, 4, seed=8)
    X = ds.X.copy()
    X[7] = X[3]
    ds.y[7] = ds.y[3]
    dup = Dataset(X, ds.y)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", InsufficientPairsWarning)
        rep = leakage_analysis(dup, p=10, seed=9, pair_sample=50_000)
    assert any(b.hamming == 0 for b in rep.buckets)
    assert sum(b.count for b in rep.buckets) == rep.sampled_pairs


def test_leakage_bucket_counts_sum(tmp_path):
    spec = ExperimentSpec(kind="LEAKAGE",
                          dataset={"synthetic": {"n": 250, "k": 4, "seed": 9}},
                          output_dir=str(tmp_path), seed=6,
                          params={"p": 10, "pair_sample": 20_000})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", InsufficientPairsWarning)
        report = run_experiment(spec)
    assert sum(b["count"] for b in report["buckets"]) == report["sampled_pairs"]


def test_baseline_compare_experiment(tmp_path):
    spec = ExperimentSpec(kind="BASELINE_COMPARE",
                          dataset={"synthetic": {"n": 500, "k": 5, "seed": 10}},
                          output_dir=str(tmp_path), seed=7,
                          params={"folds": 3, "tau_rlc": 40, "tau_ds": 15,
                                  "tau_lmc": 15})
    report = run_experiment(spec)
    # LMC boosting stays well below RLC boosting on radial data
    assert report["results"]["lmc"]["accuracy_mean"] <= \
        report["results"]["rlc"]["accuracy_mean"] - 0.05


def test_schema_rejects_malformed_report():
    import jsonschema

    from blindboost.harness.experiments import validate_report
    with pytest.raises(jsonschema.ValidationError):
        validate_report("CV_ACCURACY", {"kind": "CV_ACCURACY"})
