import json

import numpy as np
import pytest

from blindboost import errors
from blindboost.encoding import FoldedMatrix
from blindboost.harness import experiments
from blindboost.harness.cli import (
    EXIT_CHECK,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_PROTOCOL,
    build_parser,
    main,
)
from blindboost.protocol import HE_GC, ProtocolConfig
from blindboost.protocol.engine import setup


def test_keygen(tmp_path):
    rc = main(["keygen", "--bits", "512", "--seed", "3",
               "--out", str(tmp_path)])
    assert rc == EXIT_OK
    payload = json.loads((tmp_path / "keypair.json").read_text())
    assert payload["n"].bit_length() == 512
    assert pow(payload["h_n"], payload["lambda"], payload["n"] ** 2) == 1


def test_keygen_uses_the_protocols_key_stream(tmp_path):
    # --seed 2 is CSP's default seed: the key HE+GC's set-up gives CSP
    assert main(["keygen", "--seed", "2", "--out", str(tmp_path)]) == EXIT_OK
    payload = json.loads((tmp_path / "keypair.json").read_text())
    _, csp = setup(ProtocolConfig(HE_GC, tau=1, p_max=1), FoldedMatrix(np.ones((2, 2))))
    assert payload["n"] == csp.keypair.public.n


def _report(tmp_path, spec):
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    return main(["report", "--spec", str(tmp_path / "spec.json")])


def _csv_rows(path):
    path.write_text("".join(f"{i % 2},{i},{1 - 2 * (i // 2 % 2)}\n" for i in range(8)))


def test_subcommands():
    assert sorted(build_parser()[1]) == ["ds-select", "keygen", "report", "synth", "train"]
    for gone in ("train-plain", "leakage", "bench"):
        with pytest.raises(SystemExit) as exc:
            main([gone])
        assert exc.value.code == EXIT_CONFIG


def test_synth_then_report_cv_accuracy(tmp_path):
    csv = tmp_path / "d.csv"
    rc = main(["synth", "--n", "300", "--k", "4", "--seed", "2",
               "--out", str(csv)])
    assert rc == EXIT_OK
    spec = {"kind": "CV_ACCURACY", "dataset": {"csv": {"path": str(csv)}},
            "output_dir": str(tmp_path / "r"), "params": {"base": "ds", "tau": 10, "folds": 3}}
    assert _report(tmp_path, spec) == EXIT_OK
    report = json.loads((tmp_path / "r" / "cv_accuracy.json").read_text())
    assert 0.5 < report["accuracy_mean"] <= 1.0


def test_train_protocol_outputs(tmp_path):
    csv = tmp_path / "d.csv"
    main(["synth", "--n", "60", "--k", "3", "--seed", "4", "--out", str(csv)])
    rc = main(["train", "--dataset", str(csv), "--construction", "secsh-gc",
               "--tau", "2", "--out", str(tmp_path / "r")])
    assert rc == EXIT_OK
    for name in ("distributed_model.json", "model.json", "transcript.json"):
        assert (tmp_path / "r" / name).exists()
    transcript = json.loads((tmp_path / "r" / "transcript.json").read_text())
    assert transcript["iterations"] >= 2


def test_ds_select_cli(tmp_path):
    csv = tmp_path / "d.csv"
    main(["synth", "--n", "40", "--k", "2", "--seed", "5", "--out", str(csv)])
    rc = main(["ds-select", "--dataset", str(csv), "--bins", "4", "--tau", "2",
               "--out", str(tmp_path / "r")])
    assert rc == EXIT_OK
    payload = json.loads((tmp_path / "r" / "ds_select.json").read_text())
    assert len(payload["selected_indices"]) <= 2


def test_config_file_defaults_flags_win(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n=120\nk=4\nseed=9\n")
    out = tmp_path / "from_cfg.csv"
    rc = main(["synth", "--config", str(cfg), "--out", str(out), "--k", "6"])
    assert rc == EXIT_OK
    header = out.read_text().splitlines()[0]
    assert header.count("x") == 6  # flag beat the config file
    assert len(out.read_text().splitlines()) == 121
    rc = main(["synth", "--config", str(cfg), "--out", str(out), "--k", "10"])
    assert rc == EXIT_OK
    assert out.read_text().splitlines()[0].count("x") == 10  # the default wins too


def test_config_error_exit_code(tmp_path):
    rc = main(["train", "--dataset", str(tmp_path / "missing.csv"),
               "--tau", "2", "--out", str(tmp_path)])
    assert rc == EXIT_CONFIG
    bad = tmp_path / "bad.cfg"
    bad.write_text("not a key value line\n")
    rc = main(["synth", "--config", str(bad), "--out", str(tmp_path / "x.csv")])
    assert rc == EXIT_CONFIG
    train = ["train", "--dataset", "synthetic:n=20,k=2", "--tau", "1",
             "--out", str(tmp_path)]
    for line in ("ot_group=modp-999", "gc_scheme=half"):
        bad.write_text(line + "\n")
        assert main(train + ["--config", str(bad)]) == EXIT_CONFIG
    with pytest.raises(SystemExit) as exc:
        main(train + ["--ot-group", "modp-999"])  # not among the choices
    assert exc.value.code == EXIT_CONFIG


_SMALL_CV = {"kind": "CV_ACCURACY", "dataset": {"synthetic": {"n": 30, "k": 2}},
             "output_dir": "x", "params": {"base": "ds", "tau": 1, "folds": 2}}


def test_report_command(tmp_path):
    spec = {"kind": "CV_ACCURACY",
            "dataset": {"synthetic": {"n": 200, "k": 4, "seed": 3}},
            "output_dir": str(tmp_path / "rep"), "seed": 5,
            "params": {"base": "ds", "tau": 8, "folds": 3}}
    assert _report(tmp_path, spec) == EXIT_OK
    assert (tmp_path / "rep" / "cv_accuracy.json").exists()


@pytest.mark.parametrize("spec", [
    {"bogus": 1}, [1, 2], {"kind": "CV_ACCURACY", "output_dir": "x"},
    {"dataset": {"synthetic": {}}, "output_dir": "x", "seed": 1, "bogus": 1},
    {"kind": "CV_ACCURACY", "dataset": 5, "output_dir": "x"},
    {"kind": "CV_ACCURACY", "dataset": {"synthetic": 5}, "output_dir": "x"},
    {"kind": "CV_ACCURACY", "dataset": {"csv": "d.csv"}, "output_dir": "x"},
    {"kind": "CV_ACCURACY", "dataset": {"synthetic": {}}, "output_dir": "x", "params": [1]},
    {"kind": "CV_ACCURACY", "dataset": {"synthetic": {}}, "output_dir": "x", "seed": "5"},
    {"kind": "CV_ACCURACY", "dataset": {"synthetic": {}}, "output_dir": "x", "seed": True},
    {"kind": "CV_ACCURACY", "dataset": {"csv": {}}, "output_dir": "x"},
    {"kind": "CV_ACCURACY", "dataset": {"csv": {"path": 5}}, "output_dir": "x"},
    {"kind": "CV_ACCURACY", "dataset": {"synthetic": {"n": None}}, "output_dir": "x"},
    {"kind": "CV_ACCURACY", "dataset": {"csv": {"path": "x.csv", "label_column": None}},
     "output_dir": "x"},
    {"kind": "CV_ACCURACY", "dataset": {"synthetic": {}}, "output_dir": "x",
     "params": {"tau": None}},
    # unknown keys of a small run, which would otherwise pass on the defaults
    {**_SMALL_CV, "params": {**_SMALL_CV["params"], "foldz": 9}},
    {**_SMALL_CV, "dataset": {"synthetic": {"n": 30, "k": 2, "sed": 4}}},
    {**_SMALL_CV, "dataset": {"synthetic": {"n": 30, "k": 2}, "csv": {"path": "x.csv"}}},
    {**_SMALL_CV, "dataset": {"csv": {"path": "x.csv", "label_col": 0}}},
    # cost grids past the dataset's n or standardized k
    {"kind": "COST_SCALING", "dataset": {"synthetic": {"n": 40, "k": 2}}, "output_dir": "x",
     "params": {"tau": 1, "n_grid": [16, 32, 64], "k_grid": [2]}},
    {"kind": "COST_SCALING", "dataset": {"synthetic": {"n": 16, "k": 3}}, "output_dir": "x",
     "params": {"tau": 1, "n_grid": [8, 16], "k_grid": [2, 8]}},
    # more folds than records
    {"kind": "CV_ACCURACY", "dataset": {"synthetic": {"n": 60, "k": 2, "seed": 3}},
     "output_dir": "x", "params": {"folds": 100}},
], ids=["unknown-key", "list", "no-dataset", "no-kind-and-unknown-key", "int-dataset",
        "int-synthetic-ref", "str-csv-ref", "list-params", "str-seed", "bool-seed",
        "csv-ref-without-path", "int-path", "null-n", "null-label-column", "null-tau",
        "unknown-param", "unknown-synthetic-key", "two-dataset-kinds", "unknown-csv-key",
        "n-grid-past-n", "k-grid-past-k", "folds-past-n"])
def test_report_spec_error_exit_code(tmp_path, monkeypatch, capsys, spec):
    monkeypatch.chdir(tmp_path)
    _csv_rows(tmp_path / "x.csv")  # so that a csv ref fails on its keys, not on a missing file
    assert _report(tmp_path, spec) == EXIT_CONFIG
    assert "configuration error: " in capsys.readouterr().err


@pytest.mark.parametrize("spec, holds, fails", [
    ({"kind": "PRECISION_SWEEP", "dataset": {"synthetic": {"n": 100, "k": 2, "seed": 1}},
      "seed": 1, "params": {"folds": 2, "bits_grid": [7]}}, {"tau": 20}, {"tau": 5}),
    ({"kind": "LEAKAGE", "dataset": {"synthetic": {"n": 400, "k": 4, "seed": 3}},
      "seed": 9, "params": {}}, {"p": 4}, {"p": 16}),
    # GC bytes grow with n on any grid; a real run never departs from it, so
    # the failing run adds a fixed 4096 GC bytes to every row
    ({"kind": "COST_SCALING", "dataset": {"synthetic": {"n": 16, "k": 2, "seed": 3}},
      "seed": 3, "params": {"tau": 1, "k_grid": []}}, {"n_grid": [8, 12]}, {"n_grid": [8, 12]}),
], ids=["PRECISION_SWEEP", "LEAKAGE", "COST_SCALING"])
def test_report_check_exit_code(tmp_path, monkeypatch, capsys, spec, holds, fails):
    # each pair of runs differs in one param (COST_SCALING: in its counters), which
    # decides the kind's check
    spec = {**spec, "output_dir": str(tmp_path / "r")}
    assert _report(tmp_path, {**spec, "params": {**spec["params"], **holds}}) == EXIT_OK
    assert "acceptance check failed" not in capsys.readouterr().err
    if spec["kind"] == "COST_SCALING":
        counters = experiments._protocol_counters

        def padded(*args):
            rep = counters(*args)
            return {**rep, "gc_bytes": rep["gc_bytes"] + 4096}
        monkeypatch.setattr(experiments, "_protocol_counters", padded)
    assert _report(tmp_path, {**spec, "params": {**spec["params"], **fails}}) == EXIT_CHECK
    assert "acceptance check failed: " in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--label-column", "3"], ["--label-column", "-4"],
                                   ["--label-mapping", "[1]"], ["--label-mapping", "1"],
                                   ["--dataset", "synthetic:n=30,k=2,sed=3"]],
                         ids=["column-past-the-end", "column-before-the-start",
                              "list-mapping", "int-mapping", "unknown-synthetic-key"])
def test_dataset_flag_error_exit_code(tmp_path, capsys, flags):
    csv = tmp_path / "t.csv"
    _csv_rows(csv)
    select = ["ds-select", "--dataset", str(csv), "--bins", "2", "--tau", "1",
              "--out", str(tmp_path / "r")]
    assert main(select) == EXIT_OK
    capsys.readouterr()
    assert main(select + flags) == EXIT_CONFIG
    assert "configuration error: " in capsys.readouterr().err


def test_dataset_flag_reads_a_csv_named_synthetic(tmp_path, monkeypatch, capsys):
    # only "synthetic" and "synthetic:..." name the generator; this is a file
    monkeypatch.chdir(tmp_path)
    _csv_rows(tmp_path / "synthetic.csv")
    assert main(["ds-select", "--dataset", "synthetic.csv", "--bins", "2", "--tau", "1",
                 "--out", "r"]) == EXIT_OK
    assert "from 8 candidates" in capsys.readouterr().out  # 2 bins x 2 features x 2


def test_cost_scaling_report_doubles_gc_bytes(tmp_path):
    # the cost benchmark: seed 1 on 256 x 8 records, tau 2, the default grids
    spec = {"kind": "COST_SCALING", "dataset": {"synthetic": {"n": 256, "k": 8, "seed": 1}},
            "output_dir": str(tmp_path / "r"), "seed": 1,
            "params": {"construction": "he-gc", "tau": 2}}
    assert _report(tmp_path, spec) == EXIT_OK
    report = json.loads((tmp_path / "r" / "cost_scaling.json").read_text())
    assert [r["n"] for r in report["rows"] if r["vary"] == "n"] == [16, 32, 64, 128]


def test_train_bitwise_reproducible(tmp_path):
    csv = tmp_path / "d.csv"
    main(["synth", "--n", "50", "--k", "3", "--seed", "6", "--out", str(csv)])
    for sub in ("a", "b"):
        rc = main(["train", "--dataset", str(csv), "--tau", "2", "--seed", "5",
                   "--out", str(tmp_path / sub)])
        assert rc == EXIT_OK
    for name in ("distributed_model.json", "model.json", "transcript.json"):
        assert (tmp_path / "a" / name).read_text() == \
            (tmp_path / "b" / name).read_text()


def test_paper_faithful_flag_forces_secure_parameters(tmp_path, monkeypatch):
    # intercept the run to check the assembled config without 2048-bit cost
    captured = {}

    def fake_run(cfg, folded, transport_kind="memory"):
        captured["cfg"] = cfg
        raise KeyboardInterrupt  # unwind

    import blindboost.harness.cli as cli_mod
    monkeypatch.setattr(cli_mod, "run_learning", fake_run)
    csv = tmp_path / "d.csv"
    main(["synth", "--n", "40", "--k", "2", "--seed", "7", "--out", str(csv)])
    with pytest.raises(KeyboardInterrupt):
        main(["train", "--dataset", str(csv), "--tau", "1",
              "--paper-faithful", "--out", str(tmp_path)])
    cfg = captured["cfg"]
    assert cfg.key_bits == 2048
    assert cfg.ot_group == "modp-2048"
    assert cfg.ot_mode == "base"
    assert cfg.secure_profile


@pytest.mark.parametrize("error", [errors.MalformedMessage, errors.PartyTimeout,
                                   errors.GroupElementInvalid,
                                   errors.IterationOutOfRange, errors.PartMismatch])
def test_protocol_error_exit_code(tmp_path, monkeypatch, capsys, error):
    def fake_run(cfg, folded, transport_kind="memory"):
        raise error("injected")

    import blindboost.harness.cli as cli_mod
    monkeypatch.setattr(cli_mod, "run_learning", fake_run)
    rc = main(["train", "--dataset", "synthetic:n=20,k=2", "--tau", "1",
               "--out", str(tmp_path)])
    assert rc == EXIT_PROTOCOL
    assert "protocol failure: injected" in capsys.readouterr().err
