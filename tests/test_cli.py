import json

import numpy as np
import pytest

from blindboost import errors
from blindboost.encoding import FoldedMatrix
from blindboost.harness.cli import EXIT_CONFIG, EXIT_OK, EXIT_PROTOCOL, main
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


def test_synth_then_train_plain(tmp_path, capsys):
    csv = tmp_path / "d.csv"
    rc = main(["synth", "--n", "300", "--k", "4", "--seed", "2",
               "--out", str(csv)])
    assert rc == EXIT_OK
    rc = main(["train-plain", "--dataset", str(csv), "--base", "ds",
               "--tau", "10", "--folds", "3", "--out", str(tmp_path / "r")])
    assert rc == EXIT_OK
    report = json.loads((tmp_path / "r" / "train_plain_ds.json").read_text())
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


def test_report_command(tmp_path):
    spec = {"kind": "CV_ACCURACY",
            "dataset": {"synthetic": {"n": 200, "k": 4, "seed": 3}},
            "output_dir": str(tmp_path / "rep"), "seed": 5,
            "params": {"base": "ds", "tau": 8, "folds": 3}}
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec))
    rc = main(["report", "--spec", str(spec_file)])
    assert rc == EXIT_OK
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
], ids=["unknown-key", "list", "no-dataset", "no-kind-and-unknown-key", "int-dataset",
        "int-synthetic-ref", "str-csv-ref", "list-params", "str-seed", "bool-seed",
        "csv-ref-without-path", "int-path", "null-n", "null-label-column", "null-tau"])
def test_report_spec_error_exit_code(tmp_path, capsys, spec):
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    assert main(["report", "--spec", str(tmp_path / "spec.json")]) == EXIT_CONFIG
    assert "configuration error: " in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--label-column", "3"], ["--label-column", "-4"],
                                   ["--label-mapping", "[1]"], ["--label-mapping", "1"]],
                         ids=["column-past-the-end", "column-before-the-start",
                              "list-mapping", "int-mapping"])
def test_dataset_flag_error_exit_code(tmp_path, capsys, flags):
    csv = tmp_path / "t.csv"
    csv.write_text("".join(f"{i % 2},{i},{1 - 2 * (i // 2 % 2)}\n" for i in range(8)))
    train = ["train-plain", "--dataset", str(csv), "--base", "ds", "--tau", "1",
             "--folds", "2", "--out", str(tmp_path / "r")]
    assert main(train) == EXIT_OK
    capsys.readouterr()
    assert main(train + flags) == EXIT_CONFIG
    assert "configuration error: " in capsys.readouterr().err


def test_bench_scaling_check(tmp_path):
    rc = main(["bench", "--seed", "1", "--out", str(tmp_path)])
    assert rc == EXIT_OK


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
