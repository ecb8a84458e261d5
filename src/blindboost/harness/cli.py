"""Command-line driver.

Subcommands: keygen, train, train-plain, ds-select, synth, leakage, bench,
report. Every flag can also come from a config file of KEY=VALUE lines
(--config); explicit flags win. The only environment variable honored is
BLINDBOOST_LOG (log level).

Exit codes: 0 success, 2 configuration error, 3 protocol failure,
4 acceptance-check failure.
"""

import argparse
import json
import logging
import os
import sys
import time
from pathlib import Path

import numpy as np

from .. import errors
from ..boosting import cv_accuracy, model_to_json
from ..encoding import Dataset, fold_labels, standardize
from ..ot import GROUPS
from ..protocol import (
    ProtocolConfig,
    Seeds,
    reconstruct_model,
    run_learning,
    transcript_report,
)
from ..protocol.config import stream
from ..protocol.stump_select import confidential_ds_select
from .datasets import gen_synthetic, load_csv
from .experiments import ExperimentSpec, make_trainer, run_experiment
from .leakage import leakage_analysis

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PROTOCOL = 3
EXIT_CHECK = 4

log = logging.getLogger("blindboost")

_CONFIG_ERRORS = (errors.ConfigInvalid, errors.ParseError, errors.NonBinaryLabels,
                  errors.BinCountInvalid, FileNotFoundError, ValueError)


class CheckFailure(Exception):
    """A built-in acceptance check did not hold."""


def _read_config_file(path):
    out = {}
    for ln in Path(path).read_text().splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        if "=" not in ln:
            raise errors.ConfigInvalid(f"config line without '=': {ln!r}")
        key, value = ln.split("=", 1)
        out[key.strip().replace("-", "_")] = value.strip()
    return out


def _set_config_defaults(sub, path):
    """Make the config file's values the defaults of subcommand parser `sub`,
    so that any flag given on the command line wins over the file."""
    actions = {a.dest: a for a in sub._actions}
    defaults = {}
    for key, value in _read_config_file(path).items():
        action = actions.get(key)
        if action is None:
            raise errors.ConfigInvalid(f"unknown config key {key!r}")
        if isinstance(action.default, bool):
            defaults[key] = value.lower() in ("1", "true", "yes")
        else:
            defaults[key] = action.type(value) if action.type else value
    sub.set_defaults(**defaults)


def _load_dataset(args) -> Dataset:
    ref = args.dataset
    if ref.startswith("synthetic"):
        params = dict(n=10_000, k=10, seed=args.seed)
        if ":" in ref:
            for part in ref.split(":", 1)[1].split(","):
                key, value = part.split("=")
                params[key] = int(value)
        return gen_synthetic(params["n"], params["k"], params["seed"])
    mapping = json.loads(args.label_mapping) if args.label_mapping else None
    if mapping:
        mapping = {k: int(v) for k, v in mapping.items()}
    return load_csv(ref, label_column=args.label_column, label_mapping=mapping)


def _seeds(args) -> Seeds:
    return Seeds(cloud=args.seed, csp=args.seed + 1, data=args.seed + 2)


def _write(out_dir, name, payload):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / name
    path.write_text(payload if isinstance(payload, str) else
                    json.dumps(payload, sort_keys=True, indent=2) + "\n")
    log.info("wrote %s", path)
    return path


# ---------------------------------------------------------------------------
# subcommands


def cmd_keygen(args):
    from .. import paillier

    kp = paillier.keygen(args.bits, stream(args.seed, b"keyg"))
    payload = {"key_bits": args.bits, "n": kp.public.n, "g": kp.public.g,
               "h_n": kp.public.h_n, "lambda": kp.secret.lam, "mu": kp.secret.mu,
               "p": kp.secret.p, "q": kp.secret.q}
    _write(args.out, "keypair.json", payload)
    print(f"generated {args.bits}-bit key pair (seed {args.seed})")
    return EXIT_OK


def cmd_train(args):
    ds = _load_dataset(args)
    std = standardize(ds)
    folded = fold_labels(std)
    key_bits, ot_group = args.key_bits, args.ot_group
    if args.paper_faithful:
        key_bits, ot_group = 2048, "modp-2048"
    cfg = ProtocolConfig(construction=args.construction, tau=args.tau,
                         p_max=args.pmax or 2 * args.tau,
                         precision_bits=args.bits, key_bits=key_bits,
                         ot_group=ot_group, seeds=_seeds(args),
                         secure_profile=args.paper_faithful)
    started = time.time()
    dm, transcript = run_learning(cfg, folded, transport_kind=args.transport)
    elapsed = time.time() - started
    model = reconstruct_model(dm)
    _write(args.out, "distributed_model.json", dm.to_json())
    _write(args.out, "model.json", model_to_json(model))
    _write(args.out, "transcript.json", transcript_report(transcript))
    train_acc = float((model.predict(std.X) == std.y).mean())
    print(f"{args.construction}: accepted {len(dm.cloud_part)}/{cfg.tau} in "
          f"{transcript.iterations()} tries; training accuracy {train_acc:.4f}; "
          f"{elapsed:.1f}s")
    return EXIT_OK


def cmd_train_plain(args):
    ds = _load_dataset(args)
    trainer = make_trainer(args.base, args.tau, args.seed,
                           precision_bits=args.bits if args.quantized else None)
    mean, std, per_fold = cv_accuracy(ds.X, ds.y, args.folds, trainer,
                                      seed=args.seed)
    payload = {"base": args.base, "tau": args.tau, "folds": args.folds,
               "seed": args.seed, "accuracy_mean": mean, "accuracy_std": std,
               "per_fold": per_fold}
    _write(args.out, f"train_plain_{args.base}.json", payload)
    print(f"{args.base} tau={args.tau}: {100 * mean:.2f}% +- {100 * std:.2f}% "
          f"({args.folds}-fold CV)")
    return EXIT_OK


def cmd_ds_select(args):
    ds = _load_dataset(args)
    std = standardize(ds)
    cfg = ProtocolConfig(construction="he-gc", tau=args.tau, p_max=args.tau,
                         precision_bits=args.bits, key_bits=args.key_bits,
                         seeds=_seeds(args))
    res = confidential_ds_select(cfg, std, s=args.bins, tau=args.tau)
    payload = {"bins": args.bins, "tau": args.tau,
               "selected_indices": res.selected_indices, "alphas": res.alphas,
               "transcript": transcript_report(res.transcript)}
    _write(args.out, "ds_select.json", payload)
    acc = float((res.model.predict(std.X) == std.y).mean())
    print(f"selected {len(res.selected_indices)} stumps from "
          f"{2 * args.bins * std.k} candidates; training accuracy {acc:.4f}")
    return EXIT_OK


def cmd_synth(args):
    ds = gen_synthetic(args.n, args.k, args.seed)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    rows = np.hstack([ds.X, ds.y[:, None].astype(np.float64)])
    header = ",".join([f"x{i}" for i in range(args.k)] + ["label"])
    np.savetxt(out, rows, delimiter=",", header=header, comments="",
               fmt="%.10g")
    print(f"wrote {ds.n}x{ds.k} synthetic dataset to {out}")
    return EXIT_OK


def cmd_leakage(args):
    ds = _load_dataset(args)
    rep = leakage_analysis(ds, args.p, args.seed, args.pair_sample)
    _write(args.out, "leakage.json", rep.to_dict())
    ident = rep.bucket(0)
    print(f"sampled {rep.sampled_pairs} pairs over {rep.p} classifiers; "
          f"global mean distance {rep.global_mean:.4f}")
    if ident is not None:
        gap = abs(ident.mean_distance - rep.global_mean)
        print(f"identical-CV bucket: {ident.count} pairs, mean distance "
              f"{ident.mean_distance:.4f} (|gap| = {gap:.4f}, "
              f"global std {rep.global_std:.4f})")
        if gap >= rep.global_std:
            raise CheckFailure("identical-CV bucket deviates by more than one std")
    return EXIT_OK


def cmd_bench(args):
    spec = ExperimentSpec(kind="COST_SCALING",
                          dataset={"synthetic": {"n": 256, "k": 8,
                                                 "seed": args.seed}},
                          output_dir=args.out, seed=args.seed,
                          params={"construction": args.construction,
                                  "tau": 2})
    report = run_experiment(spec)
    print(json.dumps(report["gc_bytes_doubling_ratios"]))
    for ratio in report["gc_bytes_doubling_ratios"]:
        if abs(ratio - 2.0) > 0.1:
            raise CheckFailure(f"GC bytes did not double with n (ratio {ratio:.3f})")
    print("cost scaling: GC bytes double with n (within 5%)")
    return EXIT_OK


def cmd_report(args):
    spec = ExperimentSpec.from_json(Path(args.spec).read_text())
    report = run_experiment(spec)
    print(f"{spec.kind} report written to {spec.output_dir}")
    if spec.kind == "PRECISION_SWEEP":
        b7 = next((pt for pt in report["points"] if pt["bits"] == 7), None)
        if b7 and abs(b7["accuracy_mean"] - report["real_accuracy"]) > 0.02:
            raise CheckFailure("7-bit accuracy deviates from the real-valued "
                               "run by more than 2 points")
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser():
    """The top-level parser and its subcommand parsers, by name."""
    parser = argparse.ArgumentParser(prog="blindboost")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, dataset=True):
        p.add_argument("--config", default=None,
                       help="KEY=VALUE config file; explicit flags win")
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--out", default="reports")
        if dataset:
            p.add_argument("--dataset", default="synthetic",
                           help="CSV path or synthetic[:n=N,k=K,seed=S]")
            p.add_argument("--label-column", type=int, default=-1)
            p.add_argument("--label-mapping", default=None,
                           help='JSON, e.g. {"g": 1, "b": -1}')

    p = sub.add_parser("keygen", help="generate a Paillier key pair")
    common(p, dataset=False)
    p.add_argument("--bits", type=int, default=512)
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("train", help="two-party confidential training")
    common(p)
    p.add_argument("--construction", choices=["he-gc", "secsh-gc"],
                   default="he-gc")
    p.add_argument("--tau", type=int, default=20)
    p.add_argument("--pmax", type=int, default=0, help="default 2*tau")
    p.add_argument("--bits", type=int, default=7, help="fixed-point precision")
    p.add_argument("--key-bits", type=int, default=512)
    p.add_argument("--ot-group", choices=sorted(GROUPS), default="modp-768")
    p.add_argument("--transport", choices=["memory", "socket"], default="memory")
    p.add_argument("--paper-faithful", action="store_true",
                   help="2048-bit keys and OT group")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("train-plain", help="plaintext boosting with CV")
    common(p)
    p.add_argument("--base", choices=["rlc", "ds", "lmc"], default="rlc")
    p.add_argument("--tau", type=int, default=200)
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--bits", type=int, default=7)
    p.add_argument("--quantized", action="store_true",
                   help="use the fixed-point indicator path")
    p.set_defaults(func=cmd_train_plain)

    p = sub.add_parser("ds-select", help="confidential decision-stump selection")
    common(p)
    p.add_argument("--bins", type=int, default=16)
    p.add_argument("--tau", type=int, default=5)
    p.add_argument("--bits", type=int, default=7)
    p.add_argument("--key-bits", type=int, default=512)
    p.set_defaults(func=cmd_ds_select)

    p = sub.add_parser("synth", help="emit a synthetic dataset CSV")
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--n", type=int, default=10_000)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--out", default="synthetic.csv")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("leakage", help="characterization-vector analysis")
    common(p)
    p.add_argument("--p", type=int, default=16, help="classifiers to try")
    p.add_argument("--pair-sample", type=int, default=1_000_000)
    p.set_defaults(func=cmd_leakage)

    p = sub.add_parser("bench", help="protocol cost benchmark")
    common(p, dataset=False)
    p.add_argument("--construction", choices=["he-gc", "secsh-gc"],
                   default="he-gc")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("report", help="run an experiment spec file")
    p.add_argument("--config", default=None)
    p.add_argument("--spec", required=True, help="ExperimentSpec JSON file")
    p.set_defaults(func=cmd_report)

    return parser, sub.choices


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("BLINDBOOST_LOG", "WARNING").upper())
    parser, commands = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            _set_config_defaults(commands[args.command], args.config)
            args = parser.parse_args(argv)
        return args.func(args)
    except CheckFailure as exc:
        print(f"acceptance check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK
    except _CONFIG_ERRORS as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except errors.BlindBoostError as exc:
        print(f"protocol failure: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL


if __name__ == "__main__":
    sys.exit(main())
