"""Command-line driver.

Subcommands: keygen, train, ds-select, synth, report. Every flag can also
come from a config file of KEY=VALUE lines (--config); explicit flags win.
The only environment variable honored is BLINDBOOST_LOG (log level).

`report --spec` runs every experiment and exits 4 where a PRECISION_SWEEP,
LEAKAGE or COST_SCALING report fails its kind's check (`experiments.CHECKS`).
Plaintext CV is a CV_ACCURACY spec, its b-bit fixed-point run PRECISION_SWEEP
with "bits_grid": [b], the characterization-vector analysis LEAKAGE, and the
cost benchmark of seed S COST_SCALING with "seed": S, "tau": 2 on
{"synthetic": {"n": 256, "k": 8, "seed": S}}.

Exit codes: 0 success, 2 configuration error, 3 protocol failure,
4 a report's acceptance check failed.
"""

import argparse
import json
import logging
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .. import errors, paillier
from ..boosting import model_to_json
from ..encoding import Dataset, fold_labels, standardize
from ..ot import GROUPS
from ..protocol import (
    ProtocolConfig,
    Seeds,
    paper_faithful,
    reconstruct_model,
    run_learning,
    transcript_report,
)
from ..protocol.config import stream
from ..protocol.stump_select import confidential_ds_select
from .datasets import gen_synthetic
from .experiments import CHECKS, ExperimentSpec, resolve_dataset, run_experiment

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PROTOCOL = 3
EXIT_CHECK = 4

log = logging.getLogger("blindboost")

_CONFIG_ERRORS = (errors.ConfigInvalid, errors.ParseError, errors.NonBinaryLabels,
                  errors.BinCountInvalid, errors.FoldTooSmall, FileNotFoundError,
                  ValueError)


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
    if ref == "synthetic" or ref.startswith("synthetic:"):
        params = ref.split(":", 1)[1].split(",") if ":" in ref else []
        fields = {k: int(v) for k, v in (p.split("=") for p in params)}
        return resolve_dataset({"synthetic": fields}, args.seed)
    mapping = {"label_mapping": json.loads(args.label_mapping)} if args.label_mapping else {}
    return resolve_dataset({"csv": {"path": ref, "label_column": args.label_column, **mapping}},
                           args.seed)


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
    p_max, seeds = args.pmax or 2 * args.tau, Seeds.derive(args.seed)
    if args.paper_faithful:
        cfg = replace(paper_faithful(args.construction, args.tau, p_max, seeds),
                      precision_bits=args.bits)
    else:
        cfg = ProtocolConfig(construction=args.construction, tau=args.tau, p_max=p_max,
                             precision_bits=args.bits, key_bits=args.key_bits,
                             ot_group=args.ot_group, seeds=seeds)
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


def cmd_ds_select(args):
    ds = _load_dataset(args)
    std = standardize(ds)
    cfg = ProtocolConfig(construction="he-gc", tau=args.tau, p_max=args.tau,
                         precision_bits=args.bits, key_bits=args.key_bits,
                         seeds=Seeds.derive(args.seed))
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


def cmd_report(args):
    spec = ExperimentSpec.from_json(Path(args.spec).read_text())
    report = run_experiment(spec)
    print(f"{spec.kind} report written to {spec.output_dir}")
    failure = spec.kind in CHECKS and CHECKS[spec.kind](report)
    if failure:
        raise CheckFailure(failure)
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
