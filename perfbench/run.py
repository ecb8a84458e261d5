"""Protocol benchmark for blindboost.

    python3 perfbench/run.py --workload secsh-baseot --seed 1 --seconds 25 --trace 0

Runs whole operations of one workload until `--seconds` have passed, checks
every operation's output apart from the protocol, and prints as its last
line one JSON object: `correct`, `attempted`, `failed` and `metrics`.
With `--trace 0` the metrics are the end-to-end ones (medians over the
run's operations); with `--trace 1` the run is traced and the metrics are
the per-layer ones (means per operation), and the spans are written to
`perfbench/out/`. See perfbench/README.md.
"""

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


def _import_program():
    """Put the checkout's own sources first; refuse any other copy."""
    if not (SRC / "blindboost").is_dir():
        sys.exit(f"no blindboost sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import blindboost
    if SRC.resolve() not in Path(blindboost.__file__).resolve().parents:
        sys.exit(f"blindboost imported from {blindboost.__file__}, not {SRC}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true",
                   help="small inputs, for the benchmark's own tests")
    return p.parse_args(argv)


def self_test(outcome, workloads):
    """Each corrupted copy of a real output must fail the checks, which the
    run loop counts as a failed operation; returns the copies that pass."""
    return [label for label, bad in workloads.corruptions(outcome)
            if not workloads.check(bad)]


def run(args):
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.get(args.workload, toy=args.toy)
    tracer = tracing.Tracer() if args.trace else None
    clock = workloads.SetupClock(tracer)
    patches = tracing.Patches()
    if tracer is not None:
        tracer.install(patches)
    workloads.instrument(wl, clock, patches)

    attempted = failed = 0
    correct = True
    setups, trains, sizes, layer_rows, xcheck = [], [], [], [], {}
    spans_out = []
    start = time.perf_counter()
    try:
        while attempted == 0 or time.perf_counter() - start < args.seconds:
            index = attempted
            attempted += 1
            try:
                out = workloads.run_op(wl, args.seed, index, clock, tracer)
            except Exception as exc:  # noqa: BLE001 - counted, then reported
                failed += 1
                print(f"operation {index} raised {exc!r}", file=sys.stderr)
                if tracer is not None:
                    tracer.take()
            else:
                spans = tracer.take() if tracer is not None else []
                if index == 0:
                    missed = self_test(out, workloads)
                    if missed:
                        correct = False
                        print(f"checks accepted corrupted outputs: {missed}",
                              file=sys.stderr)
                problems = workloads.check(out)
                if problems:
                    failed += 1
                    correct = False
                    print(f"operation {index} failed its checks: {problems}",
                          file=sys.stderr)
                    continue
                setups.append(out.setup_s)
                trains.append(out.train_s)
                sizes.append(out.transcript.total_bytes())
                if tracer is not None:
                    spans_out += spans
                    row = tracing.op_metrics(spans, out.root, out.setup_span)
                    by_phase = out.transcript.bytes_by_phase()
                    for phase in tracing.PHASES:
                        row[f"bytes.{phase}"] = by_phase[phase]
                    row["traced.setup_s"] = out.setup_s
                    row["traced.train_s"] = out.train_s
                    layer_rows.append(row)
                    for name, program, traced in tracing.crosscheck(out.transcript, row):
                        xcheck.setdefault(name, []).append((program, traced))
    finally:
        patches.restore()

    result = {"correct": correct, "attempted": attempted, "failed": failed}
    if not trains:
        result["metrics"] = {}
        print(json.dumps(result))
        return 1
    if tracer is None:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "train_s": (statistics.median(trains), "s"),
            "bytes_total": (statistics.median(sizes), "bytes"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
    else:
        metrics = {}
        for name in tracing.per_layer_names():
            values = [row[name] for row in layer_rows]
            metrics[name] = (sum(values) / len(values), tracing.metric_unit(name))
        produced = set(layer_rows[0])
        if produced != set(metrics):
            raise RuntimeError(f"undeclared per-layer metrics "
                               f"{sorted(produced - set(metrics))}")
        report_trace(args, layer_rows, xcheck, spans_out, setups, trains)
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps(result))
    return 0


def report_trace(args, layer_rows, xcheck, spans, setups, trains):
    """Prints the cross-check and the named-span shares, and writes the spans."""
    import tracing

    mean = {k: sum(r[k] for r in layer_rows) / len(layer_rows) for k in layer_rows[0]}
    shares = tracing.named_share(mean)
    differ = []
    for name, pairs in xcheck.items():
        for program, traced in pairs:
            if (program or 0) != traced:
                differ.append((name, program, traced))
                break
    for name, program, traced in differ:
        shown = "no counters" if program is None else program
        print(f"crosscheck {args.workload} {name}: program={shown} traced={traced}")
    print(f"crosscheck {args.workload}: {len(xcheck) - len(differ)} of "
          f"{len(xcheck)} counters agree")
    for party, share in shares.items():
        print(f"named spans {args.workload} {party}: {share:.1%} of busy_s")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "toy": args.toy,
        "operations": len(layer_rows), "setup_s": setups, "train_s": trains,
        "per_operation": layer_rows, "named_share": shares,
        "crosscheck_differences": [list(d) for d in differ],
        "span_fields": ["id", "name", "party", "parent", "wall0", "cpu0",
                        "wall1", "cpu1", "count"],
        "spans": spans,
    }))


def main(argv=None):
    args = parse_args(argv)
    _import_program()
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
