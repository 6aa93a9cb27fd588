"""seedmark benchmark: one workload, one seed, one closed-loop run.

    python3 bench/run.py --workload eval-naive --seed 0 --seconds 20 --trace 0

Run from the repository root. Human-readable lines come first; the last
line of standard output is the JSON result: `correct`, `attempted`,
`failed` and `metrics` (the end-to-end metrics with `--trace 0`, the
per-layer metrics with `--trace 1`). See bench/README.md.
"""

import argparse
import json
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def report(run, args, env):
    import runner

    w = run.workload
    say = lambda line: print(f"[bench] {line}")
    say(f"env {json.dumps(env, sort_keys=True)}")
    say(f"workload {w.name}: {w.why}")
    say(f"setup x{len(run.setup_s)}, median {statistics.median(run.setup_s):.4f} s")
    say(f"ops attempted {run.attempted}, failed {len(run.failures)}, "
        f"fail_share {len(run.failures) / run.attempted:.4f}")
    for message in run.failures[:5] + run.problems:
        say(f"CHECK FAILED {message}")
    if not args.trace:
        value, pct, beyond = runner.tail(run.bare)
        say(f"op_s: mean of {len(run.bare)} ops = {statistics.fmean(run.bare):.6f} s, "
            f"median {statistics.median(run.bare):.6f} s, fastest {min(run.bare):.6f} s")
        say(f"op_s tail: p{pct:.1f} of {len(run.bare)} ops ({beyond} beyond) = {value:.6f} s")
        metrics = runner.end_to_end_metrics(run)
    else:
        rows, op_s = runner.layer_table(run)
        say(f"traced ops {len(run.traced)} (mean {op_s:.6f} s), bare ops {len(run.bare)}")
        say(f"{'layer':<16}{'calls/op':>12}{'self s/op':>12}{'share':>8}")
        for layer, calls, self_s, share in rows:
            say(f"{layer:<16}{calls:>12.1f}{self_s:>12.6f}{share:>8.1%}")
        layer, _, self_s, share = rows[0]
        say(f"largest self_s: {layer} ({self_s:.6f} s/op, {share:.1%} of traced op_s)")
        counts = runner.per_op_counts(run)
        for name, want in run.expected.items():
            got = counts.get(name, 0.0)
            say(f"cross-check {name}: {got:g} per op, expected {want} "
                f"{'ok' if got == want else 'MISMATCH'}")
        metrics = runner.per_layer_metrics(run)
    width = max(len(name) for name in metrics)
    for name, m in metrics.items():
        say(f"{name:<{width}} {m['value']:.6g} {m['unit']}")
    return metrics


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "seedmark" / "__init__.py").is_file():
        print(f"error: no seedmark sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import environment
    import runner
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = environment.describe(ROOT, workload.name, args.seed)
    from seedmark.errors import SeedmarkError

    try:
        # Inside the checkout, not the system temporary directory: the
        # benchmark reads and writes nothing outside the tree it runs from.
        with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as workdir:
            run = runner.run_workload(workload, args.seed, args.seconds, bool(args.trace), workdir)
    except SeedmarkError as exc:  # raised by set-up: there is nothing to time
        print(f"error: set-up failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    metrics = report(run, args, env)
    print(json.dumps({"correct": run.correct, "attempted": run.attempted,
                      "failed": len(run.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
