"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload {train,generate,analyze} --seed N \
        --seconds S --trace {0,1} [--out DIR]

Run from anywhere inside a checkout; the program is imported from `src/`.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. The lines before it
print every metric by name with its unit, the workload's extra figures, the
output checks and the environment stamp. `--out DIR` also writes the full
report (`report.json`) and, traced, every span (`spans.jsonl`) there.

Exit codes: 0 when every output check passed, 1 when one failed, 2 when the
arguments are bad or the program's source is missing.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

import env  # noqa: E402

def _parse(argv):
    p = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("train", "generate", "analyze"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="directory for report.json and, traced, spans.jsonl")
    return p.parse_args(argv)


def _fmt(value):
    return "n/a" if value is None else f"{value:.6g}"


def _print_table(title, metrics, note=None):
    print(f"{title}:")
    for name, (value, unit) in metrics.items():
        extra = f"  ({note(name)})" if note else ""
        print(f"  {name:36s} {_fmt(value):>14s} {unit}{extra}")


def main(argv=None):
    args = _parse(argv)
    if not env.configure():
        print(f"error: no program source at {env.SRC}/vem", file=sys.stderr)
        return 2
    import workloads

    scratch = os.path.join(env.ROOT, ".bench_work")
    workdir = os.path.join(scratch, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        report = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                               workdir, _T0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass    # another run still uses it
    stamp = env.stamp(args.workload, args.seed)
    if stamp["blas_threads_exceed_nproc"]:
        print(f"warning: {stamp['blas_threads']} BLAS threads on {stamp['nproc']} cores",
              file=sys.stderr)
    tracer = report.pop("tracer", None)

    with open(os.path.join(env.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    n_ok = report["extra"]["ops_ok"][0]
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}: "
          f"{report['attempted']} ops attempted, {report['failed']} failed")
    if args.trace:
        _print_table("per-layer (per op unless named per call)", report["per_layer"])
        if report["trace_missing"]:
            print(f"  untraced targets (not found): {', '.join(report['trace_missing'])}")
    else:
        _print_table("end-to-end", report["end_to_end"],
                     lambda n: f"{better[n]} is better"
                     + (f", n={n_ok}" if n.startswith("op_ms") else ""))
    _print_table("extra", report["extra"])
    for name, problems in report["checks"].items():
        print(f"check {name}: {'ok' if not problems else 'FAILED: ' + '; '.join(problems[:5])}")
    print("env: " + json.dumps(stamp, sort_keys=True))

    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "report.json"), "w", encoding="utf-8") as fh:
            json.dump(dict(report, env=stamp), fh, indent=1, default=str)
        if tracer is not None:
            tracer.write(os.path.join(args.out, "spans.jsonl"))

    chosen = report["per_layer"] if args.trace else report["end_to_end"]
    print(json.dumps({
        "correct": report["correct"], "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
    }))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
