"""plrank benchmark: one workload, one closed loop, one JSON result line.

    python3 bench/run.py --workload coverage-n200 --seed 1 --seconds 20 --trace 0

Run it from the root of a plrank checkout; plrank is imported from that
checkout's ``src``. With ``--trace 0`` the result holds the end-to-end
metrics (set-up time, median operation time, peak RSS); with ``--trace 1``
it holds the per-layer metrics of a separate traced run (see tracing.py).
Operations start until their summed time reaches ``--seconds``; every
operation's outputs are checked after it, outside the timed region. The
last line of standard output is the result; a copy with the per-operation
samples goes to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_TRIALS = 5
WORKLOAD_NAMES = ("coverage-n200", "large-n2000", "races-cli", "diagnostics-n40")
KINDS = ("full", "qmle", "choice1", "choice2")

PER_LAYER = (
    [
        ("graphs.sample_edges.s", "s"), ("graphs.edges", "count"),
        ("graphs.graph_diagnostics.s", "s"), ("graphs.spectral_diagnostics.s", "s"),
        ("model.sample_rankings.s", "s"),
        ("model.with_cutoff.s", "s"), ("model.with_cutoff.calls", "count"),
        ("model.broken_pairs.s", "s"), ("model.broken_pairs.calls", "count"), ("model.broken_pairs.rows", "count"),
        ("model.load_dataset.s", "s"), ("model.save_dataset.s", "s"),
        ("likelihood.expected_marginal_hessian.s", "s"), ("likelihood.expected_marginal_hessian.calls", "count"),
        ("likelihood.quasi_hessian.s", "s"), ("likelihood.quasi_hessian.calls", "count"),
        ("estimators.existence_check.s", "s"), ("estimators.existence_check.calls", "count"),
    ]
    + [(f"estimators.fit.{k}.{f}", u) for k in KINDS for f, u in (("s", "s"), ("sweeps", "count"), ("s_per_sweep", "s/sweep"))]
    + [("estimators.fit.nonconverged", "count")]
    + [(f"inference.standard_errors.{k}.s", "s") for k in KINDS]
    + [(f"inference.theta_cost.{k}", "count") for k in KINDS]
    + [("harness.run_experiment.s", "s"), ("harness.ingest_races.s", "s"), ("cli.import_s", "s")]
    + [(f"cli.{step}.s", "s") for step in ("ingest", "fit_qmle", "infer", "fit_full")]
    + [("trace.op_s", "s")]
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_plrank():
    """Import the workloads (and with them plrank) from this checkout only."""
    if not (SRC / "plrank" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'plrank'} not found; run from the root of a plrank checkout")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import plrank
    import workloads

    if Path(plrank.__file__).resolve().parent != SRC / "plrank":
        sys.exit(f"error: imported plrank from {plrank.__file__}, not from {SRC}")
    return workloads


def median_wall(argv, env=None) -> float:
    """Median wall-clock of ``SETUP_TRIALS`` runs of a fresh process."""
    times = []
    for _ in range(SETUP_TRIALS):
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL, env=env)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def measure_setup(args) -> float:
    """Time from process start to ready-for-the-first-operation: interpreter
    start, importing plrank and building this workload's inputs."""
    return median_wall([sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                        "--seed", str(args.seed), "--seconds", "0", "--setup-only"])


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; the children figure is the largest child
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def run(args, workloads, workdir: Path) -> dict:
    traced = bool(args.trace)
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    workload.setup()
    if args.setup_only:
        return {}
    tracer = None
    if traced:
        import tracing

        tracer = tracing.Tracer()
        tracer.install(workload)

    samples, summaries, errors = [], [], []
    attempted = failed = 0
    spent = 0.0
    while attempted == 0 or spent < args.seconds:
        i = attempted
        attempted += 1
        workload.prepare(i)
        t0 = time.perf_counter()
        try:
            out = tracer.span("op", workload.op, i) if tracer else workload.op(i)
        except Exception:
            failed += 1
            spent += time.perf_counter() - t0
            traceback.print_exc()
            continue
        samples.append(time.perf_counter() - t0)
        spent += samples[-1]
        summary = workload.verify(out)
        del out
        errors += summary["errors"]
        summaries.append(summary)
    if summaries:
        errors += workload.verify_run(summaries)
    for line in errors:
        print(f"CHECK FAILED: {line}", file=sys.stderr)

    if traced:
        ops = tracer.per_op()
        values = tracing.per_layer_metrics(ops, [name for name, _ in PER_LAYER])
        values["cli.import_s"] = median_wall([sys.executable, "-c", "import plrank.cli"], workloads.plrank_env())
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
        detail = {"spans": tracer.spans, "per_op": ops}
    else:
        metrics = {
            "setup_s": {"value": measure_setup(args), "unit": "s"},
            "op_s": {"value": statistics.median(samples or [spent]), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
        detail = {"op_samples_s": samples}
    result = {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}
    save(args, result, detail)
    print(f"{args.workload} seed {args.seed}: {len(samples)} operations, "
          f"{failed} failed, {len(errors)} check failures", flush=True)
    return result


def save(args, result, detail) -> None:
    out = BENCH / "results"
    out.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": {"python": platform.python_version(), "platform": platform.platform(),
                    "processor": platform.processor()},
        **result, **detail,
    }
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record))


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = import_plrank()
    work_root = BENCH / "work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        result = run(args, workloads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not args.setup_only:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
