"""Command-line harness.

Subcommands: ``fit`` (estimate utilities from a dataset CSV), ``infer``
(plug-in standard errors and CIs for a saved fit), ``graph-diag`` (topology
diagnostics for a dataset or a generated design), ``experiment`` (simulation
studies from a JSON config), ``ingest`` (clean race results into a dataset).

Exit codes: 0 success, 2 configuration error, 3 data error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import harness
from .estimators import ESTIMATOR_KINDS, FitConfig, FitResult, NonexistenceError, fit
from .graphs import DEFAULT_CHAIN_CAP, DEFAULT_CHEEGER_CAP, CapExceededError, IsolatedVertexError, graph_diagnostics
from .inference import DEFAULT_PREFIX_BUDGET, standard_errors
from .likelihood import EnumerationBudgetError
from .model import DataFormatError, load_dataset, save_dataset

CONFIG_ERROR, DATA_ERROR = 2, 3


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _read_data(read, path, **kwargs):
    """``read(path, **kwargs)``, a missing file or data the reader rejects
    raised as a data error."""
    try:
        return read(path, **kwargs)
    except FileNotFoundError as exc:
        raise CliError(f"cannot read {path}: {exc}", DATA_ERROR)
    except DataFormatError as exc:
        raise CliError(str(exc), DATA_ERROR)
    except ValueError as exc:  # a ranking, cutoff or item the model does not admit
        raise CliError(f"{path}: {exc}", DATA_ERROR)


def _load_fit(path) -> FitResult:
    try:
        return FitResult.from_dict(json.loads(Path(path).read_text()))
    except (OSError, ValueError, KeyError) as exc:
        raise CliError(f"cannot read fit file {path}: {exc}", CONFIG_ERROR)


def _cmd_fit(args) -> int:
    dataset = _read_data(load_dataset, args.data)
    config = FitConfig(tol_grad_inf=args.tol, max_iter=args.max_iter)
    try:
        result = fit(dataset, args.estimator, config)
    except NonexistenceError as exc:
        raise CliError(f"estimate does not exist: {exc}", DATA_ERROR)
    payload = result.to_dict()
    payload["n_k"] = [int(v) for v in dataset.degrees()]
    Path(args.out).write_text(json.dumps(payload, indent=2))
    status = "converged" if result.converged else "NOT converged"
    print(f"{args.estimator}: {status} in {result.iterations} iterations "
          f"(normalized score sup-norm {result.final_grad_inf:.3e}); wrote {args.out}")
    return 0


def _cmd_infer(args) -> int:
    dataset, fitted = _read_data(load_dataset, args.data), _load_fit(args.fit)
    try:
        report = standard_errors(fitted, dataset, level=args.level, prefix_budget=args.budget)
    except EnumerationBudgetError as exc:
        detail = ", ".join(f"obs {k}: {v}" for k, v in sorted(exc.per_edge.items())[:5])
        raise CliError(f"{exc} ({detail})", DATA_ERROR)
    except ValueError as exc:
        raise CliError(str(exc), DATA_ERROR)
    report.to_csv(args.out)
    print(f"wrote {args.out} (level {args.level}, enumerated terms {report.theta_cost})")
    return 0


def _cmd_graph_diag(args) -> int:
    if bool(args.data) == bool(args.generate):
        raise CliError("need exactly one of --data or --generate", CONFIG_ERROR)
    if args.data:
        source, n = _read_data(load_dataset, args.data), None
    else:
        try:
            gen = json.loads(Path(args.generate).read_text())
        except (OSError, ValueError) as exc:
            raise CliError(f"cannot read design config {args.generate}: {exc}", CONFIG_ERROR)
        try:
            n = int(gen["n"])
            design = harness.resolve_design(gen["design"], n)
            source = harness.sample_design_edges(design, n, np.random.default_rng(args.seed))
        except (KeyError, ValueError) as exc:
            raise CliError(f"bad design config: {exc}", CONFIG_ERROR)
    u = _load_fit(args.fit).estimate if args.fit else None
    try:
        diag = graph_diagnostics(
            source,
            n=n,
            u=u,
            estimator=args.estimator,
            exact_cheeger=args.exact_cheeger,
            chain_bound=args.gamma_re,
            cheeger_cap=args.cheeger_cap,
            chain_cap=args.gamma_re_cap,
            spectral=not args.no_spectral,
        )
    except (CapExceededError, IsolatedVertexError, EnumerationBudgetError, ValueError) as exc:
        raise CliError(str(exc), DATA_ERROR)
    Path(args.out).write_text(json.dumps(diag.to_dict(), indent=2))
    print(f"wrote {args.out}")
    return 0


def _cmd_experiment(args) -> int:
    try:
        raw = json.loads(Path(args.config).read_text())
        config = harness.ExperimentConfig.from_dict(raw)
    except (OSError, ValueError, TypeError) as exc:
        raise CliError(f"bad experiment config: {exc}", CONFIG_ERROR)
    result = harness.run_experiment(config, out_dir=args.out_dir, workers=args.workers)
    print(f"wrote {Path(args.out_dir) / 'results.csv'} ({len(result.rows)} cells)")
    return 0


def _cmd_ingest(args) -> int:
    ingest = _read_data(harness.ingest_races, args.races, min_races=args.min_races)
    save_dataset(ingest.dataset, args.out)
    ids_path = Path(args.out).with_name(Path(args.out).stem + "_ids.json")
    ids_path.write_text(json.dumps(ingest.horse_ids, indent=0))
    for line in ingest.report_lines():
        print(line)
    print(f"wrote {args.out} (+ sidecar) and {ids_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="plrank", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit an estimator to a dataset CSV")
    p.add_argument("--data", required=True, help="dataset CSV (JSON sidecar optional)")
    p.add_argument("--estimator", required=True, choices=ESTIMATOR_KINDS)
    p.add_argument("--tol", type=float, default=FitConfig.tol_grad_inf, help="normalized score sup-norm tolerance")
    p.add_argument("--max-iter", type=int, default=FitConfig.max_iter)
    p.add_argument("--out", required=True, help="output fit JSON")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("infer", help="plug-in standard errors and CIs for a fit")
    p.add_argument("--fit", required=True, help="fit JSON from the fit subcommand")
    p.add_argument("--data", required=True)
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--budget", type=int, default=DEFAULT_PREFIX_BUDGET, help="largest enumerated-prefix count allowed per edge (the dataset total is not capped)")
    p.add_argument("--out", required=True, help="output CSV")
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("graph-diag", help="comparison-graph diagnostics")
    p.add_argument("--data", help="dataset CSV")
    p.add_argument("--generate", help="JSON design config {n, design} to sample instead")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fit", help="optional fit JSON; spectral quantities use its utilities (else zeros)")
    p.add_argument("--estimator", default="qmle", choices=ESTIMATOR_KINDS)
    p.add_argument("--exact-cheeger", action="store_true")
    p.add_argument("--cheeger-cap", type=int, default=DEFAULT_CHEEGER_CAP)
    p.add_argument("--gamma-re", action="store_true", help="exact admissible-chain bound, a dynamic program over all 2^n subsets (n capped by --gamma-re-cap)")
    p.add_argument("--gamma-re-cap", type=int, default=DEFAULT_CHAIN_CAP)
    p.add_argument("--no-spectral", action="store_true")
    p.add_argument("--out", required=True, help="output JSON")
    p.set_defaults(func=_cmd_graph_diag)

    p = sub.add_parser("experiment", help="run a simulation experiment from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--workers", type=int, default=None, help="defaults to PLRANK_THREADS or 1")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("ingest", help="clean race results into a dataset CSV")
    p.add_argument("--races", required=True, help="CSV with race_id, horse_id, finish_position")
    p.add_argument("--min-races", type=int, default=harness.DEFAULT_MIN_RACES)
    p.add_argument("--out", required=True, help="output dataset CSV")
    p.set_defaults(func=_cmd_ingest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
