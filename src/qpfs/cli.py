"""Command-line front end.

Subcommands: fetch, select, evaluate, reproduce, inspect.  Exit codes: 0
success, 2 configuration error, 3 data error, 4 numerical failure.

Every setting has one home.  Selection settings take their defaults from
``SelectionConfig`` and ``DiscretizationPolicy``, evaluation settings from
``CvProtocol``; the CLI builds those objects from the values a run sets
and repeats none of their defaults.  A run sets values with flags and with
a flat ``key = value`` config file (``--config``) whose keys are the flag
names with ``_`` for ``-`` (``cv_seed = 3``).  Each config value is
converted and checked by its flag's own argparse action (type, choices,
``true``/``false`` for a switch), and flags win over the file.  A key that
no subcommand defines is an error; a key that only other subcommands
define is skipped, so one file can serve every subcommand.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from importlib import resources
from pathlib import Path

from . import __version__
from .errors import ConfigError, DataError, NumericalError, QpfsError
from .evaluation import (CONVENTIONS, ENCODINGS, CvProtocol, format_delta_table,
                         format_report_table, reports_to_json)
from .fetch import SOURCES, fetch_dataset
from .infotheory import matrix_to_text, vector_to_text
from .ingest import (METHODS_DISCRETIZE, MISSING_POLICIES, DiscretizationPolicy,
                     Dataset, discretize, load_csv, load_schema, parse_schema_text)
from .pipeline import (METHODS, Q_DIAGONALS, SelectionConfig, evaluate_methods,
                       quadratic_problem, reference_results, reproduce_tables,
                       select_features)
from .qp import weights_to_text

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4

DATA_DIR = "data"                  # where `qpfs fetch` puts the built-in datasets
SWITCH_VALUES = {"true": True, "yes": True, "1": True,
                 "false": False, "no": False, "0": False}


# ---------------------------------------------------------------------------
# Config file
# ---------------------------------------------------------------------------

def read_config_file(path) -> dict[str, str]:
    """Flat ``key = value`` lines; '#' starts a comment."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}, line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _convert(action: argparse.Action, text: str):
    """A config value as the flag's action would store it."""
    if action.nargs == 0:                  # a switch
        if text.lower() not in SWITCH_VALUES:
            raise ValueError(f"expected true or false, got {text!r}")
        return SWITCH_VALUES[text.lower()]
    value = action.type(text) if action.type else text
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"invalid choice {value!r}"
                         f" (choose from {', '.join(map(repr, action.choices))})")
    return value


def config_options(parser: argparse.ArgumentParser, command: str, path) -> dict:
    """The values a config file sets for ``command``, converted by its flags."""
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    settings = {name: {a.dest: a for a in sub._actions if a.dest not in ("help", "config")}
                for name, sub in subparsers.choices.items()}
    options = {}
    for key, text in read_config_file(path).items():
        action = settings[command].get(key)
        if action is None:
            if not any(key in actions for actions in settings.values()):
                raise ConfigError(f"{path}: unknown config key {key!r}")
            continue                       # another subcommand's setting
        try:
            options[key] = _convert(action, text)
        except ValueError as exc:
            raise ConfigError(f"{path}: config key {key!r}: {exc}") from None
    return options


# ---------------------------------------------------------------------------
# Shared resolution helpers
# ---------------------------------------------------------------------------

def packaged_schema_text(name: str) -> str:
    return resources.files("qpfs.data").joinpath(f"{name}.schema").read_text()


def resolve_dataset(options: dict) -> Dataset:
    """``--data`` with ``--schema``, or the built-in ``--name`` from ``--data-dir``."""
    name = options.get("name")
    data_path = options.get("data")
    if data_path is None:
        if name is None:
            raise ConfigError("give --data/--schema paths or --name german|australian")
        data_path = Path(options.get("data_dir", DATA_DIR)) / SOURCES[name].filename
        if not data_path.exists():
            raise DataError(
                f"dataset file {data_path} not found; run `qpfs fetch` or place it there"
            )
    if "schema" in options:
        schema = load_schema(options["schema"])
    elif name is not None:
        schema = parse_schema_text(packaged_schema_text(name), source=f"<packaged {name}>")
    else:
        raise ConfigError("a --schema file is required with --data")

    delimiter = options.get("delimiter", "whitespace" if name is not None else ",")
    if not delimiter:
        raise ConfigError("delimiter must not be empty; give a cell separator or 'whitespace'")
    return load_csv(data_path, schema,
                    delimiter=None if delimiter == "whitespace" else delimiter,
                    header=options.get("header", False),
                    name=name or Path(data_path).stem)


def _given(options: dict, *same: str, **renamed: str) -> dict:
    """Keyword arguments, by field name, for the keys a run set.

    ``same`` lists keys named like their field; ``renamed`` maps key to field.
    """
    fields = {**{key: key for key in same}, **renamed}
    return {field: options[key] for key, field in fields.items() if key in options}


def resolve_selection_config(options: dict) -> SelectionConfig:
    policy = DiscretizationPolicy(**_given(options, binning="method", bins="n_bins",
                                           missing="missing_policy"))
    return SelectionConfig(policy=policy, **_given(
        options, "method", "k", "alpha", "q_diagonal", "relieff_neighbors",
        "relieff_iterations", "seed"))


def resolve_protocol(options: dict) -> CvProtocol:
    return CvProtocol(**_given(options, "stratified", "encoding", "ridge",
                               folds="n_folds", cv_seed="seed",
                               error_convention="convention"))


def run_record(sel_config: SelectionConfig, protocol: CvProtocol, strict: bool) -> dict:
    """Every setting of a run, as ``report.json`` and ``results.json`` record it."""
    return {"selection": dataclasses.asdict(sel_config),
            "protocol": {**dataclasses.asdict(protocol), "strict": strict},
            "version": __version__}


def _write(out_dir: Path, filename: str, text: str) -> None:
    path = out_dir / filename
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_fetch(options: dict) -> int:
    keys = [options["only"]] if "only" in options else sorted(SOURCES)
    for key in keys:
        path = fetch_dataset(key, options.get("data_dir", DATA_DIR),
                             force=options.get("force", False))
        print(f"{key}: {path}")
    return EXIT_OK


def cmd_select(options: dict) -> int:
    data = resolve_dataset(options)
    sel_config = resolve_selection_config(options)
    output = select_features(data, sel_config)
    names = data.feature_names

    if output.problem is not None:
        print(f"alpha = {output.problem.alpha:.6f}"
              + ("" if sel_config.alpha is None else " (override)"))
        print(f"psd_shift = {output.problem.psd_shift:.3e}")
    print(f"method = {output.result.method}, k = {output.result.k}")
    print(output.result.to_text(names), end="")

    if "out" in options:
        out_dir = Path(options["out"])
        _write(out_dir, "selection.txt", output.result.to_text(names))
        if output.weights is not None:
            _write(out_dir, "weights.txt", weights_to_text(output.weights, names))
    return EXIT_OK


def cmd_evaluate(options: dict) -> int:
    data = resolve_dataset(options)
    sel_config = resolve_selection_config(options)
    protocol = resolve_protocol(options)
    strict = options.get("strict", False)

    report = evaluate_methods(data, [sel_config], protocol, strict)[sel_config.method]
    print(f"dataset = {report.dataset}, method = {report.method}, k = {report.k}")
    print(f"test_error  = {report.test_error:.3f}")
    print(f"type1_error = {report.type1_error:.3f}")
    print(f"type2_error = {report.type2_error:.3f}")

    if "out" in options:
        payload = {**dataclasses.asdict(report), **run_record(sel_config, protocol, strict)}
        _write(Path(options["out"]), "report.json",
               json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_reproduce(options: dict) -> int:
    out_dir = Path(options.get("out", "qpfs_out"))
    sel_config = resolve_selection_config(options)
    protocol = resolve_protocol(options)
    strict = options.get("strict", False)

    keys = [options["only"]] if "only" in options else list(SOURCES)   # german first
    reference = reference_results()
    datasets = {key: (resolve_dataset({**options, "name": key}), SOURCES[key].k_published)
                for key in keys}

    all_reports = reproduce_tables(datasets, sel_config, protocol, strict=strict)

    for key, reports in all_reports.items():
        table = format_report_table(key, datasets[key][1], reports)
        print(table)
        _write(out_dir, f"table_{key}.txt", table)
        ref_methods = reference.get(key, {}).get("methods", {})
        if ref_methods:
            delta = format_delta_table(key, reports, ref_methods)
            print(delta)
            _write(out_dir, f"delta_{key}.txt", delta)
    record = run_record(sel_config, protocol, strict)
    for key in ("method", "k"):            # every table runs each method at its own k
        del record["selection"][key]
    _write(out_dir, "results.json", reports_to_json(all_reports, extras=record))
    print(f"artifacts written to {out_dir}/")
    return EXIT_OK


def cmd_inspect(options: dict) -> int:
    data = resolve_dataset(options)
    sel_config = resolve_selection_config(options)
    dd = discretize(data, sel_config.policy)
    Q, F, problem = quadratic_problem(dd, sel_config)
    bin_counts = [int(b) for b in dd.bin_counts]

    print(f"alpha = {problem.alpha:.6f}")
    print(f"lambda_min(Q_eff) = {problem.lambda_min:.6e}")
    print(f"psd_shift = {problem.psd_shift:.6e}")
    print(f"bin_counts = {bin_counts}")
    print()
    f_text = vector_to_text(F, dd.feature_names)
    print(f_text, end="")

    if "out" in options:
        out_dir = Path(options["out"])
        _write(out_dir, "Q.txt", matrix_to_text(Q, dd.feature_names))
        _write(out_dir, "F.txt", f_text)
        summary = {
            "alpha": problem.alpha,
            "lambda_min": problem.lambda_min,
            "psd_shift": problem.psd_shift,
            "bin_counts": bin_counts,
            "feature_names": dd.feature_names,
        }
        _write(out_dir, "summary.json", json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------
# Flags carry no defaults (argument_default=SUPPRESS): the parsed namespace
# holds only what the command line set, so config values can fill the rest
# and the config dataclasses supply every default.

def _add_dataset_flags(sub):
    sub.add_argument("--name", choices=sorted(SOURCES), help="built-in dataset name")
    sub.add_argument("--data", help="path to a data file")
    sub.add_argument("--schema", help="path to a schema file")
    sub.add_argument("--data-dir", dest="data_dir", help="directory with fetched datasets")
    sub.add_argument("--delimiter", help="cell delimiter, or 'whitespace'")
    sub.add_argument("--header", action="store_true", help="first row is a header")


# A subcommand takes only the selection flags it reads: `inspect` builds the
# quadratic problem alone, and `reproduce` sets each table's method and k.

def _add_method_flags(sub):
    sub.add_argument("--method", choices=METHODS)
    sub.add_argument("--k", type=int, help="selection size")


def _add_selection_flags(sub):
    sub.add_argument("--alpha", type=float, help="override the estimated alpha")
    sub.add_argument("--q-diagonal", dest="q_diagonal", choices=Q_DIAGONALS)
    sub.add_argument("--binning", choices=METHODS_DISCRETIZE)
    sub.add_argument("--bins", type=int, help="bins for continuous features")
    sub.add_argument("--missing", choices=MISSING_POLICIES)


def _add_relieff_flags(sub):
    sub.add_argument("--relieff-neighbors", dest="relieff_neighbors", type=int)
    sub.add_argument("--relieff-iterations", dest="relieff_iterations", type=int)
    sub.add_argument("--seed", type=int, help="selector seed (ReliefF sampling)")


def _add_protocol_flags(sub):
    sub.add_argument("--folds", type=int)
    sub.add_argument("--stratified", action=argparse.BooleanOptionalAction,
                     help="keep each fold's class balance (default) or deal rows"
                          " to folds regardless of class")
    sub.add_argument("--cv-seed", dest="cv_seed", type=int)
    sub.add_argument("--encoding", choices=ENCODINGS)
    sub.add_argument("--ridge", type=float)
    sub.add_argument("--error-convention", dest="error_convention",
                     choices=CONVENTIONS)
    sub.add_argument("--strict", action="store_true",
                     help="re-select features inside each training fold")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpfs",
        description="Feature selection by simplex-constrained quadratic programming,"
                    " with mRMR and filter baselines and a credit-scoring harness.",
    )
    parser.add_argument("--version", action="version", version=f"qpfs {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def subcommand(name, func, summary):
        p = sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
        p.set_defaults(func=func)
        return p

    p = subcommand("fetch", cmd_fetch, "download the UCI credit datasets")
    p.add_argument("--data-dir", dest="data_dir")
    p.add_argument("--only", choices=sorted(SOURCES))
    p.add_argument("--force", action="store_true")
    p.add_argument("--config")

    p = subcommand("select", cmd_select, "rank and select features")
    _add_dataset_flags(p)
    _add_method_flags(p)
    _add_selection_flags(p)
    _add_relieff_flags(p)
    p.add_argument("--out", help="directory for selection artifacts")
    p.add_argument("--config")

    p = subcommand("evaluate", cmd_evaluate, "cross-validated error rates for a selection")
    _add_dataset_flags(p)
    _add_method_flags(p)
    _add_selection_flags(p)
    _add_relieff_flags(p)
    _add_protocol_flags(p)
    p.add_argument("--out")
    p.add_argument("--config")

    p = subcommand("reproduce", cmd_reproduce, "regenerate both benchmark tables")
    p.add_argument("--data-dir", dest="data_dir")
    p.add_argument("--only", choices=sorted(SOURCES))
    p.add_argument("--out")
    _add_selection_flags(p)
    _add_relieff_flags(p)
    _add_protocol_flags(p)
    p.add_argument("--config")

    p = subcommand("inspect", cmd_inspect, "dump Q, F, alpha, and solver diagnostics")
    _add_dataset_flags(p)
    _add_selection_flags(p)
    p.add_argument("--out")
    p.add_argument("--config")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    options = vars(args)
    try:
        if "config" in options:
            options = {**config_options(parser, args.command, options["config"]),
                       **options}
        return args.func(options)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except QpfsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
