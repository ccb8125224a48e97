"""Command-line front end.

Subcommands: fetch, select, evaluate, reproduce, inspect.  Exit codes: 0
success, 2 configuration error, 3 data error, 4 numerical failure.  This
is the only module that prints or writes files; its artifact section
renders every table and JSON file a run produces.

Every setting has one home.  Selection settings take their defaults from
``SelectionConfig`` and ``DiscretizationPolicy``, evaluation settings from
``CvProtocol``; the CLI builds those objects from the values a run sets
and repeats none of their defaults.  ``SUBCOMMANDS`` lists the flags each
subcommand takes.  A run sets values with flags and with a flat
``key = value`` config file (``--config``) whose keys are the flag names
with ``_`` for ``-`` (``cv_seed = 3``).  Each config value is converted and
checked by its flag's own argparse action (type, choices, ``true``/``false``
for a switch), and flags win over the file.  A key that no subcommand
defines is an error; a key that only other subcommands define is skipped,
so one file can serve every subcommand.
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
from .baselines import SelectionResult
from .evaluation import CONVENTIONS, ENCODINGS, CvProtocol, EvaluationReport
from .fetch import SOURCES, fetch_dataset
from .ingest import (METHODS_DISCRETIZE, MISSING_POLICIES, DiscretizationPolicy,
                     Dataset, discretize, load_csv, load_schema, parse_schema_text)
from .pipeline import (METHODS, Q_DIAGONALS, SelectionConfig, evaluate_methods,
                       quadratic_problem, reproduce_tables, select_features)
from .qp import FeatureWeights, ranking_of

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
        text = Path(path).read_text(encoding="utf-8-sig")   # a leading BOM is not data
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


def config_options(settings: dict[str, dict[str, argparse.Action]], command: str,
                   path) -> dict:
    """The values a config file sets for ``command``, converted by the flag
    actions that ``build_parser`` returns as ``settings``."""
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
    return CvProtocol(**_given(options, "stratified", "encoding", "ridge", "strict",
                               folds="n_folds", cv_seed="seed",
                               error_convention="convention"))


def run_record(sel_config: SelectionConfig, protocol: CvProtocol) -> dict:
    """Every setting of a run, as ``report.json`` and ``results.json`` record it."""
    return {"selection": dataclasses.asdict(sel_config),
            "protocol": dataclasses.asdict(protocol),
            "version": __version__}


def _out_dir(options: dict, default: str | None = None) -> Path | None:
    """Create ``--out`` before the run, so a bad path fails fast; None if unset."""
    path = options.get("out", default)
    if path is None:
        return None
    out_dir = Path(path)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write {out_dir}: {exc}") from exc
    return out_dir


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------
# Every table and JSON file a run prints or writes is rendered here; the
# numerical modules return arrays and dataclasses only.

# The rows of a results table, in the published tables' order, with labels.
METHOD_LABELS = {
    "quadratic": "Quadratic",
    "relieff": "Relief",
    "infogain": "Information Gain",
    "cfs": "CFS Feature Set Evaluation",
    "mrmr": "mRMR",
    "maxrel": "MaxRel",
}


def tsv(rows) -> str:
    """Tab-separated lines, one per row; a float cell is written ``.12g``."""
    return "".join("\t".join(format(float(cell), ".12g") if isinstance(cell, float)
                             else str(cell) for cell in row) + "\n"
                   for row in rows)


def ranked_text(value_name: str, names: list[str], order, values) -> str:
    """The feature / value / rank table over the features of ``order``."""
    return tsv([("feature", value_name, "rank"),
                *((names[i], value, rank) for rank, (i, value)
                  in enumerate(zip(order, values), start=1))])


def selection_text(result: SelectionResult, names: list[str]) -> str:
    """``selection.txt``: mRMR's score at each step, CFS's one merit for every
    feature, and otherwise each selected feature's own score."""
    if result.method == "mrmr":
        values = result.scores
    elif result.method == "cfs":
        values = [result.scores[0]] * len(result.selected)
    else:
        values = result.scores[result.selected]
    return ranked_text("score", names, result.selected, values)


def weights_text(weights: FeatureWeights, names: list[str]) -> str:
    """``weights.txt``: every feature's QP weight, in ranked order."""
    order = ranking_of(weights.x)
    return ranked_text("weight", names, order, weights.x[order])


def matrix_text(values, names: list[str]) -> str:
    """``Q.txt``: a named square matrix with a header row."""
    return tsv([("feature", *names), *((name, *row) for name, row in zip(names, values))])


def report_table(dataset: str, k: int, reports: dict[str, EvaluationReport]) -> str:
    """Aligned text table, one row per method, three error columns."""
    width = max(len(METHOD_LABELS[m]) for m in reports)
    lines = [f"Results for {dataset} dataset, {k} selected features", "",
             f"{'Method':<{width}}  {'Test error':>10}  {'Type I':>8}  {'Type II':>8}"]
    for m, label in METHOD_LABELS.items():
        if m in reports:
            r = reports[m]
            lines.append(f"{label:<{width}}  {r.test_error:>10.3f}"
                         f"  {r.type1_error:>8.3f}  {r.type2_error:>8.3f}")
    return "\n".join(lines) + "\n"


def delta_table(dataset: str, reports: dict[str, EvaluationReport], reference: dict) -> str:
    """Observed-minus-reference deltas against the published error rates."""
    lines = [f"Delta vs published results ({dataset})", "",
             f"{'Method':<28}  {'d(test)':>8}  {'d(type1)':>9}  {'d(type2)':>9}"]
    for m, label in METHOD_LABELS.items():
        if m in reports and m in reference:
            r = reports[m]
            ref_test, ref_t1, ref_t2 = reference[m]
            lines.append(f"{label:<28}  {r.test_error - ref_test:>+8.3f}"
                         f"  {r.type1_error - ref_t1:>+9.3f}  {r.type2_error - ref_t2:>+9.3f}")
    return "\n".join(lines) + "\n"


def results_payload(all_reports: dict[str, dict[str, EvaluationReport]],
                    record: dict) -> dict:
    """``results.json``: every report by dataset and method, and the run record."""
    return {"datasets": {dataset: {method: dataclasses.asdict(report)
                                   for method, report in reports.items()}
                         for dataset, reports in all_reports.items()},
            "run": record}


def to_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write(out_dir: Path, filename: str, text: str) -> None:
    path = out_dir / filename
    try:
        path.write_text(text, encoding="utf-8")
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
    out_dir = _out_dir(options)
    data = resolve_dataset(options)
    sel_config = resolve_selection_config(options)
    output = select_features(data, sel_config)
    names = data.feature_names

    if output.problem is not None:
        print(f"alpha = {output.problem.alpha:.6f}"
              + ("" if sel_config.alpha is None else " (override)"))
        print(f"psd_shift = {output.problem.psd_shift:.3e}")
    print(f"method = {output.result.method}, k = {len(output.result.selected)}")
    selection = selection_text(output.result, names)
    print(selection, end="")

    if out_dir is not None:
        _write(out_dir, "selection.txt", selection)
        if output.weights is not None:
            _write(out_dir, "weights.txt", weights_text(output.weights, names))
    return EXIT_OK


def cmd_evaluate(options: dict) -> int:
    out_dir = _out_dir(options)
    data = resolve_dataset(options)
    sel_config = resolve_selection_config(options)
    protocol = resolve_protocol(options)

    report = evaluate_methods(data, [sel_config], protocol)[sel_config.method]
    print(f"dataset = {report.dataset}, method = {report.method}, k = {report.k}")
    print(f"test_error  = {report.test_error:.3f}")
    print(f"type1_error = {report.type1_error:.3f}")
    print(f"type2_error = {report.type2_error:.3f}")

    if out_dir is not None:
        payload = {**dataclasses.asdict(report), **run_record(sel_config, protocol)}
        _write(out_dir, "report.json", to_json(payload))
    return EXIT_OK


def cmd_reproduce(options: dict) -> int:
    sel_config = resolve_selection_config(options)
    protocol = resolve_protocol(options)
    out_dir = _out_dir(options, "qpfs_out")

    keys = [options["only"]] if "only" in options else list(SOURCES)   # german first
    reference = json.loads(   # the published k and error rates, by dataset
        resources.files("qpfs.data").joinpath("reference_errors.json").read_text())
    datasets = {key: (resolve_dataset({**options, "name": key}), reference[key]["k"])
                for key in keys}

    all_reports = reproduce_tables(datasets, sel_config, protocol)

    for key, reports in all_reports.items():
        table = report_table(key, datasets[key][1], reports)
        print(table)
        _write(out_dir, f"table_{key}.txt", table)
        delta = delta_table(key, reports, reference[key]["methods"])
        print(delta)
        _write(out_dir, f"delta_{key}.txt", delta)
    record = run_record(sel_config, protocol)
    for key in ("method", "k"):            # every table runs each method at its own k
        del record["selection"][key]
    _write(out_dir, "results.json", to_json(results_payload(all_reports, record)))
    print(f"artifacts written to {out_dir}/")
    return EXIT_OK


def cmd_inspect(options: dict) -> int:
    out_dir = _out_dir(options)
    data = resolve_dataset(options)
    sel_config = resolve_selection_config(options)
    dd = discretize(data, sel_config.policy)
    Q, F, problem = quadratic_problem(dd, sel_config)
    names = data.feature_names
    bin_counts = (dd.feature_codes.max(axis=0) + 1).tolist()   # the codes are dense

    print(f"alpha = {problem.alpha:.6f}")
    print(f"lambda_min(Q_eff) = {problem.lambda_min:.6e}")
    print(f"psd_shift = {problem.psd_shift:.6e}")
    print(f"bin_counts = {bin_counts}")
    print()
    f_text = tsv(zip(names, F))
    print(f_text, end="")

    if out_dir is not None:
        _write(out_dir, "Q.txt", matrix_text(Q, names))
        _write(out_dir, "F.txt", f_text)
        summary = {
            "alpha": problem.alpha,
            "lambda_min": problem.lambda_min,
            "psd_shift": problem.psd_shift,
            "bin_counts": bin_counts,
            "feature_names": names,
        }
        _write(out_dir, "summary.json", to_json(summary))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------
# Flags carry no defaults (argument_default=SUPPRESS): the parsed namespace
# holds only what the command line set, so config values can fill the rest
# and the config dataclasses supply every default.

def flag(*names: str, **options) -> tuple:
    """One flag, as the arguments of its ``add_argument`` call."""
    return names, options


DATA_DIR_FLAG = flag("--data-dir", help="directory with fetched datasets")
ONLY_FLAG = flag("--only", choices=sorted(SOURCES))
OUT_FLAG = flag("--out", help="directory for the run's artifacts")
DATASET_FLAGS = (
    flag("--name", choices=sorted(SOURCES), help="built-in dataset name"),
    flag("--data", help="path to a data file"),
    flag("--schema", help="path to a schema file"),
    DATA_DIR_FLAG,
    flag("--delimiter", help="cell delimiter, or 'whitespace'"),
    flag("--header", action="store_true", help="first row is a header"))

# A subcommand takes only the selection flags it reads: `inspect` builds the
# quadratic problem alone, and `reproduce` sets each table's method and k.
METHOD_FLAGS = (flag("--method", choices=METHODS), flag("--k", type=int, help="selection size"))
SELECTION_FLAGS = (
    flag("--alpha", type=float, help="override the estimated alpha"),
    flag("--q-diagonal", choices=Q_DIAGONALS),
    flag("--binning", choices=METHODS_DISCRETIZE),
    flag("--bins", type=int, help="bins for continuous features"),
    flag("--missing", choices=MISSING_POLICIES))
RELIEFF_FLAGS = (
    flag("--relieff-neighbors", type=int),
    flag("--relieff-iterations", type=int),
    flag("--seed", type=int, help="selector seed (ReliefF sampling)"))
PROTOCOL_FLAGS = (
    flag("--folds", type=int),
    flag("--stratified", action=argparse.BooleanOptionalAction,
         help="keep each fold's class balance (default) or deal rows"
              " to folds regardless of class"),
    flag("--cv-seed", type=int),
    flag("--encoding", choices=ENCODINGS),
    flag("--ridge", type=float),
    flag("--error-convention", choices=CONVENTIONS),
    flag("--strict", action="store_true", help="re-select features inside each training fold"))

# The one list of which subcommand takes which flag: name -> (handler, help
# line, flags).  Every subcommand also takes --config, which names a file of
# settings and is none itself.
SUBCOMMANDS = {
    "fetch": (cmd_fetch, "download the UCI credit datasets",
              (DATA_DIR_FLAG, ONLY_FLAG, flag("--force", action="store_true"))),
    "select": (cmd_select, "rank and select features",
               (*DATASET_FLAGS, *METHOD_FLAGS, *SELECTION_FLAGS, *RELIEFF_FLAGS, OUT_FLAG)),
    "evaluate": (cmd_evaluate, "cross-validated error rates for a selection",
                 (*DATASET_FLAGS, *METHOD_FLAGS, *SELECTION_FLAGS, *RELIEFF_FLAGS,
                  *PROTOCOL_FLAGS, OUT_FLAG)),
    "reproduce": (cmd_reproduce, "regenerate both benchmark tables",
                  (DATA_DIR_FLAG, ONLY_FLAG, OUT_FLAG, *SELECTION_FLAGS, *RELIEFF_FLAGS,
                   *PROTOCOL_FLAGS)),
    "inspect": (cmd_inspect, "dump Q, F, alpha, the PSD repair and bin counts",
                (*DATASET_FLAGS, *SELECTION_FLAGS, OUT_FLAG)),
}


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, dict[str, argparse.Action]]]:
    """The parser, and each subcommand's flag actions keyed by config key."""
    parser = argparse.ArgumentParser(
        prog="qpfs",
        description="Feature selection by simplex-constrained quadratic programming,"
                    " with mRMR and filter baselines and a credit-scoring harness.",
    )
    parser.add_argument("--version", action="version", version=f"qpfs {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)
    settings = {}
    for name, (handler, summary, flags) in SUBCOMMANDS.items():
        sub = subparsers.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
        sub.set_defaults(func=handler)
        actions = [sub.add_argument(*names, **options) for names, options in flags]
        sub.add_argument("--config")
        settings[name] = {action.dest: action for action in actions}
    return parser, settings


def main(argv=None) -> int:
    parser, settings = build_parser()
    args = parser.parse_args(argv)
    options = vars(args)
    try:
        if "config" in options:
            options = {**config_options(settings, args.command, options["config"]),
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
