"""Command-line entry point.

Subcommands: ``run`` drives a full optimization and writes per-seed report
files; ``grammar count|enumerate|sample`` works a U-Net grammar directly;
``report importance|crosseval|pareto`` post-processes completed runs. Flags
override manifest-file values; the fully resolved manifest is logged next to
the outputs for provenance.

Exit codes: 0 success, 2 validation error, 3 evaluator failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import re
import sys
from pathlib import Path

from . import analysis, configspace as cs, priorband
from .grammar import (
    GrammarError,
    build_grammar,
    count_derivations,
    default_derivation,
    enumerate_derivations,
    sample_derivation,
    serialize,
)
from .harness import (
    BudgetOutOfRangeError,
    EvaluationFailed,
    ExternalEvaluator,
    InvalidProblemError,
    MalformedRowError,
    MissingEntryError,
    ReplayProblem,
    SyntheticProblem,
)
from .scheduler import BudgetLadder, InvalidBudgetsError, budget_ladder

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_EVALUATOR = 3
EXIT_IO = 4

OUTPUT_ROOT_ENV = "JAHSBAND_OUT"


class ManifestError(ValueError):
    """The run manifest or a command-line value is incomplete or invalid."""


#: the values a run's restricted keys may take, from a flag or a manifest
_RUN_CHOICES = {
    "problem": ("synthetic", "replay", "external"),
    "mode": ("priorband", "regularized"),
    "policy": ("standard-hb", "as-written"),
    "optimum": ("random", "default"),
}


_RUN_DEFAULTS = {
    "space": None,
    "problem": "synthetic",
    "replay_file": None,
    "external_cmd": None,
    "external_timeout": 60.0,
    "mode": "regularized",
    "policy": "standard-hb",
    "eta": 3,
    "min_budget": 10,
    "max_budget": 1000,
    "seeds": [0],
    "out": None,
    "workers": 1,
    "continuation": True,
    "noise": 0.0,
    "optimum": "random",
    "problem_seed": 0,
    "curvature": 3.0,
    "hours_per_epoch": 0.002,
    "importance": False,
}


#: each setting's type: its default's, or str (a path or a command) for None
_RUN_TYPES = {k: str if v is None else type(v) for k, v in _RUN_DEFAULTS.items()}

#: settings with a flag of their own name; --seed, --restart, --importance set the rest
_FLAG_KEYS = [k for k in _RUN_DEFAULTS if k not in ("seeds", "continuation", "importance")]

_SEED_SPEC = re.compile(r"(\d+)(?:\s*\.\.\s*(\d+))?")


def _parse_seed_spec(spec: str) -> list[int]:
    seeds: list[int] = []
    for part in filter(None, (p.strip() for p in spec.split(","))):
        match = _SEED_SPEC.fullmatch(part)
        if match is None:
            raise ManifestError(f"seed {part!r} is not n or lo..hi with n, lo, hi >= 0")
        lo, hi = match.groups()
        if hi is not None and int(hi) < int(lo):
            raise ManifestError(f"seed range {part!r} runs backwards")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def _read_manifest(path: Path) -> dict:
    if not path.exists():
        raise ManifestError(f"manifest file not found: {path}")
    manifest = cs._read_json(path, ManifestError)
    if not isinstance(manifest, dict):
        raise ManifestError(f"{path} is not a JSON object")
    return manifest


def _check_settings(settings: dict) -> dict:
    """Return ``settings`` (from ``--manifest`` and the flags, or from a run's
    ``manifest.resolved.json``) once its keys, types and values are valid."""
    wrong = {k for k in settings if not k.startswith("resolved_")} ^ _RUN_DEFAULTS.keys()
    if wrong:
        raise ManifestError(f"unknown or missing manifest keys: {sorted(wrong)}")
    for key, default in _RUN_DEFAULTS.items():
        value, want = settings[key], _RUN_TYPES[key]
        # None only where it is the default; bool is not an int, an int is a float
        if value is None is default:
            continue
        if type(value) is not want and (want, type(value)) != (float, int):
            raise ManifestError(f"{key} must be of type {want.__name__}, got {value!r}")
        # NaN fails both comparisons, and a manifest holding it is not JSON
        if want is float and not -math.inf < value < math.inf:
            raise ManifestError(f"{key} must be finite, got {value!r}")
    if not settings["seeds"]:
        raise ManifestError("at least one seed required")
    all_seeds = [*settings["seeds"], settings["problem_seed"]]
    if not all(type(s) is int and s >= 0 for s in all_seeds):
        raise ManifestError(f"seeds must be integers >= 0, got {all_seeds}")
    if settings["workers"] < 1:
        raise ManifestError(f"workers must be >= 1, got {settings['workers']}")
    for key, choices in _RUN_CHOICES.items():
        if settings[key] not in choices:
            raise ManifestError(f"{key} must be one of {choices}, got {settings[key]!r}")
    return settings


def _resolve_manifest(args: argparse.Namespace) -> dict:
    resolved = dict(_RUN_DEFAULTS)
    if args.manifest:
        resolved.update(_read_manifest(Path(args.manifest)))
    for key in _FLAG_KEYS:
        value = getattr(args, key)
        if value is not None:
            resolved[key] = value
    if args.seed:
        seeds: list[int] = []
        for spec in args.seed:
            seeds.extend(_parse_seed_spec(spec))
        resolved["seeds"] = seeds
    if args.restart:
        resolved["continuation"] = False
    if args.importance:
        resolved["importance"] = True
    if resolved["out"] is None:
        resolved["out"] = os.environ.get(OUTPUT_ROOT_ENV)

    _check_settings(resolved)
    if len(set(resolved["seeds"])) < len(resolved["seeds"]):  # one directory a seed
        raise ManifestError(f"seeds repeat: {resolved['seeds']}")
    if not resolved["space"]:
        raise ManifestError("no search space given (--space or manifest)")
    if not Path(resolved["space"]).exists():
        raise ManifestError(f"space file not found: {resolved['space']}")
    if resolved["out"] is None:
        raise ManifestError(
            f"no output directory (--out, manifest, or ${OUTPUT_ROOT_ENV})"
        )
    replay_file = resolved["replay_file"]
    if resolved["problem"] == "replay" and not Path(replay_file or "").is_file():
        raise ManifestError(f"replay problem needs a replay file, got {replay_file!r}")
    if resolved["problem"] == "external" and not resolved["external_cmd"]:
        raise ManifestError("external problem needs --external-cmd")
    return resolved


def _build_problem(manifest: dict, space: cs.SearchSpace, ladder: BudgetLadder):
    if manifest["problem"] == "synthetic":
        return SyntheticProblem.from_space(
            space,
            optimum=manifest["optimum"],
            b_max=manifest["max_budget"],
            curvature=manifest["curvature"],
            hours_per_epoch=manifest["hours_per_epoch"],
            noise=manifest["noise"],
            problem_seed=manifest["problem_seed"],
        )
    if manifest["problem"] == "replay":
        return ReplayProblem.from_history(
            priorband.read_history_csv(manifest["replay_file"], space, ladder)
        )
    return ExternalEvaluator(
        manifest["external_cmd"],
        space,
        manifest["max_budget"],
        timeout=manifest["external_timeout"],
    )


def cmd_run(args: argparse.Namespace) -> int:
    manifest = _resolve_manifest(args)
    space = cs.load_space(manifest["space"])
    ladder = budget_ladder(
        manifest["min_budget"], manifest["max_budget"], manifest["eta"]
    )
    # built before --out is made, so a problem's own checks come first; one
    # problem serves every seed
    problem = _build_problem(manifest, space, ladder)
    try:
        # written before the first seed, so every finished seed can be
        # reported on even if a later one fails
        record = {key: manifest[key] for key in _RUN_DEFAULTS}
        record["resolved_space"] = cs.space_to_dict(space)
        if manifest["problem"] == "synthetic":
            record["resolved_problem"] = problem.to_dict()
        out_root = Path(manifest["out"])
        out_root.mkdir(parents=True, exist_ok=True)
        analysis.write_json(record, out_root / "manifest.resolved.json")
        for seed in manifest["seeds"]:
            result = priorband.run(
                space,
                problem,
                ladder,
                policy=manifest["policy"],
                mode=manifest["mode"],
                continuation=manifest["continuation"],
                seed=seed,
                workers=manifest["workers"],
            )
            if isinstance(problem, ExternalEvaluator):
                problem.close()  # the next seed starts a fresh child
            analysis.export_reports(
                result, out_root / f"seed_{seed}", importance=manifest["importance"]
            )
    finally:
        if isinstance(problem, ExternalEvaluator):
            problem.close()
    return EXIT_OK


def _block_counts(text: str) -> tuple[int, ...]:
    """argparse type of a comma-separated block profile."""
    return tuple(int(v) for v in text.split(","))


def _grammar_from_args(args: argparse.Namespace):
    blocks = {"conv": args.conv_blocks, "residual": args.res_blocks,
              "decoder": args.dec_blocks}
    return build_grammar(args.stages, args.scale, blocks)


def cmd_grammar(args: argparse.Namespace) -> int:
    grammar = _grammar_from_args(args)
    if args.grammar_action == "count":
        print(count_derivations(grammar))
    elif args.grammar_action == "enumerate":
        for derivation in enumerate_derivations(grammar, args.limit):
            print(serialize(derivation))
    else:
        seeds = _parse_seed_spec(args.seeds)
        if not seeds:
            raise ManifestError("at least one seed required")
        center = default_derivation(grammar)
        for seed in seeds:
            if args.mode == "uniform":
                derivation = sample_derivation(grammar, "uniform", seed)
            else:
                derivation = sample_derivation(
                    grammar, ("prior", center, args.confidence), seed
                )
            print(serialize(derivation))
    return EXIT_OK


def _load_run(run_dir: Path, seed_dir: str):
    manifest_path = run_dir / "manifest.resolved.json"
    manifest = _check_settings(_read_manifest(manifest_path))
    if "resolved_space" not in manifest:
        raise ManifestError(f"{manifest_path} has no resolved_space")
    space = cs.load_space(manifest["resolved_space"])
    ladder = budget_ladder(
        manifest["min_budget"], manifest["max_budget"], manifest["eta"]
    )
    history_path = run_dir / seed_dir / "history.csv"
    if not history_path.exists():
        raise ManifestError(f"no history at {history_path}")
    history = priorband.read_history_csv(history_path, space, ladder)
    return manifest, space, ladder, history


def cmd_report(args: argparse.Namespace) -> int:
    # fail before the work, as opening --out would after it
    if args.out and Path(args.out).is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), args.out)
    if args.out and not Path(args.out).parent.is_dir():
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), args.out)
    if args.report_action in ("importance", "pareto"):
        _, _, _, history = _load_run(Path(args.run), args.seed_dir)
        out = Path(args.out or Path(args.run) / args.seed_dir / f"{args.report_action}.json")
        if args.report_action == "importance":
            analysis.write_importance_json(analysis.fanova_first_order(
                history, trees=args.trees, seed=args.rf_seed), out)
        else:
            analysis.write_pareto_json(priorband.RunResult.of(history), out)
        print(out)
        return EXIT_OK

    # crosseval
    problems, incumbents, labels = [], [], []
    reference_space = None
    for run_dir in args.runs:
        manifest, space, _, history = _load_run(Path(run_dir), args.seed_dir)
        if reference_space is None:
            reference_space = space
        elif cs.space_to_dict(space) != cs.space_to_dict(reference_space):
            raise analysis.SpaceMismatchError(
                f"{run_dir} uses a different search space"
            )
        if manifest["problem"] != "synthetic" or "resolved_problem" not in manifest:
            raise ManifestError(
                f"{run_dir}: cross-evaluation needs synthetic runs"
            )
        problems.append(
            SyntheticProblem.from_dict(reference_space, manifest["resolved_problem"])
        )
        incumbents.append(priorband.final_incumbent(history))
        labels.append(Path(run_dir).name)
    matrix = analysis.cross_eval(
        problems, incumbents, problem_labels=labels, incumbent_labels=labels
    )
    out = Path(args.out) if args.out else Path(args.runs[0]) / "crosseval.csv"
    analysis.write_crosseval_csv(matrix, out)
    print(out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jahsband",
        description="Multi-fidelity joint hyperparameter and architecture "
        "optimization with prior-guided sampling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an optimization run")
    p_run.add_argument("--manifest", help="JSON manifest; flags override it")
    helps = {"space": "search space JSON file",
             "out": f"output root (default ${OUTPUT_ROOT_ENV})"}
    for key in _FLAG_KEYS:
        p_run.add_argument("--" + key.replace("_", "-"), type=_RUN_TYPES[key],
                           choices=_RUN_CHOICES.get(key), help=helps.get(key))
    p_run.add_argument(
        "--seed", action="append",
        help="seed, list (0,1,2), or range (0..19); repeatable",
    )
    p_run.add_argument("--restart", action="store_true",
                       help="restart-from-scratch cost accounting")
    p_run.add_argument("--importance", action="store_true",
                       help="also write importance.json per seed")
    p_run.set_defaults(func=cmd_run)

    p_grammar = sub.add_parser("grammar", help="U-Net grammar utilities")
    p_grammar.set_defaults(func=cmd_grammar)
    actions = p_grammar.add_subparsers(dest="grammar_action", required=True)
    count = actions.add_parser("count", help="print the number of architectures")
    enum = actions.add_parser("enumerate", help="print every architecture, one a line")
    sample = actions.add_parser("sample", help="print one sampled architecture per seed")
    for p_action in (count, enum, sample):
        p_action.add_argument("--stages", type=int, required=True)
        p_action.add_argument("--scale", type=int, default=1)
        p_action.add_argument("--conv-blocks", type=_block_counts)
        p_action.add_argument("--res-blocks", type=_block_counts)
        p_action.add_argument("--dec-blocks", type=_block_counts)
    enum.add_argument("--limit", type=int, default=None)
    sample.add_argument("--mode", choices=["uniform", "prior"], default="uniform")
    sample.add_argument("--confidence", choices=["low", "medium", "high"], default="medium")
    sample.add_argument("--seeds", default="0", help="seed, list (0,1,2), or range (0..999)")

    p_report = sub.add_parser("report", help="post-hoc reports")
    p_report.set_defaults(func=cmd_report)
    actions = p_report.add_subparsers(dest="report_action", required=True)
    importance = actions.add_parser("importance", help="fANOVA importance of one run")
    crosseval = actions.add_parser("crosseval", help="each run's incumbent on each problem")
    pareto = actions.add_parser("pareto", help="Pareto front of one run")
    for p_action in (importance, pareto):
        p_action.add_argument("--run", required=True, help="run directory")
    crosseval.add_argument("--runs", nargs="+", required=True, help="run directories")
    for p_action in (importance, crosseval, pareto):
        p_action.add_argument("--seed-dir", default="seed_0")
        p_action.add_argument("--out", help="output file (default: <run>/<seed-dir>/"
                              "<report>.json; crosseval: <first run>/crosseval.csv)")
    importance.add_argument("--trees", type=int, default=32)
    importance.add_argument("--rf-seed", type=int, default=0)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # the package's own input errors, and a file that is not UTF-8 or not
    # JSON; any other ValueError is a fault and keeps its traceback
    except (ManifestError, cs.SpaceError, GrammarError, InvalidBudgetsError,
            InvalidProblemError, BudgetOutOfRangeError, MalformedRowError,
            priorband.EmptyHistoryError, priorband.NoMaxBudgetTrialError,
            analysis.ForestSettingsError, analysis.SpaceMismatchError,
            analysis.InsufficientDataError, json.JSONDecodeError,
            UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (EvaluationFailed, MissingEntryError) as exc:
        print(f"evaluator error: {exc}", file=sys.stderr)
        return EXIT_EVALUATOR
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
