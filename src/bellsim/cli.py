"""Command-line front end: every analysis as a subcommand with reproducible seeds.

Exit codes: 0 success (for ``test``: local hidden variables rejected),
1 retained (``test`` only), 2 usage error or invalid input, 3 internal error
(a solver breakdown or another unexpected exception; its traceback goes to
stderr). A crash never exits 0 or 1, so it cannot read as a verdict. With ``--format json`` each
subcommand writes a single JSON document to stdout; all diagnostics,
including the echoed resolved configuration, go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys
import traceback
from functools import lru_cache

from . import loophole as loophole_mod
from .counterfactuals import (
    lhv_max_bell_statistic,
    theorem1_contradiction_trace,
    violation_margin,
)
from .experiment import (
    CONDITION_ALL_PAIRS,
    CONDITION_COINCIDENCES,
    SOURCES,
    SOURCE_DETERMINISTIC_LHV,
    SOURCE_LOOPHOLE,
    SOURCE_STOCHASTIC_LHV,
    UNIFORM_4,
    UNIFORM_9,
    ExperimentConfig,
    config_to_dict,
    decide,
    estimate,
    read_dataset_csv,  # unused here; perfbench/tracing.py patches it
    read_row_counts,
    run_experiment,
    write_dataset_csv,
    write_metadata,
)
from .lhv import CANONICAL_INT, MAX_GRID_STEPS, load_model, stochastic_bell_search
from .quantum import AngleTriple, match_table


#: A command-line real: an ASCII decimal with an optional sign and exponent,
#: or nan, inf or infinity in any case, which the checks downstream refuse
#: with their own messages. No underscore, other digit or surrounding space.
_REAL = re.compile(
    r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|nan|inf|infinity)",
    re.IGNORECASE,
)
#: ``--angles`` help; argparse reads ``--angles -30,0,30`` as a missing value.
_ANGLES_HELP = ("three axis angles in degrees, e.g. 60,0,120; give a negative first "
                "angle as --angles=-30,0,30 (or as 330,0,30)")


def _integer(text: str) -> int:
    """A command-line integer, in the one canonical form of
    :data:`~bellsim.lhv.CANONICAL_INT`: no plus sign, leading zero or -0."""
    if not CANONICAL_INT.fullmatch(text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _real(text: str) -> float:
    if not _REAL.fullmatch(text):
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    return float(text)


def _parse_angles(text: str) -> AngleTriple:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"expected three comma-separated angles in degrees, got {text!r}"
        )
    if not all(_REAL.fullmatch(p) for p in parts):
        raise argparse.ArgumentTypeError(f"unparseable angle in {text!r}")
    return AngleTriple.from_degrees(*map(float, parts))


def _echo_config(doc: dict) -> None:
    print(f"config: {json.dumps(doc, sort_keys=True)}", file=sys.stderr)


def _emit(doc: dict, fmt: str, text_lines: list[str]) -> None:
    if fmt == "json":
        print(json.dumps(doc, indent=2))
    else:
        print("\n".join(text_lines))


def _resolve_seed(seed: int | None) -> int:
    if seed is not None:
        return seed
    generated = random.SystemRandom().getrandbits(63)
    print(f"seed: {generated} (generated; pass --seed to reproduce)", file=sys.stderr)
    return generated


def _table_lines(rows) -> list[str]:
    lines = ["      x2=0      x2=1      x2=2"]
    for i, row in enumerate(rows):
        lines.append("x1=%d  %s" % (i, "  ".join(f"{v:8.6f}" for v in row)))
    return lines


def cmd_correlations(args) -> int:
    table = match_table(args.angles)
    margin = violation_margin(args.angles)
    doc = {
        "angles_degrees": list(args.angles.degrees()),
        "match_probabilities": [list(r) for r in table.rows],
        "violation_margin": margin,
    }
    _echo_config({"subcommand": "correlations", "angles_degrees": doc["angles_degrees"]})
    if args.format == "csv":
        lines = [",".join(f"{v!r}" for v in row) for row in table.rows]
        lines.append(f"violation_margin,{margin!r}")
        print("\n".join(lines))
        return 0
    text = ["match probabilities E[M(x1, x2)]:"]
    text.extend(_table_lines(table.rows))
    text.append(f"violation margin: {margin:.6f}")
    if margin > 0:
        text.append("positive margin: these angles refute local hidden variables")
    _emit(doc, args.format, text)
    return 0


def cmd_trace_proof(args) -> int:
    branches = ("a", "b") if args.branch == "both" else (args.branch,)
    traces = [theorem1_contradiction_trace(b) for b in branches]
    _echo_config({"subcommand": "trace-proof", "branch": args.branch})
    doc = {"traces": [t.to_dict() for t in traces]}
    text = []
    for t in traces:
        text.append(t.render())
        text.append("")
    _emit(doc, args.format, text[:-1])
    return 0


def cmd_lhv_max(args) -> int:
    value = lhv_max_bell_statistic()
    _echo_config({"subcommand": "lhv-max"})
    doc = {"max_bell_statistic": value, "n_tables": 64}
    _emit(doc, args.format, [f"max Bell statistic over 64 deterministic local tables: {value}"])
    return 0


def cmd_stochastic_sup(args) -> int:
    result = stochastic_bell_search(args.grid_steps)
    _echo_config({"subcommand": "stochastic-sup", "grid_steps": args.grid_steps})
    doc = {
        "grid_steps": args.grid_steps,
        "supremum": result.value,
        "argmax": list(result.argmax),
        "argmax_is_vertex": result.argmax_is_vertex,
        "evaluations": result.evaluations,
    }
    _emit(
        doc,
        args.format,
        [
            f"stochastic-locality Bell supremum on a {args.grid_steps}^6 grid: {result.value}",
            f"argmax (p1[0..2], p2[0..2]): {result.argmax} (vertex: {result.argmax_is_vertex})",
        ],
    )
    return 0


def _build_config(args) -> ExperimentConfig:
    """The experiment the flags describe; :class:`ExperimentConfig` judges it."""
    if args.source == SOURCE_LOOPHOLE and args.solution and args.angles is not None:
        raise ValueError(
            "loophole source takes --solution or --angles, not both: "
            "--angles only builds the demonstration solution"
        )
    seed = _resolve_seed(args.seed)
    model = load_model(args.model) if args.model else None
    solution = loophole_mod.load_solution(args.solution) if args.solution else None
    if args.source in (SOURCE_DETERMINISTIC_LHV, SOURCE_STOCHASTIC_LHV) and model is None:
        raise ValueError(f"source {args.source} needs --model FILE")
    if args.source == SOURCE_LOOPHOLE and solution is None:
        if args.angles is None:
            raise ValueError("loophole source needs --solution FILE or --angles")
        solution = loophole_mod.demonstration_solution(match_table(args.angles))
    return ExperimentConfig(
        n_trials=args.n,
        seed=seed,
        source=args.source,
        angles=args.angles,
        model=model,
        solution=solution,
        setting_distribution=args.setting_distribution,
    )


def cmd_simulate(args) -> int:
    meta = args.meta or (f"{args.out}.meta.json" if args.out else None)
    seen = {}  # the flag that first names each file, by (device, inode), else real path
    for flag, path in (("--out", args.out), ("--meta" if args.meta else "the sidecar", meta),
                       ("--model", args.model), ("--solution", args.solution)):
        if path:
            stat = os.stat(path) if os.path.exists(path) else None  # a hard link is one file
            key = (stat.st_dev, stat.st_ino) if stat else os.path.realpath(path)
            if (first := seen.setdefault(key, flag)) != flag:
                raise ValueError(f"{first} and {flag} name one file: {path}")
    config = _build_config(args)
    _echo_config({"subcommand": "simulate", **config_to_dict(config)})
    data = run_experiment(config)
    if args.format == "json":
        index, x1, x2, y1, y2, d1, d2 = (column.tolist() for column in data.columns())
        y1, y2 = ([y or None for y in spins] for spins in (y1, y2))  # spin 0: not detected
        doc = {
            "config": config_to_dict(config),
            "records": list(zip(index, x1, x2, y1, y2, d1, d2)),  # a tuple dumps as a list
        }
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
                fh.write("\n")
        else:
            print(json.dumps(doc))
    else:
        sys.stdout.flush()  # the CSV goes below the text layer, after what it holds
        write_dataset_csv(data, args.out or sys.stdout.buffer)
    if meta:
        write_metadata(config, meta)
    return 0


def cmd_test(args) -> int:
    counts = read_row_counts(args.infile or sys.stdin.buffer)
    _echo_config(
        {
            "subcommand": "test",
            "alpha": args.alpha,
            "confidence": args.confidence,
            "conditioning": args.conditioning,
            "n_records": int(counts.sum()),
        }
    )
    est = estimate(counts, conditioning=args.conditioning, confidence=args.confidence)
    decision = decide(est, alpha=args.alpha)
    doc = {"estimate": est.to_dict(), "decision": decision.to_dict()}
    verdict = "reject" if decision.reject_lhv else "retain"
    text = [
        f"Bell statistic: {est.statistic:.6f} (std error {est.std_error:.6f})",
        f"{est.confidence:.0%} interval: [{est.ci_low:.6f}, {est.ci_high:.6f}]",
        f"one-sided lower bound at alpha={decision.alpha}: {decision.margin:.6f}",
        f"decision: {verdict} local hidden variables",
    ]
    _emit(doc, args.format, text)
    return 0 if decision.reject_lhv else 1


def cmd_loophole(args) -> int:
    if args.max_efficiency and args.save:
        raise ValueError("--save needs a solution, and --max-efficiency computes none")
    targets = match_table(args.angles)
    _echo_config(
        {
            "subcommand": "loophole",
            "angles_degrees": list(args.angles.degrees()),
            "floor": args.floor,
            "max_efficiency": args.max_efficiency,
            "demo": args.demo,
        }
    )
    if args.max_efficiency:
        value = loophole_mod.max_faking_efficiency(targets)
        doc = {"max_faking_efficiency": value}
        _emit(doc, args.format, [f"maximum faking efficiency: {value:.4f}"])
        return 0
    if args.demo:
        solution = loophole_mod.demonstration_solution(targets)
    else:
        solution = loophole_mod.solve_lp(loophole_mod.FakingProblem(targets, args.floor))
    doc = solution.to_dict()
    if args.save and solution.status == "feasible":
        loophole_mod.save_solution(solution, args.save)
    elif args.save:
        print(f"note: status {solution.status}, nothing saved to {args.save}", file=sys.stderr)
    text = [f"status: {solution.status}"]
    if solution.status == "feasible":
        text.append(f"min coincidence rate: {solution.min_coincidence_rate:.6f}")
        text.append("coincidence rates:")
        text.extend(_table_lines(solution.coincidence_rates))
        text.append(f"support: {len(solution.weights)} strategies")
    _emit(doc, args.format, text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellsim",
        description="Simulate two-particle Bell tests, check the locality bounds "
        "exhaustively, and analyze the detection loophole.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("correlations", help="quantum match probabilities and violation margin")
    p.add_argument("--angles", type=_parse_angles, required=True, help=_ANGLES_HELP)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.set_defaults(func=cmd_correlations)

    p = sub.add_parser("trace-proof", help="render the two-branch impossibility derivation")
    p.add_argument("--branch", choices=("a", "b", "both"), default="both")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_trace_proof)

    p = sub.add_parser("lhv-max", help="maximum Bell statistic over deterministic local tables")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_lhv_max)

    p = sub.add_parser("stochastic-sup", help="grid supremum over stochastic local models")
    p.add_argument("--grid-steps", type=_integer, default=11,
                   help=f"grid points per probability, 2 to {MAX_GRID_STEPS} (default 11)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_stochastic_sup)

    p = sub.add_parser("simulate", help="generate a trial dataset (CSV on stdout by default)")
    p.add_argument("--source", choices=SOURCES, required=True)
    p.add_argument("--angles", type=_parse_angles, help=_ANGLES_HELP)
    p.add_argument("--model", help="JSON model file for the lhv sources")
    p.add_argument("--solution", help="JSON faking-model file for the loophole source")
    p.add_argument("--n", type=_integer, required=True, help="number of trials")
    p.add_argument("--seed", type=_integer,
                   help="any integer, taken modulo 2**64 (-1 and 2**64 - 1 give one dataset); "
                   "generated and echoed if omitted")
    p.add_argument("--setting-distribution", choices=(UNIFORM_9, UNIFORM_4), default=UNIFORM_9)
    p.add_argument("--out", help="dataset file (default stdout)")
    p.add_argument("--meta", help="metadata sidecar file (default <out>.meta.json)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("test", help="estimate the Bell statistic and decide; exit 0=reject 1=retain")
    p.add_argument("--in", dest="infile", help="dataset CSV (default stdin)")
    p.add_argument("--alpha", type=_real, default=0.01)
    p.add_argument("--confidence", type=_real, default=0.99)
    p.add_argument(
        "--conditioning",
        choices=(CONDITION_COINCIDENCES, CONDITION_ALL_PAIRS),
        default=CONDITION_COINCIDENCES,
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("loophole", help="faking LP at an efficiency floor, or the max efficiency")
    p.add_argument("--angles", type=_parse_angles, required=True, help=_ANGLES_HELP)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--floor", type=_real, default=0.0)
    mode.add_argument("--max-efficiency", action="store_true")
    mode.add_argument("--demo", action="store_true",
                      help="solve the stealth demonstration variant instead")
    p.add_argument("--save", help="write a feasible solution to this JSON file")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_loophole)

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` uses, built on first use: parsing leaves it
    unchanged, so one instance serves every call in the process."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        print("internal error: exit 3", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
