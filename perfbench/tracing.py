"""Spans around the calls into bellsim's modules, recorded from outside bellsim.

``install`` replaces public functions with timing wrappers at the place the
calling module looks them up (``bellsim.experiment.sample_outcome_pair``,
``bellsim.simplex.feasible`` as ``bellsim.loophole`` reaches it, ...) and
returns a function that puts the originals back. Calls made once per op or
per LP are kept as spans; calls made once per trial or per draw are only
summed into their layer's totals and into the self time of the span that
made them, so that a 10^5-trial dataset does not cost 10^6 span records.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from pathlib import Path
from time import perf_counter

SPAN_FIELDS = ("id", "op", "parent", "name", "start", "end", "self_s")


class Tracer:
    """In-memory spans plus per-name totals of calls, seconds and self seconds."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.totals: dict[str, list] = {}  # name -> [calls, seconds, self seconds]
        self.counts: Counter = Counter()
        # Open calls, innermost last: [kept span id, op span id, child seconds].
        self._stack: list[list] = [[None, None, 0.0]]
        self._ids = itertools.count()

    def wrap(self, fn, name, keep: bool = True):
        """Time every call of ``fn`` under ``name`` (a string, or a function
        of the call's arguments that returns one)."""
        stack, totals, spans, ids = self._stack, self.totals, self.spans, self._ids

        def traced(*args, **kwargs):
            parent = stack[-1]
            label = name if isinstance(name, str) else name(*args)
            if keep:
                sid = next(ids)
                frame = [sid, sid if parent[1] is None else parent[1], 0.0]
            else:
                frame = [parent[0], parent[1], 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                parent[2] += elapsed
                self_s = elapsed - frame[2]
                entry = totals.get(label)
                if entry is None:
                    entry = totals[label] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += self_s
                if keep:
                    spans.append((frame[0], frame[1], parent[0], label, start, end, self_s))

        traced.__wrapped__ = fn
        return traced

    def total(self, name: str, field: int = 1):
        """Calls (field 0), seconds (1) or self seconds (2) under ``name``."""
        return self.totals.get(name, (0, 0.0, 0.0))[field]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": SPAN_FIELDS, "spans": self.spans,
                       "totals": self.totals, "counts": self.counts}, fh)
            fh.write("\n")


def traced_rng_class(base, tracer: Tracer):
    """A SplitMix64 subclass that times its public draws and counts raw draws."""
    counts = tracer.counts

    class TracedSplitMix64(base):
        __slots__ = ()

        def next_uint64(self):
            counts["rng.draws"] += 1
            return base.next_uint64(self)

    TracedSplitMix64.random = tracer.wrap(base.random, "rng.draw", keep=False)
    TracedSplitMix64.randbelow = tracer.wrap(base.randbelow, "rng.draw", keep=False)
    return TracedSplitMix64


def patch_all(replacements):
    """Set each (module, attribute, value); return a function undoing them all."""
    originals = [(module, attr, getattr(module, attr)) for module, attr, _ in replacements]
    for module, attr, value in replacements:
        setattr(module, attr, value)

    def undo() -> None:
        for module, attr, value in reversed(originals):
            setattr(module, attr, value)

    return undo


def install(tracer: Tracer, bs):
    """Wrap the public calls each layer receives; return the undo function."""
    cli, exp, lh, sx = bs.cli, bs.experiment, bs.loophole, bs.simplex
    wrap = tracer.wrap
    traced_run = wrap(exp.run_experiment, "experiment.run_experiment")

    def run_experiment(config, *args, **kwargs):
        records = traced_run(config, *args, **kwargs)
        tracer.counts["experiment.trials"] += len(records)
        return records

    estimate = wrap(exp.estimate, "experiment.estimate")
    decide = wrap(exp.decide, "experiment.decide")
    return patch_all([
        (cli, "main", wrap(cli.main, lambda argv: f"cli.{argv[0]}")),
        (cli, "run_experiment", run_experiment),
        (exp, "run_experiment", run_experiment),
        (cli, "estimate", estimate),
        (exp, "estimate", estimate),
        (cli, "decide", decide),
        (exp, "decide", decide),
        (cli, "write_dataset_csv", wrap(exp.write_dataset_csv, "experiment.write_csv")),
        (cli, "read_dataset_csv", wrap(exp.read_dataset_csv, "experiment.read_csv")),
        (cli, "write_metadata", wrap(exp.write_metadata, "experiment.write_metadata")),
        (exp, "SplitMix64", traced_rng_class(exp.SplitMix64, tracer)),
        (exp, "derive_seed", wrap(exp.derive_seed, "rng.derive_seed", keep=False)),
        (exp, "sample_outcome_pair", wrap(exp.sample_outcome_pair, "quantum.sample", keep=False)),
        (exp, "sample_from_lhv", wrap(exp.sample_from_lhv, "lhv.sample", keep=False)),
        (lh, "sample_loophole_model",
         wrap(lh.sample_loophole_model, "loophole.sample", keep=False)),
        (lh, "load_solution", wrap(lh.load_solution, "loophole.load_solution")),
        (lh, "max_faking_efficiency",
         wrap(lh.max_faking_efficiency, "loophole.max_faking_efficiency")),
        (lh, "demonstration_solution",
         wrap(lh.demonstration_solution, "loophole.demonstration_solution")),
        (lh, "build_faking_lp", wrap(lh.build_faking_lp, "loophole.build_lp")),
        (lh, "solve_lp", wrap(lh.solve_lp, "loophole.solve_lp")),
        (sx, "solve", wrap(sx.solve, "simplex.solve")),
        (sx, "feasible", wrap(sx.feasible, "simplex.feasible")),
    ])
