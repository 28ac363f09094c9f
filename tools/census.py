"""Census of the faking analyses over 300 integer angle triples.

Runs every triple of ``numpy.random.default_rng(1).integers(0, 360, (300, 3))``
through ``max_faking_efficiency``, ``solve_lp`` at floors 0 and 1 and
``demonstration_solution``, and prints, per analysis, how many triples took
each route (the column counts of the simplex solves it made, "none" for no
solve) and each outcome, with the median and total seconds; then one SHA-256
over every document the analyses returned, in order, and the wall time.

Two checkouts agree on every answer when their digests agree. Run from the
repository root:

    PYTHONPATH=src python tools/census.py
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from collections import Counter

import numpy as np

from bellsim import loophole, simplex
from bellsim.quantum import AngleTriple, match_table

ANALYSES = {
    "max_faking_efficiency": loophole.max_faking_efficiency,
    "solve_lp floor 0": lambda t: loophole.solve_lp(loophole.FakingProblem(t, 0.0)),
    "solve_lp floor 1": lambda t: loophole.solve_lp(loophole.FakingProblem(t, 1.0)),
    "demonstration_solution": loophole.demonstration_solution,
}


def document(answer) -> str:
    """An answer as text: a float's repr, or a solution's sorted JSON."""
    if isinstance(answer, float):
        return repr(answer)
    return json.dumps(answer.to_dict(), sort_keys=True)


def main() -> None:
    triples = np.random.default_rng(1).integers(0, 360, (300, 3))
    targets = [match_table(AngleTriple.from_degrees(*map(int, d))) for d in triples]
    solve = simplex.solve
    columns: list[int] = []

    def counted(lp):
        columns.append(lp.n_vars)
        return solve(lp)

    digest = hashlib.sha256()
    start = time.perf_counter()
    simplex.solve = counted
    try:
        for name, analysis in ANALYSES.items():
            routes, outcomes, seconds = Counter(), Counter(), []
            for t in targets:
                columns.clear()
                t0 = time.perf_counter()
                try:
                    answer = analysis(t)
                except simplex.SimplexError as exc:
                    seconds.append(time.perf_counter() - t0)
                    outcome, doc = "SimplexError", f"SimplexError: {exc}"
                else:
                    seconds.append(time.perf_counter() - t0)
                    outcome = "value" if isinstance(answer, float) else answer.status
                    doc = document(answer)
                digest.update(doc.encode() + b"\n")
                routes["+".join(map(str, columns)) or "none"] += 1
                outcomes[outcome] += 1
            print(f"{name}: routes {dict(sorted(routes.items()))}, "
                  f"outcomes {dict(sorted(outcomes.items()))}, "
                  f"median {1e3 * statistics.median(seconds):.2f} ms, "
                  f"total {sum(seconds):.2f} s")
    finally:
        simplex.solve = solve
    print(f"sha256 {digest.hexdigest()}")
    print(f"wall {time.perf_counter() - start:.1f} s")


if __name__ == "__main__":
    main()
