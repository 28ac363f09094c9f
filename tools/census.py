"""Census of the faking analyses over three sets of targets.

Runs every target of three sets through ``max_faking_efficiency``,
``solve_lp`` at floors 0 and 1 and ``demonstration_solution``: the match
tables of the 300 integer triples ``numpy.random.default_rng(1).integers(0,
360, (300, 3))``, then of the 240 real triples
``numpy.random.default_rng(2).uniform(0, 360, (240, 3))``, whose triple 91
made the floor-0 solve hit the pivot limit under Bland's rule, then 150
local mixtures with one tiny weight, which ``tests/test_loophole.py`` tests
too. Only a
demonstration whose full-detection model misses the stealth row goes on to
the floor-0 stealth solve, and most of that set's time goes to the five of
those that hit the 50,000-pivot limit: mixtures 78, 94, 102, 132 and 135.
Each analysis runs once per target: ``loophole._optimum``, then the
analysis's reading of that answer. For each set it prints, per analysis,
how many targets took each route of the answer ("facets", "bell sum" or
"floor 0"; "raised" where the floor-0 solve raised and left no answer),
each outcome, the total phase-1 and phase-2 pivots of the answers, and the
median and total seconds. Then come the certificates of the set's floor-0
optima: how many the answer record certifies and how many it refuses, the
largest gap and residual among the certified ones, and one line per
refused certificate, naming its analysis and target. Last come one SHA-256
over every document the set's analyses returned, in order, and, after
every set, the wall time.

Two checkouts agree on every answer when their digests agree, and a change
to the simplex's pivot path shows in the pivot totals. Run from the
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
from bellsim.counterfactuals import Population, all_tables
from bellsim.lhv import DeterministicLhv, lhv_match_table
from bellsim.quantum import AngleTriple, match_table

#: Each analysis as its problem's floor and stealth, and its reading of the answer.
ANALYSES = {
    "max_faking_efficiency": (0.0, False, loophole._Answer.efficiency),
    "solve_lp floor 0": (0.0, False, loophole._Answer.solution),
    "solve_lp floor 1": (1.0, False, loophole._Answer.solution),
    "demonstration_solution": (0.0, True, loophole._Answer.solution),
}


def document(answer) -> str:
    """An answer as text: a float's repr, or a solution's sorted JSON."""
    if isinstance(answer, float):
        return repr(answer)
    return json.dumps(answer.to_dict(), sort_keys=True)


def angle_targets(triples: np.ndarray) -> list:
    """The quantum match tables of the angle triples ``triples``, in degrees."""
    return [match_table(AngleTriple.from_degrees(*d)) for d in triples.tolist()]


def tiny_weight_mixtures() -> list:
    """150 local mixtures of 2 to 4 tables, one of weight in [1e-12, 1e-9],
    as their match tables, from ``default_rng(5)``."""
    rng = np.random.default_rng(5)
    targets = []
    for _ in range(150):
        m = rng.integers(2, 5)
        idx = rng.choice(64, m, replace=False)
        tiny = 10 ** rng.uniform(-12, -9)
        weights = (tiny, *rng.dirichlet(np.ones(m - 1)) * (1 - tiny))
        units = tuple(all_tables()[i] for i in idx)
        targets.append(lhv_match_table(DeterministicLhv(Population(units=units, weights=weights))))
    return targets


TARGET_SETS = {
    "300 integer triples": angle_targets(np.random.default_rng(1).integers(0, 360, (300, 3))),
    "240 real triples": angle_targets(np.random.default_rng(2).uniform(0, 360, (240, 3))),
    "150 tiny-weight mixtures": tiny_weight_mixtures(),
}


def refused(answer) -> bool:
    """Whether the record refuses ``answer``'s certificate: an optimum's
    ``efficiency()`` raises for nothing else."""
    try:
        answer.efficiency()
    except simplex.SimplexError:
        return True
    return False


def census(targets: list) -> str:
    """Run every analysis over ``targets``, printing one line per analysis,
    then the certificates, and return the SHA-256 over every document."""
    digest, certified, refusals = hashlib.sha256(), [], []
    for name, (floor, stealth, read) in ANALYSES.items():
        routes, outcomes, seconds, pivots = Counter(), Counter(), [], np.zeros(2, int)
        for k, t in enumerate(targets):
            route = "raised"
            t0 = time.perf_counter()
            try:
                answer = loophole._optimum(loophole.FakingProblem(t, floor, stealth))
                route, pivots = answer.route, pivots + answer.pivots
                if answer.certificate is not None:
                    if refused(answer):
                        refusals.append((name, k, *answer.certificate))
                    else:
                        certified.append(answer.certificate)
                result = read(answer)
            except simplex.SimplexError as exc:
                seconds.append(time.perf_counter() - t0)
                outcome, doc = "SimplexError", f"SimplexError: {exc}"
            else:
                seconds.append(time.perf_counter() - t0)
                outcome = "value" if isinstance(result, float) else result.status
                doc = document(result)
            digest.update(doc.encode() + b"\n")
            routes[route] += 1
            outcomes[outcome] += 1
        print(f"{name}: routes {dict(sorted(routes.items()))}, "
              f"outcomes {dict(sorted(outcomes.items()))}, "
              f"pivots {pivots[0]} + {pivots[1]}, "
              f"median {1e3 * statistics.median(seconds):.2f} ms, "
              f"total {sum(seconds):.2f} s")
    gaps, residuals = zip(*certified) if certified else ((0.0,), (0.0,))
    print(f"certified {len(certified)}, refused {len(refusals)}, "
          f"largest gap {max(gaps):.2g}, largest residual {max(residuals):.2g}")
    for name, k, gap, residual in refusals:
        print(f"refused: {name} target {k}, gap {gap:.3g}, residual {residual:.3g}")
    return digest.hexdigest()


def main() -> None:
    start = time.perf_counter()
    for set_name, targets in TARGET_SETS.items():
        print(f"{set_name}:")
        print(f"sha256 {census(targets)}")
    print(f"wall {time.perf_counter() - start:.1f} s")


if __name__ == "__main__":
    main()
