"""Deterministic counterfactual units and the locality impossibility results.

A local deterministic unit predetermines one spin per setting per particle.
This module mechanizes the two results that rule such units out as an
explanation of the quantum predictions:

* Impossibility of the witness pattern: no local unit can realize
  M(0,0)=0, M(1,2)=1, M(0,2)=0, M(1,0)=0, shown both by constraint
  propagation (the two-branch contradiction trace) and by brute force over
  all 64 units.
* The population bound: the Bell statistic
  E[M(1,2)] - E[M(0,2)] - E[M(1,0)] - E[M(0,0)] is at most 0 for any
  mixture of local units, so a positive value certifies a unit whose joint
  response cannot be decomposed into per-particle responses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence, Union

from .quantum import AngleTriple, _check_setting, match_table

#: Setting pairs entering the Bell statistic, in the order its terms appear:
#: + (1,2), - (0,2), - (1,0), - (0,0).
BELL_PAIRS = ((1, 2), (0, 2), (1, 0), (0, 0))


def _check_spins(values: Sequence[int], name: str) -> tuple[int, int, int]:
    vals = tuple(values)
    if len(vals) != 3 or any(v not in (-1, 1) for v in vals):
        raise ValueError(f"{name} must be three spins in {{-1, +1}}, got {values!r}")
    return tuple(int(v) for v in vals)


@dataclass(frozen=True)
class CounterfactualTable:
    """One local deterministic unit: a predetermined spin per particle per setting."""

    y1: tuple[int, int, int]
    y2: tuple[int, int, int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "y1", _check_spins(self.y1, "y1"))
        object.__setattr__(self, "y2", _check_spins(self.y2, "y2"))

    @classmethod
    def from_index(cls, index: int) -> "CounterfactualTable":
        """Decode table ``index`` in the documented enumeration order.

        Six bits, y1[0] most significant through y2[2] least significant;
        bit 1 encodes spin +1, bit 0 encodes spin -1.
        """
        if not 0 <= index < 64:
            raise ValueError(f"table index {index!r} outside [0, 64)")
        bits = [(index >> (5 - k)) & 1 for k in range(6)]
        spins = tuple(1 if b else -1 for b in bits)
        return cls(spins[:3], spins[3:])

    @property
    def index(self) -> int:
        """Position of this table in the documented enumeration order."""
        code = 0
        for v in (*self.y1, *self.y2):
            code = (code << 1) | (1 if v == 1 else 0)
        return code


@lru_cache(maxsize=1)
def all_tables() -> tuple[CounterfactualTable, ...]:
    """All 64 local deterministic units, in documented index order."""
    return tuple(CounterfactualTable.from_index(i) for i in range(64))


def match_indicator(unit: CounterfactualTable, x1: int, x2: int) -> int:
    """1 if the unit's spins agree at settings (x1, x2), else 0."""
    return int(unit.y1[_check_setting(x1, "x1")] == unit.y2[_check_setting(x2, "x2")])


@dataclass(frozen=True)
class MPattern:
    """Match-indicator values at the four Bell pairs: M(0,0), M(1,2), M(0,2), M(1,0)."""

    m00: int
    m12: int
    m02: int
    m10: int

    def __post_init__(self) -> None:
        for name in ("m00", "m12", "m02", "m10"):
            v = int(getattr(self, name))
            if v not in (0, 1):
                raise ValueError(f"{name} must be 0 or 1, got {getattr(self, name)!r}")
            object.__setattr__(self, name, v)

    @classmethod
    def from_table(cls, table: CounterfactualTable) -> "MPattern":
        return cls(
            m00=match_indicator(table, 0, 0),
            m12=match_indicator(table, 1, 2),
            m02=match_indicator(table, 0, 2),
            m10=match_indicator(table, 1, 0),
        )

    def bell_value(self) -> int:
        """This unit's contribution to the Bell statistic: m12 - m02 - m10 - m00."""
        return self.m12 - self.m02 - self.m10 - self.m00


#: The pattern whose existence in a single unit refutes local determinism.
WITNESS_PATTERN = MPattern(m00=0, m12=1, m02=0, m10=0)

PopulationUnit = Union[CounterfactualTable, MPattern]


@dataclass(frozen=True)
class Population:
    """Weighted mixture of units; the expectation operator over a unit ensemble.

    Units are either all CounterfactualTable or all MPattern. Weights default
    to uniform and must be nonnegative and sum to 1 within 1e-12.
    """

    units: tuple[PopulationUnit, ...]
    weights: tuple[float, ...] = field(default=())

    def __post_init__(self) -> None:
        units = tuple(self.units)
        if not units:
            raise ValueError("Population needs at least one unit")
        kinds = {type(u) for u in units}
        if not (kinds <= {CounterfactualTable} or kinds <= {MPattern}):
            raise ValueError("Population units must be all tables or all patterns")
        weights = tuple(float(w) for w in self.weights)
        if not weights:
            weights = (1.0 / len(units),) * len(units)
        if len(weights) != len(units):
            raise ValueError(
                f"{len(weights)} weights for {len(units)} units"
            )
        if not all(math.isfinite(w) for w in weights):
            raise ValueError(f"weights must be finite, got {weights!r}")
        if any(w < 0.0 for w in weights):
            raise ValueError("weights must be nonnegative")
        total = sum(weights)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {total!r}, not 1 within 1e-12")
        object.__setattr__(self, "units", units)
        object.__setattr__(self, "weights", weights)

    def patterns(self) -> tuple[MPattern, ...]:
        """Per-unit Bell-pair match values, whatever the unit representation."""
        return tuple(
            u if isinstance(u, MPattern) else MPattern.from_table(u) for u in self.units
        )

    def bell_statistic(self) -> float:
        """Weighted expectation of the per-unit Bell value."""
        return sum(w * p.bell_value() for w, p in zip(self.weights, self.patterns()))


def bell_statistic(e12: float, e02: float, e10: float, e00: float) -> float:
    """Bell statistic of four match expectations: e12 - e02 - e10 - e00.

    Positive values are impossible for mixtures of local deterministic units
    and certify that the generating process is not such a mixture.
    """
    for name, v in (("e12", e12), ("e02", e02), ("e10", e10), ("e00", e00)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name}={v!r} outside [0, 1]")
    return e12 - e02 - e10 - e00


def theorem1_witness_check(pattern: MPattern) -> bool:
    """True iff ``pattern`` is the exact witness (m00, m12, m02, m10) = (0, 1, 0, 0)."""
    return pattern == WITNESS_PATTERN


@dataclass(frozen=True)
class Assignment:
    """A spin value forced on one counterfactual response, e.g. Y1(0) = -1."""

    particle: int
    setting: int
    value: int

    def __str__(self) -> str:
        return f"Y{self.particle}({self.setting}) = {self.value:+d}"


@dataclass(frozen=True)
class TraceStep:
    """One step of a derivation: what was concluded and which constraint forced it."""

    kind: str  # "assumed", "derived" or "contradiction"
    assignments: tuple[Assignment, ...]
    justification: str

    @property
    def statement(self) -> str:
        if self.kind == "contradiction":
            a, b = self.assignments
            return f"{a} and {b} cannot both hold"
        return " and ".join(str(a) for a in self.assignments)


@dataclass(frozen=True)
class DerivationTrace:
    """Ordered derivation for one branch of the impossibility argument."""

    branch: str
    steps: tuple[TraceStep, ...]

    def ends_in_contradiction(self) -> bool:
        return bool(self.steps) and self.steps[-1].kind == "contradiction"

    def render(self) -> str:
        lines = [f"branch ({self.branch}):"]
        for n, step in enumerate(self.steps, start=1):
            lines.append(f"  {n}. [{step.kind}] {step.statement}   ({step.justification})")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "branch": self.branch,
            "steps": [
                {
                    "kind": s.kind,
                    "statement": s.statement,
                    "justification": s.justification,
                    "assignments": [
                        {"particle": a.particle, "setting": a.setting, "value": a.value}
                        for a in s.assignments
                    ],
                }
                for s in self.steps
            ],
            "contradiction": self.ends_in_contradiction(),
        }


def theorem1_contradiction_trace(branch: str) -> DerivationTrace:
    """Propagate the witness pattern's constraints until they clash.

    M(1,2)=1 forces equal spins of a common sign: branch "a" takes both +1,
    branch "b" both -1; there is no third branch. The remaining constraints
    M(0,2)=0, M(1,0)=0, M(0,0)=0 are then applied in that order, each forcing
    one further spin, until Y1(0) is assigned two incompatible values.
    """
    if branch not in ("a", "b"):
        raise ValueError(f"branch must be 'a' or 'b', got {branch!r}")
    v = 1 if branch == "a" else -1

    known: dict[tuple[int, int], int] = {}
    steps: list[TraceStep] = []

    def record(kind: str, assignments: tuple[Assignment, ...], why: str) -> None:
        steps.append(TraceStep(kind=kind, assignments=assignments, justification=why))

    for particle, setting in ((1, 1), (2, 2)):
        known[(particle, setting)] = v
        record(
            "assumed",
            (Assignment(particle, setting, v),),
            f"M(1,2)=1 forces Y1(1) = Y2(2); branch ({branch}) takes the common value {v:+d}",
        )

    # Constraints applied in proof order; each M(x1,x2)=0 forces opposite spins.
    for x1, x2 in ((0, 2), (1, 0), (0, 0)):
        first, second = (1, x1), (2, x2)
        if first in known and second in known:
            implied = -known[second]
            if known[first] == implied:
                continue
            record(
                "contradiction",
                (Assignment(1, x1, known[first]), Assignment(1, x1, implied)),
                f"M({x1},{x2})=0 with Y2({x2}) = {known[second]:+d} forces "
                f"Y1({x1}) = {implied:+d}, but Y1({x1}) = {known[first]:+d} was already derived",
            )
            break
        if second in known:
            target, value = first, -known[second]
            why = f"M({x1},{x2})=0 with Y2({x2}) = {known[second]:+d}"
        else:
            target, value = second, -known[first]
            why = f"M({x1},{x2})=0 with Y1({x1}) = {known[first]:+d}"
        known[target] = value
        record("derived", (Assignment(target[0], target[1], value),), why)

    return DerivationTrace(branch=branch, steps=tuple(steps))


def exists_local_table_with_pattern(pattern: MPattern) -> CounterfactualTable | None:
    """First local unit realizing ``pattern`` at the four Bell pairs, if any.

    Scans all 64 units in documented index order. Returns None when no unit
    realizes the pattern, as happens for the witness pattern.
    """
    for table in all_tables():
        if MPattern.from_table(table) == pattern:
            return table
    return None


def find_interaction_unit(pop: Population) -> int | None:
    """Index of a unit carrying the witness pattern, if the premise holds.

    When the population's weighted Bell statistic exceeds 0, some unit must
    realize (m00, m12, m02, m10) = (0, 1, 0, 0); the lowest such index is
    returned. At a statistic of 0 or below the premise fails and None is
    returned. Populations of CounterfactualTables always return None, since
    no local unit realizes the witness pattern.
    """
    patterns = pop.patterns()
    statistic = sum(w * p.bell_value() for w, p in zip(pop.weights, patterns))
    if statistic <= 0.0:
        return None
    for idx, p in enumerate(patterns):
        if p == WITNESS_PATTERN:
            return idx
    raise AssertionError("positive Bell statistic without a witness unit")


def lhv_max_bell_statistic(tables: Sequence[CounterfactualTable] | None = None) -> int:
    """Maximum Bell value over local deterministic units (0 over all 64).

    ``tables`` restricts the enumeration; by default all 64 units are scanned.
    """
    candidates = all_tables() if tables is None else tuple(tables)
    if not candidates:
        raise ValueError("need at least one table")
    return max(MPattern.from_table(t).bell_value() for t in candidates)


def violation_margin(angles: AngleTriple) -> float:
    """Bell statistic of the quantum match probabilities at the given axes.

    A positive margin certifies that the quantum predictions at these axes
    cannot come from any mixture of local deterministic units.
    """
    table = match_table(angles)
    return bell_statistic(table[1, 2], table[0, 2], table[1, 0], table[0, 0])
