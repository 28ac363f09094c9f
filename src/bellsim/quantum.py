"""Quantum predictions for a maximally entangled spin pair.

Each of the two measurement devices selects one of three axes, indexed by a
setting in {0, 1, 2}. For a maximally entangled (singlet-type) pair the
probability that the two measured spins agree depends only on the undirected
angle between the chosen axes: ``sin^2(delta / 2)``, which is 0 at equal
settings (perfect anti-correlation). The closed-form law is verified against
an independent statevector oracle that builds the two-qubit state and spin
projectors explicitly and never evaluates the sine formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

TAU = 2.0 * math.pi

#: Circular tolerance used by Angle equality.
ANGLE_EQ_TOL = 1e-12

SETTINGS = (0, 1, 2)


def _check_setting(x: int, name: str = "setting") -> int:
    if x not in (0, 1, 2):
        raise ValueError(f"{name} must be 0, 1 or 2, got {x!r}")
    return x


@dataclass(frozen=True, eq=False)
class Angle:
    """Measurement axis angle in radians, normalized to [0, 2*pi).

    Equality is circular within ``ANGLE_EQ_TOL``, so ``Angle(a)`` and
    ``Angle(a + 2*pi)`` compare equal. Instances are therefore unhashable.
    """

    radians: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.radians):
            raise ValueError(f"angle must be finite, got {self.radians!r}")
        r = float(self.radians) % TAU
        if r >= TAU:  # fmod rounding can land exactly on the wrap point
            r = 0.0
        object.__setattr__(self, "radians", r)

    @classmethod
    def from_degrees(cls, degrees: float) -> "Angle":
        return cls(math.radians(degrees))

    @property
    def degrees(self) -> float:
        return math.degrees(self.radians)

    def separation(self, other: "Angle") -> float:
        """Undirected angle between the two axes, wrapped to [0, pi]."""
        d = abs(self.radians - other.radians)
        return TAU - d if d > math.pi else d

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Angle):
            return NotImplemented
        d = abs(self.radians - other.radians)
        return min(d, TAU - d) <= ANGLE_EQ_TOL

    def __repr__(self) -> str:
        return f"Angle({self.radians!r})"


@dataclass(frozen=True)
class AngleTriple:
    """Assignment of one measurement axis to each setting index 0, 1, 2."""

    theta: tuple[Angle, Angle, Angle]

    def __post_init__(self) -> None:
        if len(self.theta) != 3 or not all(isinstance(a, Angle) for a in self.theta):
            raise ValueError("AngleTriple needs exactly three Angle entries")
        object.__setattr__(self, "theta", tuple(self.theta))

    @classmethod
    def from_radians(cls, a0: float, a1: float, a2: float) -> "AngleTriple":
        return cls((Angle(a0), Angle(a1), Angle(a2)))

    @classmethod
    def from_degrees(cls, a0: float, a1: float, a2: float) -> "AngleTriple":
        return cls((Angle.from_degrees(a0), Angle.from_degrees(a1), Angle.from_degrees(a2)))

    def __getitem__(self, setting: int) -> Angle:
        return self.theta[_check_setting(setting)]

    def separation(self, i: int, j: int) -> float:
        """Undirected axis separation between settings i and j, in [0, pi]."""
        return self[i].separation(self[j])

    def degrees(self) -> tuple[float, float, float]:
        return tuple(a.degrees for a in self.theta)


@dataclass(frozen=True)
class MatchProbabilityTable:
    """3x3 grid of match probabilities indexed by the two settings.

    Entries must lie in [0, 1]. Tables built from an AngleTriple are
    additionally symmetric with an exactly zero diagonal; tables produced
    by other generators (for example mixtures of local models) need not be.
    """

    rows: tuple[tuple[float, float, float], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(float(v) for v in row) for row in self.rows)
        if len(rows) != 3 or any(len(row) != 3 for row in rows):
            raise ValueError("MatchProbabilityTable needs a 3x3 grid")
        for row in rows:
            for v in row:
                if not (0.0 <= v <= 1.0) or math.isnan(v):
                    raise ValueError(f"match probability {v!r} outside [0, 1]")
        object.__setattr__(self, "rows", rows)

    def __getitem__(self, key: tuple[int, int]) -> float:
        i, j = key
        return self.rows[_check_setting(i, "x1")][_check_setting(j, "x2")]

    def as_array(self) -> np.ndarray:
        return np.array(self.rows, dtype=float)


@dataclass(frozen=True)
class TwoQubitState:
    """Pure two-qubit state; amplitudes ordered as (up-up, up-down, down-up, down-down)."""

    amplitudes: tuple[complex, complex, complex, complex]

    def __post_init__(self) -> None:
        amps = tuple(complex(a) for a in self.amplitudes)
        if len(amps) != 4:
            raise ValueError("TwoQubitState needs four amplitudes")
        norm = sum(abs(a) ** 2 for a in amps)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state norm {norm!r} is not 1 within 1e-12")
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def maximally_entangled(cls) -> "TwoQubitState":
        """Singlet-type state: anti-correlated at every common axis."""
        s = 1.0 / math.sqrt(2.0)
        return cls((0.0, s, -s, 0.0))

    def as_matrix(self) -> np.ndarray:
        """Amplitudes as a 2x2 matrix indexed by (particle 1 basis, particle 2 basis)."""
        return np.array(self.amplitudes, dtype=complex).reshape(2, 2)


def match_probability(delta: float) -> float:
    """Probability the two spins agree at undirected axis separation ``delta``.

    ``delta`` must already be wrapped to [0, pi]; it is 0 at equal settings,
    where the pair is perfectly anti-correlated.
    """
    if not (0.0 <= delta <= math.pi):
        raise ValueError(f"axis separation {delta!r} outside [0, pi]")
    s = math.sin(delta / 2.0)
    return s * s


def match_table(angles: AngleTriple) -> MatchProbabilityTable:
    """Match probabilities for all nine setting pairs at the given axes."""
    rows = tuple(
        tuple(match_probability(angles.separation(i, j)) for j in SETTINGS)
        for i in SETTINGS
    )
    return MatchProbabilityTable(rows)


def _spin_projectors(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Projectors onto spin up/down along in-plane axes.

    The spin observable along angle ``theta`` is cos(theta) * Z + sin(theta) * X;
    returns the (+1, -1) eigenprojectors, shaped (..., 2, 2).
    """
    c = np.cos(theta)
    s = np.sin(theta)
    observable = np.empty(np.shape(theta) + (2, 2))
    observable[..., 0, 0] = c
    observable[..., 0, 1] = s
    observable[..., 1, 0] = s
    observable[..., 1, 1] = -c
    identity = np.eye(2)
    return (identity + observable) / 2.0, (identity - observable) / 2.0


def singlet_match_probabilities(thetas_a: Iterable[float], thetas_b: Iterable[float]) -> np.ndarray:
    """Statevector-oracle match probabilities for every pair of axis angles.

    Builds the maximally entangled state and the spin projectors explicitly,
    then sums squared projected amplitudes for the both-up and both-down
    outcomes; the sine formula is never used. Returns an array of shape
    (len(thetas_a), len(thetas_b)).
    """
    ta = np.atleast_1d(np.asarray(thetas_a, dtype=float))
    tb = np.atleast_1d(np.asarray(thetas_b, dtype=float))
    psi = TwoQubitState.maximally_entangled().as_matrix()
    proj_a = _spin_projectors(ta)
    proj_b = _spin_projectors(tb)
    total = np.zeros((ta.size, tb.size))
    for pa, pb in zip(proj_a, proj_b):
        # (P_a x P_b)|psi> in matrix form is P_a @ Psi @ P_b^T
        projected = np.einsum("aij,jk,blk->abil", pa, psi, pb)
        total += np.sum(np.abs(projected) ** 2, axis=(2, 3))
    return total


def singlet_match_probability_oracle(theta_a: Angle | float, theta_b: Angle | float) -> float:
    """Match probability from the explicit statevector computation.

    Independent cross-check for :func:`match_probability`; the two agree
    within 1e-10 for every pair of axes.
    """
    ra = theta_a.radians if isinstance(theta_a, Angle) else float(theta_a)
    rb = theta_b.radians if isinstance(theta_b, Angle) else float(theta_b)
    return float(singlet_match_probabilities([ra], [rb])[0, 0])


def sample_outcome_pair(
    pair: tuple[int, int], table: MatchProbabilityTable, rng
) -> tuple[int, int]:
    """Draw one outcome pair (y1, y2), each in {-1, +1}, for the given settings.

    y1 is uniform; y2 equals y1 with the table's match probability. ``rng``
    is any generator with a ``random()`` method returning uniforms in [0, 1).
    """
    x1, x2 = pair
    p_match = table[x1, x2]
    y1 = 1 if rng.random() < 0.5 else -1
    y2 = y1 if rng.random() < p_match else -y1
    return y1, y2


def sample_outcome_pair_lanes(
    angles: AngleTriple, x1: np.ndarray, x2: np.ndarray, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`sample_outcome_pair` at ``match_table(angles)`` for a block of
    trials at once.

    ``x1``/``x2`` hold each trial's settings and ``u`` is a ``(2, trials)``
    matrix whose column holds the trial's two uniforms in [0, 1), in the
    order ``random()`` would return them. The arguments are those of every
    source's sampler, the source's payload first. Returns int8 spin arrays
    equal, trial by trial, to the scalar draws.
    """
    p_match = match_table(angles).as_array()[x1, x2]
    y1 = np.where(u[0] < 0.5, np.int8(1), np.int8(-1))
    y2 = np.where(u[1] < p_match, y1, -y1)
    return y1, y2
