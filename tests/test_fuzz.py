"""Fuzzed inputs never read as a verdict.

* ``LpSolution.from_dict``, ``model_from_dict`` and ``config_from_dict`` on
  arbitrary JSON-shaped values, and on near-valid documents, either return
  a value whose document, through JSON text, reads back equal, or refuse
  with ``ValueError`` (``ConfigError`` for a sidecar): never another
  exception, which the CLI would report as an internal error, exit 3.
* ``bellsim test --in`` on byte-mutated copies of a small valid CSV exits 0
  or 1 only when ``read_dataset_csv`` accepts the file, 2 otherwise, and
  never 3 (an unexpected exception).
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellsim.cli import main
from bellsim.counterfactuals import CounterfactualTable, Population
from bellsim.experiment import (
    SOURCES,
    UNIFORM_4,
    ConfigError,
    ExperimentConfig,
    config_from_dict,
    config_to_dict,
    read_dataset_csv,
)
from bellsim.lhv import DeterministicLhv, StochasticLocalModel, model_from_dict, model_to_dict
from bellsim.loophole import SOLUTION_STATUSES, LpSolution
from bellsim.quantum import AngleTriple

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=5), children, max_size=4),
    max_leaves=12,
)
numbers = st.integers(-2, 2) | st.floats(-1.0, 2.0) | st.floats()
solution_like = st.fixed_dictionaries(
    {
        "status": st.sampled_from(SOLUTION_STATUSES) | json_values,
        "weights": st.dictionaries(
            st.integers(-5, 5000).map(str) | st.text(max_size=4),
            numbers | json_values,
            max_size=4,
        ),
    },
    optional={
        "coincidence_rates": json_values
        | st.lists(st.lists(numbers | json_values, min_size=3, max_size=3),
                   min_size=2, max_size=4),
        "min_coincidence_rate": numbers | json_values,
    },
)
rates = st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3)
feasible_like = st.builds(
    lambda keys, table, z: {"status": "feasible", "weights": dict.fromkeys(keys, 1 / len(keys)),
                            "coincidence_rates": table, "min_coincidence_rate": z},
    st.sets(st.integers(0, 4095).map(str), min_size=1, max_size=4),
    st.none() | st.lists(rates, min_size=3, max_size=3),
    st.none() | st.floats(0.0, 1.0),
)
spin = st.sampled_from((1, -1, 1.0, -1.0))
spins = st.lists(spin, min_size=3, max_size=3) | st.lists(spin | numbers | json_values, max_size=4)
probabilities = rates | st.lists(numbers | json_values, max_size=4)
model_like = st.fixed_dictionaries(
    {"tables": st.lists(st.fixed_dictionaries({"y1": spins, "y2": spins}) | json_values,
                        max_size=3)},
    optional={"weights": st.sampled_from(([1.0], [0.25, 0.75], [0.5, 0.25, 0.25], None))
              | st.lists(numbers, max_size=3) | json_values},
) | st.fixed_dictionaries({"p1": probabilities, "p2": probabilities})

#: A valid sidecar of every source.
SIDECARS = [json.loads(json.dumps(config_to_dict(config))) for config in (
    ExperimentConfig(10, 7, "quantum", angles=AngleTriple.from_degrees(60, 0, 120)),
    ExperimentConfig(10, 3, "deterministic-lhv", model=DeterministicLhv(Population(
        units=(CounterfactualTable((1, -1, 1), (-1, 1, -1)), CounterfactualTable.from_index(9)),
        weights=(0.25, 0.75)))),
    ExperimentConfig(10, 2**64 - 1, "stochastic-lhv", setting_distribution=UNIFORM_4,
                     model=StochasticLocalModel((0.5, 0.0, 1.0), (0.25, 0.5, 0.75))),
    ExperimentConfig(10, 5, "loophole", angles=AngleTriple.from_degrees(30, 0, 90),
                     solution=LpSolution("feasible", {4095: 0.5, 63: 0.5}, None, 1.0)),
)]
SIDECAR_KEYS = sorted(SIDECARS[0])
# A sidecar entry: another sidecar's, a plausible value, or any JSON value.
sidecar_values = (
    st.sampled_from([value for doc in SIDECARS for value in doc.values()])
    | st.sampled_from(SOURCES) | st.integers(-2, 2**65)
    | st.lists(numbers | json_values, max_size=4)
    | model_like | solution_like | feasible_like | json_values
)
sidecar_like = st.builds(
    lambda doc, changed, dropped: {key: value for key, value in {**doc, **changed}.items()
                                   if key not in dropped},
    st.sampled_from(SIDECARS),
    st.dictionaries(st.sampled_from(SIDECAR_KEYS), sidecar_values, max_size=2),
    st.sets(st.sampled_from(SIDECAR_KEYS), max_size=1),
)


def reads_back(read, write, doc, refusal=ValueError) -> None:
    """``read(doc)`` refuses with ``refusal``, or returns a value whose
    document, written as JSON text and read again, reads back equal."""
    try:
        value = read(doc)
    except refusal:
        return
    assert read(json.loads(json.dumps(write(value)))) == value


@settings(max_examples=100, deadline=None)
@given(json_values | solution_like | feasible_like)
def test_solution_documents_parse_or_raise_value_error(doc):
    reads_back(LpSolution.from_dict, LpSolution.to_dict, doc)


@settings(max_examples=100, deadline=None)
@given(json_values | model_like)
def test_model_documents_read_back_or_raise_value_error(doc):
    reads_back(model_from_dict, model_to_dict, doc)


@settings(max_examples=150, deadline=None)
@given(json_values | sidecar_like)
def test_sidecars_read_back_or_raise_config_error(doc):
    reads_back(config_from_dict, config_to_dict, doc, ConfigError)


@pytest.fixture(scope="module")
def valid_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "data.csv"
    with contextlib.redirect_stderr(io.StringIO()):
        code = main(["simulate", "--source", "quantum", "--angles", "60,0,120",
                     "--n", "300", "--seed", "5", "--out", str(path)])
    assert code == 0
    return path


mutations = st.lists(
    st.tuples(
        st.sampled_from(("replace", "insert", "delete")),
        st.integers(0, 1 << 20),
        st.integers(0, 255),
    ),
    min_size=1,
    max_size=4,
)


def mutate(data: bytes, edits) -> bytes:
    out = bytearray(data)
    for kind, position, byte in edits:
        at = position % (len(out) + 1)
        if kind == "insert":
            out.insert(at, byte)
        elif at < len(out):
            if kind == "replace":
                out[at] = byte
            else:
                del out[at]
    return bytes(out)


@settings(max_examples=60, deadline=None)
@given(edits=mutations)
def test_mutated_csv_never_reads_as_a_verdict(valid_csv, edits):
    path = valid_csv.with_name("mutated.csv")
    path.write_bytes(mutate(valid_csv.read_bytes(), edits))
    try:
        read_dataset_csv(path)
        readable = True
    except ValueError:
        readable = False
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(["test", "--in", str(path)])
    assert code in (0, 1, 2), err.getvalue()
    if not readable:
        assert code == 2
