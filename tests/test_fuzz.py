"""Fuzzed inputs never read as a verdict.

* ``LpSolution.from_dict`` on arbitrary JSON-shaped values either returns a
  solution (whose document parses back equal) or raises ``ValueError``.
* ``bellsim test --in`` on byte-mutated copies of a small valid CSV exits 0
  or 1 only when ``read_dataset_csv`` accepts the file, 2 otherwise, and
  never 3 (an unexpected exception).
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellsim.cli import main
from bellsim.experiment import read_dataset_csv
from bellsim.loophole import SOLUTION_STATUSES, LpSolution

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


@settings(max_examples=100, deadline=None)
@given(json_values | solution_like)
def test_solution_documents_parse_or_raise_value_error(doc):
    try:
        solution = LpSolution.from_dict(doc)
    except ValueError:
        return
    assert LpSolution.from_dict(solution.to_dict()) == solution


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
