"""Fuzzed inputs never read as a verdict.

* ``LpSolution.from_dict`` and ``model_from_dict`` on arbitrary JSON-shaped
  values, and on near-valid documents, either return a value whose
  document, through JSON text, reads back equal, or refuse with
  ``ValueError``: never another exception, which the CLI would report as
  an internal error, exit 3.
* ``bellsim test --in`` on byte-mutated copies of a small valid CSV exits 0
  or 1 only when ``read_dataset_csv`` accepts the file, 2 otherwise, and
  never 3 (an unexpected exception).
* ``read_dataset_csv`` and ``read_row_counts`` on edited copies of valid
  CSVs read what a plain line-by-line reference reads, or raise the message
  of the line (or the order) the reference refuses.
"""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellsim import experiment
from bellsim.cli import main
from bellsim.experiment import (
    CSV_HEADER,
    ExperimentConfig,
    TrialDataset,
    TrialRecord,
    read_dataset_csv,
    read_row_counts,
    run_experiment,
    write_dataset_csv,
)
from bellsim.lhv import CANONICAL_INT, model_from_dict, model_to_dict
from bellsim.loophole import SOLUTION_STATUSES, LpSolution
from bellsim.quantum import AngleTriple, _row_code

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

def reads_back(read, write, doc) -> None:
    """``read(doc)`` refuses with ``ValueError``, or returns a value whose
    document, written as JSON text and read again, reads back equal."""
    try:
        value = read(doc)
    except ValueError:
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


#: A detection flag with the spins it allows.
FLAG_SPINS = {(0, None), (1, -1), (1, 1)}


def reference_record(line: bytes) -> TrialRecord | None:
    """The record of the dataset row ``line``, or None if it is no valid row."""
    fields = line.split(b",")
    if len(fields) != len(CSV_HEADER):
        return None
    for name, field in zip(CSV_HEADER, fields):
        if not (CANONICAL_INT.fullmatch(field.decode("latin-1"))
                or (field == b"" and name in ("y1", "y2"))):
            return None
    record = TrialRecord(*(int(field) if field else None for field in fields))
    if (-(2**63) <= record.index < 2**63 and {record.x1, record.x2} <= {0, 1, 2}
            and {(record.d1, record.y1), (record.d2, record.y2)} <= FLAG_SPINS):
        return record
    return None


def reference_read(data: bytes) -> tuple[list | None, set]:
    """The records of the dataset CSV ``data``, read a line at a time, and
    the messages a reader may raise for it, none if it is valid.

    A reader decodes a block of lines before it checks their order, so an
    order broken before the first bad line may be reported in its place.
    """
    lines = [line.removesuffix(b"\r") for line in data.split(b"\n")]
    if lines[0] != ",".join(CSV_HEADER).encode():
        return None, {f"unexpected dataset header {experiment._shown(lines[0])!r}"}
    records, messages = [], set()
    for number, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        record = reference_record(line)
        if record is None:
            return None, messages | {str(experiment._row_error(line, number))}
        if records and record.index <= records[-1].index and not messages:
            messages.add(f"trial indices not strictly increasing at {record.index}")
        records.append(record)
    return (None if messages else records), messages


def csv_bytes(data: TrialDataset) -> bytes:
    out = io.BytesIO()
    write_dataset_csv(data, out)
    return out.getvalue()


# Valid CSVs, each with CRLF and with LF line ends: simulated rows; indices
# at and either side of the codec's eight-digit word widths; and every
# row's tail after a short index, so that a line's last 16 bytes reach into
# the line before it, whose last comma an LF end leaves one byte closer.
WIDE = sorted({sign * (10**k + d) for k in (7, 8, 9, 15, 16, 17) for d in (-1, 0, 1)
               for sign in (1, -1)} | {0, 2**63 - 1, -(2**63)})
VALID_CSVS = [
    text
    for data in (run_experiment(ExperimentConfig(300, 5, "quantum",
                                                 angles=AngleTriple.from_degrees(60, 0, 120))),
                 TrialDataset(WIDE, np.arange(len(WIDE)) * 7 % 81),
                 TrialDataset(np.arange(-9, 153), np.arange(162) % 81))  # every row's tail
    for text in (csv_bytes(data), csv_bytes(data).replace(b"\r\n", b"\n"))
]
# Bytes next to the digits, and those a word's digit test could wrap at.
NEAR_DIGITS = st.sampled_from(b"/:;<=>?\xca\xcb\xcc\xcd\xce\xcf") | st.integers(0, 255)


@st.composite
def edited_csvs(draw) -> bytes:
    """A valid CSV whose indices are rewritten at the word widths or given a
    stray byte, whose minus signs move, and whose bytes then may be mutated."""
    data = draw(st.sampled_from(VALID_CSVS))
    for _ in range(draw(st.integers(0, 3))):
        lines = data.split(b"\n")
        k = draw(st.integers(1, len(lines) - 1))
        index, comma, tail = lines[k].partition(b",")
        kind = draw(st.sampled_from(("width", "stray", "minus")))
        if kind == "width":
            width = draw(st.sampled_from((8, 9, 16, 17, 19, 20)))
            digits = draw(st.text("0123456789", min_size=width, max_size=width)).encode()
            lines[k] = draw(st.sampled_from((b"", b"-"))) + digits + comma + tail
        elif kind == "stray":
            at = draw(st.integers(0, len(index)))
            lines[k] = index[:at] + bytes([draw(NEAR_DIGITS)]) + index[at + 1:] + comma + tail
        else:
            line = lines[k].replace(b"-", b"", 1)
            at = draw(st.integers(0, len(line)))
            lines[k] = line[:at] + b"-" + line[at:]
        data = b"\n".join(lines)
    if draw(st.booleans()):
        data = mutate(data, draw(mutations))
    return data


@pytest.mark.parametrize("block_trials", (experiment.BLOCK_TRIALS, 3))
@settings(max_examples=150, deadline=None)
@given(data=edited_csvs())
def test_readers_match_a_line_by_line_reference(block_trials, data):
    records, messages = reference_read(data)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiment, "BLOCK_TRIALS", block_trials)
        for read in (read_dataset_csv, read_row_counts):
            try:
                got = read(io.BytesIO(data))
            except ValueError as exc:
                assert str(exc) in messages, (str(exc), messages)
                continue
            assert records is not None, messages
            if read is read_row_counts:
                codes = [_row_code(r.x1, r.x2, r.y1 or 0, r.y2 or 0) for r in records]
                assert np.array_equal(got, np.bincount(np.array(codes, int), minlength=81))
            else:
                assert list(got) == records
