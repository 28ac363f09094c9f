"""The CLI transcript: what ``bellsim`` prints for a fixed list of seeded
commands, kept in ``tests/cli_transcript.txt``, which ``tests/test_cli.py``
checks entry by entry.

Each entry is the line ``$ bellsim ARGV``, then ``exit N``, then
``stdout:`` and every stdout byte, then ``stderr:`` and every stderr byte,
then one blank line. A pipe ``A | B`` records A's exit code, the SHA-256 of
its stdout and its stderr, each line headed by A's subcommand, then B in
full. A run that exits 3 keeps only stderr's last line, headed ``stderr,
last line:``, because its traceback names paths. Every command runs
in-process through :func:`bellsim.cli.main`, seeded, so the transcript
holds no timing, generated seed or temporary path.

After a deliberate change to the output, rewrite the transcript from the
repository root and review its diff:

    PYTHONPATH=src python tools/transcript.py
"""

from __future__ import annotations

import hashlib
import io
import sys
from pathlib import Path

from bellsim.cli import main

TRANSCRIPT = Path(__file__).resolve().parents[1] / "tests" / "cli_transcript.txt"

_QUANTUM = "simulate --source quantum --angles 60,0,120"
#: Every subcommand in every format it takes, and a run ending in each exit
#: code from 0 to 3. The all-pairs pipe is perfbench's ``pipeline`` dataset B.
COMMANDS = (
    *(f"correlations --angles 60,0,120 --format {fmt}" for fmt in ("text", "json", "csv")),
    *(f"{analysis} --format {fmt}" for analysis in ("trace-proof", "lhv-max", "stochastic-sup")
      for fmt in ("text", "json")),
    *(f"loophole --angles 60,0,120 {mode} --format {fmt}"
      for mode in ("--max-efficiency", "--floor 0.5", "--floor 1", "--demo")
      for fmt in ("text", "json")),
    *(f"{_QUANTUM} --n 12 --seed 7 --format {fmt}" for fmt in ("csv", "json")),
    *(f"{_QUANTUM} --n 2000 --seed 7 | test --format {fmt}" for fmt in ("text", "json")),
    "simulate --source loophole --angles 60,0,120 --setting-distribution uniform-4 "
    "--n 20000 --seed 3 | test --conditioning all-pairs",
    "loophole --angles 60,0,120 --floor 2",
    "loophole --angles 181,7,6 --demo",
)


def run(argv: str, stdin: bytes = b"") -> tuple[int, bytes, str]:
    """``bellsim ARGV`` in-process on ``stdin``: its exit code, stdout and stderr."""
    saved = sys.stdin, sys.stdout, sys.stderr
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    sys.stdin, sys.stdout, sys.stderr = io.TextIOWrapper(io.BytesIO(stdin)), out, io.StringIO()
    try:
        code = main(argv.split())
        out.flush()
        return code, out.buffer.getvalue(), sys.stderr.getvalue()
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved


def block(command: str) -> str:
    """The transcript entry of ``command``, one of :data:`COMMANDS`."""
    text, stdin = f"$ bellsim {command.replace(' | ', ' | bellsim ')}\n", b""
    if " | " in command:
        source, command = command.split(" | ")
        code, stdin, err = run(source)
        name = source.split()[0]
        text += (f"{name} exit {code}\n{name} stdout sha256: {hashlib.sha256(stdin).hexdigest()}\n"
                 f"{name} stderr:\n{err}")
    code, out, err = run(command, stdin)
    label = "stderr:"
    if code == 3:
        label, err = "stderr, last line:", err.splitlines()[-1] + "\n"
    return f"{text}exit {code}\nstdout:\n{out.decode()}{label}\n{err}\n"


def render() -> str:
    return "".join(map(block, COMMANDS))


if __name__ == "__main__":
    TRANSCRIPT.write_bytes(render().encode())
