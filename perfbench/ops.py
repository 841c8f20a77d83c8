"""One benchmark operation per document, and how its time is charged.

An op is a closed-loop call with one caller: the next op starts only
after the previous one returned. Library workloads time
``serialize(translate(xml).schema)`` in process; the ``cli`` workload
times one ``python -m xsd2jsonschema.cli`` child per op.

A failed or wrong op counts as never finishing: it is charged the fixed
``CEILING_S`` on top of its own time, so it always reads slower than
any correct op (an op slower than the ceiling counts as failed too).
Adding its own time keeps a run in which every op fails from reading
the same figure on every run.

Times are reported at a reference machine speed. The speed of a shared
host drifts by up to 2x within minutes, and a run cannot be steadier
than that, so every op is timed between two runs of a fixed reference
task and scaled by how much slower than its reference time that task
ran. In-process ops use a pure-Python loop; CLI ops, whose process
start-up drifts differently, use a bare interpreter start.
"""

from __future__ import annotations

import importlib
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from docgen import Doc, make_doc
from reference import check_draft04, expected_schema, output_mismatch

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "xsd2jsonschema"

CEILING_S = 2.0
# what the reference tasks take at the reference speed
REFERENCE_LOOP_S = 0.004
REFERENCE_INTERPRETER_S = 0.060
# a child that outlives this is killed and its op counts as failed
CHILD_TIMEOUT_S = 30.0


@dataclass
class Case:
    doc: Doc
    # the reference schema, or None when translation must raise
    expected: dict | None


@dataclass
class Result:
    seconds: float
    # why the op failed, or None; a wrong output also sets ``wrong``
    failure: str | None = None
    wrong: bool = False
    # serialized output or exception class name, for the composition check
    produced: str | None = None
    # reference time over the reference task's time around this op
    speed: float = 1.0

    @property
    def reference_s(self) -> float:
        return self.seconds * self.speed

    @property
    def ok(self) -> bool:
        return self.failure is None and self.reference_s <= CEILING_S

    @property
    def charged_ms(self) -> float:
        return 1000 * (self.reference_s if self.ok else CEILING_S + self.reference_s)


def loop_slowness() -> float:
    """How many times its reference time a fixed pure-Python workload
    (dicts, lists, sorting, strings, like the translator's) takes now."""
    rng = random.Random(0)
    start = perf_counter()
    for _ in range(40):
        table = {f"k{i}": [rng.random() for _ in range(8)] for i in range(60)}
        ordered = sorted(table.items(), key=lambda item: item[1][3])
        "".join(key for key, _ in ordered)
    return (perf_counter() - start) / REFERENCE_LOOP_S


def interpreter_slowness(env: dict[str, str]) -> float:
    """How many times its reference time ``python -c pass`` takes now."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=CHILD_TIMEOUT_S)
    return (perf_counter() - start) / REFERENCE_INTERPRETER_S


class SpeedGauge:
    """How fast the machine ran during each of a series of timed calls.

    The reference task (``loop_slowness`` or ``interpreter_slowness``)
    runs once up front and once after every call, so each call is
    bracketed by two runs of it.
    """

    def __init__(self, slowness):
        self._slowness = slowness
        self._before = slowness()

    def speed(self) -> float:
        """Call right after a timed call; multiply its time by the result."""
        after = self._slowness()
        speed = 2 / (self._before + after)
        self._before = after
        return speed


def make_case(workload: str, seed: int, index: int, scale: float = 1.0) -> Case:
    """Document ``index`` with its reference, checked against Draft-04."""
    doc = make_doc(workload, seed, index, scale)
    if doc.schema.expected_error is not None:
        return Case(doc, None)
    expected = expected_schema(doc.schema)
    check_draft04(expected)
    return Case(doc, expected)


def load_program() -> SimpleNamespace:
    """Import the package under test afresh from ``src`` and return the
    public functions the benchmark calls."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module(PACKAGE)
    cli = importlib.import_module(PACKAGE + ".cli")
    return SimpleNamespace(
        translate=pkg.translate,
        parse_document=pkg.parse_document,
        flatten=pkg.flatten,
        inject_defaults=pkg.inject_defaults,
        run_to_fixpoint=pkg.run_to_fixpoint,
        wrap_definitions=pkg.wrap_definitions,
        cleanup_at_prefix=pkg.cleanup_at_prefix,
        canonical_key_order=pkg.canonical_key_order,
        serialize=pkg.serialize,
        cli_main=cli.main,
    )


def judge(case: Case, seconds: float, text: str | None, exc: BaseException | None) -> Result:
    """Compare what the program did with what ``case`` expects."""
    expected_error = case.doc.schema.expected_error
    if exc is not None:
        name = type(exc).__name__
        failure = None if name == expected_error else f"raised {name}"
        return Result(seconds, failure, produced=name)
    if expected_error is not None:
        return Result(seconds, f"did not raise {expected_error}", produced=text)
    mismatch = output_mismatch(text, case.expected)
    return Result(seconds, mismatch, wrong=mismatch is not None, produced=text)


def library_op(program, case: Case) -> Result:
    start = perf_counter()
    try:
        text = program.serialize(program.translate(case.doc.xml).schema)
    except Exception as exc:  # any escape is a measured failure, not a crash
        return judge(case, perf_counter() - start, None, exc)
    return judge(case, perf_counter() - start, text, None)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def cli_op(env: dict[str, str], case: Case) -> Result:
    """Run the CLI on ``case`` in a child process, reading stdin."""
    args = [sys.executable, "-m", PACKAGE + ".cli"]
    if case.doc.compact:
        args.append("--compact")
    args.append("-")
    start = perf_counter()
    try:
        proc = subprocess.run(
            args, input=case.doc.xml, capture_output=True, env=env, cwd=ROOT,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return Result(perf_counter() - start, "timed out")
    seconds = perf_counter() - start
    if proc.returncode != 0:
        return Result(seconds, f"exit {proc.returncode}")
    if b"Traceback" in proc.stderr:
        return Result(seconds, "traceback on stderr")
    text = proc.stdout.decode("utf-8", "replace")
    lines = text.split("\n")
    if lines[-1] != "" or (len(lines) == 2) != case.doc.compact:
        return Result(seconds, "stdout is not one JSON document in the requested layout", wrong=True)
    if not case.doc.compact and not lines[1].startswith('  "'):
        return Result(seconds, "pretty output is not indented by 2", wrong=True)
    return judge(case, seconds, text, None)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]
