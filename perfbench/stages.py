"""The traced run: per-stage spans and counters, measured from outside.

``run_stages`` calls the six stages plus key ordering and serialization
in the order ``translate()`` composes them, through a ``call`` hook.
The traced loop records one document span per op and one child span
per stage call, and runs the untraced op on the same document next to
it: their outputs must agree byte for byte (or raise the same class),
so the spans measure the program the end-to-end runs measure.
"""

from __future__ import annotations

import contextlib
import io
import math
import statistics
import subprocess
import sys
import tracemalloc
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

from ops import CHILD_TIMEOUT_S, PACKAGE, Case, cli_op, child_env, library_op, make_case

STAGES = (
    "xmlingest.parse_document",
    "facts.flatten",
    "defaults.inject_defaults",
    "rules.run_to_fixpoint",
    "finalize.wrap_definitions",
    "finalize.cleanup_at_prefix",
    "schema_ast.canonical_key_order",
    "schema_ast.serialize",
)
LADDER = (0.25, 0.5, 1.0)
LADDER_REPEATS = 3
MEMORY_DOCS = 3
CLI_SAMPLES = 9


def run_stages(program, data: bytes, call, out: dict) -> str:
    """``serialize(translate(data).schema)``, one hooked call per stage,
    mirroring ``translate()`` with its default options. Stores the
    results the counters read in ``out`` by stage, so a stage that
    raises leaves the earlier ones there."""
    tree = call("xmlingest.parse_document", program.parse_document, data)
    store = call("facts.flatten", program.flatten, tree)
    store = out["defaults.inject_defaults"] = call("defaults.inject_defaults", program.inject_defaults, store)
    result = out["rules.run_to_fixpoint"] = call("rules.run_to_fixpoint", program.run_to_fixpoint, store, always_array=False)
    root = call("finalize.wrap_definitions", program.wrap_definitions, store, result.fragments)
    root = out["finalize.cleanup_at_prefix"] = call("finalize.cleanup_at_prefix", program.cleanup_at_prefix, root, keep=False)
    value = call("schema_ast.canonical_key_order", program.canonical_key_order, root.value)
    text = out["schema_ast.serialize"] = call("schema_ast.serialize", program.serialize, value)
    return text


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the document span, None for a document

    @property
    def ms(self) -> float:
        return 1000 * (self.end - self.start)


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    # (stage, exception class, expected by the document?) -> count
    errors: Counter = field(default_factory=Counter)
    counters: dict[str, list[float]] = field(default_factory=dict)

    def count(self, name: str, value: float) -> None:
        self.counters.setdefault(name, []).append(value)

    def document(self, program, case: Case) -> tuple[str | None, str | None]:
        """Run ``case`` through the stages; returns (output, exception class)."""
        doc_index = len(self.spans)
        doc_span = Span("document", perf_counter(), 0.0, None)
        self.spans.append(doc_span)

        def call(name, fn, *args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                expected = type(exc).__name__ == case.doc.schema.expected_error
                self.errors[name, type(exc).__name__, expected] += 1
                raise
            finally:
                self.spans.append(Span(name, start, perf_counter(), doc_index))

        out: dict = {}
        try:
            produced, raised = run_stages(program, case.doc.xml, call, out), None
        except Exception as exc:  # recorded by call(); the op failed
            produced, raised = None, type(exc).__name__
        doc_span.end = perf_counter()
        self._count(case, out)
        return produced, raised

    def _count(self, case: Case, out: dict) -> None:
        self.count("xmlingest.input_bytes", len(case.doc.xml))
        store = out.get("defaults.inject_defaults")
        if store is not None:
            facts = [f for facts in store.attributes.values() for f in facts]
            defaults = sum(1 for f in facts if f.source.value == "default")
            self.count("facts.nodes", len(store.nodes))
            self.count("facts.text_facts", len(store.texts))
            self.count("facts.attribute_facts", len(facts) - defaults)
            self.count("defaults.default_facts", defaults)
        result = out.get("rules.run_to_fixpoint")
        if result is not None:
            self.count("rules.firings", len(result.history))
            self.count("rules.firings_per_node", len(result.history) / len(store.nodes))
            self.count("rules.fragments", len(result.fragments))
        if "finalize.cleanup_at_prefix" in out:
            self.count("rules.warnings", len(result.warnings) + len(out["finalize.cleanup_at_prefix"].warnings))
        if "schema_ast.serialize" in out:
            self.count("schema_ast.output_bytes", len(out["schema_ast.serialize"].encode("utf-8")))

    def metrics(self) -> dict[str, tuple[float, str]]:
        documents = [s for s in self.spans if s.parent is None]
        total_ms = sum(s.ms for s in documents) or math.inf
        out: dict[str, tuple[float, str]] = {}
        covered = 0.0
        for stage in STAGES:
            times = [s.ms for s in self.spans if s.name == stage]
            covered += sum(times)
            out[f"{stage}.self_ms_p50"] = (statistics.median(times) if times else 0.0, "ms")
            out[f"{stage}.share"] = (sum(times) / total_ms, "ratio")
            out[f"{stage}.calls"] = (len(times), "count")
            errors = sum(n for (name, _, expected), n in self.errors.items() if name == stage and not expected)
            out[f"{stage}.errors"] = (errors, "count")
        out["other.share"] = (1 - covered / total_ms, "ratio")
        units = {"xmlingest.input_bytes": "bytes", "schema_ast.output_bytes": "bytes"}
        for name in COUNTERS:
            values = self.counters.get(name, ())
            out[name] = (statistics.fmean(values) if values else 0.0, units.get(name, "count"))
        return out


COUNTERS = (
    "rules.firings",
    "rules.firings_per_node",
    "rules.fragments",
    "rules.warnings",
    "xmlingest.input_bytes",
    "facts.nodes",
    "facts.attribute_facts",
    "facts.text_facts",
    "defaults.default_facts",
    "schema_ast.output_bytes",
)


def _slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of log(y) against log(x); 0 when all x are
    equal (a small ``cli`` ladder can draw the same size three times)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    spread = sum((a - mx) ** 2 for a in lx)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / spread if spread else 0.0


def growth_exponents(program, workload: str, seed: int) -> dict[str, tuple[float, str]]:
    """Time against node count over a 1x/2x/4x ladder of the workload's
    shape (the median of a few runs each; a run that raises is timed up
    to the raise)."""
    nodes, fixpoint, pipeline = [], [], []
    for scale in LADDER:
        case = make_case(workload, seed, 0, scale)
        runs = []
        for _ in range(LADDER_REPEATS):
            tracer = Tracer()
            tracer.document(program, case)
            runs.append(tracer)
        nodes.append(len(program.flatten(program.parse_document(case.doc.xml)).nodes))
        fixpoint.append(statistics.median(
            sum(s.ms for s in t.spans if s.name == "rules.run_to_fixpoint") or math.nan for t in runs
        ))
        pipeline.append(statistics.median(t.spans[0].ms for t in runs))
    fixpoint_slope = _slope(nodes, fixpoint) if not any(math.isnan(v) for v in fixpoint) else 0.0
    return {
        "rules.run_to_fixpoint.growth_exponent": (fixpoint_slope, "1"),
        "pipeline.growth_exponent": (_slope(nodes, pipeline), "1"),
    }


def peak_memory(program, cases: list[Case]) -> dict[str, tuple[float, str]]:
    """Peak traced allocation of the fixpoint stage and of the whole
    pipeline, median over a few documents, in an untimed pass."""
    fixpoint_kib, pipeline_kib = [], []
    tracemalloc.start()
    try:
        for case in cases:
            base = tracemalloc.get_traced_memory()[0]
            peaks: dict[str, int] = {}

            def call(name, fn, *args, **kwargs):
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                try:
                    return fn(*args, **kwargs)
                finally:
                    peak = tracemalloc.get_traced_memory()[1]
                    peaks[name] = peak
                    peaks[name + ".self"] = peak - before

            with contextlib.suppress(Exception):
                run_stages(program, case.doc.xml, call, {})
            fixpoint_kib.append(peaks.get("rules.run_to_fixpoint.self", 0) / 1024)
            pipeline_kib.append((max(v for k, v in peaks.items() if not k.endswith(".self")) - base) / 1024)
    finally:
        tracemalloc.stop()
    return {
        "rules.run_to_fixpoint.peak_kib": (statistics.median(fixpoint_kib), "KiB"),
        "pipeline.peak_kib": (statistics.median(pipeline_kib), "KiB"),
    }


def _child_ms(args: list[str], env: dict[str, str]) -> tuple[float, str]:
    start = perf_counter()
    proc = subprocess.run(args, capture_output=True, env=env, timeout=CHILD_TIMEOUT_S, text=True)
    return 1000 * (perf_counter() - start), proc.stderr


def _import_ms(importtime_stderr: str) -> float:
    """Cumulative import time of ``xsd2jsonschema.cli`` from ``-X importtime``."""
    for line in importtime_stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == PACKAGE + ".cli":
            return int(parts[1]) / 1000
    raise RuntimeError(f"{PACKAGE}.cli did not import:\n{importtime_stderr}")


def _main_ms(program, case: Case) -> float:
    """``cli.main()`` in process on stdin, as the ``cli`` op calls it."""
    stdin = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(case.doc.xml))
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            program.cli_main(["--compact"] if case.doc.compact else [])
    except Exception:  # at a broken commit main() raises; the time still counts
        pass
    finally:
        seconds = perf_counter() - start
        sys.stdin = stdin
    return 1000 * seconds


def cli_layers(program, seed: int) -> dict[str, tuple[float, str]]:
    """Where a CLI op's time goes, on the ``cli`` workload's documents."""
    env = child_env()
    cases = [make_case("cli", seed, i) for i in range(CLI_SAMPLES)]
    process = [1000 * cli_op(env, case).seconds for case in cases]
    main = [_main_ms(program, case) for case in cases]
    interpreter = [_child_ms([sys.executable, "-c", "pass"], env)[0] for _ in cases]
    imports = [
        _import_ms(_child_ms([sys.executable, "-X", "importtime", "-c", f"import {PACKAGE}.cli"], env)[1])
        for _ in cases
    ]
    return {
        "cli.process_ms_p50": (statistics.median(process), "ms"),
        "cli.main_ms_p50": (statistics.median(main), "ms"),
        "cli.interpreter_ms_p50": (statistics.median(interpreter), "ms"),
        "cli.import_ms_p50": (statistics.median(imports), "ms"),
    }


def traced_run(program, workload: str, seed: int, seconds: float, case_at, period: int) -> dict:
    """Alternate a traced and an untraced op on each document for
    ``seconds``, ending after a multiple of ``period`` documents; then
    measure growth, memory and the CLI layers."""
    tracer = Tracer()
    results, untraced_ms = [], []
    mismatches = 0
    start = perf_counter()
    index = 0
    while index == 0 or index % period or perf_counter() - start < seconds:
        case = case_at(index)
        if index % 2:
            result = library_op(program, case)
            produced, raised = tracer.document(program, case)
        else:
            produced, raised = tracer.document(program, case)
            result = library_op(program, case)
        if (raised or produced) != result.produced:
            mismatches += 1
        results.append(result)
        untraced_ms.append(1000 * result.seconds)
        index += 1
    timed_s = sum(r.seconds for r in results)
    documents = [s.ms for s in tracer.spans if s.parent is None]
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = (statistics.median(documents) / statistics.median(untraced_ms), "ratio")
    metrics["pipeline.docs_ok_per_s"] = (sum(r.ok for r in results) / timed_s, "1/s")
    metrics["pipeline.fail_ratio"] = (sum(not r.ok for r in results) / len(results), "ratio")
    metrics.update(growth_exponents(program, workload, seed))
    metrics.update(peak_memory(program, [case_at(i) for i in range(MEMORY_DOCS)]))
    metrics.update(cli_layers(program, seed))
    return {
        "results": results,
        "metrics": metrics,
        "mismatches": mismatches,
        "errors": tracer.errors,
    }
