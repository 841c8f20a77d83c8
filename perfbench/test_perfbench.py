"""Tests of the benchmark itself: inputs, reference and failure charging.

They use stub programs only, so they hold whatever state the translator
is in, and they never import the package under test.
"""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET
from types import SimpleNamespace

import pytest

from docgen import GENERATORS, MIX_PERIOD, Complex, Element, Schema, make_doc, render
from ops import CEILING_S, ROOT, Case, Result, library_op, make_case
from reference import canonical, expected_schema
from run import closed_loop, end_to_end

FIXTURES = ROOT / "tests" / "fixtures"


@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_same_seed_gives_identical_input_bytes(workload):
    first = [make_doc(workload, 11, i).xml for i in range(9)]
    again = [make_doc(workload, 11, i).xml for i in range(9)]
    other_seed = [make_doc(workload, 12, i).xml for i in range(9)]
    assert first == again
    assert len(set(first)) == len(first), "two ops share a document"
    assert first != other_seed


def _tree(element: ET.Element):
    children = tuple(_tree(child) for child in element)
    return element.tag, sorted(element.attrib.items()), children


def test_reference_matches_hand_written_fixture():
    percentages = Schema(
        Element("percentages", Complex([Element("value", "xs:nonNegativeInteger", max_occurs="5")]))
    )
    # the description is the fixture's document ...
    fixture_xsd = ET.fromstring((FIXTURES / "percentages.xsd").read_bytes())
    assert _tree(ET.fromstring(render(percentages))) == _tree(fixture_xsd)
    # ... and the reference is the fixture's hand-written translation
    expected = json.loads((FIXTURES / "percentages.expected.json").read_text())
    assert canonical(expected_schema(percentages)) == canonical(expected)


def test_comparison_ignores_key_and_required_order_only():
    schema = {"type": "object", "required": ["a", "b"], "enum": ["x", "y"], "minimum": 1}
    assert canonical(schema) == canonical(
        {"minimum": 1, "enum": ["x", "y"], "required": ["b", "a"], "type": "object"}
    )
    assert canonical(schema) != canonical({**schema, "enum": ["y", "x"]})
    assert canonical(schema) != canonical({**schema, "minimum": True})


def _stub(translate):
    return SimpleNamespace(translate=translate, serialize=lambda schema: schema)


def _raise(exc_type):
    def translate(data):
        raise exc_type("stub")

    return translate


def _correct(case: Case):
    return lambda data: SimpleNamespace(schema=json.dumps(case.expected))


def test_a_stub_that_raises_is_counted_as_failed():
    case = make_case("wide", 3, 0)
    result = library_op(_stub(_raise(TypeError)), case)
    assert not result.ok and result.failure == "raised TypeError"
    assert library_op(_stub(_correct(case)), case).ok

    # an invalid corpus document must raise its own class, and only that
    invalid = make_case("corpus", 3, 7)
    expected = type(invalid.doc.schema.expected_error, (Exception,), {})
    assert library_op(_stub(_raise(expected)), invalid).ok
    assert not library_op(_stub(_raise(TypeError)), invalid).ok
    assert not library_op(_stub(_correct(case)), invalid).ok

    # a wrong schema is a failure too, and marks the run incorrect
    wrong = library_op(_stub(lambda data: SimpleNamespace(schema='{"type": "string"}')), case)
    assert not wrong.ok and wrong.wrong


def test_a_failure_lands_on_the_ceiling_never_below_a_success():
    ceiling_ms = 1000 * CEILING_S
    fast_failure = Result(0.001, "raised TypeError")
    slow_success = Result(CEILING_S * 0.99)
    too_slow = Result(CEILING_S * 1.01)
    assert fast_failure.charged_ms >= ceiling_ms > slow_success.charged_ms
    assert not too_slow.ok and too_slow.charged_ms > ceiling_ms

    case = make_case("deep", 3, 0)
    failing = [library_op(_stub(_raise(TypeError)), case) for _ in range(20)]
    passing = [library_op(_stub(_correct(case)), case) for _ in range(20)]
    failed, ok = end_to_end(failing, 1.0), end_to_end(passing, 1.0)
    for name in ("latency_p50_ms", "latency_p90_ms"):
        assert failed[name][0] >= ceiling_ms > ok[name][0]
    assert failed["charged_docs_per_s"][0] < ok["charged_docs_per_s"][0]


def test_a_run_ends_on_a_whole_cycle_of_the_mix():
    # the share of invalid corpus documents, and so of failures, is the
    # same on every run however many ops fit in the time
    kinds = [make_doc("corpus", 5, i).schema.expected_error for i in range(2 * MIX_PERIOD["corpus"])]
    cycle = kinds[: MIX_PERIOD["corpus"]]
    assert kinds[MIX_PERIOD["corpus"]:] == cycle
    assert all(kind is not None for kind in cycle[7::8]) and len(set(cycle[7::8])) == len(cycle[7::8])

    results = closed_loop(lambda case: Result(0.0), lambda index: index, 0.0, lambda: 1.0, 7)
    assert len(results) % 7 == 0 and len(results) >= 100
