"""Seeded XSD documents for the benchmark workloads.

Each generator builds a *description* of a schema (the dataclasses
below) and nothing else; :func:`render` turns a description into XSD
bytes and ``reference.expected_schema`` turns the same description into
the JSON Schema the translator should produce. Neither side imports
xsd2jsonschema, so the reference cannot inherit the program's bugs.

A document is a pure function of ``(workload, seed, index)``: op ``i``
of a run always gets ``make_doc(workload, seed, i)``, and two ops never
share a document, so a cache keyed on input bytes cannot win.
"""

from __future__ import annotations

import random
import textwrap
from dataclasses import dataclass, field

# Every XSD primitive the translator maps (README "Primitive types").
PRIMITIVES = (
    "string", "float", "double", "decimal", "nonNegativeInteger",
    "positiveInteger", "nonPositiveInteger", "negativeInteger", "integer",
    "long", "int", "short", "byte", "boolean", "anyURI", "date", "dateTime",
    "time",
)
_NUMERIC_BASES = ("integer", "decimal", "int", "short", "double", "nonNegativeInteger")
_WORDS = (
    "invoice order line amount currency customer address postal region "
    "payment due date total net gross tax rate item quantity unit price "
    "discount shipment carrier tracking status note reference account "
    "ledger period balance entry value code label schema record field"
).split()
_PATTERNS = (r"[A-Z]{3}", r"[0-9]{4}-[0-9]{2}", r"\d+(\.\d{1,2})?", r"[a-z][a-z0-9_]*")

# Expected exception class of each invalid corpus document kind.
ERROR_KINDS = (
    ("malformed-xml", "MalformedXml"),
    ("bad-min-occurs", "InvalidOccurs"),
    ("non-numeric-facet", "NonNumericFacetValue"),
    ("merge-conflict", "MergeConflict"),
)


@dataclass
class Simple:
    """``xs:simpleType`` holding one ``xs:restriction`` of a primitive."""

    base: str
    facets: list[tuple[str, str]] = field(default_factory=list)
    doc: str | None = None


@dataclass
class Complex:
    """``xs:complexType``: an optional ``xs:sequence`` plus attributes."""

    elements: list["Element"] = field(default_factory=list)
    attributes: list["Attribute"] = field(default_factory=list)
    doc: str | None = None


@dataclass
class Element:
    """``xs:element``. ``type`` is ``"xs:<primitive>"``, the name of a
    global type, or an inline :class:`Simple`/:class:`Complex`."""

    name: str
    type: "str | Simple | Complex"
    min_occurs: str | None = None
    max_occurs: str | None = None
    doc: str | None = None


@dataclass
class Attribute:
    name: str
    type: "str | Simple | None" = None
    use: str | None = None


@dataclass
class Schema:
    root: Element
    types: list[tuple[str, "Simple | Complex"]] = field(default_factory=list)
    # class name of the Xsd2JsonSchemaError subclass translation must raise
    expected_error: str | None = None
    # set for malformed documents: what render() breaks
    corruption: str | None = None


@dataclass
class Doc:
    schema: Schema
    xml: bytes
    # for the cli workload: emit compact instead of pretty output
    compact: bool = False


# -- rendering ------------------------------------------------------------


def _annotation(out: list[str], depth: int, doc: str | None) -> None:
    if doc is None:
        return
    pad = "  " * depth
    body = textwrap.fill(doc, 72, initial_indent=pad + "    ", subsequent_indent=pad + "    ")
    out.append(f"{pad}<xs:annotation>")
    out.append(f"{pad}  <xs:documentation>")
    out.append(body)
    out.append(f"{pad}  </xs:documentation>")
    out.append(f"{pad}</xs:annotation>")


def _simple(out: list[str], depth: int, simple: Simple, name: str | None = None) -> None:
    pad = "  " * depth
    named = f' name="{name}"' if name else ""
    out.append(f"{pad}<xs:simpleType{named}>")
    _annotation(out, depth + 1, simple.doc)
    if not simple.facets:
        out.append(f'{pad}  <xs:restriction base="xs:{simple.base}"/>')
    else:
        out.append(f'{pad}  <xs:restriction base="xs:{simple.base}">')
        for facet, value in simple.facets:
            out.append(f'{pad}    <xs:{facet} value="{value}"/>')
        out.append(f"{pad}  </xs:restriction>")
    out.append(f"{pad}</xs:simpleType>")


def _complex(out: list[str], depth: int, complex_: Complex, name: str | None = None) -> None:
    pad = "  " * depth
    named = f' name="{name}"' if name else ""
    out.append(f"{pad}<xs:complexType{named}>")
    _annotation(out, depth + 1, complex_.doc)
    if complex_.elements:
        out.append(f"{pad}  <xs:sequence>")
        for element in complex_.elements:
            _element(out, depth + 2, element)
        out.append(f"{pad}  </xs:sequence>")
    for attribute in complex_.attributes:
        attrs = f' name="{attribute.name}"'
        if isinstance(attribute.type, str):
            attrs += f' type="{attribute.type}"'
        if attribute.use is not None:
            attrs += f' use="{attribute.use}"'
        if isinstance(attribute.type, Simple):
            out.append(f"{pad}  <xs:attribute{attrs}>")
            _simple(out, depth + 2, attribute.type)
            out.append(f"{pad}  </xs:attribute>")
        else:
            out.append(f"{pad}  <xs:attribute{attrs}/>")
    out.append(f"{pad}</xs:complexType>")


def _element(out: list[str], depth: int, element: Element) -> None:
    pad = "  " * depth
    attrs = f' name="{element.name}"'
    if isinstance(element.type, str):
        attrs += f' type="{element.type}"'
    if element.min_occurs is not None:
        attrs += f' minOccurs="{element.min_occurs}"'
    if element.max_occurs is not None:
        attrs += f' maxOccurs="{element.max_occurs}"'
    if isinstance(element.type, str) and element.doc is None:
        out.append(f"{pad}<xs:element{attrs}/>")
        return
    out.append(f"{pad}<xs:element{attrs}>")
    _annotation(out, depth + 1, element.doc)
    if isinstance(element.type, Simple):
        _simple(out, depth + 1, element.type)
    elif isinstance(element.type, Complex):
        _complex(out, depth + 1, element.type)
    out.append(f"{pad}</xs:element>")


def render(schema: Schema) -> bytes:
    """The XSD text of ``schema``, indented like a hand-written file."""
    out = ['<?xml version="1.0" encoding="UTF-8"?>']
    out.append('<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">')
    _element(out, 1, schema.root)
    for name, definition in schema.types:
        if isinstance(definition, Simple):
            _simple(out, 1, definition, name)
        else:
            _complex(out, 1, definition, name)
    out.append("</xs:schema>")
    text = "\n".join(out) + "\n"
    if schema.corruption == "truncate":
        text = text[: text.rindex("</xs:schema>")]
    elif schema.corruption == "unescaped-lt":
        head, sep, tail = text.partition("</xs:documentation>")
        text = head + " a < b " + sep + tail
    return text.encode("utf-8")


# -- shared pieces ----------------------------------------------------------


def _prose(rng: random.Random, chars: int) -> str:
    words: list[str] = []
    length = 0
    while length < chars:
        sentence = [rng.choice(_WORDS) for _ in range(rng.randint(6, 14))]
        sentence[0] = sentence[0].capitalize()
        text = " ".join(sentence) + rng.choice((".", ".", ",", ";"))
        words.append(text)
        length += len(text) + 1
    return " ".join(words)


def _primitive(rng: random.Random) -> str:
    return "xs:" + rng.choice(PRIMITIVES)


def _restriction(rng: random.Random) -> Simple:
    """A restriction with facets of each family the README maps."""
    kind = rng.randrange(4)
    if kind == 0:
        values = rng.sample(_WORDS, rng.randint(3, 8))
        return Simple("string", [("enumeration", v) for v in values])
    if kind == 1:
        facets = [("pattern", rng.choice(_PATTERNS))]
        low = rng.randint(0, 4)
        facets += [("minLength", str(low)), ("maxLength", str(low + rng.randint(1, 60)))]
        return Simple("string", facets)
    if kind == 2:
        return Simple("string", [("length", str(rng.randint(1, 12)))])
    base = rng.choice(_NUMERIC_BASES)
    low = rng.randint(0, 50)
    high = low + rng.randint(1, 1000)
    low_facet = rng.choice(("minInclusive", "minExclusive"))
    high_facet = rng.choice(("maxInclusive", "maxExclusive"))
    high_text = str(high) if base not in ("decimal", "double") else f"{high}.{rng.randint(1, 99)}"
    return Simple(base, [(low_facet, str(low)), (high_facet, high_text)])


def _occurs(rng: random.Random) -> tuple[str | None, str | None]:
    """(minOccurs, maxOccurs) with min <= max; ``None`` keeps the default."""
    min_raw = rng.choice((None, None, "0", "1", "2"))
    max_raw = rng.choice((None, None, "unbounded", "1", "3", "5"))
    low = 1 if min_raw is None else int(min_raw)
    high = 1 if max_raw is None else (None if max_raw == "unbounded" else int(max_raw))
    if high is not None and high < low:
        max_raw = "unbounded"
    return min_raw, max_raw


# -- workloads ----------------------------------------------------------------


def wide(rng: random.Random, index: int, scale: float = 1.0) -> Schema:
    """One global element: a 256-element sequence and 64 attributes."""
    elements = [
        Element(
            f"e{k}",
            _primitive(rng),
            max_occurs="unbounded" if rng.random() < 0.85 else rng.choice((None, "1", "4")),
        )
        for k in range(round(256 * scale))
    ]
    attributes = [
        Attribute(f"a{k}", _primitive(rng), rng.choice((None, None, "required", "optional")))
        for k in range(round(64 * scale))
    ]
    return Schema(Element(f"wide{index}", Complex(elements, attributes)))


def deep(rng: random.Random, index: int, scale: float = 1.0) -> Schema:
    """16 nested inline complex types, each with one sibling element and
    one attribute."""
    depth = round(16 * scale)
    inner = Element(f"leaf{index}", _primitive(rng))
    for level in range(depth, 0, -1):
        sibling = Element(f"s{level}", _primitive(rng), min_occurs=rng.choice((None, "0")))
        attribute = Attribute(f"a{level}", _primitive(rng), rng.choice((None, "required")))
        name = f"deep{index}" if level == 1 else f"n{level}"
        inner.max_occurs = rng.choice((None, None, None, "unbounded"))
        inner = Element(name, Complex([inner, sibling], [attribute]))
    inner.max_occurs = None
    return Schema(inner)


def corpus(rng: random.Random, index: int, scale: float = 1.0) -> Schema:
    """A realistic document of about 150 nodes and 28 KB: global named
    simple and complex types reached through ``$ref``, facets, required
    attributes and long documentation. Every 8th document is invalid."""
    simple_names = [f"Code{k}" for k in range(max(1, round(6 * scale)))]
    complex_names = [f"Part{k}" for k in range(max(1, round(4 * scale)))]
    types: list[tuple[str, Simple | Complex]] = []
    for name in simple_names:
        simple = _restriction(rng)
        if rng.random() < 0.5:
            simple.doc = _prose(rng, rng.randint(400, 1100))
        types.append((name, simple))

    def field_type(allow_complex: bool):
        roll = rng.random()
        if roll < 0.35:
            return _primitive(rng)
        if roll < 0.65:
            return rng.choice(simple_names)
        if roll < 0.8 or not allow_complex:
            return _restriction(rng)
        return rng.choice(complex_names)

    counter = 0

    def fresh() -> str:
        nonlocal counter
        counter += 1
        return f"f{counter}"

    def element(allow_complex: bool) -> Element:
        min_raw, max_raw = _occurs(rng)
        doc = _prose(rng, rng.randint(300, 1000)) if rng.random() < 0.4 else None
        return Element(fresh(), field_type(allow_complex), min_raw, max_raw, doc)

    def attributes(elements: list[Element]) -> list[Attribute]:
        out = []
        for _ in range(rng.randint(1, 3)):
            roll = rng.random()
            type_ = _primitive(rng) if roll < 0.6 else rng.choice(simple_names) if roll < 0.9 else None
            out.append(Attribute(fresh(), type_, rng.choice(("required", "required", "optional", None))))
        if rng.random() < 0.25:
            # same name as a sibling element: the "@" prefix must survive
            out[0].name = elements[0].name
        return out

    for name in complex_names:
        elements = [element(False) for _ in range(rng.randint(3, 6))]
        doc = _prose(rng, rng.randint(800, 2000)) if rng.random() < 0.7 else None
        types.append((name, Complex(elements, attributes(elements), doc)))
    root_elements = [element(True) for _ in range(max(1, round(8 * scale)))]
    root = Element(
        f"doc{index}",
        Complex(root_elements, attributes(root_elements)),
        doc=_prose(rng, rng.randint(2500, 4500)),
    )
    schema = Schema(root, types)
    if index % 8 == 7:
        _break(rng, schema, index)
    return schema


def _break(rng: random.Random, schema: Schema, index: int) -> None:
    kind, error = ERROR_KINDS[(index // 8) % len(ERROR_KINDS)]
    schema.expected_error = error
    sequence = schema.root.type.elements
    if kind == "malformed-xml":
        schema.corruption = rng.choice(("truncate", "unescaped-lt"))
    elif kind == "bad-min-occurs":
        target = rng.choice(sequence)
        target.type = _primitive(rng)
        target.min_occurs = rng.choice(("-1", "many", "1.5"))
    elif kind == "non-numeric-facet":
        facet = rng.choice(("maxLength", "minLength", "minInclusive", "maxExclusive"))
        base = "string" if "Length" in facet else "integer"
        sequence.append(Element("broken", Simple(base, [(facet, rng.choice(("ten", "n/a", "1e")))])))
    else:
        first = Element("twin", "xs:string")
        second = Element("twin", rng.choice(("xs:integer", "xs:boolean", "xs:decimal")))
        sequence[1:1] = [first, second]


def invoice(rng: random.Random, index: int, scale: float = 1.0) -> Schema:
    """A small invoice-shaped document, the size a CLI user passes."""
    extra = round(rng.randint(2, 6) * scale)
    currency = Simple("string", [("enumeration", c) for c in rng.sample(("EUR", "USD", "GBP", "JPY", "CHF"), 3)])
    line = Complex(
        [
            Element("description", "xs:string"),
            Element("quantity", "xs:positiveInteger"),
            Element("price", "xs:decimal"),
        ]
        + [Element(f"lx{k}", _primitive(rng), *_occurs(rng)) for k in range(extra)],
        [Attribute("sku", Simple("string", [("pattern", rng.choice(_PATTERNS))]), "required")],
    )
    invoice_type = Complex(
        [
            Element("total", "xs:decimal"),
            Element("issued", "xs:date"),
            Element("line", "LineType", "0", "unbounded"),
            Element("note", "xs:string", "0"),
        ]
        + [Element(f"ix{k}", _primitive(rng), *_occurs(rng)) for k in range(extra)],
        [Attribute("currency", "CurrencyCode", "required"), Attribute("id", "xs:string", "required")],
    )
    return Schema(
        Element(f"invoice{index}", "InvoiceType"),
        [("InvoiceType", invoice_type), ("LineType", line), ("CurrencyCode", currency)],
    )


GENERATORS = {"wide": wide, "deep": deep, "corpus": corpus, "cli": invoice}

# How many consecutive documents make one full cycle of a workload's
# mix: every corpus kind of invalid document, or both CLI layouts. A
# run stops only after a whole number of cycles, so its share of each
# kind, and so of ops that fail, is the same on every run.
MIX_PERIOD = {"wide": 1, "deep": 1, "corpus": 8 * len(ERROR_KINDS), "cli": 2}


def make_doc(workload: str, seed: int, index: int, scale: float = 1.0) -> Doc:
    """Document ``index`` of ``workload`` under ``seed``."""
    rng = random.Random(f"{workload}/{seed}/{index}/{scale}")
    schema = GENERATORS[workload](rng, index, scale)
    return Doc(schema, render(schema), compact=index % 2 == 1)
