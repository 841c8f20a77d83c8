"""Expected JSON Schema for a generated document, and output comparison.

``expected_schema`` follows the README's "What translates to what"
section and reads only the generator's description of the document; it
never imports xsd2jsonschema. Numbers are ``int`` or ``Decimal``, as
the README promises for the translator's output.
"""

from __future__ import annotations

import copy
import json
import re
from decimal import Decimal

from jsonschema import Draft4Validator

from docgen import Complex, Element, Schema, Simple

PRIMITIVE_SCHEMAS = {
    "string": {"type": "string"},
    "float": {"type": "number"},
    "double": {"type": "number"},
    "decimal": {"type": "number"},
    "nonNegativeInteger": {"type": "integer", "minimum": 0, "exclusiveMinimum": False},
    "positiveInteger": {"type": "integer", "minimum": 0, "exclusiveMinimum": True},
    "nonPositiveInteger": {"type": "integer", "maximum": 0, "exclusiveMaximum": False},
    "negativeInteger": {"type": "integer", "maximum": 0, "exclusiveMaximum": True},
    "integer": {"type": "integer"},
    "long": {"type": "integer"},
    "int": {"type": "integer"},
    "short": {"type": "integer"},
    "byte": {"type": "integer"},
    "boolean": {"type": "boolean"},
    "anyURI": {"type": "string"},
    "date": {"type": "string"},
    "dateTime": {"type": "string"},
    "time": {"type": "string"},
}
# bound facet -> (keyword, exclusive flag keyword, flag value)
_BOUNDS = {
    "minInclusive": ("minimum", "exclusiveMinimum", False),
    "maxInclusive": ("maximum", "exclusiveMaximum", False),
    "minExclusive": ("minimum", "exclusiveMinimum", True),
    "maxExclusive": ("maximum", "exclusiveMaximum", True),
}
_INTEGER = re.compile(r"[+-]?[0-9]+")


def _number(text: str) -> int | Decimal:
    return int(text) if _INTEGER.fullmatch(text) else Decimal(text)


def _describe(schema: dict, doc: str | None) -> dict:
    if doc is not None:
        schema["description"] = " ".join(doc.split())
    return schema


def _type_schema(type_) -> dict:
    if isinstance(type_, Simple):
        return _simple_schema(type_)
    if isinstance(type_, Complex):
        return _complex_schema(type_)
    if type_ is None:
        return {}
    if type_.startswith("xs:"):
        return copy.deepcopy(PRIMITIVE_SCHEMAS[type_[3:]])
    return {"$ref": f"#/definitions/{type_}"}


def _simple_schema(simple: Simple) -> dict:
    out = copy.deepcopy(PRIMITIVE_SCHEMAS[simple.base])
    enum: list[str] = []
    for facet, value in simple.facets:
        if facet == "enumeration":
            if value not in enum:
                enum.append(value)
        elif facet == "pattern":
            out["pattern"] = value
        elif facet in ("minLength", "maxLength"):
            out[facet] = int(value)
        elif facet == "length":
            out["minLength"] = out["maxLength"] = int(value)
        else:
            keyword, flag_keyword, flag = _BOUNDS[facet]
            out[keyword] = _number(value)
            out[flag_keyword] = flag
    if enum:
        out["enum"] = enum
    return _describe(out, simple.doc)


def _element_schema(element: Element) -> dict:
    return _describe(_type_schema(element.type), element.doc)


def _complex_schema(complex_: Complex) -> dict:
    properties: dict = {}
    required: list[str] = []
    for element in complex_.elements:
        value = _element_schema(element)
        low = 1 if element.min_occurs is None else int(element.min_occurs)
        high = element.max_occurs or "1"
        if high != "1":
            value = {"type": "array", "items": value, "minItems": low}
            if high != "unbounded":
                value["maxItems"] = int(high)
        properties[element.name] = value
        if low >= 1:
            required.append(element.name)
    element_names = set(properties)
    for attribute in complex_.attributes:
        # the "@" marker stays only next to an element of the same name
        key = "@" + attribute.name if attribute.name in element_names else attribute.name
        properties[key] = _type_schema(attribute.type)
        if attribute.use == "required":
            required.append(key)
    out: dict = {}
    if properties:
        out = {"type": "object", "properties": properties}
        if required:
            out["required"] = required
    return _describe(out, complex_.doc)


def expected_schema(schema: Schema) -> dict:
    """The schema a correct translation of ``schema`` produces."""
    root = _element_schema(schema.root)
    if schema.types:
        root["definitions"] = {name: _type_schema(t) for name, t in schema.types}
    return root


def canonical(value, key: str | None = None):
    """A hashable form of a JSON value that ignores object key order
    and the order of ``required`` (Draft-04 gives neither a meaning).
    Booleans never equal numbers; ``1`` equals ``Decimal("1.0")``."""
    if isinstance(value, dict):
        return ("object", frozenset((k, canonical(v, k)) for k, v in value.items()))
    if isinstance(value, list):
        items = tuple(canonical(v) for v in value)
        return ("set", tuple(sorted(items, key=repr))) if key == "required" else ("array", items)
    if isinstance(value, bool):
        return ("bool", value)
    if isinstance(value, (int, Decimal)):
        return ("number", value)
    if isinstance(value, str):
        return ("string", value)
    if value is None:
        return ("null",)
    raise TypeError(f"not a JSON value: {value!r}")


def output_mismatch(text: str, expected: dict) -> str | None:
    """``None`` when JSON ``text`` means ``expected``, else why not."""
    try:
        produced = json.loads(text, parse_float=Decimal)
    except ValueError as exc:
        return f"output is not JSON: {exc}"
    if canonical(produced) != canonical(expected):
        return "output differs from the reference schema"
    return None


def check_draft04(schema: dict) -> None:
    """Raise ``jsonschema.SchemaError`` unless ``schema`` is a valid
    Draft-04 schema, checked against the metaschema by the jsonschema
    package."""
    Draft4Validator.check_schema(schema)
