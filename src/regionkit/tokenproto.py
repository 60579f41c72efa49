"""Token-based region referencing: the grounded-output grammar.

Responses ground noun phrases in regions with a flat tag grammar.  The
grammar, in EBNF (also documented in the README):

    response      = { text | grounded_span | region_ref } ;
    grounded_span = "<ground>" phrase "</ground>"
                    "<object>" region_ref { region_ref } "</object>" ;
    region_ref    = "<region" index ">" ;
    index         = "0" | nonzero digit { digit } ;    (* canonical decimal *)
    phrase        = { any byte except "<" } ;
    text          = ( any byte except "<" ) { any byte except "<" } ;

The protocol doubles as a wire format, so tags match byte-exactly: every
"<" must begin one of the five tags above, whitespace inside tags is
illegal, region indices are canonical decimals (no leading zeros), an
``<object>`` block holds at least one region reference with no duplicates,
and spans do not nest.  A ``<regionK>`` outside any span is a legal bare
reference.  Malformed input raises :class:`ParseError` carrying the byte
offset, the violated production, and a message — never anything else.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

__all__ = [
    "Text",
    "GroundedSpan",
    "BareRegionRef",
    "GroundedResponse",
    "ParseError",
    "parse_grounded",
    "serialize_grounded",
]


@dataclass(frozen=True)
class Text:
    text: str


@dataclass(frozen=True)
class GroundedSpan:
    phrase: str
    regions: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "regions", tuple(int(r) for r in self.regions))


@dataclass(frozen=True)
class BareRegionRef:
    index: int


@dataclass(frozen=True)
class GroundedResponse:
    """Parse tree of a model response: text runs, grounded spans, bare refs.

    Canonical form (what :func:`parse_grounded` produces and
    :func:`serialize_grounded` requires): text nodes are non-empty, contain
    no ``<``, and are never adjacent; phrases contain no ``<``; every span
    references at least one region with no duplicates.
    """

    nodes: tuple

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))


class ParseError(ValueError):
    """Structured grammar violation: byte offset, production, message."""

    def __init__(self, offset: int, production: str, message: str):
        super().__init__(f"offset {offset} [{production}]: {message}")
        self.offset = offset
        self.production = production
        self.message = message


_GROUND_OPEN = "<ground>"
_GROUND_CLOSE = "</ground>"
_OBJECT_OPEN = "<object>"
_OBJECT_CLOSE = "</object>"
_REGION_RE = re.compile(r"<region(0|[1-9][0-9]*)>")
_REGION_LOOSE_RE = re.compile(r"<region([0-9]+)>")


def _parse_region_ref(s: str, pos: int, n_regions: int, production: str) -> tuple[int, int]:
    """Parse one <regionK> at pos; returns (index, new_pos)."""
    m = _REGION_RE.match(s, pos)
    if m is None:
        loose = _REGION_LOOSE_RE.match(s, pos)
        if loose is not None:
            raise ParseError(pos, production, f"non-canonical region index {loose.group(1)!r}")
        close = s.find(">", pos)
        if close == -1:
            raise ParseError(pos, production, "unclosed region tag")
        body = s[pos : close + 1]
        if any(ch.isspace() for ch in body):
            raise ParseError(pos, production, "whitespace inside tag")
        raise ParseError(pos, production, f"malformed region tag {body!r}")
    index = int(m.group(1))
    if index >= n_regions:
        raise ParseError(pos, production, f"region index {index} out of range (N={n_regions})")
    return index, m.end()


def _tag_error(s: str, pos: int, production: str) -> ParseError:
    close = s.find(">", pos)
    body = s[pos : close + 1] if close != -1 else s[pos : pos + 16]
    if close != -1 and any(ch.isspace() for ch in body):
        return ParseError(pos, production, "whitespace inside tag")
    return ParseError(pos, production, f"unrecognized tag {body!r}")


def parse_grounded(text: str, n_regions: int) -> GroundedResponse:
    """Parse a response string against the grounded-output grammar.

    Region indices must be below ``n_regions``.  Raises :class:`ParseError`
    on any violation; never raises anything else.
    """
    nodes: list = []
    pos = 0
    length = len(text)

    def take_text(until: int):
        if until > pos:
            nodes.append(Text(text[pos:until]))

    while pos < length:
        lt = text.find("<", pos)
        if lt == -1:
            take_text(length)
            break
        take_text(lt)
        pos = lt
        if text.startswith(_GROUND_OPEN, pos):
            span_start = pos
            pos += len(_GROUND_OPEN)
            next_lt = text.find("<", pos)
            if next_lt == -1:
                raise ParseError(span_start, "grounded_span", "unclosed <ground> tag")
            phrase = text[pos:next_lt]
            if text.startswith(_GROUND_OPEN, next_lt):
                raise ParseError(next_lt, "grounded_span", "nested <ground> span")
            if not text.startswith(_GROUND_CLOSE, next_lt):
                raise ParseError(next_lt, "grounded_span", "phrase may not contain tags")
            pos = next_lt + len(_GROUND_CLOSE)
            if not text.startswith(_OBJECT_OPEN, pos):
                raise ParseError(pos, "grounded_span", "<ground> span must be followed by an <object> block")
            pos += len(_OBJECT_OPEN)
            regions: list[int] = []
            while not text.startswith(_OBJECT_CLOSE, pos):
                if pos >= length:
                    raise ParseError(span_start, "grounded_span", "unclosed <object> block")
                if not text.startswith("<region", pos):
                    raise ParseError(pos, "region_ref", "expected <regionK> or </object>")
                idx, pos = _parse_region_ref(text, pos, n_regions, "region_ref")
                if idx in regions:
                    raise ParseError(pos, "grounded_span", f"duplicate region index {idx} in <object> block")
                regions.append(idx)
            if not regions:
                raise ParseError(pos, "grounded_span", "empty <object> block")
            pos += len(_OBJECT_CLOSE)
            nodes.append(GroundedSpan(phrase, tuple(regions)))
        elif text.startswith(_GROUND_CLOSE, pos):
            raise ParseError(pos, "grounded_span", "</ground> without matching <ground>")
        elif text.startswith(_OBJECT_OPEN, pos):
            raise ParseError(pos, "grounded_span", "<object> block without preceding <ground> span")
        elif text.startswith(_OBJECT_CLOSE, pos):
            raise ParseError(pos, "grounded_span", "</object> without matching <object>")
        elif text.startswith("<region", pos):
            idx, pos = _parse_region_ref(text, pos, n_regions, "bare_ref")
            nodes.append(BareRegionRef(idx))
        else:
            raise _tag_error(text, pos, "response")
    return GroundedResponse(tuple(nodes))


def serialize_grounded(resp: GroundedResponse) -> str:
    """Render a canonical response tree back to its exact string form."""
    parts = []
    prev_text = False
    for node in resp.nodes:
        if isinstance(node, Text):
            if not node.text:
                raise ValueError("empty text node is not canonical")
            if "<" in node.text:
                raise ValueError("text may not contain '<'")
            if prev_text:
                raise ValueError("adjacent text nodes are not canonical")
            parts.append(node.text)
            prev_text = True
            continue
        prev_text = False
        if isinstance(node, GroundedSpan):
            if not node.regions:
                raise ValueError("grounded span with empty regions list")
            if len(set(node.regions)) != len(node.regions):
                raise ValueError("duplicate region indices in grounded span")
            if "<" in node.phrase:
                raise ValueError("phrase may not contain '<'")
            if any(r < 0 for r in node.regions):
                raise ValueError("region indices must be >= 0")
            refs = "".join(f"<region{r}>" for r in node.regions)
            parts.append(f"<ground>{node.phrase}</ground><object>{refs}</object>")
        elif isinstance(node, BareRegionRef):
            if node.index < 0:
                raise ValueError("region indices must be >= 0")
            parts.append(f"<region{node.index}>")
        else:
            raise ValueError(f"unknown node type {type(node).__name__}")
    return "".join(parts)

