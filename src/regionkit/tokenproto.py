"""Token-based region referencing protocol.

Input side: the model input is an interleaved sequence of image tokens, a
newline, one ``<regionK>`` index token immediately followed by its region
token for K = 0..N-1, another newline, then text tokens.

Output side: responses ground noun phrases in regions with a flat tag
grammar.  The grammar, in EBNF (also documented in the README):

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

from .regionenc import RegionToken

__all__ = [
    "ImageTokenBlock",
    "RegionIndexToken",
    "RegionTokenSlot",
    "TextToken",
    "RegionTokenSequence",
    "build_input_sequence",
    "Text",
    "GroundedSpan",
    "BareRegionRef",
    "GroundedResponse",
    "ParseError",
    "parse_grounded",
    "serialize_grounded",
    "bindings",
]


# ------------------------------------------------------- input sequence

@dataclass(frozen=True)
class ImageTokenBlock:
    count: int


@dataclass(frozen=True)
class RegionIndexToken:
    index: int


@dataclass(frozen=True)
class RegionTokenSlot:
    index: int
    token: RegionToken | None = None


@dataclass(frozen=True)
class TextToken:
    text: str


_NEWLINE = TextToken("\n")


@dataclass(frozen=True)
class RegionTokenSequence:
    """Validated interleaved input sequence.

    Structure: image block, newline, N (index token, region slot) pairs with
    indices ascending 0..N-1, newline, text tokens.
    """

    elements: tuple
    n_regions: int

    def __post_init__(self):
        e = self.elements
        n = self.n_regions
        if len(e) < 3 or not isinstance(e[0], ImageTokenBlock):
            raise ValueError("sequence must start with an image token block")
        if e[1] != _NEWLINE:
            raise ValueError("image block must be followed by a newline")
        for k in range(n):
            idx_el = e[2 + 2 * k]
            slot_el = e[3 + 2 * k]
            if not isinstance(idx_el, RegionIndexToken) or idx_el.index != k:
                raise ValueError(f"expected index token {k} at position {2 + 2 * k}")
            if not isinstance(slot_el, RegionTokenSlot) or slot_el.index != k:
                raise ValueError(f"region slot {k} must immediately follow its index token")
        if e[2 + 2 * n] != _NEWLINE:
            raise ValueError("region pairs must be followed by a newline")
        for el in e[3 + 2 * n :]:
            if not isinstance(el, TextToken):
                raise ValueError("only text tokens may follow the region section")

    def render(self) -> str:
        """Wire-format string; region slots render as the ``<region_token>`` placeholder."""
        parts = []
        for el in self.elements:
            if isinstance(el, ImageTokenBlock):
                parts.append("<image>" * el.count)
            elif isinstance(el, RegionIndexToken):
                parts.append(f"<region{el.index}>")
            elif isinstance(el, RegionTokenSlot):
                parts.append("<region_token>")
            else:
                parts.append(el.text)
        return "".join(parts)


def build_input_sequence(
    n_image_tokens: int,
    region_tokens: list[RegionToken],
    text: list[str],
) -> RegionTokenSequence:
    """Assemble the canonical input sequence from region tokens and text.

    Region tokens must carry indices 0..N-1, in order.
    """
    n = len(region_tokens)
    indices = [t.index for t in region_tokens]
    if sorted(indices) != list(range(n)):
        raise ValueError("region tokens must carry each index 0..N-1 exactly once")
    if indices != list(range(n)):
        raise ValueError("region tokens out of order")
    elements: list = [ImageTokenBlock(n_image_tokens), _NEWLINE]
    for tok in region_tokens:
        elements.append(RegionIndexToken(tok.index))
        elements.append(RegionTokenSlot(tok.index, tok))
    elements.append(_NEWLINE)
    elements.extend(TextToken(t) for t in text)
    return RegionTokenSequence(tuple(elements), n)


# ---------------------------------------------------- grounded responses

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


def bindings(resp: GroundedResponse) -> list[tuple[str, list[int]]]:
    """All (phrase, region indices) pairs, in document order."""
    return [(n.phrase, list(n.regions)) for n in resp.nodes if isinstance(n, GroundedSpan)]
