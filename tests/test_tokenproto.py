"""Token protocol: the grounded-output grammar."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grammar_tools import mutate_invalid, random_response, random_valid_string
from regionkit.tokenproto import (
    BareRegionRef,
    GroundedResponse,
    GroundedSpan,
    ParseError,
    Text,
    parse_grounded,
    serialize_grounded,
)


# ------------------------------------------------------------------ parse

PAPER_EXAMPLE = "The <ground>people</ground><object><region2><region10></object> are dancing."


def test_parse_reference_example():
    resp = parse_grounded(PAPER_EXAMPLE, 11)
    assert resp.nodes == (
        Text("The "),
        GroundedSpan("people", (2, 10)),
        Text(" are dancing."),
    )


def test_parse_plain_text():
    assert parse_grounded("hello", 0).nodes == (Text("hello"),)


def test_parse_bare_reference():
    resp = parse_grounded("look at <region3> now", 5)
    assert resp.nodes == (Text("look at "), BareRegionRef(3), Text(" now"))


def test_parse_text_with_gt_and_lone_lt_like_content():
    # '>' is plain text; a '<' that cannot start a tag is an error
    assert parse_grounded("a > b", 0).nodes == (Text("a > b"),)
    with pytest.raises(ParseError):
        parse_grounded("a < b", 0)


@pytest.mark.parametrize(
    "bad,production",
    [
        ("<ground>x</ground>", "grounded_span"),            # no object block
        ("<ground>x", "grounded_span"),                     # unclosed
        ("<ground>a<ground>b</ground>", "grounded_span"),   # nested
        ("<object><region0></object>", "grounded_span"),    # object without ground
        ("</ground>", "grounded_span"),
        ("</object>", "grounded_span"),
        ("<ground>x</ground><object></object>", "grounded_span"),  # empty object
        ("<ground>x</ground><object><region0><region0></object>", "grounded_span"),  # duplicate
        ("<region 2>", "bare_ref"),                         # whitespace in tag
        ("<region02>", "bare_ref"),                         # leading zero
        ("<regionx>", "bare_ref"),
        ("<zzz>", "response"),
        ("<ground>x</ground> <object><region0></object>", "grounded_span"),  # gap before object
    ],
)
def test_parse_structured_errors(bad, production):
    with pytest.raises(ParseError) as exc_info:
        parse_grounded(bad, 5)
    err = exc_info.value
    assert err.production == production
    assert isinstance(err.offset, int) and 0 <= err.offset <= len(bad)


def test_parse_range_check():
    with pytest.raises(ParseError) as exc_info:
        parse_grounded("<region7>", 5)
    assert "out of range" in exc_info.value.message
    # boundary: index N-1 is fine
    assert parse_grounded("<region4>", 5).nodes == (BareRegionRef(4),)


def test_parse_empty_string_and_empty_phrase():
    assert parse_grounded("", 0).nodes == ()
    resp = parse_grounded("<ground></ground><object><region0></object>", 1)
    assert resp.nodes == (GroundedSpan("", (0,)),)


# -------------------------------------------------------------- serialize

def test_serialize_simple_cases():
    assert serialize_grounded(GroundedResponse((Text("hi"),))) == "hi"
    span = GroundedSpan("people", (2, 10))
    assert (
        serialize_grounded(GroundedResponse((span,)))
        == "<ground>people</ground><object><region2><region10></object>"
    )


def test_serialize_rejects_invalid_trees():
    with pytest.raises(ValueError):
        serialize_grounded(GroundedResponse((GroundedSpan("x", ()),)))
    with pytest.raises(ValueError):
        serialize_grounded(GroundedResponse((Text(""),)))
    with pytest.raises(ValueError):
        serialize_grounded(GroundedResponse((Text("a"), Text("b"))))
    with pytest.raises(ValueError):
        serialize_grounded(GroundedResponse((Text("a<ground>"),)))
    with pytest.raises(ValueError):
        serialize_grounded(GroundedResponse((GroundedSpan("x", (1, 1)),)))


# -------------------------------------------------------------- round trip

def test_round_trip_seeded_generator():
    rng = np.random.default_rng(0)
    for _ in range(500):
        resp = random_response(rng)
        s = serialize_grounded(resp)
        back = parse_grounded(s, 16)
        assert back == resp
        assert serialize_grounded(back) == s


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_round_trip_property(seed):
    rng = np.random.default_rng(seed)
    s = random_valid_string(rng)
    assert serialize_grounded(parse_grounded(s, 16)) == s


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_mutants_always_error_with_offsets(seed):
    rng = np.random.default_rng(seed)
    s = random_valid_string(rng)
    mutant = mutate_invalid(rng, s, 16)
    with pytest.raises(ParseError) as exc_info:
        parse_grounded(mutant, 16)
    assert isinstance(exc_info.value.offset, int)


@settings(max_examples=100, deadline=None)
@given(junk=st.text(max_size=60))
def test_parser_never_crashes_on_arbitrary_text(junk):
    try:
        resp = parse_grounded(junk, 8)
        # accepted input must round-trip
        assert serialize_grounded(resp) == junk
    except ParseError:
        pass

