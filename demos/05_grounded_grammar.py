"""The grounded-output grammar: parsing, serializing, and error reporting.

Responses bind noun phrases to region indices with flat
<ground>...</ground><object>...</object> spans; bare <regionK> mentions
are legal too.  Malformed input never crashes the parser; it raises a
structured error carrying the byte offset and violated production.
"""

from regionkit import GroundedSpan, ParseError, parse_grounded, serialize_grounded


def main():
    text = "The <ground>people</ground><object><region2><region10></object> are dancing."
    resp = parse_grounded(text, n_regions=11)
    for node in resp.nodes:
        print("node:", node)
    spans = [(n.phrase, n.regions) for n in resp.nodes if isinstance(n, GroundedSpan)]
    print("grounded spans:", spans)
    print("round-trip identical:", serialize_grounded(resp) == text)

    print()
    bad_inputs = [
        "<ground>roof",                                  # unclosed span
        "<ground>cat</ground>",                          # missing object block
        "<ground>cat</ground><object></object>",         # empty object block
        "<region 3>",                                    # whitespace inside a tag
        "<region99>",                                    # index out of range
        "look < here",                                   # stray '<'
    ]
    for bad in bad_inputs:
        try:
            parse_grounded(bad, n_regions=11)
        except ParseError as err:
            print(f"{bad!r:55} -> offset {err.offset:2d} [{err.production}] {err.message}")


if __name__ == "__main__":
    main()
