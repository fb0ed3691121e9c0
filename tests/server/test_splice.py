"""``edit(function=..., body=...)`` must rewrite the named function's own
body: the name matches as a whole identifier followed by ``(``, and only
at brace depth 0, so a longer name sharing its prefix or a call inside
another body is never taken for the definition."""

from __future__ import annotations

from repro.api import analyze
from repro.server.session import ServeSession

PREFIX_FIRST = """int g;
int stepper(int x) {
    g = x;
    return x + 100;
}
int step(int x) {
    return x + 1;
}
int main(void) {
    int a;
    a = step(1);
    a = stepper(a);
    return a;
}
"""

CALL_BEFORE_DEFINITION = """int step(int x);
int main(void) {
    int a; int r;
    a = 3;
    r = 0;
    if (step(a)) {
        r = 7;
    }
    return r;
}
int step(int x) {
    return x + 1;
}
"""

NEW_BODY = "    return x + 5;"


def _body_of(source: str, header: str) -> list[str]:
    """The lines between ``header`` and its closing brace (the first
    later line that is ``}`` at the header's indentation)."""
    lines = source.splitlines()
    start = lines.index(header)
    close = header[: len(header) - len(header.lstrip())] + "}"
    end = next(i for i in range(start + 1, len(lines)) if lines[i] == close)
    return lines[start + 1 : end]


def test_prefix_sharing_function_defined_first_is_left_alone():
    session = ServeSession(PREFIX_FIRST)
    session.edit(function="step", body=NEW_BODY)
    assert _body_of(session.source, "int step(int x) {")[0] == NEW_BODY
    assert _body_of(session.source, "int stepper(int x) {") == [
        "    g = x;",
        "    return x + 100;",
    ]
    expect = analyze(session.source).interval_at_exit("main", "a")
    assert session.query_interval("main", "a").interval == expect


def test_call_inside_an_earlier_body_is_not_the_definition():
    session = ServeSession(CALL_BEFORE_DEFINITION)
    session.edit(function="step", body=NEW_BODY)
    assert _body_of(session.source, "int step(int x) {") == [NEW_BODY]
    assert _body_of(session.source, "    if (step(a)) {") == ["        r = 7;"]
    expect = analyze(session.source).interval_at_exit("main", "r")
    assert session.query_interval("main", "r").interval == expect
