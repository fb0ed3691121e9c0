#!/usr/bin/env python3
"""Frontend digests: token streams, ASTs and diagnostics, hashed per input.

The inputs are every ``default_suite()`` and ``octagon_suite()`` rung, the
files ``examples/c/*.c`` and ``examples/corpus/*.c`` (raw and after
``preprocess``), and the crash-fuzz mutations of ``examples/c`` at seeds
0..24. Each input is lexed and parsed in strict mode (no bag: the first
error is raised) and in recovery mode (a :class:`DiagnosticBag`), and each
of the four results is hashed:

* tokens: ``(kind, text, repr(value), line, column, filename)`` per token
  (``Token.__repr__`` omits ``value``), or the raised error;
* parse: ``repr()`` of the translation unit, or the raised error, plus
  ``repr()`` of every recovered diagnostic.

``tests/frontend/golden/frontend_digests.json`` holds the digests recorded
before the lexer and parser were rewritten for speed;
``test_frontend_digests.py`` asserts that the current frontend reproduces
them. To re-record (only when a frontend behaviour change is intended)::

    PYTHONPATH=src python tests/frontend/frontend_digests.py
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from collections.abc import Callable, Iterator
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
GOLDEN_PATH = HERE / "golden" / "frontend_digests.json"

#: crash-fuzz seeds digested per example file (fixed, unlike the fuzz test)
FUZZ_SEEDS = 25


def _mutated(source: str, seed: int) -> str:
    """The mutation ``test_crash_fuzz`` feeds the frontend at ``seed``."""
    from tests.frontend.test_crash_fuzz import _mutate

    rng = random.Random(seed)
    for _ in range(rng.randrange(1, 4)):
        source = _mutate(source, rng)
    return source


def _preprocessed(path: Path) -> str:
    from repro.frontend import DiagnosticBag, preprocess

    text = preprocess(path.read_text(), path.name, diagnostics=DiagnosticBag(),
                      include_dirs=[str(path.parent)])
    # included files appear in linemarkers by absolute path; keep the
    # digest independent of where the checkout lives
    return text.replace(str(path.parent) + "/", "")


def inputs() -> Iterator[tuple[str, str, str]]:
    """Yield ``(name, filename, source)`` for every digested input."""
    from repro.bench.codegen import default_suite, generate_source, octagon_suite

    for spec in default_suite() + octagon_suite():
        yield f"rung/{spec.name}", f"{spec.name}.c", generate_source(spec)
    for group in ("c", "corpus"):
        for path in sorted((REPO / "examples" / group).glob("*.c")):
            yield f"{group}/{path.name}", path.name, path.read_text()
            yield f"{group}/{path.name}/pp", path.name, _preprocessed(path)
    for path in sorted((REPO / "examples" / "c").glob("*.c")):
        source = path.read_text()
        for seed in range(FUZZ_SEEDS):
            yield f"fuzz/{path.stem}-{seed}", "fuzz.c", _mutated(source, seed)


def _strict(run: Callable[[], object]) -> str:
    from repro.frontend import FrontendError

    try:
        return repr(run())
    except FrontendError as exc:
        return f"raised {type(exc).__name__}: {exc}"


def _token_lines(tokens) -> str:
    return "\n".join(
        repr((t.kind.name, t.text, repr(t.value), t.pos.line, t.pos.column,
              t.pos.filename))
        for t in tokens
    )


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8", "surrogatepass")).hexdigest()


def digest(filename: str, source: str) -> dict[str, str]:
    """The four digests of one input."""
    from repro.frontend import DiagnosticBag, parse, tokenize

    out: dict[str, str] = {}
    out["tokens/strict"] = _sha(
        _strict(lambda: _token_lines(tokenize(source, filename)))
    )
    bag = DiagnosticBag()
    tokens = _token_lines(tokenize(source, filename, bag))
    out["tokens/recovery"] = _sha(tokens + "\n" + repr(bag.diagnostics))
    out["parse/strict"] = _sha(_strict(lambda: parse(source, filename)))
    bag = DiagnosticBag()
    unit = parse(source, filename, bag)
    out["parse/recovery"] = _sha(repr(unit) + "\n" + repr(bag.diagnostics))
    return out


def record() -> dict[str, dict[str, str]]:
    return {name: digest(filename, source) for name, filename, source in inputs()}


if __name__ == "__main__":
    sys.path.insert(0, str(REPO))
    sys.path.insert(0, str(REPO / "src"))
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
