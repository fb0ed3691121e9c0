"""Frontend crash-fuzzing (ISSUE 6).

Seeded random mutations of the example C sources — byte flips, byte
deletions, token-boundary splices, and truncations — are fed to the
frontend in both strict and recovery mode, and so are the sources with
non-ASCII characters (digits other than ``[0-9]``, a letter, a no-break
space, a byte-order mark) spliced in. The contract under attack:

* the frontend may *reject* input, but only ever by raising a
  :class:`FrontendError` subclass — never ``IndexError``,
  ``RecursionError``, ``ValueError`` or a hang;
* in recovery mode (a :class:`DiagnosticBag` attached) lexing and parsing
  must not raise at all — every problem becomes a diagnostic.

``REPRO_FUZZ_SEEDS`` bounds the number of mutations per source (CI uses a
small count; local runs default higher).
"""

from __future__ import annotations

import os
import random
from pathlib import Path

import pytest

from repro.frontend import parse, tokenize
from repro.frontend.errors import DiagnosticBag, FrontendError

REPO = Path(__file__).resolve().parents[2]
EXAMPLES = sorted((REPO / "examples" / "c").glob("*.c"))
N_SEEDS = int(os.environ.get("REPRO_FUZZ_SEEDS", "25"))

#: characters that hit lexer/parser edge cases harder than pure noise
_SPLICE = ['"', "'", "{", "}", "(", ")", ";", "\\", "#", "@", "0x", "/*", "*/"]


def _mutate(source: str, rng: random.Random) -> str:
    kind = rng.randrange(4)
    if not source:
        return "@"
    i = rng.randrange(len(source))
    if kind == 0:  # flip one byte to a printable character
        ch = chr(rng.randrange(32, 127))
        return source[:i] + ch + source[i + 1 :]
    if kind == 1:  # delete a span
        j = min(len(source), i + rng.randrange(1, 8))
        return source[:i] + source[j:]
    if kind == 2:  # splice in a token-boundary fragment
        return source[:i] + rng.choice(_SPLICE) + source[i:]
    return source[:i]  # truncate


def _cases():
    for path in EXAMPLES:
        source = path.read_text()
        for seed in range(N_SEEDS):
            yield pytest.param(source, seed, id=f"{path.stem}-{seed}")


def _assert_frontend_survives(source: str) -> None:
    # strict mode: FrontendError is the only acceptable exception
    try:
        parse(source, "fuzz.c")
    except FrontendError:
        pass

    # recovery mode: must not raise at all
    bag = DiagnosticBag()
    tokenize(source, "fuzz.c", DiagnosticBag())
    unit = parse(source, "fuzz.c", bag)
    assert unit is not None


@pytest.mark.parametrize("source,seed", _cases())
def test_mutated_input_never_crashes_the_frontend(source, seed):
    rng = random.Random(seed)
    mutated = source
    for _ in range(rng.randrange(1, 4)):
        mutated = _mutate(mutated, rng)
    _assert_frontend_survives(mutated)


#: digits other than [0-9] (superscript, Arabic-Indic, fullwidth), a
#: letter, a no-break space and a byte-order mark
_NON_ASCII = ["²", "٣", "１", "é", "\u00a0", "\ufeff"]


@pytest.mark.parametrize("source,seed", _cases())
def test_non_ascii_input_never_crashes_the_frontend(source, seed):
    rng = random.Random(seed)
    for _ in range(rng.randrange(1, 4)):
        i = rng.randrange(len(source) + 1)
        source = source[:i] + rng.choice(_NON_ASCII) + source[i:]
    _assert_frontend_survives(source)


def test_pathological_nesting_rejected_cleanly():
    for tower in ("(", "{", "["):
        source = "int f(void) { return " + tower * 2000 + ";"
        try:
            parse(source, "deep.c")
        except FrontendError:
            pass
        bag = DiagnosticBag()
        parse(source, "deep.c", bag)
        assert bag.errors()
