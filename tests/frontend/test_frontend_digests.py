"""Differential test: the frontend reproduces its recorded digests.

``golden/frontend_digests.json`` was recorded with the recursive-descent
expression ladder and the character-at-a-time lexer, before either was
rewritten for speed (see ``frontend_digests.py`` for the inputs and what
is hashed). The token stream — values and positions included — the AST
and every diagnostic must stay byte-identical on every input, in strict
and in recovery mode.
"""

from __future__ import annotations

import json

import pytest

from tests.frontend.frontend_digests import GOLDEN_PATH, digest, inputs

GOLDENS: dict[str, dict[str, str]] = json.loads(GOLDEN_PATH.read_text())
INPUTS = list(inputs())


def test_every_input_has_a_recorded_digest():
    assert sorted(name for name, _, _ in INPUTS) == sorted(GOLDENS)


@pytest.mark.parametrize(
    "name,filename,source", INPUTS, ids=[name for name, _, _ in INPUTS]
)
def test_frontend_matches_recorded_digest(name, filename, source):
    assert digest(filename, source) == GOLDENS[name]
