"""Canonical serialization of fixpoint tables for the golden differential
suite.

The engine-core refactor (ISSUE 3) must not move a single bit of any
fixpoint table: the tables computed by the unified ``FixpointEngine`` have
to be byte-identical to the ones the four hand-rolled solvers produced.
This module renders a table — interval ``AbsState`` maps or relational
``PackState`` maps alike — into a canonical text form that is stable across
processes and ``PYTHONHASHSEED`` values (everything is sorted by string
key, octagon matrices are rendered from their raw DBM entries), so a
pre-refactor recording can be compared against post-refactor runs with a
plain string (or digest) comparison.

``tests/analysis/golden/engine_tables.json`` holds the recording, produced
by ``python tests/analysis/record_golden_tables.py`` **before** the
refactor; ``test_golden_differential.py`` replays every combo against it.
"""

from __future__ import annotations

import hashlib

#: the six engine×domain combinations the golden suite locks down
COMBOS = [
    ("interval", "vanilla"),
    ("interval", "base"),
    ("interval", "sparse"),
    ("octagon", "vanilla"),
    ("octagon", "base"),
    ("octagon", "sparse"),
]


def canonical_value(value) -> str:
    """Stable rendering of one table cell (AbsValue or Octagon)."""
    if hasattr(value, "ptsto"):  # AbsValue
        pts = ",".join(sorted(str(p) for p in value.ptsto))
        arrays = ";".join(str(a) for a in value.arrays)
        return f"itv={value.itv}|pts={{{pts}}}|arr=[{arrays}]"
    if hasattr(value, "matrix"):  # Octagon
        if value.empty:
            return f"oct({value.dim})=bottom"
        cells = ",".join(repr(float(x)) for x in value.matrix.flatten())
        return f"oct({value.dim})=[{cells}]"
    return str(value)


def canonical_state(state) -> str:
    """Stable rendering of one state (AbsState or PackState)."""
    entries = sorted(
        (str(key), canonical_value(val)) for key, val in state.items()
    )
    return "{" + "; ".join(f"{k} -> {v}" for k, v in entries) + "}"


def canonical_table(table: dict) -> str:
    """Stable rendering of a whole fixpoint table (node -> state)."""
    lines = [
        f"{nid}: {canonical_state(table[nid])}" for nid in sorted(table)
    ]
    return "\n".join(lines)


def table_digest(table: dict) -> str:
    return hashlib.sha256(canonical_table(table).encode("utf-8")).hexdigest()
