"""Durable checkpoint/resume for in-flight fixpoint computations.

A checkpoint is a *complete, self-validating* snapshot of a
:class:`~repro.analysis.engine.FixpointEngine` mid-ascent: the state table,
the pending worklist (in pop order), the iteration counters, the sparse
space's reachability bits, and the set of already-degraded procedures. The
sparse push caches are not stored: resume rebuilds them from the restored
table, since source states only grow during ascent. Restoring it and
running the engine to completion converges to the same fixpoint as the
uninterrupted run — byte-identical tables, not just equivalent ones —
because every piece of engine state that influences processing order or
join results is captured or rebuilt exactly (see DESIGN.md §11 for the
equivalence argument).

File format (version 2)::

    <header JSON line>\n<payload bytes>

The header carries a magic string, the format version, the payload length,
and a SHA-256 digest of the payload. ``load_checkpoint`` verifies all four
plus an optional *configuration fingerprint* stored inside the payload, and
raises a one-line :class:`CheckpointError` on any mismatch — a truncated,
corrupted, or mismatched checkpoint is never partially applied. Writes go
through :mod:`repro.runtime.atomicio`, so a crash mid-write leaves the
previous checkpoint intact.

Wire codecs cover every value that can appear in an engine table: exact
integer :class:`Interval` bounds, the five :class:`AbsLoc` classes (tagged
lists, recursive for ``FieldLoc``), :class:`AbsValue` points-to/array
payloads, :class:`AbsState`, variable :class:`Pack`\\ s, and float64
:class:`Octagon` DBMs (JSON float repr round-trips IEEE doubles exactly;
``±inf`` is spelled ``null``). Decoding re-interns values, and decodes
locations and packs through their constructors, which return the canonical
hash-consed objects, so identity fast paths and identity-keyed tables keep
working after a resume.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from typing import Any

from repro.domains.absloc import AbsLoc, AllocLoc, FieldLoc, FuncLoc, RetLoc, VarLoc
from repro.domains.interval import Interval
from repro.domains.state import AbsState
from repro.domains.value import AbsValue, ArrayBlock, intern_value
from repro.runtime.atomicio import atomic_write_bytes
from repro.runtime.errors import CheckpointError, CheckpointVersionError
from repro.telemetry.core import Telemetry

#: bump whenever the payload layout or any wire codec changes shape
CHECKPOINT_VERSION = 2
_MAGIC = "repro-checkpoint"


# --------------------------------------------------------------------------
# Wire codecs
# --------------------------------------------------------------------------


def interval_to_wire(itv: Interval) -> Any:
    if itv.empty:
        return "bot"
    return [itv.lo, itv.hi]


def interval_from_wire(wire: Any) -> Interval:
    if wire == "bot":
        return Interval.bottom()
    lo, hi = wire
    return Interval(lo, hi)


def loc_to_wire(loc: AbsLoc) -> list:
    if isinstance(loc, VarLoc):
        return ["V", loc.name, loc.proc]
    if isinstance(loc, AllocLoc):
        return ["A", loc.site]
    if isinstance(loc, FieldLoc):
        return ["F", loc_to_wire(loc.base), loc.fieldname]
    if isinstance(loc, RetLoc):
        return ["R", loc.proc]
    if isinstance(loc, FuncLoc):
        return ["X", loc.name]
    raise CheckpointError(f"cannot serialize abstract location {loc!r}")


def loc_from_wire(wire: list) -> AbsLoc:
    tag = wire[0]
    if tag == "V":
        return VarLoc(wire[1], wire[2])
    if tag == "A":
        return AllocLoc(wire[1])
    if tag == "F":
        return FieldLoc(loc_from_wire(wire[1]), wire[2])
    if tag == "R":
        return RetLoc(wire[1])
    if tag == "X":
        return FuncLoc(wire[1])
    raise CheckpointError(f"unknown abstract-location tag {tag!r} in checkpoint")


def value_to_wire(value: AbsValue) -> dict:
    return {
        "i": interval_to_wire(value.itv),
        "p": [loc_to_wire(l) for l in sorted(value.ptsto, key=lambda l: l.sort_key())],
        "a": [
            [
                loc_to_wire(blk.base),
                interval_to_wire(blk.offset),
                interval_to_wire(blk.size),
            ]
            for blk in value.arrays
        ],
    }


def value_from_wire(wire: dict) -> AbsValue:
    return intern_value(
        AbsValue(
            itv=interval_from_wire(wire["i"]),
            ptsto=frozenset(loc_from_wire(w) for w in wire["p"]),
            arrays=tuple(
                ArrayBlock(
                    base=loc_from_wire(b),
                    offset=interval_from_wire(off),
                    size=interval_from_wire(size),
                )
                for b, off, size in wire["a"]
            ),
        )
    )


def pack_to_wire(pack) -> list:
    return [loc_to_wire(member) for member in pack.members]


def pack_from_wire(wire: list):
    from repro.domains.packs import Pack

    # members were recorded in Pack.of's canonical sort order
    return Pack(tuple(loc_from_wire(w) for w in wire))


def octagon_to_wire(oct_) -> dict:
    """The row-major DBM of ``oct_`` (``None`` for +∞), rebuilt from its
    constraint map: absent off-diagonal entries are +∞, absent diagonal
    entries 0."""
    if oct_.empty:
        return {"d": oct_.dim, "e": True}
    n = 2 * oct_.dim
    flat: list = [None] * (n * n)
    flat[:: n + 1] = [0.0] * n
    for (i, j), bound in oct_.constraints.items():
        flat[i * n + j] = bound
    return {"d": oct_.dim, "c": bool(oct_.closed_flag), "m": flat}


def octagon_from_wire(wire: dict):
    from repro.domains.octagon import Octagon

    dim = wire["d"]
    if wire.get("e"):
        return Octagon.bottom(dim)
    n = 2 * dim
    cells = wire["m"]
    if len(cells) != n * n:
        raise ValueError(f"octagon of dim {dim} needs {n * n} cells, got {len(cells)}")
    constraints = {}
    for index, x in enumerate(cells):
        if x is None:
            continue
        i, j = divmod(index, n)
        if i != j or x != 0:
            constraints[i, j] = float(x)
    return Octagon(dim, constraints, closed_flag=wire.get("c", False))


def state_to_wire(state) -> list:
    """Tagged encoding for either table-state flavour: ``["abs", ...]`` for
    :class:`AbsState`, ``["pack", ...]`` for :class:`PackState`. Entries are
    sorted by location/pack sort key, so the encoding is canonical: equal
    states give the same wire bytes whatever order their entries were
    written in."""
    if isinstance(state, AbsState):
        return [
            "abs",
            [
                [loc_to_wire(loc), value_to_wire(val)]
                for loc, val in sorted(
                    state.items(), key=lambda kv: kv[0].sort_key()
                )
            ],
        ]
    from repro.analysis.relational import PackState

    if isinstance(state, PackState):
        return [
            "pack",
            [
                [pack_to_wire(pack), octagon_to_wire(oct_)]
                for pack, oct_ in sorted(
                    state.items(), key=lambda kv: kv[0].sort_key()
                )
            ],
        ]
    raise CheckpointError(f"cannot serialize engine state {type(state).__name__}")


def state_from_wire(wire: list):
    kind, entries = wire
    if kind == "abs":
        state = AbsState()
        for loc_w, val_w in entries:
            state.set(loc_from_wire(loc_w), value_from_wire(val_w))
        return state
    if kind == "pack":
        from repro.analysis.relational import PackState

        state = PackState()
        for pack_w, oct_w in entries:
            state.set(pack_from_wire(pack_w), octagon_from_wire(oct_w))
        return state
    raise CheckpointError(f"unknown state kind {kind!r} in checkpoint")


# --------------------------------------------------------------------------
# File format
# --------------------------------------------------------------------------


def encode_checkpoint(payload: dict) -> bytes:
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    header = json.dumps(
        {
            "magic": _MAGIC,
            "version": CHECKPOINT_VERSION,
            "length": len(body),
            "sha256": hashlib.sha256(body).hexdigest(),
        },
        sort_keys=True,
    ).encode("utf-8")
    return header + b"\n" + body


def save_checkpoint(path: str | os.PathLike, payload: dict) -> int:
    """Atomically write ``payload`` as a versioned, digest-protected
    checkpoint file; returns the number of bytes written."""
    return atomic_write_bytes(path, encode_checkpoint(payload))


def load_checkpoint(
    path: str | os.PathLike, expect_fingerprint: str | None = None
) -> dict:
    """Read and fully validate a checkpoint; raises a one-line
    :class:`CheckpointError` on any integrity failure (fail closed)."""
    path = os.fspath(path)
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    newline = data.find(b"\n")
    if newline < 0:
        raise CheckpointError(f"checkpoint {path} is truncated (no header line)")
    try:
        header = json.loads(data[:newline])
    except ValueError as exc:
        raise CheckpointError(f"checkpoint {path} has a malformed header") from exc
    if not isinstance(header, dict) or header.get("magic") != _MAGIC:
        raise CheckpointError(f"{path} is not a repro checkpoint (bad magic)")
    version = header.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(
            f"checkpoint {path} has format version {version!r}, "
            f"this build reads version {CHECKPOINT_VERSION}"
        )
    body = data[newline + 1 :]
    if len(body) != header.get("length"):
        raise CheckpointError(
            f"checkpoint {path} is truncated "
            f"({len(body)} of {header.get('length')} payload bytes)"
        )
    digest = hashlib.sha256(body).hexdigest()
    if digest != header.get("sha256"):
        raise CheckpointError(f"checkpoint {path} failed its content digest check")
    try:
        payload = json.loads(body)
    except ValueError as exc:
        raise CheckpointError(f"checkpoint {path} payload is not valid JSON") from exc
    if expect_fingerprint is not None:
        found = payload.get("fingerprint")
        if found != expect_fingerprint:
            raise CheckpointError(
                f"checkpoint {path} was written by a different analysis "
                f"configuration (fingerprint mismatch)"
            )
    return payload


def _jsonable(value: Any) -> Any:
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in sorted(value.items())}
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def config_fingerprint(
    domain: str, mode: str, options: dict | None = None, program=None
) -> str:
    """A digest of everything that determines the fixpoint a run computes:
    domain, engine mode, the engine options that shape widening/scheduling,
    and the program's coarse shape. A resume whose fingerprint differs would
    silently compute garbage, so ``load_checkpoint`` rejects it."""
    spec: dict[str, Any] = {
        "format": CHECKPOINT_VERSION,
        "domain": domain,
        "mode": mode,
        "options": _jsonable(options or {}),
    }
    if program is not None:
        nodes = sorted(
            (proc, len(cfg.nodes)) for proc, cfg in program.cfgs.items()
        )
        spec["program"] = nodes
    blob = json.dumps(spec, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


# --------------------------------------------------------------------------
# Checkpointer
# --------------------------------------------------------------------------


class Checkpointer:
    """Writes periodic + final-abort checkpoints for one engine run.

    The engine calls :meth:`maybe_write` after every completed worklist
    iteration (cheap modulo test) and :meth:`write` from its abort path.
    Each write also touches a ``<path>.hb`` heartbeat file when enabled, so
    an external supervisor (the batch driver) can distinguish a slow worker
    from a hung one by mtime age.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        every: int = 200,
        fingerprint: str = "",
        telemetry: Telemetry | None = None,
        heartbeat: bool = False,
    ) -> None:
        self.path = os.fspath(path)
        self.every = max(1, int(every))
        self.fingerprint = fingerprint
        self.writes = 0
        self.bytes_written = 0
        self._telemetry = Telemetry.coerce(telemetry)
        self._heartbeat = heartbeat

    @property
    def heartbeat_path(self) -> str:
        return self.path + ".hb"

    def touch_heartbeat(self) -> None:
        # plain write: only the mtime matters, a torn heartbeat is harmless
        with open(self.heartbeat_path, "w") as f:
            f.write(str(time.time()))

    def maybe_write(self, engine) -> None:
        if engine.stats.iterations % self.every == 0:
            self.write(engine, reason="periodic")

    def write(self, engine, reason: str = "periodic") -> int:
        payload = engine.snapshot()
        payload["fingerprint"] = self.fingerprint
        payload["reason"] = reason
        n = save_checkpoint(self.path, payload)
        self.writes += 1
        self.bytes_written += n
        self._telemetry.count("checkpoint.writes")
        self._telemetry.count("checkpoint.bytes", n)
        if self._heartbeat:
            self.touch_heartbeat()
        return n
