"""Correctness oracle for the layered benchmark.

Everything here runs outside the timed regions. Three checks:

* **golden digests** — every batch job's fixpoint table and alarm set must
  hash to the digest recorded in ``golden.json`` (the byte-identical
  contract across the six engine×domain combos);
* **concrete soundness** — for a generated program, ``main``'s concrete
  return value (recorded in ``golden.json`` by the concrete interpreter)
  must lie in every combo's exit interval of ``acc``;
* **serve answers** — a served answer must equal what a fresh
  ``analyze()`` of the same program text answers.

The table rendering is this benchmark's own copy, so that a change to the
program under test cannot change what the benchmark compares against.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
CHECKERS = ("overrun", "divzero", "nullderef")


def load_golden(path: Path = GOLDEN_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- canonical tables ---------------------------------------------------------


def _canonical_value(value) -> str:
    if hasattr(value, "ptsto"):  # AbsValue
        pts = ",".join(sorted(str(p) for p in value.ptsto))
        arrays = ";".join(sorted(str(a) for a in value.arrays))
        return f"itv={value.itv}|pts={{{pts}}}|arr=[{arrays}]"
    if hasattr(value, "matrix"):  # Octagon
        if value.empty:
            return f"oct({value.dim})=bottom"
        cells = ",".join(map(repr, value.matrix.ravel().tolist()))
        return f"oct({value.dim})=[{cells}]"
    return str(value)


def table_digest(table: dict) -> str:
    """sha256 of a fixpoint table rendered with every key sorted, so the
    digest is stable across processes and hash seeds."""
    h = hashlib.sha256()
    for nid in sorted(table):
        entries = sorted(
            (str(key), _canonical_value(val)) for key, val in table[nid].items()
        )
        body = "; ".join(f"{k} -> {v}" for k, v in entries)
        h.update(f"{nid}: {{{body}}}\n".encode("utf-8"))
    return h.hexdigest()


def alarm_digest(reports_by_checker: dict[str, list]) -> str:
    """sha256 of the sorted alarm set of the three checkers."""
    from repro.checkers import alarms, div_alarms, null_alarms

    keep = {"overrun": alarms, "divzero": div_alarms, "nullderef": null_alarms}
    lines = [
        f"{name}|{r}"
        for name, reports in reports_by_checker.items()
        for r in keep[name](reports)
    ]
    return sha256_text("\n".join(sorted(lines)))


def run_checkers(run) -> dict[str, list]:
    """All three checkers over an interval ``AnalysisRun``."""
    from repro.checkers import run_checker

    return {name: run_checker(name, run.program, run.result) for name in CHECKERS}


# -- concrete soundness -------------------------------------------------------


def _contains(itv, value: int) -> bool:
    if itv.empty:
        return False
    return (itv.lo is None or itv.lo <= value) and (
        itv.hi is None or value <= itv.hi
    )


def _pack_value_at(result, nid: int, pack):
    """The octagon of ``pack`` at ``nid`` read with the table's own
    semantics: ``None`` for ⊤, ``"bottom"`` when unreachable.

    Pack states are ⊤-default: in a dense table a pack missing from a
    node's state is unconstrained. A sparse table stores a node's state
    only for what the node defines (D̂), so the value at ``nid`` is the
    join of the definitions reaching it over the control graph, and a
    defining node whose state lacks the pack defined it as ⊤."""
    table = result.table
    if result.deps is None:
        state = table.get(nid)
        if state is None:
            return "bottom"
        return state.get(pack) if pack in state else None
    found = None
    seen = {nid}
    frontier = [nid]
    while frontier:
        node = frontier.pop()
        if pack in result.defuse.d(node):
            state = table.get(node)
            if state is None:
                continue  # unreachable definition: contributes ⊥
            if pack not in state:
                return None
            value = state.get(pack)
            found = value if found is None else found.join(value)
            continue
        for pred in result.graph.preds.get(node, ()):
            if pred not in seen:
                seen.add(pred)
                frontier.append(pred)
    return found  # None when no definition reaches: ⊤ is the sound answer


def exit_interval(run, proc: str, var: str):
    """``var``'s interval at ``proc``'s exit. Interval runs answer through
    the public ``interval_at_exit``; octagon runs are read with
    :func:`_pack_value_at`, because the facade's reaching walk treats a
    missing (⊤) pack as "not defined here" and can answer an unsound
    singleton."""
    if run.domain == "interval":
        return run.interval_at_exit(proc, var)
    from repro.domains.absloc import VarLoc
    from repro.domains.interval import Interval

    loc = VarLoc(var, proc)
    nid = run.program.cfgs[proc].exit.nid
    out = Interval.top()
    for pack in run.result.packs.packs_of(loc):
        value = _pack_value_at(run.result, nid, pack)
        if value == "bottom":
            return Interval.bottom()
        if value is not None:
            out = out.meet(value.project(pack.index(loc)))
    return out


# -- batch jobs ---------------------------------------------------------------


def check_job(key: str, run, golden: dict, reports=None) -> list[str]:
    """Failures of one batch job's result against ``golden``. ``reports``
    are the checker reports when the timed operation already ran them."""
    expect = golden["jobs"].get(key)
    if expect is None:
        return [f"{key}: no golden entry"]
    failures = []
    if table_digest(run.result.table) != expect["table"]:
        failures.append(f"{key}: table digest differs from golden")
    if run.domain == "interval":
        if reports is None:
            reports = run_checkers(run)
        if alarm_digest(reports) != expect["alarms"]:
            failures.append(f"{key}: alarm digest differs from golden")
    concrete = golden["concrete"].get(key.rsplit("/", 2)[0])
    if concrete is not None:
        itv = exit_interval(run, "main", "acc")
        if not _contains(itv, int(concrete)):
            failures.append(
                f"{key}: concrete main() = {concrete} outside exit acc {itv}"
            )
    return failures


# -- serve answers ------------------------------------------------------------


def interval_answer(itv) -> list:
    return [itv.lo, itv.hi, itv.is_bottom(), str(itv)]


def reply_interval(reply: dict) -> list:
    body = reply["interval"]
    return [body["lo"], body["hi"], body["bottom"], body["repr"]]


def report_rows(reports) -> list:
    return sorted(
        [
            r.nid,
            r.line,
            r.proc,
            str(r.access),
            getattr(r.verdict, "value", str(r.verdict)),
            str(r.offset),
            str(r.size),
        ]
        for r in reports
    )


def reply_rows(reply: dict) -> list:
    return sorted(
        [
            r["nid"],
            r["line"],
            r["proc"],
            r["access"],
            r["verdict"],
            r["offset"],
            r["size"],
        ]
        for r in reply["reports"]
    )


def expected_answer(fresh: dict, request: dict):
    """What a fresh ``analyze()`` answers for a serve ``request``;
    ``fresh`` maps domain -> ``AnalysisRun`` of the same text."""
    if request.get("kind") == "check":
        run = fresh["interval"]
        proc = request["proc"]
        return report_rows(r for r in run.overrun_reports() if r.proc == proc)
    run = fresh[request.get("domain", "interval")]
    return interval_answer(run.interval_at_exit(request["proc"], request["var"]))


def served_answer(request: dict, reply: dict):
    if request.get("kind") == "check":
        return reply_rows(reply)
    return reply_interval(reply)
