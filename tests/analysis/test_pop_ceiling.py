"""Worklist pops stay within 10% of the seed engine's on two Table-2 rungs.

The seed pop counts were recorded with the four hand-rolled solvers that
preceded the one :class:`~repro.analysis.engine.FixpointEngine`. Pops are
deterministic for a given program and schedule, so the gate is exact: a
change that makes the WTO schedule re-visit more nodes fails here. The
workloads are gzip-mini and bc-mini reshaped into call trees (no recursion
cycle, one call site per callee), where the schedule alone decides the
pop count.
"""

import dataclasses

import pytest

from repro.api import analyze
from repro.bench.codegen import default_suite, generate_source

#: allowed pop-count growth over the seed
POP_TOLERANCE = 0.10

#: ``(workload, domain, mode) → pops`` of the seed engine
SEED_POPS = {
    ("gzip-mini", "interval", "vanilla"): 218,
    ("gzip-mini", "interval", "base"): 218,
    ("gzip-mini", "interval", "sparse"): 207,
    ("gzip-mini", "octagon", "vanilla"): 223,
    ("gzip-mini", "octagon", "base"): 224,
    ("gzip-mini", "octagon", "sparse"): 214,
    ("bc-mini", "interval", "vanilla"): 417,
    ("bc-mini", "interval", "base"): 417,
    ("bc-mini", "interval", "sparse"): 373,
    ("bc-mini", "octagon", "vanilla"): 417,
    ("bc-mini", "octagon", "base"): 418,
    ("bc-mini", "octagon", "sparse"): 385,
}

_SOURCES: dict[str, str] = {}


def _source(name: str) -> str:
    if name not in _SOURCES:
        spec = next(s for s in default_suite() if s.name == name)
        spec = dataclasses.replace(spec, recursion_cycle=0, unique_callees=True)
        _SOURCES[name] = generate_source(spec)
    return _SOURCES[name]


@pytest.mark.parametrize(
    "workload,domain,mode", sorted(SEED_POPS), ids=lambda v: str(v)
)
def test_pops_within_seed_ceiling(workload, domain, mode):
    run = analyze(_source(workload), domain=domain, mode=mode)
    seed = SEED_POPS[(workload, domain, mode)]
    pops = run.scheduler_stats.pops
    assert pops <= seed * (1 + POP_TOLERANCE), (
        f"{workload}/{domain}/{mode}: {pops} pops vs seed {seed}"
    )
