"""Randomized differential testing of dense vs. sparse fixpoints (Lemma 1).

Each seed drives :mod:`repro.bench.codegen` to a fresh call-tree program
(unique call sites, no loops, no recursion → acyclic interprocedural graph
→ finite abstract chains), which is then analyzed in Lemma mode
(non-strict, no widening) by all six engine×domain combinations:

  interval: vanilla dense · access-localized dense · sparse
  octagon:  vanilla dense · access-localized dense · sparse

Lemma 1/2 say the three engines of one domain agree *exactly* on every
defined location, so any disagreement is an engine bug, not noise. On
failure the generated program is written next to the test's tmp dir and
the assertion message carries the seed plus that path, so a failing seed
reproduces with::

    python -c "from repro.bench.codegen import *; \
        print(generate_source(WorkloadSpec('r', ..., seed=<seed>)))"
"""

from __future__ import annotations

import os

import pytest

from repro.analysis.dense import run_dense
from repro.analysis.preanalysis import run_preanalysis
from repro.analysis.relational import run_rel_dense, run_rel_sparse
from repro.analysis.sparse import run_sparse
from repro.bench.codegen import WorkloadSpec, generate_source
from repro.domains.packs import build_packs
from repro.ir.program import build_program
from tests.analysis.datadep_oracle import chain_generator
from tests.conftest import collect_mismatches

#: number of random programs; CI's fuzz-smoke step lowers this via the
#: environment to stay inside its time budget.
N_SEEDS = int(os.environ.get("REPRO_FUZZ_SEEDS", "25"))

SEEDS = [7 * i + 1 for i in range(N_SEEDS)]


def tree_spec(seed: int) -> WorkloadSpec:
    """A call-tree workload whose abstract chains are finite (no loops,
    no recursion, no shared callees), so the no-widening Lemma mode
    terminates and the exact-equality theorem applies."""
    return WorkloadSpec(
        name=f"fuzz{seed}",
        n_functions=5,
        n_globals=4,
        n_arrays=1,
        array_len=8,
        stmts_per_function=6,
        loops_per_function=0,
        calls_per_function=2,
        pointer_ops_per_function=1,
        recursion_cycle=0,
        funcptr_sites=0,
        unique_callees=True,
        seed=seed,
    )


def _dump(tmp_path, seed: int, src: str) -> str:
    path = tmp_path / f"fuzz-seed{seed}.c"
    path.write_text(src)
    return str(path)


def _fail(tmp_path, seed, src, combo, mismatches):
    path = _dump(tmp_path, seed, src)
    pytest.fail(
        f"seed {seed} [{combo}]: dense and sparse disagree on "
        f"{len(mismatches)} defined location(s); program saved to {path}\n"
        f"first mismatches (nid, cmd, loc, dense, sparse): {mismatches[:5]}"
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_interval_engines_agree(seed, tmp_path):
    """Interval vanilla ≡ base ≡ sparse on defined locations (Lemma 1)."""
    src = generate_source(tree_spec(seed))
    program = build_program(src)
    pre = run_preanalysis(program)
    vanilla = run_dense(program, pre, strict=False, widen=False)
    base = run_dense(program, pre, localize=True, strict=False, widen=False)
    sparse = run_sparse(program, pre, strict=False, widen=False)
    for combo, dense in (("itv/vanilla", vanilla), ("itv/base", base)):
        mismatches = collect_mismatches(program, dense, sparse)
        if mismatches:
            _fail(tmp_path, seed, src, combo + " vs itv/sparse", mismatches)


@pytest.mark.parametrize("seed", SEEDS)
def test_octagon_engines_agree(seed, tmp_path):
    """Octagon vanilla ≡ base ≡ sparse on defined packs (Lemma 1 lifted
    to the packed relational domain)."""
    src = generate_source(tree_spec(seed))
    program = build_program(src)
    pre = run_preanalysis(program)
    packs = build_packs(program)
    vanilla = run_rel_dense(program, pre, packs, strict=False, widen=False)
    base = run_rel_dense(
        program, pre, packs, localize=True, strict=False, widen=False
    )
    sparse = run_rel_sparse(program, pre, packs, strict=False, widen=False)
    for combo, dense in (("oct/vanilla", vanilla), ("oct/base", base)):
        mismatches = []
        for nid in sorted(set(dense.table) | set(sparse.table)):
            for pack in sparse.defuse.d(nid):
                ds = dense.table.get(nid)
                ss = sparse.table.get(nid)
                dv = ds.get(pack) if ds is not None else None
                sv = ss.get(pack) if ss is not None else None
                if dv is None or sv is None:
                    # a pack one engine never materialized is ⊤ on both
                    # sides of the localized comparison
                    continue
                if dv != sv:
                    mismatches.append((nid, str(pack), str(dv), str(sv)))
        if mismatches:
            _fail(tmp_path, seed, src, combo + " vs oct/sparse", mismatches)


@pytest.mark.parametrize("method", ["ssa", "reaching"])
@pytest.mark.parametrize("bypass", [True, False])
def test_dependency_generator_variants_agree(method, bypass, tmp_path):
    """SSA chains and the reaching-definitions oracle's, with and without
    intermediary bypass, land on the same fixpoint (one representative
    seed per variant)."""
    seed = SEEDS[0]
    src = generate_source(tree_spec(seed))
    program = build_program(src)
    pre = run_preanalysis(program)
    dense = run_dense(program, pre, strict=False, widen=False)
    with chain_generator(method):
        sparse = run_sparse(
            program, pre, bypass=bypass, strict=False, widen=False
        )
    mismatches = collect_mismatches(program, dense, sparse)
    if mismatches:
        _fail(
            tmp_path, seed, src, f"itv/sparse[{method},bypass={bypass}]",
            mismatches,
        )
