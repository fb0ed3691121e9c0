"""Shared helpers for the test suite."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.dense import run_dense
from repro.analysis.engine import FixpointResult
from repro.analysis.preanalysis import PreAnalysis, run_preanalysis
from repro.analysis.sparse import run_sparse
from repro.bench.codegen import WorkloadSpec
from repro.domains.value import BOT as VALUE_BOT
from repro.frontend.errors import DiagnosticBag
from repro.frontend.preprocessor import preprocess
from repro.ir.program import Program, build_program
from tests.analysis.datadep_oracle import chain_generator

REPO = Path(__file__).resolve().parents[1]

#: every vendored C file: the corpus, then the hand-written examples
EXAMPLE_FILES = sorted((REPO / "examples" / "corpus").glob("*.c")) + sorted(
    (REPO / "examples" / "c").glob("*.c")
)


def build(src: str) -> tuple[Program, PreAnalysis]:
    program = build_program(src)
    return program, run_preanalysis(program)


def lemma_mode_mismatches(
    src: str, method: str = "ssa", bypass: bool = True
) -> list[tuple]:
    """Run dense and sparse in Lemma mode (non-strict, no widening) and
    return every disagreement on defined locations — Lemma 2 says this list
    is empty. Only call on programs whose abstract chains are finite."""
    program, pre = build(src)
    dense = run_dense(program, pre, strict=False, widen=False)
    with chain_generator(method):
        sparse = run_sparse(
            program, pre, bypass=bypass, strict=False, widen=False
        )
    return collect_mismatches(program, dense, sparse)


def collect_mismatches(
    program: Program, dense: FixpointResult, sparse: FixpointResult
) -> list[tuple]:
    out = []
    for nid in sorted(set(dense.table) | set(sparse.table)):
        for loc in sparse.defuse.d(nid):
            ds = dense.table.get(nid)
            ss = sparse.table.get(nid)
            dv = ds.get(loc) if ds is not None else VALUE_BOT
            sv = ss.get(loc) if ss is not None else VALUE_BOT
            if dv != sv:
                out.append((nid, str(program.node(nid).cmd), str(loc), dv, sv))
    return out


def upto(suite: list, last: str) -> list:
    """The workload specs of ``suite`` up to and including ``last``."""
    names = [spec.name for spec in suite]
    return suite[: names.index(last) + 1]


def random_spec(seed: int) -> WorkloadSpec:
    """A random program with loops, a recursion cycle and a
    function-pointer dispatch site: the shapes that keep the pre-analysis
    moving for several rounds, make recursive call-graph SCCs and, without
    widening, pass-through dependency cycles."""
    return WorkloadSpec(
        name=f"pre{seed}",
        n_functions=6,
        n_globals=4,
        n_arrays=1,
        array_len=8,
        stmts_per_function=6,
        loops_per_function=1,
        calls_per_function=2,
        pointer_ops_per_function=1,
        recursion_cycle=2,
        funcptr_sites=1,
        seed=seed,
    )


def program_of_file(path: Path) -> Program:
    """Corpus files go through the preprocessor and frontend recovery, as
    ``repro batch --cpp`` runs them; ``examples/c`` files parse as is."""
    if path.parent.name != "corpus":
        return build_program(path.read_text(), str(path))
    bag = DiagnosticBag()
    source = preprocess(path.read_text(), str(path), diagnostics=bag)
    return build_program(source, str(path), diagnostics=bag)


def exit_nid(program: Program, proc: str = "main") -> int:
    node = program.cfgs[proc].exit
    assert node is not None
    return node.nid


@pytest.fixture
def simple_loop_src() -> str:
    return """
    int main(void) {
      int i = 0; int s = 0;
      while (i < 10) { s = s + i; i = i + 1; }
      return s;
    }
    """
