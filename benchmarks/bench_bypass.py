"""Section 5 ablation — the bypass optimization.

"Even when x is not used inside g, [without the optimization] the value of
x is propagated to h only after it is first propagated to g. … This
optimization makes the analysis more sparse, leading to a significant
speed up."

We measure on call-chain-heavy workloads: dependency counts and sparse
fixpoint times with and without the bypass rewriting. That the one-pass
closure equals the paper's literal pairwise rewriting is a tier-1 test
(``tests/analysis/test_datadep.py::TestOnePassClosure``).

    pytest benchmarks/bench_bypass.py --benchmark-only -s
"""

import pytest

from repro.analysis.sparse import run_sparse


def _pipeline(prep, bypass):
    return run_sparse(prep.program, prep.pre, bypass=bypass)


@pytest.mark.parametrize("bypass", [True, False], ids=["bypass", "no-bypass"])
def test_sparse_fixpoint(benchmark, prepared_interval, bypass):
    prep = prepared_interval["medium"]
    result = benchmark.pedantic(
        lambda: _pipeline(prep, bypass), rounds=1, iterations=1
    )
    print(
        f"\nbypass={bypass}: deps={result.stats.dep_count} "
        f"iterations={result.stats.iterations} "
        f"fix={result.stats.time_fix:.2f}s"
    )


def test_bypass_improves_fix_time(prepared_interval):
    prep = prepared_interval["large"]
    with_bp = _pipeline(prep, True)
    without = _pipeline(prep, False)
    print(
        f"\nfix time: bypass={with_bp.stats.time_fix:.2f}s "
        f"no-bypass={without.stats.time_fix:.2f}s "
        f"iterations {with_bp.stats.iterations} vs {without.stats.iterations}"
    )
    # the optimized fixpoint must not do more propagation work
    assert with_bp.stats.iterations <= without.stats.iterations * 1.2
