"""Table 3 — octagon-domain analysis performance.

Same three-way comparison as Table 2 but with the packed relational
domain. The paper's shape: octagons are an order of magnitude costlier per
operation, so the suite is smaller; localization helps (Spd.1 ≈ 8–9×) and
sparseness helps more (Spd.2 ≈ 13–56×); average pack sizes sit in the
3–7 range.

    pytest benchmarks/bench_table3_octagon.py --benchmark-only -s
"""

import pytest

from repro.analysis.relational import build_packs, run_rel_dense, run_rel_sparse


@pytest.mark.parametrize("size", ["small", "medium"])
def test_octagon_vanilla(benchmark, prepared_octagon, size):
    prep = prepared_octagon[size]
    packs = build_packs(prep.program)
    result = benchmark.pedantic(
        lambda: run_rel_dense(prep.program, prep.pre, packs),
        rounds=1,
        iterations=1,
    )
    assert result.table


@pytest.mark.parametrize("size", ["small", "medium"])
def test_octagon_base(benchmark, prepared_octagon, size):
    prep = prepared_octagon[size]
    packs = build_packs(prep.program)
    result = benchmark.pedantic(
        lambda: run_rel_dense(prep.program, prep.pre, packs, localize=True),
        rounds=1,
        iterations=1,
    )
    assert result.table


@pytest.mark.parametrize("size", ["small", "medium"])
def test_octagon_sparse(benchmark, prepared_octagon, size):
    prep = prepared_octagon[size]
    packs = build_packs(prep.program)
    result = benchmark.pedantic(
        lambda: run_rel_sparse(prep.program, prep.pre, packs),
        rounds=1,
        iterations=1,
    )
    d, u = result.defuse.average_sizes()
    print(
        f"\nTable3[{prep.spec.name}]: Dep={result.stats.time_dep:.2f}s "
        f"Fix={result.stats.time_fix:.2f}s D̂(c)={d:.2f} Û(c)={u:.2f} "
        f"avg-pack={result.packs.average_size():.1f}"
    )
    # the paper reports pack-granular sparsity; packs average 3–7 members
    assert 1.5 <= result.packs.average_size() <= 10


def test_octagon_speedup_shape(prepared_octagon):
    import time

    prep = prepared_octagon["medium"]
    packs = build_packs(prep.program)

    t0 = time.perf_counter()
    run_rel_dense(prep.program, prep.pre, packs)
    vanilla = time.perf_counter() - t0

    t0 = time.perf_counter()
    run_rel_sparse(prep.program, prep.pre, packs)
    sparse = time.perf_counter() - t0

    print(
        f"\nTable3 shape [{prep.spec.name}]: vanilla={vanilla:.2f}s "
        f"sparse={sparse:.2f}s Spd={vanilla / sparse:.1f}x"
    )
    assert sparse < vanilla


def test_octagon_costlier_than_interval(prepared_octagon):
    """Cross-table shape: per program, the octagon analysis costs more
    than the interval analysis (why Table 3 stops at 130 KLOC)."""
    import time

    from repro.analysis.sparse import run_sparse

    prep = prepared_octagon["medium"]
    packs = build_packs(prep.program)

    t0 = time.perf_counter()
    run_sparse(prep.program, prep.pre)
    interval = time.perf_counter() - t0

    t0 = time.perf_counter()
    run_rel_sparse(prep.program, prep.pre, packs)
    octagon = time.perf_counter() - t0

    print(f"\ninterval={interval:.2f}s octagon={octagon:.2f}s "
          f"ratio={octagon / max(interval, 1e-9):.1f}x")
    assert octagon > interval
