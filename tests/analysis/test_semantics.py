"""Transfer-function unit tests: the abstract semantics f♯_c in isolation."""

from repro.analysis.semantics import (
    AccessLog,
    AnalysisContext,
    Evaluator,
    transfer,
)
from repro.domains.absloc import AllocLoc, FuncLoc, VarLoc
from repro.domains.interval import Interval
from repro.domains.state import AbsState
from repro.domains.value import AbsValue
from repro.ir.cfg import Node
from repro.ir.commands import (
    CAssume,
    CSet,
    DerefLv,
    EAddrOf,
    EBinOp,
    ELval,
    ENum,
    EUnknown,
    EUnOp,
    VarLv,
)
from repro.ir.program import build_program


def make_ctx():
    program = build_program("int main(void) { return 0; }")
    return AnalysisContext(program, {})


def state_of(**vals):
    s = AbsState()
    for name, v in vals.items():
        s.set(VarLoc(name), v)
    return s


X, Y, P = VarLv("x"), VarLv("y"), VarLv("p")


class TestEvaluator:
    def test_constant(self):
        ev = Evaluator(make_ctx(), AbsState())
        assert ev.eval(ENum(7)).itv == Interval.const(7)

    def test_variable_read(self):
        s = state_of(x=AbsValue.of_const(3))
        ev = Evaluator(make_ctx(), s)
        assert ev.eval(ELval(X)).itv == Interval.const(3)

    def test_missing_variable_is_bottom(self):
        ev = Evaluator(make_ctx(), AbsState())
        assert ev.eval(ELval(X)).is_bottom()

    def test_unknown_is_top_number(self):
        ev = Evaluator(make_ctx(), AbsState())
        v = ev.eval(EUnknown("ext"))
        assert v.itv.is_top() and not v.has_pointers()

    def test_arithmetic(self):
        s = state_of(x=AbsValue.of_interval(Interval.range(1, 3)))
        ev = Evaluator(make_ctx(), s)
        v = ev.eval(EBinOp("*", ELval(X), ENum(10)))
        assert v.itv == Interval.range(10, 30)

    def test_address_of(self):
        ev = Evaluator(make_ctx(), AbsState())
        v = ev.eval(EAddrOf(X))
        assert v.ptsto == {VarLoc("x")}

    def test_address_of_function(self):
        program = build_program("int f(void){return 0;} int main(void){return 0;}")
        ctx = AnalysisContext(program, {})
        ev = Evaluator(ctx, AbsState())
        v = ev.eval(EAddrOf(VarLv("f", None)))
        assert v.ptsto == {FuncLoc("f")}

    def test_deref_reads_targets(self):
        s = state_of(
            p=AbsValue.of_locs({VarLoc("x"), VarLoc("y")}),
            x=AbsValue.of_const(1),
            y=AbsValue.of_const(5),
        )
        ev = Evaluator(make_ctx(), s)
        v = ev.eval(ELval(DerefLv(ELval(P))))
        assert v.itv == Interval.range(1, 5)

    def test_pointer_arithmetic_shifts_blocks(self):
        from repro.domains.value import ArrayBlock

        blk = ArrayBlock(AllocLoc("a"), Interval.const(0), Interval.const(10))
        s = state_of(p=AbsValue.of_block(blk))
        ev = Evaluator(make_ctx(), s)
        v = ev.eval(EBinOp("+", ELval(P), ENum(3)))
        assert v.arrays[0].offset == Interval.const(3)

    def test_adding_two_block_values_keeps_normal_form(self):
        """One block per base, sorted by base — the form in which a join
        with a smaller value returns the value itself."""
        from repro.domains.value import ArrayBlock

        a = ArrayBlock(AllocLoc("a"), Interval.const(0), Interval.const(10))
        b = ArrayBlock(AllocLoc("b"), Interval.const(0), Interval.const(10))
        s = state_of(
            p=AbsValue(itv=Interval.const(2), arrays=(b,)),
            q=AbsValue(itv=Interval.const(1), arrays=(a, b)),
        )
        v = Evaluator(make_ctx(), s).eval(EBinOp("+", ELval(P), ELval(VarLv("q"))))
        assert [blk.base for blk in v.arrays] == [AllocLoc("a"), AllocLoc("b")]
        assert v.arrays[1].offset == Interval.range(1, 2)
        assert v.join(AbsValue.of_block(v.arrays[0])) == v

    def test_logical_not(self):
        s = state_of(x=AbsValue.of_const(0))
        ev = Evaluator(make_ctx(), s)
        from repro.domains.interval import ONE

        assert ev.eval(EUnOp("!", ELval(X))).itv == ONE

    def test_comparison_of_pointers_is_boolean(self):
        from repro.domains.interval import BOOL

        s = state_of(p=AbsValue.of_locs({VarLoc("x")}))
        ev = Evaluator(make_ctx(), s)
        v = ev.eval(EBinOp("==", ELval(P), ENum(0)))
        assert v.itv == BOOL

    def test_reads_logged(self):
        s = state_of(x=AbsValue.of_const(1), y=AbsValue.of_const(2))
        log = AccessLog()
        ev = Evaluator(make_ctx(), s, log)
        ev.eval(EBinOp("+", ELval(X), ELval(Y)))
        assert log.used == {VarLoc("x"), VarLoc("y")}


def run_cmd(cmd, state, ctx=None, log=None):
    ctx = ctx or make_ctx()
    node = Node(999, "main", cmd)
    return transfer(node, state, ctx, log)


class TestTransferFunctions:
    def test_strong_assignment(self):
        s = state_of(x=AbsValue.of_const(1))
        out = run_cmd(CSet(X, ENum(9)), s)
        assert out.get(VarLoc("x")).itv == Interval.const(9)
        assert s.get(VarLoc("x")).itv == Interval.const(1)  # input unchanged

    def test_weak_assignment_multiple_targets(self):
        s = state_of(
            p=AbsValue.of_locs({VarLoc("x"), VarLoc("y")}),
            x=AbsValue.of_const(1),
            y=AbsValue.of_const(2),
        )
        out = run_cmd(CSet(DerefLv(ELval(P)), ENum(9)), s)
        assert out.get(VarLoc("x")).itv == Interval.range(1, 9)
        assert out.get(VarLoc("y")).itv == Interval.range(2, 9)

    def test_strong_update_single_target(self):
        s = state_of(
            p=AbsValue.of_locs({VarLoc("x")}),
            x=AbsValue.of_const(1),
        )
        out = run_cmd(CSet(DerefLv(ELval(P)), ENum(9)), s)
        assert out.get(VarLoc("x")).itv == Interval.const(9)

    def test_summary_target_always_weak(self):
        heap = AllocLoc("site")
        s = AbsState()
        s.set(VarLoc("p"), AbsValue.of_locs({heap}))
        s.set(heap, AbsValue.of_const(1))
        out = run_cmd(CSet(DerefLv(ELval(P)), ENum(9)), s)
        assert out.get(heap).itv == Interval.range(1, 9)

    def test_assume_true_refines(self):
        s = state_of(x=AbsValue.of_interval(Interval.range(0, 100)))
        out = run_cmd(CAssume(EBinOp("<", ELval(X), ENum(10))), s)
        assert out.get(VarLoc("x")).itv == Interval.range(0, 9)

    def test_assume_false_branch_unreachable_strict(self):
        s = state_of(x=AbsValue.of_const(50))
        out = run_cmd(CAssume(EBinOp("<", ELval(X), ENum(10))), s)
        assert out is None

    def test_assume_false_nonstrict_keeps_state(self):
        program = build_program("int main(void) { return 0; }")
        ctx = AnalysisContext(program, {}, strict=False)
        s = state_of(x=AbsValue.of_const(50))
        out = run_cmd(CAssume(EBinOp("<", ELval(X), ENum(10))), s, ctx=ctx)
        assert out is not None
        assert out.get(VarLoc("x")).itv.is_bottom()

    def test_assume_negative_flips(self):
        s = state_of(x=AbsValue.of_interval(Interval.range(0, 100)))
        out = run_cmd(
            CAssume(EBinOp("<", ELval(X), ENum(10)), positive=False), s
        )
        assert out.get(VarLoc("x")).itv == Interval.range(10, 100)

    def test_assume_refines_both_sides(self):
        s = state_of(
            x=AbsValue.of_interval(Interval.range(0, 100)),
            y=AbsValue.of_interval(Interval.range(0, 100)),
        )
        out = run_cmd(CAssume(EBinOp("<", ELval(X), ELval(Y))), s)
        assert out.get(VarLoc("x")).itv.hi == 99
        assert out.get(VarLoc("y")).itv.lo == 1

    def test_assume_truthiness(self):
        s = state_of(x=AbsValue.of_interval(Interval.range(0, 5)))
        out = run_cmd(CAssume(ELval(X), positive=False), s)  # assume(!x)
        assert out.get(VarLoc("x")).itv == Interval.const(0)

    def test_strong_def_logged(self):
        log = AccessLog()
        s = state_of(x=AbsValue.of_const(1))
        run_cmd(CSet(X, ENum(2)), s, log=log)
        assert log.strong_defined == {VarLoc("x")}

    def test_weak_def_logs_use_of_target(self):
        log = AccessLog()
        s = state_of(
            p=AbsValue.of_locs({VarLoc("x"), VarLoc("y")}),
        )
        run_cmd(CSet(DerefLv(ELval(P)), ENum(1)), s, log=log)
        assert {VarLoc("x"), VarLoc("y")} <= log.used
        assert log.strong_defined == set()
