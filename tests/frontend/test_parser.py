"""Parser unit tests."""

import pytest

from repro.frontend import cast as A
from repro.frontend import parse
from repro.frontend.ctypes import (
    ArrayType,
    FuncType,
    IntType,
    PointerType,
    StructType,
    VoidType,
)
from repro.frontend.errors import DiagnosticBag, ParseError
from repro.frontend.parser import fold_const


def parse_expr(text: str) -> A.Expr:
    unit = parse(f"int main(void) {{ __probe = {text}; }}")
    stmt = unit.functions[0].body.body[0]
    assert isinstance(stmt, A.ExprStmt)
    assert isinstance(stmt.expr, A.Assign)
    return stmt.expr.value


def parse_stmt(text: str) -> A.Stmt:
    unit = parse(f"int main(void) {{ {text} }}")
    return unit.functions[0].body.body[0]


class TestDeclarations:
    def test_global_int(self):
        unit = parse("int x;")
        assert unit.globals[0].name == "x"
        assert unit.globals[0].ctype == IntType("int")

    def test_global_with_init(self):
        unit = parse("int x = 42;")
        assert isinstance(unit.globals[0].init, A.IntLit)

    def test_multiple_declarators(self):
        unit = parse("int a, b, *c;")
        assert [g.name for g in unit.globals] == ["a", "b", "c"]
        assert isinstance(unit.globals[2].ctype, PointerType)

    def test_pointer_to_pointer(self):
        unit = parse("int **pp;")
        ty = unit.globals[0].ctype
        assert isinstance(ty, PointerType) and isinstance(ty.pointee, PointerType)

    def test_array(self):
        unit = parse("int a[10];")
        assert unit.globals[0].ctype == ArrayType(IntType("int"), 10)

    def test_2d_array(self):
        unit = parse("int m[3][4];")
        ty = unit.globals[0].ctype
        assert isinstance(ty, ArrayType) and ty.length == 3
        assert isinstance(ty.element, ArrayType) and ty.element.length == 4

    def test_array_of_pointers(self):
        unit = parse("int *a[10];")
        ty = unit.globals[0].ctype
        assert isinstance(ty, ArrayType)
        assert isinstance(ty.element, PointerType)

    def test_array_size_expression(self):
        unit = parse("int a[2 * 8];")
        assert unit.globals[0].ctype.length == 16

    def test_unsigned_long(self):
        unit = parse("unsigned long x;")
        assert unit.globals[0].ctype == IntType("unsigned long")

    def test_static_global(self):
        unit = parse("static int x;")
        assert unit.globals[0].is_static

    def test_struct_definition(self):
        unit = parse("struct p { int x; int y; };")
        assert unit.structs["p"].field_names() == ["x", "y"]

    def test_struct_variable(self):
        unit = parse("struct p { int x; }; struct p v;")
        assert unit.globals[0].ctype == StructType("p")

    def test_nested_struct_field(self):
        unit = parse("struct inner { int a; }; struct outer { struct inner i; };")
        assert unit.structs["outer"].field_type("i") == StructType("inner")

    def test_typedef(self):
        unit = parse("typedef unsigned long size_t; size_t n;")
        assert unit.globals[0].ctype == IntType("unsigned long")

    def test_typedef_pointer(self):
        unit = parse("typedef int *iptr; iptr p;")
        assert isinstance(unit.globals[0].ctype, PointerType)

    def test_enum_constants(self):
        unit = parse("enum color { RED, GREEN = 5, BLUE }; int x = BLUE;")
        assert unit.globals[0].init.value == 6

    def test_function_prototype(self):
        unit = parse("int f(int a, char *b);")
        proto = unit.prototypes[0]
        assert proto.name == "f"
        assert [p.name for p in proto.params] == ["a", "b"]

    def test_variadic_prototype(self):
        unit = parse("int printf(char *fmt, ...);")
        assert unit.prototypes[0].variadic

    def test_void_param_list(self):
        unit = parse("int f(void) { return 0; }")
        assert unit.functions[0].params == []

    def test_function_pointer_declarator(self):
        unit = parse("int (*handler)(int);")
        ty = unit.globals[0].ctype
        assert isinstance(ty, PointerType) and isinstance(ty.pointee, FuncType)


class TestFunctionDefs:
    def test_params_survive_body_declarations(self):
        # Regression: local declarators used to clobber the pending params.
        unit = parse(
            "int f(int a, int b);\n"
            "int f(int a, int b) { int v = a; return v + b; }"
        )
        assert [p.name for p in unit.functions[0].params] == ["a", "b"]

    def test_return_type(self):
        unit = parse("char *dup(char *s) { return s; }")
        assert isinstance(unit.functions[0].ret_type, PointerType)

    def test_static_function(self):
        unit = parse("static int f(void) { return 1; }")
        assert unit.functions[0].is_static


class TestExpressions:
    def test_precedence_mul_over_add(self):
        e = parse_expr("1 + 2 * 3")
        assert isinstance(e, A.BinOp) and e.op == "+"
        assert isinstance(e.right, A.BinOp) and e.right.op == "*"

    def test_left_associativity(self):
        e = parse_expr("1 - 2 - 3")
        assert e.op == "-" and isinstance(e.left, A.BinOp)

    def test_parentheses(self):
        e = parse_expr("(1 + 2) * 3")
        assert e.op == "*" and isinstance(e.left, A.BinOp)

    def test_comparison_chain(self):
        e = parse_expr("a < b == c")
        assert e.op == "=="

    def test_logical_ops(self):
        e = parse_expr("a && b || c")
        assert e.op == "||"

    def test_conditional(self):
        e = parse_expr("a ? b : c")
        assert isinstance(e, A.Conditional)

    def test_nested_conditional(self):
        e = parse_expr("a ? b : c ? d : e")
        assert isinstance(e.otherwise, A.Conditional)

    def test_unary_ops(self):
        for op in ("-", "!", "~"):
            e = parse_expr(f"{op}x")
            assert isinstance(e, A.UnOp) and e.op == op

    def test_address_and_deref(self):
        e = parse_expr("*&x")
        assert isinstance(e, A.UnOp) and e.op == "*"
        assert isinstance(e.operand, A.UnOp) and e.operand.op == "&"

    def test_prefix_increment(self):
        e = parse_expr("++x")
        assert isinstance(e, A.IncDec) and e.prefix

    def test_postfix_decrement(self):
        e = parse_expr("x--")
        assert isinstance(e, A.IncDec) and not e.prefix

    def test_call(self):
        e = parse_expr("f(1, 2, 3)")
        assert isinstance(e, A.Call) and len(e.args) == 3

    def test_call_no_args(self):
        e = parse_expr("f()")
        assert isinstance(e, A.Call) and e.args == []

    def test_index(self):
        e = parse_expr("a[i]")
        assert isinstance(e, A.Index)

    def test_multi_index(self):
        e = parse_expr("m[i][j]")
        assert isinstance(e, A.Index) and isinstance(e.base, A.Index)

    def test_field_access(self):
        e = parse_expr("s.x")
        assert isinstance(e, A.FieldAccess) and not e.arrow

    def test_arrow_access(self):
        e = parse_expr("p->x")
        assert isinstance(e, A.FieldAccess) and e.arrow

    def test_chained_postfix(self):
        e = parse_expr("a[0].next->value")
        assert isinstance(e, A.FieldAccess) and e.arrow

    def test_sizeof_expr(self):
        e = parse_expr("sizeof x")
        assert isinstance(e, A.SizeOf) and e.of_expr is not None

    def test_sizeof_type(self):
        unit = parse("int main(void) { __p = sizeof(int); }")

    def test_cast(self):
        unit = parse("int *q; int main(void) { __p = (int*)q; }")
        stmt = unit.functions[0].body.body[0]
        assert isinstance(stmt.expr.value, A.Cast)

    def test_compound_assignment(self):
        stmt = parse_stmt("x += 2;")
        assert isinstance(stmt.expr, A.Assign) and stmt.expr.op == "+="

    def test_comma_expression(self):
        stmt = parse_stmt("x = 1, y = 2;")
        assert isinstance(stmt.expr, A.CommaExpr)

    def test_string_concatenation(self):
        e = parse_expr('"ab" "cd"')
        assert isinstance(e, A.StrLit) and e.value == "abcd"

    def test_char_literal_is_int(self):
        e = parse_expr("'x'")
        assert isinstance(e, A.IntLit) and e.value == ord("x")


class TestStatements:
    def test_if_else(self):
        stmt = parse_stmt("if (a) x = 1; else x = 2;")
        assert isinstance(stmt, A.If) and stmt.otherwise is not None

    def test_dangling_else(self):
        stmt = parse_stmt("if (a) if (b) x = 1; else x = 2;")
        assert isinstance(stmt, A.If) and stmt.otherwise is None
        assert isinstance(stmt.then, A.If) and stmt.then.otherwise is not None

    def test_while(self):
        assert isinstance(parse_stmt("while (a) x = 1;"), A.While)

    def test_do_while(self):
        assert isinstance(parse_stmt("do x = 1; while (a);"), A.DoWhile)

    def test_for_full(self):
        stmt = parse_stmt("for (i = 0; i < 10; i++) x += i;")
        assert isinstance(stmt, A.For)
        assert stmt.init is not None and stmt.cond is not None

    def test_for_empty_parts(self):
        stmt = parse_stmt("for (;;) break;")
        assert stmt.init is None and stmt.cond is None and stmt.step is None

    def test_for_with_declaration(self):
        stmt = parse_stmt("for (int i = 0; i < 3; i++) x = i;")
        assert isinstance(stmt.init, A.DeclStmt)

    def test_switch(self):
        stmt = parse_stmt(
            "switch (x) { case 1: a = 1; break; case 2: a = 2; default: a = 0; }"
        )
        assert isinstance(stmt, A.Switch) and len(stmt.cases) == 3
        assert stmt.cases[2].value is None

    def test_break_continue(self):
        stmt = parse_stmt("while (1) { if (a) break; continue; }")
        assert isinstance(stmt, A.While)

    def test_return_void(self):
        assert parse_stmt("return;").value is None

    def test_goto_and_label(self):
        stmt = parse_stmt("top: x = 1;")
        assert isinstance(stmt, A.Labeled) and stmt.label == "top"
        assert isinstance(parse_stmt("goto top;"), A.Goto)

    def test_local_declaration_with_init(self):
        stmt = parse_stmt("int a = 5, b;")
        assert isinstance(stmt, A.DeclStmt) and len(stmt.decls) == 2

    def test_array_initializer_list(self):
        stmt = parse_stmt("int a[3] = {1, 2, 3};")
        assert isinstance(stmt.decls[0].init, A.CommaExpr)

    def test_empty_statement(self):
        assert isinstance(parse_stmt(";"), A.EmptyStmt)

    def test_nested_compound(self):
        stmt = parse_stmt("{ int x; { int y; } }")
        assert isinstance(stmt, A.Compound)


class TestErrors:
    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse("int x")

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse("int main(void) { x = (1 + 2; }")

    def test_bad_expression(self):
        with pytest.raises(ParseError):
            parse("int main(void) { x = * ; }")

    def test_statement_before_case(self):
        with pytest.raises(ParseError):
            parse("int main(void) { switch (x) { a = 1; } }")


class TestPrecedenceClimbing:
    def test_every_binop_is_positioned_at_its_leftmost_operand(self):
        e = parse_expr("a * b + c * d - e")
        # ((a * b) + (c * d)) - e; "a" is column 28 after "int main(void) { __probe = "
        assert (e.op, e.left.op, e.left.left.op, e.left.right.op) == ("-", "+", "*", "*")
        assert e.pos.column == e.left.pos.column == e.left.left.pos.column == 28
        assert e.left.right.pos.column == 36

    def test_levels_bind_from_loosest_to_tightest(self):
        e = parse_expr("a || b && c | d ^ e & f == g < h << i + j * k")
        ops = []
        while isinstance(e, A.BinOp):
            ops.append(e.op)
            e = e.right
        assert ops == ["||", "&&", "|", "^", "&", "==", "<", "<<", "+", "*"]

    def test_paren_tower_hits_the_nesting_guard(self):
        # a ladder of one frame per level overflowed the interpreter stack
        # first and reported the whole file at 1:1
        bag = DiagnosticBag()
        parse("int f(void) { return " + "(" * 100 + ";", "deep.c", bag)
        [diag] = bag.errors()
        assert diag.message == "construct nested too deeply"
        assert (diag.pos.line, diag.pos.column) == (1, 85)


class TestConstantShifts:
    """A shift count outside 0..63 is not a constant expression (it used to
    raise a raw ``ValueError: negative shift count``)."""

    @pytest.mark.parametrize(
        "source",
        ["int a[1 << -1];", "int a[2 >> -1];", "enum { A = 1 << -1 };", "int a[1 << 64];"],
    )
    def test_bad_shift_count_is_a_parse_error(self, source):
        with pytest.raises(ParseError, match="expected integer constant expression"):
            parse(source)
        bag = DiagnosticBag()
        parse(source, "shift.c", bag)
        assert [d.message for d in bag.errors()] == [
            "expected integer constant expression"
        ]

    def test_shift_counts_up_to_63_fold(self):
        unit = parse("int a[1 << 3]; enum { B = (1 << 63) >> 62 }; int b[B];")
        assert unit.globals[0].ctype == ArrayType(IntType("int"), 8)
        assert unit.globals[1].ctype == ArrayType(IntType("int"), 2)

    def test_fold_const_table(self):
        def fold(text):
            return fold_const(parse_expr(text))

        assert fold("7 / 2 + 7 % 2 - (1 << 2) * 3 + (6 & 3 | 8 ^ 1)") == 3 + 1 - 12 + 11
        assert fold("-5 + ~0 + !0 + +2") == -5 - 1 + 1 + 2
        assert fold("1 / 0") is None and fold("1 % 0") is None
        assert fold("1 < 2") is None and fold("*p") is None
        assert fold("8 >> 64") is None and fold("8 >> 63") == 0


class TestConstantDivision:
    def test_division_truncates_toward_zero(self):
        """``/`` and ``%`` fold as in C: -7 / 2 is -3 and -7 % 2 is -1
        (Python's floor division gave -4 and 1)."""
        unit = parse("enum { A = -7 / 2, B = -7 % 2 }; int a[A + 10]; int b[B + 10];")
        assert unit.globals[0].ctype == ArrayType(IntType("int"), 7)
        assert unit.globals[1].ctype == ArrayType(IntType("int"), 9)

        def fold(text):
            return fold_const(parse_expr(text))

        for a, b in [(-7, 2), (7, -2), (-7, -2), (7, 2), (-8, 2), (0, -3)]:
            quotient, remainder = fold(f"({a}) / ({b})"), fold(f"({a}) % ({b})")
            assert quotient == int(a / b)
            assert quotient * b + remainder == a
            assert remainder == 0 or (remainder < 0) == (a < 0)


class TestLineMap:
    def test_linemarker_line_takes_ascii_digits_only(self):
        """The parser's line map ignores ``#٣`` as the lexer does, so the
        error on line 2 keeps its position and its source line."""
        with pytest.raises(ParseError, match="expected expression") as info:
            parse("#٣\nint x = ;", "m.c")
        assert info.value.pos.line == 2
        assert info.value.source_line == "int x = ;"
