"""Unit tests for the script/term parser."""

import pytest

from repro.errors import ParseError, TypeCheckError, UnknownSymbolError
from repro.smtlib import (
    Apply,
    Assert,
    CheckSat,
    Constant,
    DeclarationContext,
    DeclareConst,
    DeclareFun,
    DefineFun,
    Let,
    Quantifier,
    SetLogic,
    Symbol,
    parse_script,
    parse_sort,
    parse_term,
)
from repro.smtlib.sorts import BOOL, INT, REAL, STRING, array_sort, bitvec_sort, seq_sort


def ctx(**consts):
    context = DeclarationContext()
    for name, sort in consts.items():
        context.declare_const(name, sort)
    return context


# -- sorts ------------------------------------------------------------------


def sort_of(text, context=None):
    return parse_sort(text, context)


def test_parse_simple_and_parametric_sorts():
    assert sort_of("Int") == INT
    assert sort_of("(_ BitVec 8)") == bitvec_sort(8)
    assert sort_of("(Array Int (Seq Bool))") == array_sort(INT, seq_sort(BOOL))


def test_parse_relation_normalises_to_set_of_tuple():
    from repro.smtlib.sorts import relation_sort

    assert sort_of("(Relation Int Int)") == relation_sort(INT, INT)


def test_sort_arity_validation():
    with pytest.raises(ParseError):
        sort_of("(Array Int)")
    with pytest.raises(ParseError):
        sort_of("Seq")
    with pytest.raises(ParseError):
        sort_of("(_ BitVec 0)")


def test_undeclared_sort_rejected_in_context():
    with pytest.raises(UnknownSymbolError):
        sort_of("Person", DeclarationContext())


def test_declared_sorts_never_take_indices():
    context = DeclarationContext()
    context.declare_sort("S", 0)
    with pytest.raises(ParseError):
        sort_of("(_ S 3)", context)


def test_bare_tuple_and_relation_atoms_rejected():
    with pytest.raises(ParseError):
        sort_of("Relation")
    with pytest.raises(ParseError):
        sort_of("Tuple")


# -- terms ------------------------------------------------------------------


def test_literals():
    assert parse_term("42") == Constant(42, INT)
    assert parse_term("1.5").sort == REAL
    assert parse_term('"hi"') == Constant("hi", STRING)
    assert parse_term('"he said ""hi"""') == Constant('he said "hi"', STRING)
    assert parse_term("#b1010") == Constant(10, bitvec_sort(4))
    assert parse_term("#xff") == Constant(255, bitvec_sort(8))
    assert parse_term("(_ bv5 8)") == Constant(5, bitvec_sort(8))
    with pytest.raises(ParseError):
        parse_term("(_ bv9 3)")  # 9 does not fit in 3 bits
    assert parse_term("true").sort == BOOL


def test_symbol_resolution():
    term = parse_term("(+ x 1)", ctx(x=INT))
    assert term == Apply("+", (Symbol("x", INT), Constant(1, INT)), INT)
    with pytest.raises(UnknownSymbolError):
        parse_term("missing", DeclarationContext())


def test_declared_function_application():
    context = DeclarationContext()
    context.declare_fun("f", (INT, INT), BOOL)
    term = parse_term("(f 1 2)", context)
    assert term.sort == BOOL
    with pytest.raises(TypeCheckError):
        parse_term("(f 1 true)", context)
    with pytest.raises(TypeCheckError):
        parse_term("f", context)  # arity-2 function used as a constant


def test_indexed_operator_application():
    term = parse_term("((_ extract 3 0) #xab)")
    assert term == Apply("extract", (Constant(0xAB, bitvec_sort(8)),), bitvec_sort(4), indices=(3, 0))


def test_let_binds_sorts():
    term = parse_term("(let ((a 1) (b 2.5)) (< (to_real a) b))", ctx())
    assert isinstance(term, Let)
    assert term.sort == BOOL
    assert dict((n, v.sort) for n, v in term.bindings) == {"a": INT, "b": REAL}


def test_quantifier_body_must_be_bool():
    term = parse_term("(forall ((n Int)) (= n n))")
    assert isinstance(term, Quantifier)
    with pytest.raises(TypeCheckError):
        parse_term("(exists ((n Int)) (+ n 1))")


def test_qualified_constants():
    empty = parse_term("(as seq.empty (Seq Int))")
    assert empty.qualifier == "seq.empty" and empty.sort == seq_sort(INT)
    ff = parse_term("(as ff9 (_ FiniteField 7))")
    assert ff.value == 2 and ff.qualifier == "ff2"


def test_qualified_constant_sort_must_match_theory():
    with pytest.raises(TypeCheckError):
        parse_term("(as seq.empty (Set Int))")
    with pytest.raises(TypeCheckError):
        parse_term("(as set.empty Int)")


def test_sort_ascribed_identifier_resolves_to_symbol():
    # (as x Int) is the identifier x, not a qualified constant.
    term = parse_term("(as x Int)", ctx(x=INT))
    assert term == Symbol("x", INT)
    # Ascribing the wrong sort is ill-sorted, not a silent constant.
    with pytest.raises(TypeCheckError):
        parse_term("(as x Bool)", ctx(x=INT))
    # A completely unknown symbol under `as` must not parse.
    with pytest.raises(UnknownSymbolError):
        parse_term("(as zzz Bool)", ctx())


def test_builtin_regex_constants():
    term = parse_term('(str.in_re "a" (re.union re.none (re.inter re.all re.allchar)))')
    assert term.sort == BOOL


def test_bound_variables_shadow_builtin_constants():
    term = parse_term("(forall ((re.none Int)) (= re.none 0))")
    assert term.body.args[0] == Symbol("re.none", INT)


def test_bound_variables_shadow_true_and_false():
    term = parse_term("(forall ((true Int)) (>= true 0))")
    assert term.body.args[0] == Symbol("true", INT)
    let = parse_term("(let ((true (> 0 1))) true)")
    assert let.body == Symbol("true", BOOL)


def test_duplicate_bindings_rejected():
    with pytest.raises(ParseError):
        parse_term("(let ((x 1) (x true)) x)")
    with pytest.raises(ParseError):
        parse_term("(forall ((x Int) (x Bool)) true)")
    with pytest.raises(ParseError):
        parse_script("(define-fun f ((x Int) (x Bool)) Bool (= x x))")


def test_shadowing_let_over_declared_const():
    term = parse_term("(let ((x true)) x)", ctx(x=INT))
    assert term.sort == BOOL


def test_binder_scope_ends_with_its_body():
    # Once a binder's body is parsed, the shadowed binding is back.
    term = parse_term("(+ (let ((x true)) (ite x 1 2)) x)", ctx(x=INT))
    assert term.args[1] == Symbol("x", INT)
    term = parse_term("(let ((x true)) (and (let ((x 1)) (> x 0)) x))")
    assert term.body.args[1] == Symbol("x", BOOL)
    term = parse_term("(and (forall ((x Bool)) x) (> x 0))", ctx(x=INT))
    assert term.args[1].args[0] == Symbol("x", INT)
    with pytest.raises(UnknownSymbolError):
        parse_term("(and (exists ((z Int)) (> z 0)) (> z 0))")


def test_deep_let_chain_parses():
    # Each binder extends the one scope in place: copying it per level
    # would make this chain quadratic in time and memory.
    depth = 20_000
    binders = "".join(f"(let ((x{i} (+ x{i - 1} 1))) " for i in range(1, depth + 1))
    (command,) = parse_script(f"(assert {binders}(> x{depth} 0){')' * depth})", ctx(x0=INT))
    term, levels = command.term, 0
    while isinstance(term, Let):
        term, levels = term.body, levels + 1
    assert levels == depth
    assert term.args[0] == Symbol(f"x{depth}", INT)


# -- commands and scripts ---------------------------------------------------


def test_parse_script_commands():
    script = parse_script(
        """
        (set-logic QF_LIA)
        (declare-const x Int)
        (declare-fun f (Int) Int)
        (define-fun g ((n Int)) Int (f (+ n x)))
        (assert (= (g 1) x))
        (check-sat)
        """
    )
    assert isinstance(script.commands[0], SetLogic)
    assert isinstance(script.commands[1], DeclareConst)
    assert isinstance(script.commands[2], DeclareFun)
    assert isinstance(script.commands[3], DefineFun)
    assert isinstance(script.commands[4], Assert)
    assert isinstance(script.commands[5], CheckSat)
    assert script.logic == "QF_LIA"
    assert len(script.assertions()) == 1


def test_push_pop_scoping():
    script = parse_script(
        """
        (declare-const x Int)
        (push 1)
        (declare-const y Int)
        (assert (= x y))
        (pop 1)
        """
    )
    assert len(script) == 5
    # After the pop, y is out of scope again.
    with pytest.raises(UnknownSymbolError):
        parse_script(
            """
            (push 1)
            (declare-const y Int)
            (pop 1)
            (assert (= y 0))
            """
        )


def test_define_fun_body_sort_checked():
    with pytest.raises(TypeCheckError):
        parse_script("(define-fun f ((n Int)) Bool (+ n 1))")


def test_assert_requires_bool():
    with pytest.raises(TypeCheckError):
        parse_script("(declare-const x Int) (assert (+ x 1))")


def test_duplicate_declaration_rejected():
    from repro.errors import SortError

    with pytest.raises(SortError):
        parse_script("(declare-const x Int) (declare-const x Bool)")
    # Shadowing across push levels is rejected too (cvc5 refuses to
    # re-declare any in-scope symbol, regardless of assertion level).
    with pytest.raises(SortError):
        parse_script("(declare-const x Int) (push 1) (declare-const x Bool)")


def test_define_fun_params_may_shadow_declarations():
    script = parse_script(
        "(declare-const x Bool) (define-fun f ((x Int)) Int (+ x 1)) (assert (= (f 1) 2))"
    )
    from repro.smtlib import check_script

    check_script(script)


def test_set_info_with_quoted_symbol_value_round_trips():
    from repro.smtlib import script_to_smtlib

    script = parse_script("(set-info :source |an example benchmark|)")
    assert parse_script(script_to_smtlib(script)) == script


def test_set_info_string_value_keeps_its_spelling():
    from repro.smtlib import SetInfo, script_to_smtlib

    text = '(set-info :source "a""b")'
    script = parse_script(text)
    assert script.commands == (SetInfo(":source", '"a""b"'),)
    assert script_to_smtlib(script).strip() == text
    assert parse_script(script_to_smtlib(script)) == script


def test_set_info_group_value_keeps_its_spelling():
    from repro.smtlib import SetInfo

    script = parse_script('(set-info :notes (a (b "c""d") () |x y| :k 1.5 |abc|))')
    assert script.commands == (SetInfo(":notes", '(a (b "c""d") () |x y| :k 1.5 abc)'),)


def test_set_info_quoted_symbol_value_keeps_its_bars():
    from repro.smtlib import SetInfo, script_to_smtlib

    text = "(set-info :source |a b|)"
    script = parse_script(text)
    assert script.commands == (SetInfo(":source", "|a b|"),)
    assert script_to_smtlib(script).strip() == text
    assert parse_script(script_to_smtlib(script)) == script


def test_builtin_names_cannot_be_redeclared():
    # cvc5 rejects redeclaring theory symbols; accepting them here would
    # silently resolve uses to the builtin and poison the oracle.
    with pytest.raises(ParseError):
        parse_script("(declare-fun and (Bool Bool) Bool)")
    with pytest.raises(ParseError):
        parse_script("(declare-fun |and| (Bool Bool) Bool)")  # |and| IS and
    with pytest.raises(ParseError):
        parse_script("(declare-const true Bool)")
    with pytest.raises(ParseError):
        parse_script("(declare-const re.none RegLan)")
    with pytest.raises(ParseError):
        parse_script("(declare-sort Int 0)")
    with pytest.raises(ParseError):
        parse_script("(declare-sort Relation 0)")


def test_quoted_sort_names_round_trip():
    from repro.smtlib import script_to_smtlib

    script = parse_script(
        "(declare-sort |my sort| 0)"
        "(declare-const x |my sort|)"
        "(assert (forall ((v |my sort|)) (= v x)))"
    )
    printed = script_to_smtlib(script)
    assert "|my sort|" in printed
    assert parse_script(printed) == script


def test_command_head_must_be_a_plain_symbol():
    with pytest.raises(ParseError):
        parse_script('("assert" true)')
    # |assert| canonicalises to the plain symbol assert (quoted simple
    # symbols are the same symbol), so it still names the command.
    assert len(parse_script("(|assert| true)")) == 1


def test_quoted_reserved_word_is_an_ordinary_symbol():
    # |let| is a symbol that merely shares letters with the keyword.
    script = parse_script(
        "(declare-fun |let| (Int) Int) (assert (= (|let| 0) 0)) (check-sat)"
    )
    from repro.smtlib import script_to_smtlib

    printed = script_to_smtlib(script)
    assert "|let|" in printed
    assert parse_script(printed) == script
    # The unquoted spelling keeps its syntactic role.
    with pytest.raises(ParseError):
        parse_script("(declare-fun let (Int) Int)")


def test_reserved_words_rejected_in_identifier_positions():
    with pytest.raises(ParseError):
        parse_term("(let ((forall 1)) forall)")
    with pytest.raises(ParseError):
        parse_term("(exists ((as Int)) true)")
    with pytest.raises(ParseError):
        parse_term("par")


def test_unbalanced_parens_rejected():
    with pytest.raises(ParseError, match=r"^unbalanced parenthesis opened at line 1$"):
        parse_script("(a (b)")
    # The innermost unclosed group is the one reported.
    with pytest.raises(ParseError, match=r"^unbalanced parenthesis opened at line 3$"):
        parse_script("(check-sat)\n(a\n  (b")
    with pytest.raises(ParseError, match=r"^unexpected '\)' at line 1, column 2$"):
        parse_script("a)")
    with pytest.raises(ParseError, match=r"^unexpected '\)' at line 2, column 3$"):
        parse_script("(check-sat)\n  )")


def test_deeply_unclosed_script_is_a_parse_error():
    # Reading uses an explicit stack, so depth never reaches the
    # interpreter's recursion limit.
    with pytest.raises(ParseError, match=r"^unbalanced parenthesis opened at line 1$"):
        parse_script("(" * 200_000)


def test_deeply_nested_rejected_command_renders_in_full():
    # The "expected a command" message renders the whole group, and the
    # renderer walks it with an explicit stack.
    text = "(" * 200_000 + ")" * 200_000
    with pytest.raises(ParseError) as info:
        parse_script(text)
    assert str(info.value) == "expected a command, got " + text


def test_parse_sort_and_term_take_exactly_one_expression():
    with pytest.raises(ParseError, match="expected exactly one sort, got 2"):
        parse_sort("Int Bool")
    with pytest.raises(ParseError, match="expected exactly one term, got 0"):
        parse_term("")


def test_unknown_command_rejected():
    with pytest.raises(ParseError):
        parse_script("(frobnicate)")


def test_malformed_commands_rejected():
    with pytest.raises(ParseError):
        parse_script("(assert)")
    with pytest.raises(ParseError):
        parse_script("(declare-fun f Int Int)")
    with pytest.raises(ParseError):
        parse_script("(push x)")


# -- :named annotations and unsat-core commands ------------------------------


def test_named_assert_parses_to_labelled_assert():
    script = parse_script(
        "(declare-const x Int) (assert (! (> x 0) :named pos))"
    )
    command = script.commands[-1]
    assert isinstance(command, Assert)
    assert command.name == "pos"
    assert command.term == Apply(
        ">", (Symbol("x", INT), Constant(0, INT)), BOOL
    )


def test_named_assert_accepts_quoted_symbols():
    script = parse_script("(assert (! true :named |my lemma|))")
    assert script.commands[-1].name == "my lemma"


def test_named_label_becomes_a_bool_alias():
    # SMT-LIB: the label is a fresh 0-ary Bool symbol aliasing the term,
    # usable in later assertions.
    script = parse_script(
        "(declare-const p Bool) (assert (! p :named lbl)) (assert (not lbl))"
    )
    assert len(script.assertions()) == 2


def test_named_label_must_be_fresh():
    from repro.errors import SortError

    with pytest.raises(SortError):
        parse_script("(declare-const p Bool) (assert (! true :named p))")
    with pytest.raises(SortError):
        parse_script(
            "(assert (! true :named a)) (assert (! false :named a))"
        )


def test_annotation_requires_exactly_one_named_attribute():
    with pytest.raises(ParseError):
        parse_script("(assert (! true))")
    with pytest.raises(ParseError):
        parse_script("(assert (! true :named))")
    with pytest.raises(ParseError):
        parse_script("(assert (! true :named a :named b))")
    with pytest.raises(ParseError):
        parse_script("(assert (! true :weight 1))")
    with pytest.raises(ParseError):
        parse_script("(assert (! true named a))")


def test_annotation_outside_assert_rejected():
    with pytest.raises(ParseError):
        parse_script("(assert (and (! true :named a) true))")


def test_get_unsat_core_parses():
    from repro.smtlib import GetUnsatCore

    script = parse_script("(get-unsat-core)")
    assert isinstance(script.commands[0], GetUnsatCore)
    with pytest.raises(ParseError):
        parse_script("(get-unsat-core extra)")


# -- memo scope ---------------------------------------------------------------
#
# Atom spellings are resolved once per command and binder scope, and
# built-in signatures once per parse; these scripts change what a spelling
# or a signature means between or within commands.


def test_push_pop_redeclaration_changes_the_sort_of_an_atom():
    script = parse_script(
        "(push 1)(declare-const x Int)(assert (> x 0))(pop 1)"
        "(push 1)(declare-const x Bool)(assert (and x x))(pop 1)"
    )
    first, second = script.commands[2].term, script.commands[6].term
    assert first.args[0] == Symbol("x", INT)
    assert second.args == (Symbol("x", BOOL), Symbol("x", BOOL))


def test_push_pop_redeclaration_changes_a_declared_function_signature():
    # Only built-in operators share a signature memo; a declared function
    # is looked up in the context of its own command.
    script = parse_script(
        "(push 1)(declare-fun f (Int) Int)(assert (= (f 0) 0))(pop 1)"
        "(push 1)(declare-fun f (Int) Bool)(assert (f 0))(pop 1)"
    )
    assert script.commands[2].term.args[0].sort == INT
    assert script.commands[6].term.sort == BOOL


def test_let_binding_shadows_an_atom_only_in_its_body():
    term = parse_term("(and (> x 0) (let ((x true)) x) (> x 1))", ctx(x=INT))
    outer_x = Symbol("x", INT)
    assert term.args[0].args[0] is outer_x
    assert isinstance(term.args[1], Let)
    assert term.args[1].body is Symbol("x", BOOL)
    assert term.args[2].args[0] is outer_x


def test_define_fun_parameter_shadows_a_constant_of_another_sort():
    script = parse_script(
        "(declare-const x Bool)"
        "(define-fun f ((x Int)) Int (+ x 1))"
        "(assert (and x (> (f 2) 0)))"
    )
    definition, assertion = script.commands[1], script.commands[2]
    assert definition.body.args[0] is Symbol("x", INT)
    assert assertion.term.args[0] is Symbol("x", BOOL)


def test_parse_term_reads_each_context_afresh():
    assert parse_term("(= x x)", ctx(x=INT)).args[0] is Symbol("x", INT)
    assert parse_term("(= x x)", ctx(x=BOOL)).args[0] is Symbol("x", BOOL)


def test_builtin_signatures_are_kept_apart_by_argument_sorts():
    script = parse_script(
        "(declare-const a (_ BitVec 4))(declare-const b (_ BitVec 8))"
        "(assert (= (bvadd a a) a))(assert (= (bvadd b b) b))"
        "(assert (= (bvadd a a) a))"
    )
    narrow, wide, again = (command.term.args[0] for command in script.commands[2:])
    assert narrow.sort == bitvec_sort(4)
    assert wide.sort == bitvec_sort(8)
    assert again is narrow
    with pytest.raises(TypeCheckError):
        parse_script(
            "(declare-const a (_ BitVec 4))(declare-const b (_ BitVec 8))"
            "(assert (= (bvadd a a) a))(assert (= (bvadd b b) b))"
            "(assert (= (bvadd a b) a))"
        )


def test_unknown_symbol_parses_once_declared():
    context = DeclarationContext()
    with pytest.raises(UnknownSymbolError):
        parse_script("(assert (> y 0))", context)
    script = parse_script("(declare-const y Int)(assert (> y 0))", context)
    assert script.commands[1].term.args[0] is Symbol("y", INT)
