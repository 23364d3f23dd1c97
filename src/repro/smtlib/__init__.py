"""The SMT-LIB front end and term-compute layer.

Pipeline: :mod:`lexer` (text → token spellings) → :mod:`parser`
(spellings → sorted commands and terms, using :mod:`sorts`, :mod:`terms`
and :mod:`script`) → :mod:`typecheck` (well-sortedness verification) →
:mod:`simplify` / :mod:`evaluate` (theory-aware rewriting and ground
evaluation over the hash-consed term DAG) → :mod:`printer` (back to
concrete syntax, satisfying ``parse(print(s)) == s`` for every parsed
script ``s``).

Terms are hash-consed: structurally equal terms are one interned object,
giving O(1) equality/hashing and memoizable passes (see
:mod:`repro.smtlib.terms`).

This module re-exports the surface the engine, the CLI and the benchmarks
program against.
"""

from .cnf import CnfFormula, TseitinEncoder, is_connective, tseitin
from .evaluate import FunctionInterpretation, evaluate, evaluate_value, fold_apply
from .lexer import RESERVED_WORDS, is_simple_symbol, position, tokenize
from .linarith import LinearForm, difference_form, linear_form
from .parser import parse_script, parse_sort, parse_term
from .simplify import simplify, simplify_script
from .printer import (
    command_to_smtlib,
    constant_to_smtlib,
    script_to_smtlib,
    sort_to_smtlib,
    symbol_to_smtlib,
    term_to_smtlib,
)
from .script import (
    Assert,
    CheckSat,
    Command,
    DeclarationContext,
    DeclareConst,
    DeclareFun,
    DeclareSort,
    DefineFun,
    Exit,
    FunSignature,
    GetModel,
    GetUnsatCore,
    GetValue,
    Pop,
    Push,
    Script,
    SetInfo,
    SetLogic,
    SetOption,
    apply_command,
)
from .sorts import (
    BOOL,
    INT,
    REAL,
    REGLAN,
    ROUNDING_MODE,
    STRING,
    Sort,
    array_sort,
    bag_sort,
    bitvec_sort,
    finite_field_sort,
    relation_sort,
    seq_sort,
    set_sort,
    tuple_sort,
    uninterpreted_sort,
)
from .terms import (
    FALSE,
    TRUE,
    Apply,
    Constant,
    Let,
    Quantifier,
    Symbol,
    Term,
    bitvec_const,
    bool_const,
    ff_const,
    int_const,
    intern_stats,
    negate,
    qualified_constant,
    real_const,
    replace_subterm,
    reset_intern_stats,
    string_const,
    substitute,
)
from .typecheck import apply_sort, check, check_script, is_builtin_operator, well_sorted

__all__ = [
    # lexer
    "RESERVED_WORDS",
    "tokenize",
    "position",
    "is_simple_symbol",
    # sorts
    "Sort",
    "BOOL",
    "INT",
    "REAL",
    "STRING",
    "REGLAN",
    "ROUNDING_MODE",
    "bitvec_sort",
    "finite_field_sort",
    "seq_sort",
    "set_sort",
    "bag_sort",
    "array_sort",
    "tuple_sort",
    "relation_sort",
    "uninterpreted_sort",
    # terms
    "Term",
    "Constant",
    "Symbol",
    "Apply",
    "Quantifier",
    "Let",
    "TRUE",
    "FALSE",
    "int_const",
    "real_const",
    "string_const",
    "bool_const",
    "bitvec_const",
    "ff_const",
    "qualified_constant",
    "substitute",
    "negate",
    "replace_subterm",
    "intern_stats",
    "reset_intern_stats",
    # script
    "Command",
    "Script",
    "DeclarationContext",
    "FunSignature",
    "SetLogic",
    "SetOption",
    "SetInfo",
    "DeclareSort",
    "DeclareFun",
    "DeclareConst",
    "DefineFun",
    "Assert",
    "GetUnsatCore",
    "CheckSat",
    "GetModel",
    "GetValue",
    "Push",
    "Pop",
    "Exit",
    "apply_command",
    # parser
    "parse_sort",
    "parse_term",
    "parse_script",
    # typecheck
    "apply_sort",
    "check",
    "check_script",
    "is_builtin_operator",
    "well_sorted",
    # linarith
    "LinearForm",
    "linear_form",
    "difference_form",
    # simplify
    "simplify",
    "simplify_script",
    # cnf
    "CnfFormula",
    "TseitinEncoder",
    "tseitin",
    "is_connective",
    # evaluate
    "evaluate",
    "evaluate_value",
    "FunctionInterpretation",
    "fold_apply",
    # printer
    "symbol_to_smtlib",
    "sort_to_smtlib",
    "constant_to_smtlib",
    "term_to_smtlib",
    "command_to_smtlib",
    "script_to_smtlib",
]
