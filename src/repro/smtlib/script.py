"""SMT-LIB scripts: commands plus the declaration context they build up.

A :class:`Script` is an immutable sequence of :class:`Command` nodes.  The
command set covers what the fuzzing substrate generates and consumes:
``set-logic``, ``set-option``, ``set-info``, ``declare-sort``,
``declare-fun``, ``declare-const``, ``define-fun``, ``assert``,
``check-sat``, ``get-model``, ``push``/``pop`` and ``exit``.

:class:`DeclarationContext` tracks the sorts and function signatures a
script declares, with a scope stack mirroring ``push``/``pop``.  The parser
uses it to resolve symbol occurrences to sorted :class:`~repro.smtlib.terms.Symbol`
nodes, and the type checker uses it to validate free symbols.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from ..errors import SortError
from .sorts import BOOL, Sort
from .terms import Term


# ---------------------------------------------------------------------------
# Function signatures and the declaration context.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FunSignature:
    """Rank of a declared or defined function: parameter sorts and result."""

    params: tuple[Sort, ...]
    result: Sort

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", tuple(self.params))

    @property
    def arity(self) -> int:
        return len(self.params)


class DeclarationContext:
    """Mutable symbol table for sorts and functions with push/pop scopes.

    Each scope level is a pair of dicts (sorts: name → arity, funs: name →
    :class:`FunSignature`).  Lookup walks from the innermost scope outward,
    so ``pop`` discards exactly the declarations made since the matching
    ``push`` — the SMT-LIB assertion-stack semantics.
    """

    def __init__(self) -> None:
        self._sort_scopes: list[dict[str, int]] = [{}]
        self._fun_scopes: list[dict[str, FunSignature]] = [{}]

    # -- scope management ---------------------------------------------------

    @property
    def depth(self) -> int:
        """Number of open scopes (1 when no ``push`` is active)."""
        return len(self._fun_scopes)

    def push(self, levels: int = 1) -> None:
        for _ in range(levels):
            self._sort_scopes.append({})
            self._fun_scopes.append({})

    def pop(self, levels: int = 1) -> None:
        if levels >= self.depth:
            raise SortError(f"cannot pop {levels} scope level(s) at depth {self.depth}")
        for _ in range(levels):
            self._sort_scopes.pop()
            self._fun_scopes.pop()

    def copy(self) -> "DeclarationContext":
        clone = DeclarationContext()
        clone._sort_scopes = [dict(scope) for scope in self._sort_scopes]
        clone._fun_scopes = [dict(scope) for scope in self._fun_scopes]
        return clone

    # -- sorts --------------------------------------------------------------

    def declare_sort(self, name: str, arity: int = 0) -> None:
        if self.sort_arity(name) is not None:
            raise SortError(f"sort {name!r} is already declared")
        self._sort_scopes[-1][name] = int(arity)

    def sort_arity(self, name: str) -> Optional[int]:
        """Arity of a declared sort, or ``None`` when not declared."""
        for scope in reversed(self._sort_scopes):
            if name in scope:
                return scope[name]
        return None

    # -- functions ----------------------------------------------------------

    def declare_fun(self, name: str, params: tuple[Sort, ...], result: Sort) -> None:
        # Like declare_sort, redeclaration is rejected at ANY visible scope
        # level: cvc5 refuses to re-declare an in-scope symbol, and the
        # fuzzing pipeline must not accept scripts the target solver rejects.
        if self.lookup_fun(name) is not None:
            raise SortError(f"function {name!r} is already declared")
        self._fun_scopes[-1][name] = FunSignature(tuple(params), result)

    def declare_const(self, name: str, sort: Sort) -> None:
        self.declare_fun(name, (), sort)

    def lookup_fun(self, name: str) -> Optional[FunSignature]:
        for scope in reversed(self._fun_scopes):
            if name in scope:
                return scope[name]
        return None


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------


class Command:
    """Base class of all script commands."""

    def __str__(self) -> str:
        from .printer import command_to_smtlib

        return command_to_smtlib(self)


@dataclass(frozen=True)
class SetLogic(Command):
    """``(set-logic QF_ALL)``"""

    logic: str


@dataclass(frozen=True)
class SetOption(Command):
    """``(set-option :produce-models true)`` — value kept as raw text."""

    keyword: str
    value: str


@dataclass(frozen=True)
class SetInfo(Command):
    """``(set-info :status sat)`` — value kept as raw text."""

    keyword: str
    value: str


@dataclass(frozen=True)
class DeclareSort(Command):
    """``(declare-sort S 0)``"""

    name: str
    arity: int = 0


@dataclass(frozen=True)
class DeclareFun(Command):
    """``(declare-fun f (Int Int) Bool)``"""

    name: str
    params: tuple[Sort, ...]
    result: Sort

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", tuple(self.params))

    @property
    def signature(self) -> FunSignature:
        return FunSignature(self.params, self.result)


@dataclass(frozen=True)
class DeclareConst(Command):
    """``(declare-const x Int)``"""

    name: str
    sort: Sort


@dataclass(frozen=True)
class DefineFun(Command):
    """``(define-fun f ((x Int)) Int (+ x 1))``"""

    name: str
    params: tuple[tuple[str, Sort], ...]
    result: Sort
    body: Term

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", tuple((n, s) for n, s in self.params))

    @property
    def signature(self) -> FunSignature:
        return FunSignature(tuple(s for _, s in self.params), self.result)


@dataclass(frozen=True)
class Assert(Command):
    """``(assert term)`` or ``(assert (! term :named name))``.

    ``name``, when set, is the assertion's label for unsat cores: SMT-LIB
    treats it as a fresh 0-ary ``Bool`` symbol aliasing the term, and
    ``(get-unsat-core)`` reports a subset of these names."""

    term: Term
    name: Optional[str] = None


@dataclass(frozen=True)
class CheckSat(Command):
    """``(check-sat)``"""


@dataclass(frozen=True)
class GetModel(Command):
    """``(get-model)``"""


@dataclass(frozen=True)
class GetUnsatCore(Command):
    """``(get-unsat-core)``"""


@dataclass(frozen=True)
class GetValue(Command):
    """``(get-value (t1 t2 ...))``"""

    terms: tuple[Term, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(self.terms))


@dataclass(frozen=True)
class Push(Command):
    """``(push n)``"""

    levels: int = 1


@dataclass(frozen=True)
class Pop(Command):
    """``(pop n)``"""

    levels: int = 1


@dataclass(frozen=True)
class Exit(Command):
    """``(exit)``"""


# ---------------------------------------------------------------------------
# Scripts.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Script:
    """An immutable sequence of commands forming one SMT-LIB script."""

    commands: tuple[Command, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "commands", tuple(self.commands))

    def __iter__(self) -> Iterator[Command]:
        return iter(self.commands)

    def __len__(self) -> int:
        return len(self.commands)

    # -- structural queries -------------------------------------------------

    @property
    def logic(self) -> Optional[str]:
        """The logic named by the first ``set-logic`` command, if any."""
        for command in self.commands:
            if isinstance(command, SetLogic):
                return command.logic
        return None

    def assertions(self) -> list[Term]:
        """The asserted terms, in script order."""
        return [command.term for command in self.commands if isinstance(command, Assert)]

    def map_assertions(self, transform) -> "Script":
        """A new script with every asserted term rewritten by ``transform``.

        ``transform`` receives each :class:`~repro.smtlib.terms.Term` from an
        ``assert`` and must return a ``Bool``-sorted replacement; all other
        commands are kept as-is.  With hash-consed terms, an identity
        transform returns a script whose commands compare equal cheaply.
        """
        commands = tuple(
            Assert(transform(command.term), command.name)
            if isinstance(command, Assert)
            else command
            for command in self.commands
        )
        return Script(commands)

    # -- rendering ----------------------------------------------------------

    def to_smtlib(self) -> str:
        from .printer import script_to_smtlib

        return script_to_smtlib(self)

    def __str__(self) -> str:
        return self.to_smtlib()


def apply_command(command: Command, context: DeclarationContext) -> None:
    """Fold one command's declaration effect into ``context``.

    Non-declaring commands (``assert``, ``check-sat`` ...) are no-ops here;
    the parser calls this after interpreting each command so later commands
    see earlier declarations.
    """
    if isinstance(command, Assert):
        if command.name is not None:
            # A ``:named`` annotation declares its label as a fresh 0-ary
            # Bool symbol (SMT-LIB 2.6 §4.1.5); routing it through
            # ``declare_fun`` gets scoping and freshness checks for free.
            context.declare_fun(command.name, (), BOOL)
    elif isinstance(command, DeclareSort):
        context.declare_sort(command.name, command.arity)
    elif isinstance(command, DeclareFun):
        context.declare_fun(command.name, command.params, command.result)
    elif isinstance(command, DeclareConst):
        context.declare_const(command.name, command.sort)
    elif isinstance(command, DefineFun):
        context.declare_fun(command.name, tuple(s for _, s in command.params), command.result)
    elif isinstance(command, Push):
        context.push(command.levels)
    elif isinstance(command, Pop):
        context.pop(command.levels)


__all__ = [
    "FunSignature",
    "DeclarationContext",
    "Command",
    "SetLogic",
    "SetOption",
    "SetInfo",
    "DeclareSort",
    "DeclareFun",
    "DeclareConst",
    "DefineFun",
    "Assert",
    "CheckSat",
    "GetModel",
    "GetUnsatCore",
    "GetValue",
    "Push",
    "Pop",
    "Exit",
    "Script",
    "apply_command",
]
