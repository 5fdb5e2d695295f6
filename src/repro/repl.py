"""An interactive read-check-eval loop for RTR.

``python -c "from repro.repl import repl; repl()"`` (or build your own
front end on :class:`Session`).  Each input is type checked against the
session's accumulated definitions before it is evaluated, so the REPL
never executes an unsafe access; ill-typed input reports the paper-style
error box and leaves the session unchanged.

Directives:

* ``:type EXPR``  — show an expression's full type-result
* ``:env``        — list the definitions in scope
* ``:quit``       — leave
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .checker.check import Checker
from .checker.errors import CheckError
from .interp.eval import run_program
from .interp.values import RacketError, value_repr
from .logic.env import Env
from .logic.prove import Logic
from .sexp.reader import ReaderError, read_all
from .syntax.parser import ParseError, parse_program
from .syntax.ast import Program
from .tr.pretty import pretty_result, pretty_type
from .tr.subst import close_result
from .tr.types import Type

__all__ = ["Session", "repl"]


class Session:
    """Accumulates definitions; checks and runs each new input.

    ``logic`` is the engine every check runs on; ``None`` means the
    process-wide :func:`repro.checker.check.shared_logic`.
    """

    def __init__(self, logic: Optional[Logic] = None) -> None:
        self._forms: List[str] = []
        self._logic = logic

    # ------------------------------------------------------------------
    def _program_with(self, text: str) -> Program:
        return parse_program("\n".join(self._forms + [text]))

    def submit(self, text: str) -> List[str]:
        """Check + run one input; returns display lines.

        Raises ``ParseError``/``CheckError``/``RacketError`` without
        modifying the session.
        """
        program = self._program_with(text)
        Checker(logic=self._logic).check_program(program)
        _defs, results = run_program(program)
        # Committed: remember the input for future scope.
        self._forms.append(text)
        # Only the freshly-added body expressions produce output.
        previous = self._count_body(self._forms[:-1])
        return [value_repr(v) for v in results[previous:]]

    def _count_body(self, forms: List[str]) -> int:
        if not forms:
            return 0
        program = parse_program("\n".join(forms))
        return len(program.body)

    def type_of(self, text: str) -> str:
        """The type-result of an expression in the session scope."""
        program = self._program_with(text)
        checker = Checker(logic=self._logic)
        if not program.body:
            # a definition: check it and report the declared/computed type
            types = checker.check_program(program)
            name = parse_program(text).defines[-1].name
            return f"{name} : {pretty_type(types[name])}"
        types_env = self._seed_env(checker, program)
        result = checker.synth(types_env, program.body[-1])
        return pretty_result(close_result(result))

    def _seed_env(self, checker: Checker, program: Program) -> Env:
        from .checker.mutation import mutated_variables
        from .tr.props import IsType
        from .tr.objects import Var

        checker._mutated = mutated_variables(program)
        env = Env()
        types = checker.check_program(
            Program(program.defines, ())
        )
        for name, ty in types.items():
            env = checker.logic.extend(env, IsType(Var(name), ty))
        return env

    def names(self) -> List[str]:
        if not self._forms:
            return []
        return [d.name for d in parse_program("\n".join(self._forms)).defines]


def repl(input_fn=input, print_fn=print) -> None:  # pragma: no cover - thin loop
    """Run the interactive loop (dependency-injectable for tests)."""
    session = Session()
    print_fn("λRTR — Occurrence Typing Modulo Theories (PLDI 2016)")
    print_fn('type :quit to exit, :type EXPR for types, :env for scope\n')
    while True:
        try:
            line = input_fn("rtr> ")
        except EOFError:
            break
        line = line.strip()
        if not line:
            continue
        if line in (":quit", ":q"):
            break
        try:
            if line == ":env":
                names = session.names()
                print_fn("  " + (", ".join(names) if names else "(empty)"))
            elif line.startswith(":type "):
                print_fn("  " + session.type_of(line[len(":type "):]))
            else:
                for rendered in session.submit(line):
                    print_fn(rendered)
        except (ReaderError, ParseError, CheckError, RacketError) as exc:
            print_fn(f"error: {exc}")
