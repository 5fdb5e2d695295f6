"""Tests for bit-blasting: encoded operations match Python semantics.

The blaster folds constants at gate level, so operations on constant
operands alone emit no gate clauses.  The gates themselves are checked
by the exhaustive fold tables, by the pinned-variable tests (variable
bits fixed by unit clauses, mixed with constants) and by the width-8
theory oracle, which compares bitvector entailment with brute force.
"""

import itertools

from hypothesis import assume, given, settings, strategies as st

from repro.solvers.bitblast import BitBlaster
from repro.solvers.sat import IncrementalSatSolver, solve
from repro.theories.bitvec import BitvectorTheory
from repro.tr.objects import BVExpr, Var, lin_add, lin_scale, obj_int
from repro.tr.props import BVProp, LeqZero, lin_le

WIDTH = 8
_bytes = st.integers(0, 255)


def _assert_equals_value(blaster, bits, value):
    """Assert 'bits == value' is forced, by checking the negation UNSAT."""
    expected = blaster.constant(value % (1 << len(bits)), len(bits))
    eq = blaster.bv_eq(bits, expected)
    blaster.assert_lit(-eq)
    assert not blaster.check_sat()


@settings(max_examples=60, deadline=None)
@given(_bytes, _bytes)
def test_and(a, b):
    blaster = BitBlaster()
    result = blaster.bv_and(blaster.constant(a, WIDTH), blaster.constant(b, WIDTH))
    _assert_equals_value(blaster, result, a & b)


@settings(max_examples=60, deadline=None)
@given(_bytes, _bytes)
def test_or(a, b):
    blaster = BitBlaster()
    result = blaster.bv_or(blaster.constant(a, WIDTH), blaster.constant(b, WIDTH))
    _assert_equals_value(blaster, result, a | b)


@settings(max_examples=60, deadline=None)
@given(_bytes, _bytes)
def test_xor(a, b):
    blaster = BitBlaster()
    result = blaster.bv_xor(blaster.constant(a, WIDTH), blaster.constant(b, WIDTH))
    _assert_equals_value(blaster, result, a ^ b)


@settings(max_examples=60, deadline=None)
@given(_bytes, _bytes)
def test_add_mod_256(a, b):
    blaster = BitBlaster()
    result = blaster.bv_add(blaster.constant(a, WIDTH), blaster.constant(b, WIDTH))
    _assert_equals_value(blaster, result, (a + b) % 256)


@settings(max_examples=30, deadline=None)
@given(_bytes, _bytes)
def test_mul_mod_256(a, b):
    blaster = BitBlaster()
    result = blaster.bv_mul(blaster.constant(a, WIDTH), blaster.constant(b, WIDTH))
    _assert_equals_value(blaster, result, (a * b) % 256)


@settings(max_examples=40, deadline=None)
@given(_bytes, st.integers(0, 7))
def test_shifts(a, k):
    blaster = BitBlaster()
    shl = blaster.bv_shl(blaster.constant(a, WIDTH), k)
    _assert_equals_value(blaster, shl, (a << k) % 256)
    blaster2 = BitBlaster()
    shr = blaster2.bv_lshr(blaster2.constant(a, WIDTH), k)
    _assert_equals_value(blaster2, shr, a >> k)


@settings(max_examples=60, deadline=None)
@given(_bytes, _bytes)
def test_comparisons(a, b):
    blaster = BitBlaster()
    av, bv = blaster.constant(a, WIDTH), blaster.constant(b, WIDTH)
    lt = blaster.bv_ult(av, bv)
    le = blaster.bv_ule(av, bv)
    eq = blaster.bv_eq(av, bv)
    blaster.assert_lit(lt if a < b else -lt)
    blaster.assert_lit(le if a <= b else -le)
    blaster.assert_lit(eq if a == b else -eq)
    assert blaster.check_sat()


def test_not_within_width():
    blaster = BitBlaster()
    result = blaster.bv_not(blaster.constant(0b10100101, WIDTH))
    _assert_equals_value(blaster, result, 0b01011010)


def test_variables_are_cached():
    blaster = BitBlaster()
    a1 = blaster.variable("x", WIDTH)
    a2 = blaster.variable("x", WIDTH)
    assert a1 == a2


def test_free_variable_comparison_is_satisfiable_both_ways():
    blaster = BitBlaster()
    x = blaster.variable("x", WIDTH)
    limit = blaster.constant(100, WIDTH)
    lt = blaster.bv_ult(x, limit)
    blaster.assert_lit(lt)
    assert blaster.check_sat()  # some x < 100 exists


def test_xtime_invariant_via_blasting():
    """The AES xtime core: ((2n) & 0xff) ^ 0x1b stays within a byte."""
    blaster = BitBlaster()
    width = 16
    n = blaster.variable("num", width)
    blaster.assert_lit(blaster.bv_ule(n, blaster.constant(255, width)))
    doubled = blaster.bv_mul(n, blaster.constant(2, width))
    masked = blaster.bv_and(doubled, blaster.constant(0xFF, width))
    xored = blaster.bv_xor(masked, blaster.constant(0x1B, width))
    over = blaster.bv_ult(blaster.constant(255, width), xored)
    blaster.assert_lit(over)  # claim: result can exceed 255
    assert not blaster.check_sat()  # refuted


# ----------------------------------------------------------------------
# gate-level folding: every input pattern, every assignment
# ----------------------------------------------------------------------


def _forced(blaster, out, inputs, expected):
    """Under every assignment of ``inputs``, is ``out`` forced to ``expected``?"""
    for values in itertools.product((False, True), repeat=len(inputs)):
        units = [[var if value else -var] for var, value in zip(inputs, values)]
        want = expected(dict(zip(inputs, values)))
        wrong = [[-out if want else out]]
        if solve(blaster.clauses + units + wrong).sat:
            return False
    return True


def _value(lit, assignment, true_lit):
    if abs(lit) == true_lit:
        return lit > 0
    return assignment[abs(lit)] == (lit > 0)


def _gate_table(arity, gate, semantics, expected_clauses):
    """Run ``gate`` on every ``arity``-tuple of ⊤, ⊥, x, ¬x, y, ¬y, z.

    ``expected_clauses(args, ⊤)`` is the clause count the fold rules
    predict: 0 for a folded gate, the Tseitin count otherwise.
    """
    probe = BitBlaster()
    t = probe.true_lit
    inputs = x, y, z = [probe.fresh() for _ in range(3)]
    pool = [t, -t, x, -x, y, -y, z]
    for args in itertools.product(pool, repeat=arity):
        blaster = BitBlaster()
        assert [blaster.fresh() for _ in inputs] == inputs
        before = len(blaster.clauses)
        out = getattr(blaster, gate)(*args)
        emitted = len(blaster.clauses) - before
        assert emitted == expected_clauses(args, t), (gate, args, emitted)
        if emitted == 0:
            assert abs(out) in (t, *inputs), (gate, args, out)

        def expected(assignment, args=args):
            return semantics(*(_value(a, assignment, t) for a in args))

        assert _forced(blaster, out, inputs, expected), (gate, args)


def _binary_cost(clauses):
    def cost(args, t):
        a, b = args
        if t in (abs(a), abs(b)) or abs(a) == abs(b):
            return 0
        return clauses
    return cost


def test_gate_and_folds_and_encodes():
    _gate_table(2, "gate_and", lambda a, b: a and b, _binary_cost(3))


def test_gate_or_folds_and_encodes():
    _gate_table(2, "gate_or", lambda a, b: a or b, _binary_cost(3))


def test_gate_xor_folds_and_encodes():
    _gate_table(2, "gate_xor", lambda a, b: a != b, _binary_cost(4))
    _gate_table(2, "gate_iff", lambda a, b: a == b, _binary_cost(4))


def test_gate_majority_folds_and_encodes():
    def cost(args, t):
        for i, lit in enumerate(args):
            if abs(lit) == t:
                rest = args[:i] + args[i + 1:]
                return _binary_cost(3)(rest, t)
        if len({abs(lit) for lit in args}) < 3:
            return 0
        return 6

    _gate_table(3, "gate_majority", lambda a, b, c: a + b + c >= 2, cost)


def test_gate_ite_folds_and_encodes():
    def cost(args, t):
        cond, then_lit, else_lit = args
        return 0 if abs(cond) == t or then_lit == else_lit else 4

    _gate_table(3, "gate_ite", lambda c, a, b: a if c else b, cost)


# ----------------------------------------------------------------------
# word level: pinned variables mixed with constants
# ----------------------------------------------------------------------

#: how the second operand relates to the first: a constant, a pinned
#: variable of its own, the first operand itself, or its complement
_KINDS = ("const", "var", "same", "not")


def _pinned(blaster, key, value):
    bits = blaster.variable(key, WIDTH)
    for i, bit in enumerate(bits):
        blaster.assert_lit(bit if (value >> i) & 1 else -bit)
    return bits


def _operands(blaster, a, b, a_const, b_kind):
    a_bits = blaster.constant(a, WIDTH) if a_const else _pinned(blaster, "a", a)
    if b_kind == "const":
        return a, a_bits, b, blaster.constant(b, WIDTH)
    if b_kind == "var":
        return a, a_bits, b, _pinned(blaster, "b", b)
    if b_kind == "same":
        return a, a_bits, a, a_bits
    return a, a_bits, a ^ 0xFF, blaster.bv_not(a_bits)


_WORD_OPS = {
    "and": ("bv_and", lambda a, b: a & b),
    "or": ("bv_or", lambda a, b: a | b),
    "xor": ("bv_xor", lambda a, b: a ^ b),
    "add": ("bv_add", lambda a, b: a + b),
    "mul": ("bv_mul", lambda a, b: a * b),
}
_PREDICATES = {
    "ult": ("bv_ult", lambda a, b: a < b),
    "ule": ("bv_ule", lambda a, b: a <= b),
    "eq": ("bv_eq", lambda a, b: a == b),
}


def _assert_forced(blaster, bits, value):
    """The pins are consistent and force ``bits == value``."""
    assert blaster.check_sat()
    _assert_equals_value(blaster, bits, value)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(sorted(_WORD_OPS)),
    _bytes,
    _bytes,
    st.booleans(),
    st.sampled_from(_KINDS),
)
def test_pinned_word_ops(op, a, b, a_const, b_kind):
    blaster = BitBlaster()
    a, a_bits, b, b_bits = _operands(blaster, a, b, a_const, b_kind)
    method, semantics = _WORD_OPS[op]
    before = len(blaster.clauses)
    result = getattr(blaster, method)(a_bits, b_bits)
    if not a_const and b_kind == "var":
        assert len(blaster.clauses) > before  # the unfolded gates ran
    _assert_forced(blaster, result, semantics(a, b) % 256)


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(sorted(_PREDICATES)),
    _bytes,
    _bytes,
    st.booleans(),
    st.sampled_from(_KINDS),
)
def test_pinned_predicates(op, a, b, a_const, b_kind):
    blaster = BitBlaster()
    a, a_bits, b, b_bits = _operands(blaster, a, b, a_const, b_kind)
    method, semantics = _PREDICATES[op]
    before = len(blaster.clauses)
    lit = getattr(blaster, method)(a_bits, b_bits)
    if not a_const and b_kind == "var":
        assert len(blaster.clauses) > before
    assert blaster.check_sat()
    blaster.assert_lit(-lit if semantics(a, b) else lit)
    assert not blaster.check_sat()


@settings(max_examples=40, deadline=None)
@given(_bytes, st.integers(0, 8))
def test_pinned_shifts(a, k):
    for method, value in (("bv_shl", (a << k) % 256), ("bv_lshr", a >> k)):
        blaster = BitBlaster()
        bits = _pinned(blaster, "a", a)
        _assert_forced(blaster, getattr(blaster, method)(bits, k), value)


# ----------------------------------------------------------------------
# clause-count pins
# ----------------------------------------------------------------------


def test_mul_by_one_returns_the_operand_and_adds_no_clause():
    blaster = BitBlaster()
    x = blaster.variable("x", 24)
    before = len(blaster.clauses)
    assert blaster.bv_mul(x, blaster.constant(1, 24)) == x
    assert blaster.bv_mul(blaster.constant(1, 24), x) == x
    assert len(blaster.clauses) == before


def test_add_zero_adds_no_clause():
    blaster = BitBlaster()
    x = blaster.variable("x", 24)
    before = len(blaster.clauses)
    assert blaster.bv_add(x, blaster.constant(0, 24)) == x
    assert len(blaster.clauses) == before


def test_context_refutation_ingests_a_tenth_of_the_unfolded_clauses(monkeypatch):
    """``0 ≤ x ≤ 255 ⊢ 2·x + 3 ≤ 600`` through a :class:`BitvectorContext`.

    Without gate-level folding the assumption prefix plus the goal's
    clause set sent 31,637 clauses to the SAT core; with folding they
    are 305.  The pin allows at most a tenth of the unfolded count.
    """
    ingested = []
    add_clauses = IncrementalSatSolver.add_clauses

    def counting(self, clauses):
        clauses = list(clauses)
        ingested.append(len(clauses))
        return add_clauses(self, clauses)

    monkeypatch.setattr(IncrementalSatSolver, "add_clauses", counting)
    x = Var("x")
    ctx = BitvectorTheory().context()
    ctx.assert_prop(lin_le(obj_int(0), x))
    ctx.assert_prop(lin_le(x, obj_int(255)))
    goal = lin_le(lin_add(lin_scale(2, x), obj_int(3)), obj_int(600))
    assert ctx.entails_batch([goal]) == [True]
    assert 0 < sum(ingested) <= 31_637 // 10


# ----------------------------------------------------------------------
# width-8 oracle: theory entailment equals brute force over the bytes
# ----------------------------------------------------------------------

_X, _Y = Var("x"), Var("y")
_BYTE_FACTS = [
    lin_le(obj_int(0), _X),
    lin_le(_X, obj_int(255)),
    lin_le(obj_int(0), _Y),
    lin_le(_Y, obj_int(255)),
]

#: a term is (bitvector object or int literal, Python expression over x, y)
_leaf = st.one_of(
    st.just((_X, "x")),
    st.just((_Y, "y")),
    _bytes.map(lambda c: (c, str(c))),
)
_INFIX = {"and": "&", "or": "|", "xor": "^", "add": "+", "mul": "*"}


def _binary(ops, operand):
    def build(parts):
        op, (a, a_src), (b, b_src) = parts
        return BVExpr(op, (a, b), 8), f"({a_src} {_INFIX[op]} {b_src})"

    return st.tuples(st.sampled_from(ops), operand, operand).map(build)


def _shift(operand):
    def build(parts):
        op, (a, a_src), k = parts
        infix = "<<" if op == "shl" else ">>"
        return BVExpr(op, (a, k), 8), f"({a_src} {infix} {k})"

    return st.tuples(st.sampled_from(("shl", "lshr")), operand, st.integers(0, 3)).map(
        build
    )


_negated = _leaf.map(lambda leaf: (BVExpr("not", (leaf[0],), 8), f"({leaf[1]} ^ 255)"))
# Products take leaves only, so every term stays far below 2^24 and is
# always grounded under the byte bounds.
_depth1 = st.one_of(
    _leaf, _binary(tuple(_INFIX), _leaf), _negated, _shift(_leaf)
)
_term = st.one_of(
    _depth1, _binary(("and", "or", "xor", "add"), _depth1), _shift(_depth1)
)


def _obj(term):
    value = term[0]
    return obj_int(value) if isinstance(value, int) else value


_COMPARE = {"=": "==", "≠": "!=", "≤": "<=", "<": "<", "≥": ">=", ">": ">"}


def _bv_atom():
    def build(parts):
        op, lhs, rhs = parts
        return BVProp(op, _obj(lhs), _obj(rhs), 8), f"{lhs[1]} {_COMPARE[op]} {rhs[1]}"

    return st.tuples(st.sampled_from(sorted(_COMPARE)), _term, _term).map(build)


def _linear_atom():
    def build(parts):
        const, summands = parts
        expr, src = obj_int(const), str(const)
        for coeff, term in summands:
            expr = lin_add(expr, lin_scale(coeff, _obj(term)))
            src += f" + {coeff} * {term[1]}"
        return lin_le(expr, obj_int(0)), f"{src} <= 0"

    coeffs = st.integers(-3, 3).filter(bool)
    return st.tuples(
        st.integers(-700, 700),
        st.lists(st.tuples(coeffs, _term), min_size=1, max_size=3),
    ).map(build)


_atom = st.one_of(_bv_atom(), _linear_atom())


def _valid(goal_src, fact_src):
    goal = eval(f"lambda x, y: {goal_src}")
    fact = eval(f"lambda x, y: {fact_src}")
    return all(
        goal(x, y) for x in range(256) for y in range(256) if fact(x, y)
    )


@settings(max_examples=60, deadline=None)
@given(st.lists(_atom, min_size=1, max_size=4), st.one_of(st.none(), _atom))
def test_width8_oracle_matches_brute_force(goals, fact):
    goals = [(prop, src) for prop, src in goals if isinstance(prop, (BVProp, LeqZero))]
    assume(goals)
    assumptions = list(_BYTE_FACTS)
    fact_src = "True"
    if fact is not None and isinstance(fact[0], (BVProp, LeqZero)):
        assumptions.append(fact[0])
        fact_src = fact[1]
    theory = BitvectorTheory()
    ctx = theory.context()
    for prop in assumptions:
        ctx.assert_prop(prop)
    batch = ctx.entails_batch([prop for prop, _ in goals])
    for (prop, src), batched in zip(goals, batch):
        truth = _valid(src, fact_src)
        assert theory.entails(assumptions, prop) == truth, (prop, fact)
        assert batched == truth, (prop, fact)
