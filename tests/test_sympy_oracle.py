"""An oracle for the quantum layer that shares no arithmetic with ncalg.

Every expected value is computed with sympy's noncommutative symbols P, Q
and normal-ordered by the rewriting below: each Q*P becomes P*Q -
lambda*eps, until no term changes.  The single rule's left side QP
overlaps neither itself nor another left side, and each rewrite lowers the
number of (Q, P) inversions of a word, so by Bergman's diamond lemma
(G. M. Bergman, "The diamond lemma for ring theory", Adv. Math. 29 (1978)
178-218) the rewriting terminates in the same normal form, a combination
of the words P^m Q^n, whatever the order of the rewrites.  The letters q
and p of the four-letter alphabet are commuting sympy symbols.

The oplax values are only read, term by term, and rebuilt as sympy
expressions, with the radical r taken as sqrt(2 p0).

The classical operadic Lax equation gets an oracle of its own: sympy
symbols go through lax.mu_slots, the one statement of the family, and the
derivative along the flow and the bracket with M are sympy's and the index
formula's, not oplax's.  The paper's deformation table goes through
bianchi.deformation_closed_form, its one statement: over sympy symbols it
is lax.mu_slots at the Bianchi rows' C, and over sympy operators it is the
structure that q_structure builds in ncalg.
"""

from itertools import product

import pytest

sp = pytest.importorskip("sympy")

from oplax import bianchi, lax  # noqa: E402
from oplax import qjacobi as qj  # noqa: E402
from oplax.bianchi import BianchiType  # noqa: E402
from oplax.ncalg import SYMBOLS  # noqa: E402
from oplax.oscillator import HOParams, PhasePoint  # noqa: E402

P, Q = sp.symbols("P Q", commutative=False)
# the letters q and p of the four-letter alphabet commute with everything
q_, p_ = sp.symbols("q p")
LETTERS = {"P": P, "Q": Q, "q": q_, "p": p_}
SYM = {name: sp.Symbol(name, positive=True) for name in SYMBOLS}
SYM["lambda"] = sp.Symbol("lambda")  # hbar/i, not a positive real
SYM["r"] = sp.sqrt(2 * SYM["p0"])
LAM, EPS, OMEGA, A, DELTA, P0 = (SYM[n] for n in
                                 ("lambda", "eps", "omega", "a", "Delta",
                                  "p0"))

P_OP = (P * P - Q * Q) / 2
OMEGA_Q_OP = (P * Q + Q * P) / 2
H_OP = (P * P + Q * Q) / 2
# (p, omega*q) of each alphabet: with two letters, p = (P^2 - Q^2)/2 and
# omega*q = (PQ + QP)/2; with four, the letters p and q
OPERATORS = {"PQ": (P_OP, OMEGA_Q_OP), "qpPQ": (p_, OMEGA * q_)}
ON_SHELL = {EPS: OMEGA / (2 * P0)}

LABELS = (BianchiType.VIIA, BianchiType.IIIA1, BianchiType.VIA)
ALPHABETS = tuple(OPERATORS)


# mu^1_12, mu^2_12, mu^3_12, mu^1_23, mu^2_23, mu^3_23, mu^1_31, mu^2_31,
# mu^3_31 as (i, j, k), 0-based: the order of the nine values of mu_slots
LAX_SLOTS = ((0, 0, 1), (1, 0, 1), (2, 0, 1), (0, 1, 2), (1, 1, 2),
             (2, 1, 2), (0, 2, 0), (1, 2, 0), (2, 2, 0))


def a_of(btype):
    """The parameter a of the type, 1 for III_{a=1}."""
    return 1 if btype is BianchiType.IIIA1 else A


def letters_of(term) -> list:
    """The noncommutative factors of one product, powers spelled out."""
    out = []
    for factor in term.args_cnc()[1]:
        base, exp = factor.as_base_exp()
        out += [base] * int(exp)
    return out


def normal_order(expr):
    """Rewrite Q*P -> P*Q - lambda*eps until no term changes."""
    expr = sp.expand(expr)
    while True:
        terms, changed = [], False
        for term in sp.Add.make_args(expr):
            word = letters_of(term)
            for i in range(len(word) - 1):
                if (word[i], word[i + 1]) == (Q, P):
                    scalar = sp.Mul(*term.args_cnc()[0])
                    before, after = sp.Mul(*word[:i]), sp.Mul(*word[i + 2:])
                    term = scalar * before * (P * Q - LAM * EPS) * after
                    changed = True
                    break
            terms.append(term)
        expr = sp.expand(sp.Add(*terms))
        if not changed:
            return expr


def scalar_of(c):
    """A CoeffPoly, read term by term."""
    return sp.Add(*(sp.Rational(q.numerator, q.denominator)
                    * sp.Mul(*(SYM[n] ** e for n, e in zip(SYMBOLS, exps)))
                    for exps, q in c.terms.items()))


def operator_of(x):
    """An NCPoly, read term by term."""
    return sp.Add(*(scalar_of(c) * sp.Mul(*(LETTERS[w] for w in word))
                    for word, c in x.terms.items()))


def assert_same(got, expected):
    diff = sp.expand(got - expected)
    assert diff == 0 or sp.simplify(diff) == 0, (got, expected)


def oracle_xi(alphabet="PQ"):
    p_op, wq_op = OPERATORS[alphabet]
    return (normal_order(wq_op * Q + (p_op - P0) * P),
            normal_order(wq_op * P - (p_op + P0) * Q))


def closed_form_coefficients(btype):
    """-(a Delta / (r p0)) and a^2 Delta / p0: the claimed Jacobiator is
    J^{1,2} = the first times xi^{1,2} and J^3 = the second times PQ - QP."""
    a = a_of(btype)
    return -(a * DELTA / (SYM["r"] * P0)), a * a * DELTA / P0


def oracle_closed_form(btype, alphabet="PQ"):
    coef, coef3 = closed_form_coefficients(btype)
    return [coef * xi for xi in oracle_xi(alphabet)] + [
        coef3 * normal_order(P * Q - Q * P)]


def oracle_jacobi(btype):
    """The semiclassical Jacobiator, the closed form of the two-letter
    alphabet, and its form at H = E."""
    coef, _ = closed_form_coefficients(btype)
    semi = oracle_closed_form(btype)
    at_he = []
    for xi, letter in zip(oracle_xi(), (P, Q)):
        # xi = letter * H + a part linear in the letters; H = E puts p0
        # where the energy operator stands
        rest = normal_order(xi - letter * H_OP)
        assert all(len(letters_of(t)) <= 1 for t in sp.Add.make_args(rest))
        at_he.append(coef * sp.expand((rest + letter * P0).subs(ON_SHELL)))
    at_he.append(semi[2].subs(ON_SHELL))
    return semi, at_he


def bracket_on_shell(x, y):
    # the swaps bring fresh eps factors, reduced after ordering
    return normal_order(x * y - y * x).subs(ON_SHELL)


def test_xi_normal_forms():
    for alphabet in ALPHABETS:
        for got, expected in zip(qj.xi_polys(qj.table_for(alphabet)),
                                 oracle_xi(alphabet)):
            assert_same(operator_of(got), expected)


def test_rewriting_reaches_the_ordered_basis():
    expr = normal_order(Q * Q * P * Q * P)
    for term in sp.Add.make_args(expr):
        word = letters_of(term)
        assert word == sorted(word, key=lambda x: x != P)
    assert_same(expr, P * P * Q * Q * Q - 5 * LAM * EPS * P * Q * Q
                + 4 * LAM ** 2 * EPS ** 2 * Q)


@pytest.mark.parametrize("btype", LABELS)
def test_semiclassical_and_h_equals_e_components(btype):
    semi, at_he = oracle_jacobi(btype)
    for got, expected in zip(qj.semiclassical_jacobi(btype), semi):
        assert_same(operator_of(got), expected)
    for got, expected in zip(qj.corollary_HE(btype), at_he):
        assert_same(operator_of(got), expected)


@pytest.mark.parametrize("btype", LABELS)
def test_derivative_algebra_constants(btype):
    j1, j2, j3 = oracle_jacobi(btype)[1]
    C = sp.simplify(bracket_on_shell(j1, j2) / j3)
    e1, e2, e3 = -DELTA * j3, -DELTA * j1, -DELTA * j2
    beta_sq = sp.simplify(bracket_on_shell(e2, e3) / e1)
    assert_same(C, LAM ** 2 * OMEGA ** 2 * DELTA / (32 * P0 ** 4))
    assert_same(beta_sq, -C * DELTA)
    da = qj.derivative_algebra(qj.corollary_HE(btype))
    assert_same(scalar_of(da.C), C)
    assert_same(scalar_of(da.beta_sq), beta_sq)


def oracle_structure(btype, alphabet="PQ"):
    """mu^i_jk from the letters: the nine entries of the paper's table,
    bianchi.deformation_closed_form over sympy operators, by (i, j, k), and
    their negatives at the transposed lower indices."""
    p_op, wq_op = OPERATORS[alphabet]
    entries = bianchi.deformation_closed_form(
        btype, a_of(btype), P0, SYM["r"], wq_op, p_op, Q, P)
    mu = {}
    for (i, j, k), value in zip(LAX_SLOTS, entries, strict=True):
        mu[i, j, k], mu[i, k, j] = value, -value
    return lambda i, j, k: mu.get((i, j, k), 0)


@pytest.mark.parametrize("btype", LABELS)
def test_deformation_table_is_the_operadic_family(btype):
    """lax.mu_slots at the C that solve_C's formula gives for the Bianchi
    row, over sympy symbols with r = sqrt(2 p0), is the paper's table at
    every phase point."""
    a, r = a_of(btype), SYM["r"]
    wq, p, Q_, P_ = sp.symbols("wq p Q P")
    C = lax._params_of(bianchi._row_tensor(btype, a), P0, r)
    family = lax.mu_slots(C, 1, wq, p, Q_, P_)
    table = bianchi.deformation_closed_form(btype, a, P0, r, wq, p, Q_, P_)
    for got, expected in zip(family, table, strict=True):
        assert sp.simplify(got - expected) == 0, (got, expected)


@pytest.mark.parametrize("alphabet", ALPHABETS)
@pytest.mark.parametrize("btype", LABELS)
def test_structure_entry_by_entry(btype, alphabet):
    """All 27 entries of q_structure, which is lax.mu_slots over operators,
    are the paper's table."""
    mu = oracle_structure(btype, alphabet)
    qsc = qj.q_structure(btype, qj.table_for(alphabet))
    for i, j, k in product(range(3), repeat=3):
        assert_same(operator_of(qsc[i][j][k]), normal_order(mu(i, j, k)))


def oracle_jacobiator(btype, conv, abc=(0, 1, 2), alphabet="PQ"):
    """J(e_a, e_b, e_c) = [e_a, [e_b, e_c]] + [e_b, [e_c, e_a]] +
    [e_c, [e_a, e_b]] for abc = (a, b, c), 0-based:
    [e_a, [e_b, e_c]]^i = sum_k mu^i_ak mu^k_bc with mu on the left of the
    operator component, or mu^k_bc mu^i_ak with mu on its right."""
    mu = oracle_structure(btype, alphabet)
    x, y, z = abc
    out = []
    for i in range(3):
        total = 0
        for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
            for k in range(3):
                outer, inner = mu(i, a, k), mu(k, b, c)
                total += outer * inner if conv == "left" else inner * outer
        out.append(normal_order(total))
    return out


@pytest.mark.parametrize("btype", LABELS)
def test_quantum_theorem_both_conventions(btype):
    """In both alphabets, the left convention gives the closed form at
    Delta = 1 exactly, and oplax certifies it; the right convention leaves
    oplax's residual, which is (J(e1, e2, e3) - closed form) Delta with
    Delta the symbol of the determinant."""
    for alphabet in ALPHABETS:
        closed = [c.subs(DELTA, 1)
                  for c in oracle_closed_form(btype, alphabet)]
        left = oracle_jacobiator(btype, "left", alphabet=alphabet)
        for got, expected in zip(left, closed):
            assert_same(got, expected)
        assert qj.verify_theorem_q(btype, "left", alphabet).all_exact
        right = oracle_jacobiator(btype, "right", alphabet=alphabet)
        rep = qj.verify_theorem_q(btype, "right", alphabet)
        assert not rep.all_exact
        for got, expected, residual in zip(right, closed, rep.residuals):
            assert_same(operator_of(residual), (got - expected) * DELTA)


@pytest.mark.parametrize("btype", LABELS)
def test_jacobiator_tensor_is_alternating(btype):
    """The factor D: in both conventions and alphabets J(e_a, e_b, e_c) is
    0 whenever an index repeats and changes sign when (1, 2, 3) becomes
    (1, 3, 2), so the trilinear J(x, y, z) is D J(e1, e2, e3).  J(e1, e2,
    e3) equals q_jacobiator divided by 32 p0."""
    orbits = sorted({min((a, b, c), (b, c, a), (c, a, b))
                     for a, b, c in product(range(3), repeat=3)})
    for conv, alphabet in product(("left", "right"), ALPHABETS):
        oracle = {abc: oracle_jacobiator(btype, conv, abc, alphabet)
                  for abc in orbits}
        for abc in orbits:
            if len(set(abc)) < 3:
                assert oracle[abc] == [0, 0, 0], (conv, abc)
        for odd, even in zip(oracle[0, 2, 1], oracle[0, 1, 2]):
            assert even != 0
            assert_same(odd, -even)
        J = qj.q_jacobiator(qj.q_structure(btype, qj.table_for(alphabet)),
                            conv)
        for got, expected in zip(J, oracle[0, 1, 2], strict=True):
            assert_same(operator_of(got) / (32 * P0), expected)


def oracle_lax():
    """mu from lax.mu_slots on symbols, as a dict over (i, j, k), with
    q, p, Q, P functions of t, and the flow q' = p, p' = -omega^2 q,
    Q' = (omega/2) P, P' = -(omega/2) Q as a substitution of derivatives."""
    t, w = sp.Symbol("t"), SYM["omega"]
    C = sp.symbols("c1:10")
    q, p, Q_, P_ = (sp.Function(n)(t) for n in ("q", "p", "Q", "P"))
    flow = {q.diff(t): p, p.diff(t): -w ** 2 * q,
            Q_.diff(t): w * P_ / 2, P_.diff(t): -w * Q_ / 2}
    mu = {}
    for (i, j, k), value in zip(LAX_SLOTS, lax.mu_slots(C, w, q, p, Q_, P_),
                                strict=True):
        mu[i, j, k], mu[i, k, j] = value, -value
    point = PhasePoint(t=t, q=q, p=p, Q=Q_, P=P_, H=None)
    return C, w, point, flow, mu


def test_operadic_lax_equation():
    """dmu/dt = [M, mu] for every C, omega and point: all 27 components of
    [M, mu]^i_jk = M^i_s mu^s_jk - mu^i_sk M^s_j - mu^i_js M^s_k, with
    M = (omega/2) [[0, -1, 0], [1, 0, 0], [0, 0, 0]], match sympy's
    derivative along the flow, and lax.mu_time_derivative is that
    derivative."""
    C, w, point, flow, mu = oracle_lax()
    M = sp.Matrix([[0, -1, 0], [1, 0, 0], [0, 0, 0]]) * w / 2

    def m(i, j, k):
        return mu.get((i, j, k), 0)

    oplax_dmu = lax.mu_time_derivative(C, HOParams(w, SYM["p0"]), point)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                bracket = sum(M[i, s] * m(s, j, k) - m(i, s, k) * M[s, j]
                              - m(i, j, s) * M[s, k] for s in range(3))
                derivative = sp.diff(m(i, j, k), point.t).subs(flow)
                assert sp.expand(derivative - bracket) == 0, (i, j, k)
                assert sp.expand(oplax_dmu[i][j][k] - derivative) == 0


def lax_grid_premise() -> bool:
    """The premise of the lax suite's operadic_lax_analytic grid, at plain
    symbols q, p, Q, P: each lax.mu_slots entry is linear homogeneous in
    c1..c9, of total degree <= 1 in (q, p, Q, P) and of degree <= 1 in
    omega, and each lax.mu_time_derivative entry is of degree <= 2 in
    omega.  Then dmu/dt - [M, mu] is linear in C, affine in the point and
    of degree <= 2 in omega, so the grid's 135 zeros prove it zero."""
    C, w, point, _, mu = oracle_lax()
    plain = dict(zip(point[1:5], sp.symbols("q p Q P")))
    dmu = lax.mu_time_derivative(C, HOParams(w, SYM["p0"]), point)

    def poly(entry, *gens):
        return sp.Poly(sp.sympify(entry).subs(plain), *gens)

    return all(
        poly(entry, *C).homogeneous_order() == 1
        and poly(entry, *plain.values()).total_degree() <= 1
        and poly(entry, w).degree() <= 1 for entry in mu.values()) and all(
        poly(entry, w).degree() <= 2
        for plane in dmu for row in plane for entry in row)


def test_lax_grid_premise():
    assert lax_grid_premise()


# mu^1_12 = c5 P + c6 Q replaced, one premise broken each: c5^3 P + c6 Q is
# not linear in C, but equals the real entry at each unit C vector, so the
# grid cannot see it; c5 P Q + c6 Q is of degree 2 in the point; c5 w p +
# c6 Q is of degree 1 in omega, but its derivative, through pdot = -w^2 q,
# of degree 3
MU1_12_MUTANTS = {
    "cubed_c5": lambda c, w, q, p, Q, P: c[4] ** 3 * P + c[5] * Q,
    "quadratic_point": lambda c, w, q, p, Q, P: c[4] * P * Q + c[5] * Q,
    "omega_p": lambda c, w, q, p, Q, P: c[4] * w * p + c[5] * Q,
}


@pytest.mark.parametrize("mutant", MU1_12_MUTANTS.values(),
                         ids=MU1_12_MUTANTS)
def test_lax_grid_premise_fails_on_mutants(mutant, monkeypatch):
    """mu_time_derivative reads the mutant too."""
    real = lax.mu_slots
    monkeypatch.setattr(lax, "mu_slots",
                        lambda *args: (mutant(*args),) + real(*args)[1:])
    assert not lax_grid_premise()


def test_lax_flow_keeps_the_quasi_canonical_constraints():
    """Along the oracle's flow the derivative of each constraint is a
    multiple of the other, so a point on P^2 - Q^2 = 2p, QP = omega q stays
    there."""
    _, w, pt, flow, _ = oracle_lax()
    c1 = pt.P ** 2 - pt.Q ** 2 - 2 * pt.p
    c2 = pt.Q * pt.P - w * pt.q
    assert sp.expand(c1.diff(pt.t).subs(flow) + 2 * w * c2) == 0
    assert sp.expand(c2.diff(pt.t).subs(flow) - w * c1 / 2) == 0
