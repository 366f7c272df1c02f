"""Output checks made apart from the program.

Each ``check_<workload>`` takes the operations of one pass and the text
each one printed, and returns ``{key: [problem, ...]}`` with an empty list
for every output that passed.  None of the checks compares against a
stored copy of earlier output:

* flow tables are recomputed from the closed-form oscillator flow with
  numpy, every deformed tensor from its own closed form along that flow,
  and the deformations are tested on shell (constraints, Jacobi identity
  by an einsum of our own, the Bianchi row at t = 0);
* quantum Jacobi reports are recomputed with sympy's noncommutative
  symbols, normal-ordered by our own rewriting QP -> PQ - lambda*eps;
* verify reports are parsed as strict JSON and every verdict and margin
  is checked; the Gerstenhaber bracket is spot-checked against an einsum
  implementation of the operad composition.
"""

from __future__ import annotations

import csv
import io
import json
import math
from functools import lru_cache

import numpy as np

from workloads import DEFORM_STEPS, TRAJECTORY_STEPS, flow_inputs


def _strict_json(text: str):
    def reject(name):
        raise ValueError(f"non-finite JSON constant {name}")
    return json.loads(text, parse_constant=reject)


# -- flow_tables --------------------------------------------------------

# Bianchi rows at t = 0 as (alpha, n1, n2, n3):
# [e1,e2] = -alpha e2 + n3 e3, [e2,e3] = n1 e1, [e3,e1] = n2 e2 + alpha e3
_ROWS = {"VIIa": ("a", 0, 1, 1), "IIIa1": (1, 0, 1, -1), "VIa": ("a", 0, 1, -1)}
FLOW_TOL = 1e-12      # closed forms, relative to the table's scale
JACOBI_TOL = 1e-10    # Jacobiator, relative to the squared tensor scale


def _parse_table(text: str, fmt: str):
    """Column names in sorted order and the rows as a float array."""
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        order = sorted(range(len(rows[0])), key=rows[0].__getitem__)
        return ([rows[0][i] for i in order],
                np.array([[float(r[i]) for i in order] for r in rows[1:]]))
    records = [_strict_json(line) for line in text.splitlines()]
    header = sorted(records[0])
    return header, np.array([[r[h] for h in header] for r in records])


def _flow_closed_form(omega, p0, t):
    root = math.sqrt(2 * p0)
    return {"q": p0 / omega * np.sin(omega * t), "p": p0 * np.cos(omega * t),
            "Q": root * np.sin(omega * t / 2),
            "P": root * np.cos(omega * t / 2)}


def _put(mu, i, j, k, value):
    mu[..., i, j, k] = value
    mu[..., i, k, j] = -value


def _bianchi_row(alpha, n1, n2, n3):
    row = np.zeros((3, 3, 3))
    for i, j, k, v in ((1, 0, 1, -alpha), (2, 0, 1, n3), (0, 1, 2, n1),
                       (1, 2, 0, n2), (2, 2, 0, alpha)):
        _put(row, i, j, k, v)
    return row


def _deformed_mu(alpha, n3, omega, p0, flow):
    """mu^i_{jk} along the flow, per row, for a row with n1 = 0, n2 = 1.

    The operadic family is affine in (q, p, Q, P):
    mu^1_23, -mu^2_31 = c2 p - c3 omega q -+ c4; mu^1_31, mu^2_23 =
    c2 omega q + c3 p -+ c1; mu^1_12 = c5 P + c6 Q, mu^2_12 = c5 Q - c6 P;
    -mu^3_31 = c7 P + c8 Q, mu^3_23 = c7 Q - c8 P; mu^3_12 = c9.  At t = 0
    (q, p, Q, P) = (0, p0, 0, r) with r = sqrt(2 p0), and equating with the
    Bianchi row gives c2 = -1/(2 p0), c4 = -1/2, c6 = alpha/r,
    c7 = -alpha/r, c9 = n3 and c1 = c3 = c5 = c8 = 0.
    """
    q, p, Q, P = (flow[k] for k in ("q", "p", "Q", "P"))
    r = math.sqrt(2 * p0)
    mu = np.zeros((len(q), 3, 3, 3))
    _put(mu, 0, 0, 1, alpha * Q / r)               # mu^1_12
    _put(mu, 1, 0, 1, -alpha * P / r)              # mu^2_12
    _put(mu, 2, 0, 1, n3)                          # mu^3_12
    _put(mu, 0, 1, 2, (p0 - p) / (2 * p0))         # mu^1_23
    _put(mu, 1, 1, 2, -omega * q / (2 * p0))       # mu^2_23
    _put(mu, 2, 1, 2, -alpha * Q / r)              # mu^3_23
    _put(mu, 0, 2, 0, -omega * q / (2 * p0))       # mu^1_31
    _put(mu, 1, 2, 0, (p + p0) / (2 * p0))         # mu^2_31
    _put(mu, 2, 2, 0, alpha * P / r)               # mu^3_31
    return mu


def _mu_tensor(header, table):
    """Rows of mu^i_{jk} from the columns named mu_jk^i, antisymmetrised."""
    mu = np.zeros((len(table), 3, 3, 3))
    for col, name in enumerate(header):
        if name.startswith("mu_"):
            j, k, i = int(name[3]) - 1, int(name[4]) - 1, int(name[6]) - 1
            _put(mu, i, j, k, table[:, col])
    return mu


def jacobiator(mu):
    """J^i_{jkl} = mu^i_{js} mu^s_{kl} + cyclic (j, k, l), per row."""
    t = np.einsum("nijs,nskl->nijkl", mu, mu)
    return t + t.transpose(0, 1, 3, 4, 2) + t.transpose(0, 1, 4, 2, 3)


def _check_flow_table(header, table, inp, label, a, steps):
    problems = []
    omega, energy, t1 = inp["omega"], inp["energy"], inp["t1"]
    p0 = math.sqrt(2 * energy)
    col = {name: table[:, i] for i, name in enumerate(header)}
    if len(table) != steps + 1:
        problems.append(f"{len(table)} rows, expected {steps + 1}")
        return problems
    scale = max(1.0, p0 / omega, p0, math.sqrt(2 * p0))
    t = t1 * np.arange(steps + 1) / steps
    worst = float(np.max(np.abs(col["t"] - t)))
    if worst > FLOW_TOL * max(1.0, t1):
        problems.append(f"t grid off by {worst:.3g}")
    closed = _flow_closed_form(omega, p0, col["t"])
    for name, expect in closed.items():
        worst = float(np.max(np.abs(col[name] - expect)))
        if worst > FLOW_TOL * scale:
            problems.append(f"{name} off its closed form by {worst:.3g}")
    q, p, Q, P = col["q"], col["p"], col["Q"], col["P"]
    for what, res in (("P^2 - Q^2 = 2p", P * P - Q * Q - 2 * p),
                      ("QP = omega q", Q * P - omega * q)):
        worst = float(np.max(np.abs(res)))
        if worst > 4 * FLOW_TOL * scale * scale:
            problems.append(f"{what} violated by {worst:.3g}")
    if label is None:
        worst = float(np.max(np.abs(col["H"] - energy)))
        if worst > FLOW_TOL * max(1.0, energy):
            problems.append(f"H differs from E by {worst:.3g}")
        return problems
    mu = _mu_tensor(header, table)
    mscale = max(1.0, float(np.max(np.abs(mu))))
    alpha, n1, n2, n3 = _ROWS[label]
    alpha = a if alpha == "a" else alpha
    worst = float(np.max(np.abs(mu[0] - _bianchi_row(alpha, n1, n2, n3))))
    if worst > FLOW_TOL * mscale:
        problems.append(f"t = 0 tensor is not the {label} row ({worst:.3g})")
    expect = _deformed_mu(alpha, n3, omega, p0, closed)
    worst = float(np.max(np.abs(mu - expect)))
    if worst > FLOW_TOL * mscale:
        problems.append(f"deformed tensor off its closed form by {worst:.3g}")
    worst = float(np.max(np.abs(jacobiator(mu))))
    if worst > JACOBI_TOL * mscale * mscale:
        problems.append(f"Jacobi identity violated by {worst:.3g}")
    return problems


def check_flow_tables(ops, texts, seed):
    inp = flow_inputs(seed)
    problems, parsed = {}, {}
    for key, _ in ops:
        kind, *rest = key.split(".")
        fmt = rest[-1]
        try:
            header, table = _parse_table(texts[key], fmt)
        except (ValueError, IndexError, KeyError) as exc:
            problems[key] = [f"unparseable {fmt}: {exc}"]
            continue
        if kind == "deform":
            label, a = inp["labels"][int(rest[0])]
            steps = DEFORM_STEPS
        else:
            label, a, steps = None, None, TRAJECTORY_STEPS
        problems[key] = _check_flow_table(header, table, inp, label, a, steps)
        parsed[key] = (header, table)
    for key in list(parsed):
        if key.endswith(".csv"):
            twin = key[:-4] + ".json"
            if twin in parsed and not (
                    parsed[key][0] == parsed[twin][0]
                    and np.array_equal(parsed[key][1], parsed[twin][1])):
                problems[key].append("CSV and JSON tables differ")
                problems[twin].append("CSV and JSON tables differ")
    return problems


# -- quantum_jacobi -----------------------------------------------------

@lru_cache(maxsize=None)
def _sympy_env():
    import sympy as sp
    P, Q = sp.symbols("P Q", commutative=False)
    names = ("lam eps h omega a Delta p0 r x1 x2 x3 y1 y2 y3 z1 z2 z3 "
             "hbar n")
    syms = dict(zip(names.split(), sp.symbols(names, positive=True)))
    syms["lam"] = sp.Symbol("lam")
    return sp, P, Q, syms


def _normal_order(expr):
    """Rewrite every Q*P into P*Q - lam*eps until no term changes."""
    sp, P, Q, s = _sympy_env()
    expr = sp.expand(expr)
    while True:
        out, changed = [], False
        for term in sp.Add.make_args(expr):
            c, nc = term.args_cnc()
            letters = []
            for f in nc:
                base, e = f.as_base_exp()
                letters += [base] * int(e)
            for i in range(len(letters) - 1):
                if letters[i] == Q and letters[i + 1] == P:
                    term = sp.Mul(*c) * sp.Mul(*letters[:i]) \
                        * (P * Q - s["lam"] * s["eps"]) \
                        * sp.Mul(*letters[i + 2:])
                    changed = True
                    break
            out.append(term)
        expr = sp.expand(sp.Add(*out))
        if not changed:
            return expr


def _letter_degree(term) -> int:
    _, nc = term.args_cnc()
    return sum(int(f.as_base_exp()[1]) for f in nc)


def parse_render(text: str):
    """A rendered CoeffPoly or NCPoly as a sympy expression (r kept)."""
    sp, P, Q, s = _sympy_env()
    local = dict(s, P=P, Q=Q)
    expr = sp.parse_expr(text.replace("lambda", "lam").replace("^", "**"),
                         local_dict=local)
    return expr


def _on_radical(expr):
    sp, _, _, s = _sympy_env()
    return sp.expand(expr.subs(s["r"], sp.sqrt(2 * s["p0"])))


def _same(x, y) -> bool:
    sp = _sympy_env()[0]
    diff = _on_radical(x - y)
    return diff == 0 or sp.simplify(diff) == 0


@lru_cache(maxsize=None)
def quantum_oracle(label: str) -> dict:
    """Jacobiator forms, C and beta^2 for one type, from the definitions.

    p := (P^2 - Q^2)/2 and omega q := (PQ + QP)/2; xi1 = omega q Q +
    (p - p0) P and xi2 = omega q P - (p + p0) Q; J^{1,2} = -(a Delta /
    (r p0)) xi^{1,2} and J^3 = (a^2 Delta / p0)(PQ - QP).  H = E replaces
    the energy operator h = (P^2 + Q^2)/2, standing right of the letter
    it multiplies, by p0 and eps by omega / (2 p0).
    """
    sp, P, Q, s = _sympy_env()
    lam, eps, omega, p0, r, Delta = (s[k] for k in
                                     ("lam", "eps", "omega", "p0", "r",
                                      "Delta"))
    a = 1 if label == "IIIa1" else s["a"]
    p_op = (P * P - Q * Q) / 2
    wq_op = (P * Q + Q * P) / 2
    h_op = (P * P + Q * Q) / 2
    xis = (_normal_order(wq_op * Q + (p_op - p0) * P),
           _normal_order(wq_op * P - (p_op + p0) * Q))
    coef = -(a * Delta / (r * p0))
    j3 = (a * a * Delta / p0) * _normal_order(P * Q - Q * P)
    out = {"semiclassical": [coef * xis[0], coef * xis[1], j3]}
    on_shell = {eps: omega / (2 * p0)}
    he = []
    for xi, letter in zip(xis, (P, Q)):
        rest = _normal_order(xi - letter * h_op)
        if any(_letter_degree(t) > 1 for t in sp.Add.make_args(rest)):
            raise RuntimeError(f"xi is not {letter}*h + linear")
        he.append(coef * sp.expand((rest + letter * p0).subs(on_shell)))
    he.append(j3.subs(on_shell))
    out["h_equals_e"] = he
    j1, j2, j3 = he

    def bracket(x, y):
        return _normal_order(x * y - y * x).subs(on_shell)

    out["C"] = sp.simplify(bracket(j1, j2) / j3)
    e1, e2, e3 = -Delta * j3, -Delta * j1, -Delta * j2
    out["beta_sq"] = sp.simplify(bracket(e2, e3) / e1)
    return out


@lru_cache(maxsize=None)
def _spectrum_problem(beta_sq_text: str):
    """|Delta| from beta^2 = 1 with lam^2 = -hbar^2 and p0^2 = hbar omega
    (2n + 1), compared with 4 sqrt(2) (2n + 1)."""
    sp, _, _, s = _sympy_env()
    beta_sq = _on_radical(parse_render(beta_sq_text))
    beta_sq = beta_sq.subs(s["lam"], sp.I * s["hbar"])
    beta_sq = beta_sq.subs(s["p0"], sp.sqrt(s["hbar"] * s["omega"]
                                            * (2 * s["n"] + 1)))
    roots = [d for d in sp.solve(sp.Eq(beta_sq, 1), s["Delta"])
             if d.is_positive]
    claim = 4 * sp.sqrt(2) * (2 * s["n"] + 1)
    if len(roots) != 1 or sp.simplify(roots[0] - claim) != 0:
        return f"|Delta| from beta^2 = 1 is {roots}, not {claim}"
    return None


def _check_jacobi_report(text, label, conv, alphabet):
    sp, _, _, s = _sympy_env()
    rep = _strict_json(text)
    problems = []
    want = (label, conv, "PQ" if alphabet == "pq" else "qpPQ")
    if (rep["label"], rep["convention"], rep["alphabet"]) != want:
        problems.append(f"report is for {rep['label']}/{rep['convention']}"
                        f"/{rep['alphabet']}")
    exact = rep["theorem_exact"]
    residuals = [parse_render(t) for t in rep["theorem_residuals"]]
    if [r == 0 for r in residuals] != exact or len(exact) != 3:
        problems.append("theorem_exact disagrees with the residuals")
    if conv == "left" and not all(exact):
        problems.append("left convention is not exact")
    if conv == "right":
        if alphabet == "pq" and all(exact):
            problems.append("right convention with pq is exact")
        for res in residuals:
            for term in sp.Add.make_args(sp.expand(res)):
                if term != 0 and term.as_powers_dict().get(s["lam"], 0) < 1:
                    problems.append(f"residual term {term} has no lambda")
    if not all(rep["delta_divisible"]) or rep["heisenberg"] is not True:
        problems.append("Delta divisibility or Heisenberg flag false")
    oracle = quantum_oracle(label)
    for field in ("semiclassical", "h_equals_e"):
        got = [parse_render(t) for t in rep[field]]
        if len(got) != 3 or not all(
                _same(g, e) for g, e in zip(got, oracle[field])):
            problems.append(f"{field} differs from the sympy computation")
    for field in ("C", "beta_sq"):
        if not _same(parse_render(rep[field]), oracle[field]):
            problems.append(f"{field} = {rep[field]} differs from sympy "
                            f"{oracle[field]}")
    lam, omega, Delta, p0 = (s[k] for k in ("lam", "omega", "Delta", "p0"))
    c_claim = lam ** 2 * omega ** 2 * Delta / (32 * p0 ** 4)
    if not _same(oracle["C"], c_claim) \
            or not _same(oracle["beta_sq"], -oracle["C"] * Delta):
        problems.append("sympy C or beta^2 differ from the closed forms")
    spectrum = _spectrum_problem(rep["beta_sq"])
    if spectrum:
        problems.append(spectrum)
    return problems


def check_quantum_jacobi(ops, texts, seed):
    problems = {}
    for key, _ in ops:
        _, label, conv, alphabet = key.split(".")
        try:
            problems[key] = _check_jacobi_report(texts[key], label, conv,
                                                 alphabet)
        except (ValueError, KeyError, TypeError, SyntaxError) as exc:
            problems[key] = [f"unreadable report: {exc!r}"]
    return problems


# -- verify_all ---------------------------------------------------------

SUITES = ("operad", "lax", "bianchi", "quantum")
BRACKET_SAMPLES = 200
BRACKET_TOL = 1e-12


def _compose(f, g, i):
    """f o_i g by one einsum: output g into input slot i of f, with the
    Koszul sign (-1)^(i (deg g - 1))."""
    nf, ng = f.ndim - 1, g.ndim - 1
    letters = "abcdefghijklmnopqrstuvwxyz"
    out, f_in, g_in = letters[0], letters[1:nf + 1], letters[nf + 1:nf + 1 + ng]
    inner = letters[nf + ng + 1]
    f_sub = out + f_in[:i] + inner + f_in[i + 1:]
    result = out + f_in[:i] + g_in + f_in[i + 1:]
    sign = -1.0 if (i * (ng - 1)) % 2 else 1.0
    return sign * np.einsum(f"{f_sub},{inner}{g_in}->{result}", f, g)


def bracket(f, g):
    """Gerstenhaber bracket of coefficient tensors (axis 0 is the output)."""
    nf, ng = f.ndim - 1, g.ndim - 1
    fg = sum(_compose(f, g, i) for i in range(nf))
    gf = sum(_compose(g, f, i) for i in range(ng))
    sign = -1.0 if ((nf - 1) * (ng - 1)) % 2 else 1.0
    return fg - sign * gf


def bracket_spot_check(seed) -> list[str]:
    """Compare oplax.operad.gerstenhaber with ``bracket`` on seeded data."""
    from oplax.operad import MultiOp, gerstenhaber
    rng = np.random.default_rng([seed, 1])
    worst = 0.0
    for _ in range(BRACKET_SAMPLES):
        dim = int(rng.integers(1, 4))
        f, g = (rng.uniform(-1, 1, (dim,) * int(rng.integers(2, 5)))
                for _ in range(2))
        got = gerstenhaber(MultiOp(f.ndim - 1, dim, f),
                           MultiOp(g.ndim - 1, dim, g)).coeffs
        want = bracket(f, g)
        if got.shape != want.shape:
            return [f"bracket shape {got.shape} != {want.shape}"]
        worst = max(worst, float(np.max(np.abs(got - want))))
    if worst > BRACKET_TOL:
        return [f"gerstenhaber differs from the einsum bracket by {worst:.3g}"]
    return []


def check_verify_all(ops, texts, seed):
    (key, _), = ops
    problems = []
    try:
        reports = [_strict_json(line) for line in texts[key].splitlines()]
    except ValueError as exc:
        return {key: [f"not strict JSON: {exc}"]}
    if [r.get("suite") for r in reports] != list(SUITES):
        problems.append(f"suites {[r.get('suite') for r in reports]}")
    for rep in reports:
        if rep.get("seed") != seed or rep.get("pass") is not True \
                or rep.get("failures") != 0 or not rep.get("cases"):
            problems.append(f"suite {rep.get('suite')}: seed "
                            f"{rep.get('seed')} pass {rep.get('pass')} "
                            f"failures {rep.get('failures')}")
        for case in rep.get("cases", ()):
            name = f"{rep.get('suite')}.{case.get('case')}"
            if case.get("pass") is not True:
                problems.append(f"{name} failed")
            if "residual" in case and not (
                    "tol" in case and case["residual"] <= case["tol"]):
                problems.append(f"{name} residual {case['residual']} "
                                f"above tol {case.get('tol')}")
    problems += bracket_spot_check(seed)
    return {key: problems}


CHECKS = {"verify_all": check_verify_all,
          "quantum_jacobi": check_quantum_jacobi,
          "flow_tables": check_flow_tables}
