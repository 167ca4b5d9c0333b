"""Exact oracles for the Wirtinger derivatives of ZPoly and its expansion
into the real coordinates."""

from fractions import Fraction

import numpy as np
import sympy

from prc.realpoly import RealPoly, TermPack, ZPoly, point_values

U = Fraction(1, 2 ** 53)


def random_poly(rng, dyadic: bool) -> ZPoly:
    """Up to 8 terms of total degree <= 5 in z_j, conj(z_j), n <= 2; with
    `dyadic`, coefficients are quarters of integers in [-16, 16]."""
    n = int(rng.integers(1, 3))
    terms = {}
    for _ in range(int(rng.integers(1, 9))):
        key = [0] * (2 * n)
        for _ in range(int(rng.integers(0, 6))):
            key[int(rng.integers(0, 2 * n))] += 1
        if dyadic:
            c = complex(int(rng.integers(-16, 17)) / 4, int(rng.integers(-16, 17)) / 4)
        else:
            c = complex(*(rng.standard_normal(2) * 10.0 ** rng.integers(-3, 4, 2)))
        if c != 0:
            terms[tuple(key)] = c
    return ZPoly(n, terms)


def exact(c: complex) -> tuple[Fraction, Fraction]:
    return Fraction(c.real), Fraction(c.imag)


def sympy_real_terms(expr, gens) -> dict:
    """{exponents: (re, im)} of a polynomial in real sympy symbols, with
    Fraction parts and no zero terms."""
    out = {}
    for monom, coeff in sympy.Poly(sympy.expand(expr), *gens).terms():
        re, im = (Fraction(int(q.p), int(q.q)) for q in (sympy.re(coeff), sympy.im(coeff)))
        if re or im:
            out[monom] = (re, im)
    return out


def sympy_in_real_coords(p: ZPoly):
    """p with z_j = x_j + i y_j substituted, in exact sympy arithmetic."""
    gens = sympy.symbols(f"v0:{2 * p.n}", real=True)
    zs = [(gens[2 * j] + sympy.I * gens[2 * j + 1],
           gens[2 * j] - sympy.I * gens[2 * j + 1]) for j in range(p.n)]
    expr = sum((sympy.Rational(Fraction(c.real)) + sympy.I * sympy.Rational(Fraction(c.imag)))
               * sympy.Mul(*(zs[v // 2][v % 2] ** e for v, e in enumerate(k)))
               for k, c in p.terms.items())
    return expr, gens


def test_wirtinger_derivatives_of_dyadic_polys_match_sympy_exactly():
    """d/dz_j and d/dconj(z_j), expanded in real coordinates, are
    (d/dx_j -+ i d/dy_j)/2 of the expanded polynomial."""
    rng = np.random.default_rng(61)
    for _ in range(40):
        p = random_poly(rng, dyadic=True)
        expr, gens = sympy_in_real_coords(p)
        assert {k: exact(c) for k, c in p.to_real().terms.items()} == sympy_real_terms(expr, gens)
        for j in range(1, p.n + 1):
            x, y = gens[2 * (j - 1)], gens[2 * j - 1]
            for sign, got in ((-1, p.diff_z(j)), (1, p.diff_zbar(j))):
                want = (sympy.diff(expr, x) + sign * sympy.I * sympy.diff(expr, y)) / 2
                assert ({k: exact(c) for k, c in got.to_real().terms.items()}
                        == sympy_real_terms(want, gens))


def test_mixed_wirtinger_derivatives_commute_on_dyadic_polys():
    rng = np.random.default_rng(62)
    for _ in range(60):
        p = random_poly(rng, dyadic=True)
        for j in range(1, p.n + 1):
            for k in range(1, p.n + 1):
                assert p.diff_zbar(k).diff_z(j) == p.diff_z(j).diff_zbar(k)


def test_rounding_stays_within_the_documented_bounds():
    """A derivative coefficient is k c rounded once per component
    (_Poly.diff); a real-coordinate coefficient, the sum of m products c g
    with integer g (ZPoly.to_real), lies within gamma_m sum |c g| of the exact
    sum per component, gamma_m = m u / (1 - m u)."""
    rng = np.random.default_rng(63)
    checked = 0
    for _ in range(200):
        p = random_poly(rng, dyadic=False)
        for v in range(2 * p.n):
            got = p.diff(v).terms
            for key, c in p.terms.items():
                if key[v]:
                    lower = key[:v] + (key[v] - 1,) + key[v + 1:]
                    for value, part in zip(exact(got[lower]), exact(c)):
                        assert abs(value - key[v] * part) <= U * abs(key[v] * part)
                        checked += 1
        contributions: dict = {}  # real key -> [(re, im) of each exact c g]
        for key, c in p.terms.items():
            for rkey, g in ZPoly(p.n, {key: 1 + 0j}).to_real().terms.items():
                gr, gi = int(g.real), int(g.imag)
                cr, ci = exact(c)
                contributions.setdefault(rkey, []).append((cr * gr - ci * gi, cr * gi + ci * gr))
        real = p.to_real().terms
        assert set(real) <= set(contributions)
        for rkey, parts in contributions.items():
            m = len(parts)
            gamma = m * U / (1 - m * U)
            for comp, value in enumerate(exact(real.get(rkey, 0j))):
                assert abs(value - sum(q[comp] for q in parts)) <= gamma * sum(abs(q[comp]) for q in parts)
                checked += 1
    assert checked > 1000



def test_equal_polys_evaluate_to_the_same_bits_whatever_their_insertion_order():
    """Point values sum each polynomial's terms in sorted key order: 1 + x + y
    at (1e-16, -1) comes out 0.0 when summed as 1, x, y and 1.1e-16 when
    summed as y, x, 1."""
    terms = {(0, 0): 1.0 + 0j, (1, 0): 1.0 + 0j, (0, 1): 1.0 + 0j}
    p = RealPoly(1, terms)
    q = RealPoly(1, dict(reversed(terms.items())))
    assert p == q and list(p.terms) != list(q.terms)
    xs = [[1e-16, -1.0], [0.3, -0.7]]
    assert repr(p.eval_batch(xs).tolist()) == repr(q.eval_batch(xs).tolist())
    assert repr(p.eval_point([1e-16 - 1j])) == repr(q.eval_point([1e-16 - 1j]))
    both = point_values(TermPack([p, q]), xs)
    assert repr(both[:, 0].tolist()) == repr(both[:, 1].tolist())
