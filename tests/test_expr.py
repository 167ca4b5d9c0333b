import numpy as np
import pytest

from conftest import random_expr, random_parser_expr
from prc.expr import (Add, Conj, Const, Im, Mul, Neg, ParseError, Pow, Re, Sub, Var,
                      diff_z, diff_zbar, eval_interval, eval_point,
                      format_expr, normalize, parse)
from prc.intervals import ParamBox
from prc.realpoly import RealPoly, ZPoly
from prc.certify import WERMER_F


# ---------------------------------------------------------------------------
# parse
# ---------------------------------------------------------------------------

def test_parse_identity():
    assert parse("z1", 1) == Var(1)


def test_parse_wermer_structure():
    e = parse(WERMER_F, 1)
    want = Add(
        Add(Mul(Neg(Add(Const(1 + 0j), Const(1j))), Conj(Var(1))),
            Mul(Mul(Const(1j), Var(1)), Pow(Conj(Var(1)), 2))),
        Mul(Pow(Var(1), 2), Pow(Conj(Var(1)), 3)),
    )
    assert e == want


def test_parse_unknown_variable():
    with pytest.raises(ParseError) as err:
        parse("conj(w1)", 1)
    assert "unknown variable" in str(err.value)
    assert err.value.position == 5


def test_parse_index_out_of_range():
    with pytest.raises(ParseError, match="out of range"):
        parse("z3", 2)
    with pytest.raises(ParseError, match="out of range"):
        parse("z0", 2)


def test_parse_negative_exponent():
    with pytest.raises(ParseError, match="negative exponent"):
        parse("z1^-2", 1)


def test_parse_fractional_exponent():
    with pytest.raises(ParseError):
        parse("z1^2.5", 1)


def test_parse_syntax_error_position():
    with pytest.raises(ParseError) as err:
        parse("z1 + ", 1)
    assert err.value.position == 5


def test_parse_trailing_garbage():
    with pytest.raises(ParseError):
        parse("z1 )", 1)


def test_parse_whitespace_insensitive():
    assert parse(" z1 *  z2 ", 2) == parse("z1*z2", 2)


def test_roundtrip_random_parser_asts():
    rng = np.random.default_rng(42)
    for _ in range(300):
        e = random_parser_expr(rng, 3)
        assert parse(format_expr(e), 3) == e


def test_roundtrip_wermer():
    e = parse(WERMER_F, 1)
    assert parse(format_expr(e), 1) == e


# ---------------------------------------------------------------------------
# normalize
# ---------------------------------------------------------------------------

def test_normalize_conj_distributes():
    e = normalize(Conj(Add(Var(1), Const(1j))))
    assert e == Add(Var(1, conjugated=True), Const(-1j))


def test_normalize_re_definition():
    e = normalize(Re(Var(1)))
    assert e == Mul(Add(Var(1), Var(1, conjugated=True)), Const(0.5 + 0j))


def _is_normal(e) -> bool:
    """No Re or Im node, and conj only on variables (as Var.conjugated)."""
    if isinstance(e, (Const, Var)):
        return True
    if isinstance(e, (Conj, Re, Im)):
        return False
    if isinstance(e, Neg):
        return _is_normal(e.operand)
    if isinstance(e, (Add, Sub, Mul)):
        return _is_normal(e.left) and _is_normal(e.right)
    if isinstance(e, Pow):
        return _is_normal(e.base)
    raise TypeError(f"not an Expr node: {e!r}")


def test_normalize_conj_involution():
    assert normalize(Conj(Conj(Var(1)))) == Var(1)


def test_normalize_idempotent_and_preserves_eval():
    rng = np.random.default_rng(3)
    for _ in range(60):
        e = random_expr(rng, 2)
        ne = normalize(e)
        assert _is_normal(ne)
        assert normalize(ne) == ne
        for _ in range(16):
            z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            a = eval_point(e, z)
            b = eval_point(ne, z)
            assert abs(a - b) <= 1e-12 * (1 + abs(a))


def test_normalize_preserves_eval_1000_points():
    rng = np.random.default_rng(11)
    e = parse(WERMER_F, 1)
    ne = normalize(e)
    z = rng.standard_normal(1000) + 1j * rng.standard_normal(1000)
    for zz in z:
        a = eval_point(e, [zz])
        b = eval_point(ne, [zz])
        assert abs(a - b) <= 1e-12 * (1 + abs(a))


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def test_wermer_vanishes_on_unit_circle():
    f = parse(WERMER_F, 1)
    assert eval_point(f, [1 + 0j]) == 0j
    assert abs(eval_point(f, [1j])) < 1e-15
    assert eval_point(f, [0j]) == 0j
    for theta in np.linspace(0, 2 * np.pi, 17):
        assert abs(eval_point(f, [np.exp(1j * theta)])) < 1e-14


def test_eval_interval_identity_box():
    rect = eval_interval(parse("z1", 1), ParamBox(1, [0.0, 0.0], [1.0, 0.0]))
    assert rect.re.lo <= 0.0 and rect.re.hi >= 1.0
    assert abs(rect.im.lo) < 1e-12 and abs(rect.im.hi) < 1e-12


def test_eval_interval_zzbar():
    box = ParamBox(1, [-1.0, -1.0], [1.0, 1.0])
    rect = eval_interval(parse("z1*conj(z1)", 1), box)
    rng = np.random.default_rng(5)
    e = parse("z1*conj(z1)", 1)
    for _ in range(200):
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        assert rect.contains(eval_point(e, [z]))
    # |z|^2 over the box lies in [0, 2]
    assert rect.re.lo <= 0.0 and rect.re.hi >= 2.0


def test_eval_interval_contains_point_values():
    f = parse(WERMER_F, 1)
    box = ParamBox(1, [-0.1, -0.1], [0.1, 0.1])
    rect = eval_interval(f, box)
    assert rect.contains(eval_point(f, [0.1 + 0j]))


def test_eval_interval_soundness_random():
    """Spec invariant: sampled values always land inside the enclosure."""
    rng = np.random.default_rng(99)
    from prc.realpoly import RealPoly

    for case in range(100):
        n = int(rng.integers(1, 3))
        e = random_expr(rng, n)
        lo = rng.uniform(-2, 1, size=2 * n)
        hi = lo + rng.uniform(0, 2, size=2 * n)
        box = ParamBox(n, lo, hi)
        rect = eval_interval(e, box)
        poly = RealPoly.from_expr(e, n)
        xs = box.sample_uniform(rng, 10_000)
        vals = poly.eval_batch(xs)
        pad = 1e-9 * (1.0 + np.abs(vals))
        assert np.all(vals.real >= rect.re.lo - pad)
        assert np.all(vals.real <= rect.re.hi + pad)
        assert np.all(vals.imag >= rect.im.lo - pad)
        assert np.all(vals.imag <= rect.im.hi + pad)
        # spot-check the AST evaluator against the enclosure as well
        for row in xs[:10]:
            z = [complex(row[2 * j], row[2 * j + 1]) for j in range(n)]
            v = eval_point(e, z)
            assert rect.re.lo - 1e-9 * (1 + abs(v)) <= v.real <= rect.re.hi + 1e-9 * (1 + abs(v))


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------

def test_diff_holomorphic_coordinate():
    assert diff_z(Var(1), 1) == ZPoly.constant(1, 1)
    assert diff_zbar(Var(1), 1).is_zero


def test_diff_zbar_of_conj_free_is_zero():
    e = normalize(parse("z1^3 + i*z1*z2", 2))
    assert diff_zbar(e, 1).is_zero
    assert diff_zbar(e, 2).is_zero


def test_wermer_dfdzbar_closed_form():
    f = normalize(parse(WERMER_F, 1))
    df = diff_zbar(f, 1)
    rng = np.random.default_rng(1)
    for _ in range(100):
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        want = -(1 + 1j) + 2j * abs(z) ** 2 + 3 * abs(z) ** 4
        got = df.eval_point([z])
        assert abs(got - want) <= 1e-12 * (1 + abs(want))


def test_wermer_levi_closed_form():
    f = normalize(parse(WERMER_F, 1))
    lv = diff_zbar(f, 1).diff_z(1)
    rng = np.random.default_rng(2)
    for _ in range(100):
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        want = 2 * np.conj(z) * (1j + 3 * abs(z) ** 2)
        got = lv.eval_point([z])
        assert abs(got - want) <= 1e-12 * (1 + abs(want))


def test_diff_matches_finite_differences():
    rng = np.random.default_rng(17)
    h = 1e-5
    for _ in range(60):
        n = int(rng.integers(1, 3))
        e = normalize(random_expr(rng, n))
        z = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
        for j in range(1, n + 1):
            def shift(dz):
                pt = list(z)
                pt[j - 1] += dz
                return eval_point(e, pt)

            dx = (shift(h) - shift(-h)) / (2 * h)
            dy = (shift(1j * h) - shift(-1j * h)) / (2 * h)
            want_z = (dx - 1j * dy) / 2
            want_zbar = (dx + 1j * dy) / 2
            got_z = diff_z(e, j).eval_point(z)
            got_zbar = diff_zbar(e, j).eval_point(z)
            scale = 1 + abs(want_z) + abs(want_zbar)
            assert abs(got_z - want_z) <= 1e-6 * scale
            assert abs(got_zbar - want_zbar) <= 1e-6 * scale
