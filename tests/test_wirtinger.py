import numpy as np
import pytest

from conftest import random_expr
from prc.certify import WERMER_F
from prc.expr import normalize, parse
from prc.wirtinger import fd_frame, frame, levi_form


def test_frame_abs_squared():
    fr = frame(parse("z1*conj(z1)", 1), [0.7 - 0.2j])
    assert abs(fr.levi[0, 0] - 1.0) < 1e-12
    assert abs(fr.grad_z[0] - (0.7 + 0.2j)) < 1e-12  # d|z|^2/dz = conj(z)


def test_frame_wermer_levi_at_one():
    fr = frame(parse(WERMER_F, 1), [1 + 0j])
    assert abs(fr.levi[0, 0] - 2 * (1j + 3)) < 1e-12


def test_frame_holomorphic():
    # the second expands with rounded coefficients
    for f in ("z1^2", "0.1*z1^3*(z1+0.3)^4"):
        fr = frame(parse(f, 1), [0.4 + 1.1j])
        assert fr.grad_zbar[0] == 0
        assert fr.levi[0, 0] == 0


def test_levi_form_unit_circle_directions():
    fr = frame(parse("z1*conj(z1)", 1), [0.3 + 0.1j])
    for theta in np.linspace(0, 2 * np.pi, 13):
        v = np.exp(1j * theta)
        assert abs(levi_form(fr, [v]) - 1.0) < 1e-12


def test_levi_form_wermer():
    fr = frame(parse(WERMER_F, 1), [1 + 0j])
    assert abs(levi_form(fr, [1 + 0j]) - 2 * (1j + 3)) < 1e-12


def test_levi_form_dimension_mismatch():
    fr = frame(parse("z1*conj(z1)", 1), [0.3 + 0.1j])
    with pytest.raises(ValueError):
        levi_form(fr, [1 + 0j, 0j])


def test_levi_form_scaling():
    rng = np.random.default_rng(4)
    e = normalize(random_expr(rng, 2))
    z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    fr = frame(e, z)
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    base = levi_form(fr, v)
    for lam in (0.5, 2.0, 1j, 0.3 - 0.8j):
        scaled = levi_form(fr, lam * v)
        assert abs(scaled - abs(lam) ** 2 * base) <= 1e-10 * (1 + abs(base))


def test_real_valued_frame_is_hermitian():
    rng = np.random.default_rng(8)
    from prc.expr import Add, Im, Re

    for _ in range(20):
        e = Add(Re(random_expr(rng, 2)), Im(random_expr(rng, 2)))
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        fr = frame(e, z)
        assert abs(fr.value.imag) < 1e-10 * (1 + abs(fr.value))
        assert np.max(np.abs(fr.levi - fr.levi.conj().T)) < 1e-10
        assert np.max(np.abs(fr.grad_zbar - np.conj(fr.grad_z))) < 1e-10
        for _ in range(5):
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            assert abs(levi_form(fr, v).imag) < 1e-10 * (1 + abs(levi_form(fr, v)))


def test_fd_frame_abs_squared():
    h = 1e-4
    fd = fd_frame(parse("z1*conj(z1)", 1), [0.2 + 0.5j], h)
    assert abs(fd.levi[0, 0] - 1.0) < 10 * h ** 2


def test_fd_frame_matches_symbolic_wermer():
    e = parse(WERMER_F, 1)
    z = [0.3 + 0.1j]
    fd = fd_frame(e, z, 1e-4)
    sym = frame(e, z)
    assert abs(fd.value - sym.value) < 1e-10
    assert abs(fd.grad_z[0] - sym.grad_z[0]) < 1e-6
    assert abs(fd.grad_zbar[0] - sym.grad_zbar[0]) < 1e-6
    assert abs(fd.levi[0, 0] - sym.levi[0, 0]) < 1e-6


def test_fd_frame_holomorphic_cube():
    fd = fd_frame(parse("z1^3", 1), [0.4 - 0.2j])
    assert abs(fd.levi[0, 0]) < 1e-6


def test_fd_frame_rejects_bad_step():
    with pytest.raises(ValueError):
        fd_frame(parse("z1", 1), [0j], h=0.0)


def test_frame_vs_fd_random_suite():
    """200 random cases, degree <= 5, n <= 3, relative error <= 1e-6."""
    rng = np.random.default_rng(123)
    checked = 0
    while checked < 200:
        n = int(rng.integers(1, 4))
        e = normalize(random_expr(rng, n))
        from prc.realpoly import RealPoly

        if RealPoly.from_expr(e, n).total_degree() > 5:
            continue
        z = 0.5 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        sym = frame(e, z)
        fd = fd_frame(e, z, 1e-4)
        scale = 1 + max(np.max(np.abs(sym.levi)), np.max(np.abs(sym.grad_z)),
                        np.max(np.abs(sym.grad_zbar)))
        assert np.max(np.abs(sym.grad_z - fd.grad_z)) <= 1e-6 * scale
        assert np.max(np.abs(sym.grad_zbar - fd.grad_zbar)) <= 1e-6 * scale
        assert np.max(np.abs(sym.levi - fd.levi)) <= 1e-6 * scale
        checked += 1
