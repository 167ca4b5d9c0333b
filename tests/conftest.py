import math

import numpy as np
import pytest

from prc import ProblemSystem
from prc.certify import graph_over_r2_system, wermer_system
from prc.expr import Add, Conj, Const, Expr, Im, Mul, Neg, Pow, Re, Sub, Var
from prc.rigor import Region


@pytest.fixture(scope="session")
def wermer():
    return wermer_system()


@pytest.fixture(scope="session")
def example2():
    return graph_over_r2_system()


def cap_manifest(radius: float, node_budget: int = 400_000) -> dict:
    """The submersion cap problem (graph_over_r2_system, c = d = 0.05) over
    the bidisc of the given radius, as a manifest."""
    return {"kind": "submersion", "n": 2, "k": 2,
            "functions": ["Im(z1) - 0.05*(Re(z1)^2 + Re(z2)^3)",
                          "Im(z2) - 0.05*(Re(z2)^2 + Re(z1)^3)"],
            "compact": {"cap": {"center": [[0.0, 0.0], [0.0, 0.0]],
                                "radii": [radius, radius]}},
            "options": {"max_depth": 30, "margin": 1e-6, "inflation": 0.04,
                        "node_budget": node_budget}}


def chain(x: float, k: int) -> float:
    """x^k as the product chain x^(k-1) * x, one rounding per product: the
    powers of the box kernels and of the point evaluator."""
    p = x
    for _ in range(k - 1):
        p = p * x
    return p


def wermer_m_closed(r: float) -> float:
    return 9 * r ** 8 - 2 * r ** 4 - 4 * r ** 2 + 2


def wermer_L_closed(r: float) -> float:
    return 2 * r * math.sqrt(1 + 9 * r ** 4)


def random_expr(rng, n: int, max_depth: int = 4) -> Expr:
    """Random polynomial expression in z_1..z_n and conj/Re/Im thereof."""
    kind = rng.integers(0, 10)
    if max_depth == 0 or kind < 3:
        leaf = rng.integers(0, 3)
        if leaf == 0:
            return Const(complex(round(rng.normal(), 3), round(rng.normal(), 3)))
        j = int(rng.integers(1, n + 1))
        return Var(j, conjugated=bool(rng.integers(0, 2)))
    if kind < 5:
        return Add(random_expr(rng, n, max_depth - 1), random_expr(rng, n, max_depth - 1))
    if kind == 5:
        return Sub(random_expr(rng, n, max_depth - 1), random_expr(rng, n, max_depth - 1))
    if kind < 8:
        return Mul(random_expr(rng, n, max_depth - 1), random_expr(rng, n, max_depth - 1))
    if kind == 8:
        return Pow(random_expr(rng, n, max_depth - 2 if max_depth > 1 else 0),
                   int(rng.integers(0, 4)))
    wrap = rng.integers(0, 3)
    inner = random_expr(rng, n, max_depth - 1)
    return (Conj(inner), Re(inner), Im(inner))[wrap]


def random_parser_expr(rng, n: int, max_depth: int = 4) -> Expr:
    """Random AST restricted to what the parser itself can produce."""
    kind = rng.integers(0, 10)
    if max_depth == 0 or kind < 3:
        leaf = rng.integers(0, 4)
        if leaf == 0:
            return Const(complex(abs(round(rng.normal(), 3)), 0.0))
        if leaf == 1:
            return Const(1j)
        return Var(int(rng.integers(1, n + 1)))
    if kind < 5:
        return Add(random_parser_expr(rng, n, max_depth - 1),
                   random_parser_expr(rng, n, max_depth - 1))
    if kind == 5:
        return Sub(random_parser_expr(rng, n, max_depth - 1),
                   random_parser_expr(rng, n, max_depth - 1))
    if kind < 7:
        return Mul(random_parser_expr(rng, n, max_depth - 1),
                   random_parser_expr(rng, n, max_depth - 1))
    if kind == 7:
        return Neg(random_parser_expr(rng, n, max_depth - 1))
    if kind == 8:
        base = random_parser_expr(rng, n, max_depth - 2 if max_depth > 1 else 0)
        return Pow(base, int(rng.integers(0, 4)))
    wrap = rng.integers(0, 3)
    inner = random_parser_expr(rng, n, max_depth - 1)
    return (Conj(inner), Re(inner), Im(inner))[wrap]


def random_graph_system(rng, n: int) -> ProblemSystem:
    """Random graph system with generically nonzero dbar rows."""
    exprs = []
    for _ in range(n):
        e = random_expr(rng, n, 3)
        # guarantee a conj-variable term so the dbar matrix is generically full
        j = int(rng.integers(1, n + 1))
        c = Const(complex(rng.normal(), rng.normal()))
        e = Add(e, Mul(c, Var(j, conjugated=True)))
        exprs.append(e)
    return ProblemSystem.graph(exprs, n)


def random_submersion_system(rng, n: int, k: int) -> ProblemSystem:
    exprs = []
    for i in range(2 * n - k):
        e = Re(random_expr(rng, n, 3)) if i % 2 == 0 else Im(random_expr(rng, n, 3))
        j = int(rng.integers(1, n + 1))
        pick = Im(Var(j)) if rng.integers(0, 2) else Re(Var(j))
        e = Add(e, Mul(Const(complex(1.0 + abs(rng.normal()), 0)), pick))
        exprs.append(e)
    return ProblemSystem.submersion(exprs, n, k)


def random_system(rng) -> ProblemSystem:
    n = int(rng.integers(1, 4))
    if rng.integers(0, 2):
        return random_graph_system(rng, n)
    k = int(rng.integers(1, n + 1))
    return random_submersion_system(rng, n, k)


def random_w_region(rng, n: int) -> Region:
    """n wide z discs, which a residual bound does not read, and n random w
    discs (cx, cy, r): the region a graph residual bound over a z-box takes."""
    w = tuple((rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.01, 1.5))
              for _ in range(n))
    return Region(((0.0, 0.0, 10.0),) * n + w)


def sample_disc(rng, disc, count):
    """`count` points of the open disc (cx, cy, r), uniform in area, as complex numbers."""
    cx, cy, r = disc
    rho = r * np.sqrt(rng.random(count)) * (1 - 1e-12)
    theta = 2 * np.pi * rng.random(count)
    return complex(cx, cy) + rho * np.exp(1j * theta)
