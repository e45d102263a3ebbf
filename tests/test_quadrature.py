import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

from curselab import fooling, geometry, hull, quadrature, volume
from curselab.rng import mc_mean


def _constant_integrand(c):
    return quadrature.Integrand(eval=lambda pts: np.full(len(np.atleast_2d(pts)), c))


def test_one_point_constant_exact():
    dom = geometry.DomainSpec.cube(3)
    result = quadrature.quad_one_point(_constant_integrand(0.3), dom)
    assert result.value == 0.3
    assert result.evaluations_used == 1
    assert result.evaluations_cap == 1


def test_one_point_affine_exact_on_cube():
    dom = geometry.DomainSpec.cube(4)
    a = np.array([0.3, -0.7, 0.2, 1.1])
    b = 0.25
    f = quadrature.Integrand(eval=lambda pts: np.atleast_2d(pts) @ a + b)
    result = quadrature.quad_one_point(f, dom)
    exact = float(a.sum()) / 2.0 + b  # integral of each coordinate is 1/2
    assert result.value == pytest.approx(exact, rel=1e-12)


def test_one_point_fooling_c0_underestimates():
    d = 6
    dom = geometry.DomainSpec.cube(d)
    ps = hull.PointSet(dom.center[None, :], domain=dom)
    f = fooling.fooling_c0(ps, 1.0 / math.sqrt(d))
    integrand = quadrature.Integrand(eval=f)
    result = quadrature.quad_one_point(integrand, dom)
    assert result.value == 0.0
    ref, half = quadrature.reference_integral(integrand, dom, 20_000, seed=3)
    # The true integral is 1 minus a small weighted ball mass: well above 0.
    assert ref > 0.1
    assert ref <= 1.0


@pytest.mark.parametrize("b,expected", [(0, 1.0), (1, 0.0), (2, 1.0 / 12.0), (3, 0.0)])
def test_cube_moment_small_orders(b, expected):
    assert quadrature.cube_moment(b) == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("b", [2, 4, 6, 8])
def test_cube_moment_matches_quadrature(b):
    numeric, _ = scipy_quad(lambda x: (x - 0.5) ** b, 0.0, 1.0, epsabs=1e-14)
    assert quadrature.cube_moment(b) == pytest.approx(numeric, rel=1e-10)


def test_fd_partial_constant_is_zero():
    f = _constant_integrand(5.0)
    x = np.array([0.5, 0.5])
    assert quadrature.fd_partial(f, x, (1, 0), 1e-3) == 0.0
    assert quadrature.fd_partial(f, x, (2, 1), 1e-2) == 0.0


def test_fd_partial_multilinear_exact():
    f = quadrature.Integrand(eval=lambda pts: np.prod(np.atleast_2d(pts), axis=1))
    x = np.array([0.3, 0.6, 0.8])
    got = quadrature.fd_partial(f, x, (1, 1, 1), 1e-2)
    assert got == pytest.approx(1.0, abs=1e-10)


def test_fd_partial_quadratic():
    f = quadrature.Integrand(eval=lambda pts: np.atleast_2d(pts)[:, 0] ** 2)
    x = np.array([0.4, 0.9])
    got = quadrature.fd_partial(f, x, (2, 0), 1e-3)
    assert got == pytest.approx(2.0, abs=1e-6)


def test_fd_partial_stencil_domain_error():
    dom = geometry.DomainSpec.cube(2)
    f = _constant_integrand(1.0)
    with pytest.raises(quadrature.StencilOutsideDomainError) as err:
        quadrature.fd_partial(f, np.array([0.999, 0.5]), (2, 0), 1e-2, dom=dom)
    assert "coordinate 0" in str(err.value)


def test_fd_partial_rejects_large_order():
    f = _constant_integrand(1.0)
    with pytest.raises(ValueError):
        quadrature.fd_partial(f, np.array([0.5]), (9,), 1e-3)


def test_taylor_order_zero_equals_one_point():
    dom = geometry.DomainSpec.cube(5)
    rng = np.random.default_rng(8)
    a = rng.standard_normal(5)
    f = quadrature.make_sine_integrand(a, 0.7)
    taylor = quadrature.quad_taylor(f, dom, 0)
    one_point = quadrature.quad_one_point(f, dom)
    assert taylor.value == pytest.approx(one_point.value, rel=1e-14)
    assert taylor.evaluations_used == 1


def _polynomial_integrand(powers, coeffs):
    """Sum of centered monomials with exact partials and exact integral."""
    powers = [tuple(p) for p in powers]

    def evaluate(pts):
        pts = np.atleast_2d(pts)
        total = np.zeros(len(pts))
        for power, coeff in zip(powers, coeffs):
            term = np.full(len(pts), coeff)
            for axis, exponent in enumerate(power):
                term *= (pts[:, axis] - 0.5) ** exponent
            total += term
        return total

    def partial_one(x, beta):
        total = 0.0
        for power, coeff in zip(powers, coeffs):
            term = coeff
            for axis, exponent in enumerate(power):
                b = beta[axis]
                if b > exponent:
                    term = 0.0
                    break
                term *= math.perm(exponent, b) * (x[axis] - 0.5) ** (exponent - b)
            total += term
        return total

    def partial(x, betas):
        return np.array([partial_one(x, beta) for beta in betas.tolist()])

    exact = 0.0
    for power, coeff in zip(powers, coeffs):
        term = coeff
        for exponent in power:
            term *= quadrature.cube_moment(exponent)
        exact += term
    return quadrature.Integrand(
        eval=evaluate, analytic_partial=partial, exact_integral=exact
    )


def test_taylor_reproduces_low_degree_polynomials():
    dom = geometry.DomainSpec.cube(3)
    f = _polynomial_integrand(
        powers=[(0, 0, 0), (2, 0, 0), (1, 1, 0), (0, 2, 1), (3, 0, 0)],
        coeffs=[0.4, 1.5, -2.0, 0.7, 1.1],
    )
    result = quadrature.quad_taylor(f, dom, 3)
    assert result.value == pytest.approx(f.exact_integral, abs=1e-10)


def test_taylor_even_term_enumeration_count():
    dom = geometry.DomainSpec.cube(10)
    f = quadrature.make_sine_integrand(np.ones(10) * 0.1, 0.2)
    result = quadrature.quad_taylor(f, dom, 3)
    # Contributing multi-indices: the zero index plus the d doubled axes.
    assert result.evaluations_used == result.evaluations_cap == 1 + 10
    assert math.comb(10 + 3, 3) == 286
    assert 286 <= math.e**3 * 10**3


def test_taylor_cost_with_finite_differences_counts_distinct_nodes():
    d, j = 3, 4
    dom = geometry.DomainSpec.cube(d)
    base = quadrature.make_sine_integrand(np.full(d, 0.4), 0.1)
    f = quadrature.Integrand(eval=base.eval, exact_integral=base.exact_integral)
    result = quadrature.quad_taylor(f, dom, j)
    # Independent enumeration of the union of tensor stencils.
    nodes = set()
    for beta in _even_multi_indices_oracle(d, j):
        order = sum(beta)
        h = quadrature.default_fd_step(order)
        axis_offsets = [
            [(b / 2.0 - m) * h for m in range(b + 1)] for b in beta
        ]
        for combo in itertools.product(*axis_offsets):
            nodes.add(tuple(0.5 + off for off in combo))
    assert result.evaluations_used == len(nodes)
    # The predicted cost: every stencil node, before sharing.
    stencils = sum(math.prod(b + 1 for b in beta) for beta in _even_multi_indices_oracle(d, j))
    assert result.evaluations_cap == stencils > len(nodes)


def _even_multi_indices_oracle(d, j):
    # beta = 2 * (count of each coordinate in a multiset of size <= j // 2).
    out = []
    for size in range(j // 2 + 1):
        for combo in itertools.combinations_with_replacement(range(d), size):
            out.append(tuple(2 * combo.count(axis) for axis in range(d)))
    return sorted(out)


@pytest.mark.parametrize("d", [1, 2, 3, 5, 12])
@pytest.mark.parametrize("j", range(9))
def test_even_multi_indices_match_oracle_in_order(d, j):
    betas = quadrature._even_multi_indices(d, j)
    assert betas.dtype == np.int8
    assert betas.shape == (math.comb(d + j // 2, d), d)
    assert [tuple(beta) for beta in betas.tolist()] == _even_multi_indices_oracle(d, j)


def _scalar_fd_partial(f, x, beta, h, dom, cache):
    """Central differences node by node, as itertools.product enumerates
    the tensor stencil, with a tuple-keyed cache of the values."""
    acc = 0.0
    for combo in itertools.product(*(range(b + 1) for b in beta)):
        offset = np.array([b / 2.0 - m for b, m in zip(beta, combo)])
        coeff = 1.0
        for b, m in zip(beta, combo):
            coeff *= np.float64((-1) ** m * math.comb(b, m))
        node = x + offset * h
        key = tuple(node.tolist())
        if key not in cache:
            assert dom.contains(node[None, :])[0]
            cache[key] = f.value_at(node)
        acc += coeff * cache[key]
    return acc / h ** sum(beta)


def _scalar_taylor(f, d, j, partial=None, h=None):
    """The Taylor rule as a scalar loop over tuples, one term at a time."""
    dom = geometry.DomainSpec.cube(d)
    x_star = dom.center
    betas = _even_multi_indices_oracle(d, j)
    cache = {}
    value = 0.0
    for beta in betas:
        moment = 1.0
        for b in beta:
            moment *= quadrature.cube_moment(b)
        fact = 1.0
        for b in beta:
            fact *= math.factorial(b)
        if partial is not None:
            deriv = float(partial(x_star, beta))
        else:
            step = h if h is not None else quadrature.default_fd_step(sum(beta))
            deriv = _scalar_fd_partial(f, x_star, beta, step, dom, cache)
        value += deriv / fact * moment
    used = len(betas) if partial is not None else len(cache)
    return value, used


def _sine_case(d, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(d)
    a /= np.linalg.norm(a)
    b = float(rng.random() * 2.0 * math.pi)
    amplitude = 0.1

    def scalar_partial(x, beta):
        coeff = amplitude
        for ai, bi in zip(a, beta):
            coeff *= ai**bi
        return coeff * math.sin(float(np.dot(a, x)) + b + sum(beta) * math.pi / 2.0)

    return quadrature.make_sine_integrand(a, b, amplitude), scalar_partial


@pytest.mark.parametrize("d,j", [(20, 6), (8, 8), (30, 4)])
def test_taylor_bit_identical_to_scalar_loop(d, j):
    f, scalar_partial = _sine_case(d, seed=d + j)
    dom = geometry.DomainSpec.cube(d)
    result = quadrature.quad_taylor(f, dom, j)
    assert (result.value, result.evaluations_used) == _scalar_taylor(f, d, j, scalar_partial)
    betas = quadrature._even_multi_indices(d, j)
    batched = f.analytic_partial(dom.center, betas)
    assert batched.tolist() == [scalar_partial(dom.center, beta) for beta in betas.tolist()]


def test_taylor_fd_bit_identical_to_scalar_loop():
    # (12, 6) is the README and benchmark size, (8, 8) has 81-node
    # stencils, and with one h for every order the stencils of different
    # orders share nodes, so the cache must merge them.
    for d, j, h in [(6, 4, None), (12, 6, None), (8, 8, None), (4, 4, 0.01)]:
        sine, _ = _sine_case(d, seed=3)
        f = quadrature.Integrand(eval=sine.eval, exact_integral=sine.exact_integral)
        result = quadrature.quad_taylor(f, geometry.DomainSpec.cube(d), j, h=h)
        expected = _scalar_taylor(f, d, j, h=h)
        assert (result.value, result.evaluations_used) == expected, (d, j, h)


@pytest.mark.parametrize("beta", [(0, 0, 0), (1, 0, 2), (3, 1, 0), (2, 2, 2), (0, 5, 3)])
def test_fd_partial_bit_identical_to_scalar_stencil(beta):
    # Odd orders and a point off the cube center; then the stencil build
    # with a cache shared across multi-indices, as the Taylor rule shares it.
    sine, _ = _sine_case(3, seed=5)
    f = quadrature.Integrand(eval=sine.eval)
    dom = geometry.DomainSpec.cube(3)
    x = np.array([0.31, 0.5, 0.77])
    got = quadrature.fd_partial(f, x, beta, 0.02, dom=dom)
    assert got == _scalar_fd_partial(f, x, beta, 0.02, dom, {})
    cache, scalar_cache = {}, {}
    shared = quadrature._fd_derivatives(f, x, np.array([(2, 0, 0), beta]), 0.02, dom, cache)
    _scalar_fd_partial(f, x, (2, 0, 0), 0.02, dom, scalar_cache)
    assert shared[1] == _scalar_fd_partial(f, x, beta, 0.02, dom, scalar_cache)
    assert len(cache) == len(scalar_cache)


def test_taylor_fd_memory_is_bounded_by_blocks():
    # d=30, j=6: 5,456 multi-indices with 127,036 stencil nodes, 39,801
    # of them distinct.  The stencil arrays are built a block of rows at
    # a time, so the peak is the cache of distinct nodes plus one block.
    d, j = 30, 6
    sine, _ = _sine_case(d, seed=1)
    f = quadrature.Integrand(eval=sine.eval)
    tracemalloc.start()
    try:
        result = quadrature.quad_taylor(f, geometry.DomainSpec.cube(d), j)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.evaluations_cap == 127_036
    assert result.evaluations_used == 39_801
    assert peak <= 32 * 2**20
    # The node-by-node loop's value at this size.
    assert result.value == 0.0468167448397735


def test_taylor_fd_cache_keys_hold_only_the_coordinates_that_move():
    # d=30, j=6: a node differs from x* in at most three coordinates, so
    # its key (their indices and bits, 36 bytes) is far shorter than the
    # node's 240 bytes of coordinates, and the distinct keys are still the
    # 39,801 distinct nodes.
    d, j = 30, 6
    sine, _ = _sine_case(d, seed=1)
    f = quadrature.Integrand(eval=sine.eval)
    dom = geometry.DomainSpec.cube(d)
    cache = {}
    betas = quadrature._even_multi_indices(d, j)
    quadrature._fd_derivatives(f, dom.center, betas, None, dom, cache)
    assert len(cache) == 39_801
    assert max(map(len, cache)) < 8 * d


def test_taylor_budget_refuses_before_evaluating():
    def never(points):
        raise AssertionError("evaluated despite the budget")

    dom = geometry.DomainSpec.cube(4)
    analytic = quadrature.Integrand(eval=never, analytic_partial=lambda x, betas: never(x))
    with pytest.raises(quadrature.EvaluationBudgetError, match="15 derivative"):
        quadrature.quad_taylor(analytic, dom, 4, max_evals=14)
    # d=4, j=4: sum over the 15 indices of prod(beta_i + 1) = 1 + 4*3 + 4*5 + 6*9 = 87.
    fd = quadrature.Integrand(eval=never)
    with pytest.raises(quadrature.EvaluationBudgetError, match="up to 87 stencil"):
        quadrature.quad_taylor(fd, dom, 4, max_evals=86)
    assert quadrature.quad_taylor(
        quadrature.make_sine_integrand(np.ones(4), 0.3), dom, 4, max_evals=15
    ).evaluations_used == 15


def test_stencil_bound_counts_the_enumerated_stencils():
    for d in range(1, 25):
        for j in range(9):
            betas = quadrature._even_multi_indices(d, j)
            assert quadrature._stencil_bound(d, j) == int(quadrature._stencil_sizes(betas).sum())
    assert quadrature._stencil_bound(12, 6) == 8_695


def test_taylor_budget_refuses_before_enumerating(monkeypatch):
    def never(*args):
        raise AssertionError("multi-indices enumerated despite the budget")

    monkeypatch.setattr(quadrature, "_even_multi_indices", never)
    fd = quadrature.Integrand(eval=never)
    dom = geometry.DomainSpec.cube(12)
    with pytest.raises(quadrature.EvaluationBudgetError, match="up to 8695 stencil"):
        quadrature.quad_taylor(fd, dom, 6, max_evals=8_694)


@pytest.mark.parametrize("d", [2, 4])
@pytest.mark.parametrize("j", [1, 2, 3, 4])
def test_taylor_error_within_bound_sine_family(d, j):
    dom = geometry.DomainSpec.cube(d)
    rng = np.random.default_rng(100 * d + j)
    a = rng.standard_normal(d)
    a /= np.linalg.norm(a)
    f = quadrature.make_sine_integrand(a, float(rng.random()))
    result = quadrature.quad_taylor(f, dom, j)
    lip_j = 0.1  # amplitude * ||a||^{j+1} with a unit
    bound = 0.5 ** (j + 1) / math.factorial(j) * lip_j * d ** ((j + 1) / 2.0)
    assert abs(result.value - f.exact_integral) <= bound


def test_taylor_rejects_ball_domain():
    dom = geometry.DomainSpec.lp_ball(2, 3)
    f = quadrature.make_sine_integrand(np.ones(3), 0.0)
    with pytest.raises(quadrature.UnsupportedDomainError):
        quadrature.quad_taylor(f, dom, 2)


def test_reference_integral_constant_has_zero_width():
    dom = geometry.DomainSpec.cube(2)
    mean, half = quadrature.reference_integral(_constant_integrand(0.8), dom, 2000, seed=1)
    assert mean == 0.8
    assert half == 0.0


def test_reference_integral_matches_sine_closed_form():
    dom = geometry.DomainSpec.cube(3)
    a = np.array([1.2, -0.4, 2.0])
    f = quadrature.make_sine_integrand(a, 0.9, amplitude=1.0)
    mean, half = quadrature.reference_integral(f, dom, 50_000, seed=17)
    assert abs(mean - f.exact_integral) <= 3.0 * half


def test_reference_integral_deterministic():
    dom = geometry.DomainSpec.cube(2)
    f = quadrature.make_sine_integrand(np.array([0.5, 0.5]), 0.1)
    first = quadrature.reference_integral(f, dom, 5000, seed=9)
    second = quadrature.reference_integral(f, dom, 5000, seed=9)
    assert first == second


def test_reference_integral_same_on_one_and_four_cpus(report_cpus):
    dom = geometry.DomainSpec.cube(20)
    f = quadrature.make_sine_integrand(np.linspace(-1.0, 1.0, 20), 0.3)
    c0 = quadrature.Integrand(eval=fooling.fooling_c0(
        hull.PointSet(dom.center[None, :], domain=dom), 2.0))
    runs = []
    for cpus in (1, 4):
        report_cpus(cpus)
        runs.append(quadrature.reference_integral(f, dom, 5 * (1 << 14) + 7, seed=4))
        runs.append(quadrature.reference_integral(c0, dom, 3 * (1 << 14), seed=5))
    assert runs[:2] == runs[2:]


def test_reference_integral_fooling_c1_band():
    # f is one outside the double neighborhood and non-negative, so its
    # integral sits between 1 - vol(K_{2 delta}) and 1.
    d, delta = 3, 0.08
    dom = geometry.DomainSpec.cube(d)
    rng = np.random.default_rng(5)
    ps = hull.PointSet(0.3 + 0.4 * rng.random((4, d)), domain=dom)
    f = fooling.fooling_c1(ps, delta)
    integrand = quadrature.Integrand(eval=f)
    mean, half = quadrature.reference_integral(integrand, dom, 4000, seed=6)
    vol_est = volume.mc_hull_neighborhood_volume(ps, dom, 2.0 * delta, 20_000, seed=7)
    floor = 1.0 - vol_est.mean - 3.0 * (half + vol_est.half_width_95)
    assert floor <= mean <= 1.0 + 1e-12


def test_sine_integral_zero_coefficient_coordinates():
    # Coordinates with zero frequency integrate to one and drop out.
    exact_2d = quadrature.sine_integral_cube(np.array([1.3, 0.0]), 0.4)
    exact_1d = quadrature.sine_integral_cube(np.array([1.3]), 0.4)
    assert exact_2d == pytest.approx(exact_1d, rel=1e-14)


def test_one_point_error_within_gradient_class_bound():
    # For integrands with Lipschitz gradient, the centroid rule errs by
    # at most L1 * diam^2; check it on c1 fooling instances.
    rng = np.random.default_rng(23)
    for d, delta in [(2, 0.6), (3, 0.3), (4, 0.15)]:
        dom = geometry.DomainSpec.cube(d)
        ps = hull.PointSet(dom.sample(rng, 4), domain=dom)
        f = fooling.fooling_c1(ps, delta)
        integrand = quadrature.Integrand(eval=f)
        rule = quadrature.quad_one_point(integrand, dom)
        ref, half = quadrature.reference_integral(integrand, dom, 20_000, seed=d)
        lip_grad = f.certificate.value(1, d)
        bound = lip_grad * d  # L1 diam^2, the cube's diameter being sqrt(d)
        assert abs(ref - rule.value) <= bound + 3.0 * half


def test_one_point_error_with_tail_term_on_ball():
    # On a ball domain with a smaller concentration radius R the bound
    # gains the term 2 * tail_mass(R); the inequality must still hold.
    d = 8
    dom = geometry.DomainSpec.lp_ball(2, d)
    ps = hull.PointSet(np.zeros((1, d)), domain=dom)
    lip = 1.0 / math.sqrt(d)
    f = fooling.fooling_c0(ps, lip)
    integrand = quadrature.Integrand(eval=f)
    rule = quadrature.quad_one_point(integrand, dom)
    assert rule.value == 0.0
    ref, half = quadrature.reference_integral(integrand, dom, 20_000, seed=5)
    big_r = 0.8 * dom.radius_ratio
    # Mass of the domain at distance >= big_r * sqrt(d) from the rule's node.
    tail = mc_mean(
        lambda gen, size: np.linalg.norm(dom.sample(gen, size), axis=1) >= big_r * math.sqrt(d),
        6, 20_000, threads=1,
    )
    from curselab.bounds import ub_one_point_c0

    bound = ub_one_point_c0(lip, d, big_r, tail.mean).extras["value"]
    assert tail.mean > 0.0  # the tail term genuinely contributes
    assert abs(ref - rule.value) <= bound + 3.0 * (half + 2.0 * tail.half_width_95)
