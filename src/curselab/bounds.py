"""Closed-form complexity bounds and the tractability classifier.

Information complexity here means the minimal number of function values
needed to integrate every member of a smoothness class with worst-case
error at most ``eps``.  Lower bounds certify the curse of dimensionality
(cost growing like ``c (1+gamma)^d``); upper bounds come from one-point
and Taylor rules.  Everything is stored in log-domain so quantities like
``(8/7)^10000`` never overflow.

Smoothness classes are described symbolically: per derivative order j
the Lipschitz bound is ``L_{j,d} = c_j * d^{e_j}``, with the infinite
tail of a ``C^inf`` profile written as
``C * a^j * ((j - s)!)^q * d^{-(u + v j)}``.  The classifier only reads
exponents and factorial powers, which is what the asymptotic conditions
actually test; finite data tables could not certify any of them.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from scipy.special import gammaln

__all__ = [
    "TailRule",
    "SmoothnessProfile",
    "BoundReport",
    "Verdict",
    "lb_lipschitz",
    "lb_lipschitz_gradient_cube",
    "lb_higher_smoothness",
    "ub_one_point_c0",
    "ub_one_point_c1",
    "ub_taylor",
    "quasi_poly_cost_bound",
    "unit_derivative_cost_bound",
    "non_uniform_weak_witness",
    "classify",
    "exp_or_inf",
    "GRADIENT_CUBE_L0",
    "GRADIENT_CUBE_L1",
]

#: Lipschitz profile realized by the cube construction behind the
#: gradient-class lower bound: L0 = 400/sqrt(d), L1 = 16e5/d.
GRADIENT_CUBE_L0 = 400.0
GRADIENT_CUBE_L1 = 16.0e5

# 3 sqrt(2 e pi): L sqrt(d) over it is the base of the Lipschitz lower bound.
_THREE_SQRT_2_E_PI = 3.0 * math.sqrt(2.0 * math.e * math.pi)


def exp_or_inf(log_value: float) -> float:
    """exp(log_value), or inf where that exceeds the float range."""
    try:
        return math.exp(log_value)
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# Smoothness profiles


@dataclass(frozen=True)
class TailRule:
    """All orders j >= 1 of an infinitely smooth profile.

    ln L_{j,d} = log_constant + j*log_base
                 + factorial_power * ln((j - factorial_shift)!)
                 - (d_exponent_base + d_exponent_slope * j) * ln d.
    """

    log_constant: float
    log_base: float = 0.0
    factorial_power: float = 0.0
    factorial_shift: int = 0
    d_exponent_base: float = 0.0
    d_exponent_slope: float = 0.0

    def log_value(self, j: int, d: int) -> float:
        if j < 1:
            raise ValueError("tail rule covers orders j >= 1")
        if j - self.factorial_shift < 0:
            raise ValueError("factorial shift exceeds order")
        return (
            self.log_constant
            + j * self.log_base
            + self.factorial_power * gammaln(j - self.factorial_shift + 1.0)
            - (self.d_exponent_base + self.d_exponent_slope * j) * math.log(d)
        )

    def d_exponent(self, j: int) -> float:
        return -(self.d_exponent_base + self.d_exponent_slope * j)


@dataclass(frozen=True)
class SmoothnessProfile:
    """Symbolic double sequence of Lipschitz bounds L_{j,d}.

    ``levels`` holds one ``(log_constant, d_exponent)`` pair per order,
    ln L_{j,d} = log_constant + d_exponent * ln d: orders 0..k of a
    finite profile, order 0 alone of an infinite one, whose orders
    j >= 1 follow ``tail``.  ``derivative_kind`` records whether the
    bounds constrain directional derivatives (multilinear-map norms) or
    only partial derivatives; partial profiles embed into directional
    ones at the price of a ``d^{j/2}`` factor per order.
    """

    k: float  # number of derivative orders; math.inf allowed
    derivative_kind: str  # "directional" | "partial"
    levels: tuple[tuple[float, float], ...] = field(default=())
    tail: TailRule | None = None

    def __post_init__(self):
        if self.derivative_kind not in ("directional", "partial"):
            raise ValueError("derivative_kind must be 'directional' or 'partial'")
        if math.isinf(self.k):
            if self.tail is None or len(self.levels) != 1:
                raise ValueError(
                    "infinite profiles need exactly the order-0 level plus a tail rule"
                )
        else:
            if self.tail is not None:
                raise ValueError("finite profiles must not carry a tail rule")
            if len(self.levels) != int(self.k) + 1:
                raise ValueError("finite profiles need k + 1 level rules")

    @staticmethod
    def finite(
        levels: list[tuple[float, float]], derivative_kind: str = "directional"
    ) -> "SmoothnessProfile":
        """Build from (constant, d_exponent) pairs for j = 0 .. k."""
        return SmoothnessProfile(k=len(levels) - 1, derivative_kind=derivative_kind,
                                 levels=tuple((math.log(c), e) for c, e in levels))

    @staticmethod
    def infinite(
        level0: tuple[float, float],
        tail: TailRule,
        derivative_kind: str = "directional",
    ) -> "SmoothnessProfile":
        c0, e0 = level0
        return SmoothnessProfile(
            k=math.inf,
            derivative_kind=derivative_kind,
            levels=((math.log(c0), e0),),
            tail=tail,
        )

    def log_value(self, j: int, d: int) -> float:
        """ln L_{j,d}; defined for 0 <= j <= k."""
        if j < 0 or j > self.k:
            raise ValueError(f"order {j} outside profile range")
        if j == 0 or (not math.isinf(self.k)):
            log_constant, d_exponent = self.levels[j]
            return log_constant + d_exponent * math.log(d)
        return self.tail.log_value(j, d)

    def value(self, j: int, d: int) -> float:
        return math.exp(self.log_value(j, d))

    def d_exponent(self, j: int) -> float:
        if j < 0 or j > self.k:
            raise ValueError(f"order {j} outside profile range")
        if j == 0 or (not math.isinf(self.k)):
            return self.levels[j][1]
        return self.tail.d_exponent(j)

    def to_json_dict(self, d: int) -> dict:
        """The bounds at dimension d, for orders 0..k (0..8 for infinite k)."""
        top = int(self.k) if not math.isinf(self.k) else 8
        return {
            "k": "inf" if math.isinf(self.k) else int(self.k),
            "derivative_kind": self.derivative_kind,
            "d": d,
            "log_bounds": {str(j): self.log_value(j, d) for j in range(top + 1)},
        }


# ---------------------------------------------------------------------------
# Bound reports


@dataclass(frozen=True)
class BoundReport:
    """A lower or upper complexity/error bound, stored in log-domain."""

    log_value: float
    rule: str
    direction: str  # "lower" | "upper"
    preconditions_met: bool
    note: str = ""
    extras: dict = field(default_factory=dict)


def _failed(rule: str, direction: str, note: str, **extras) -> BoundReport:
    """A bound whose preconditions do not hold."""
    return BoundReport(-math.inf, rule, direction, False, note, extras)


def _met(rule: str, direction: str, log_value: float, note: str = "", **extras) -> BoundReport:
    """A bound whose preconditions hold."""
    return BoundReport(log_value, rule, direction, True, note, extras)


def lb_lipschitz(eps: float, d: int, lip: float, a: float = 1.0) -> BoundReport:
    """Lower bound (1 - a eps) (a L sqrt(d) / (3 sqrt(2 e pi)))^d for Lipschitz classes."""
    rule = "lipschitz_lower"
    if a < 1.0:
        return _failed(rule, "lower", f"requires a >= 1, got {a}")
    if not 0.0 < eps < 1.0 / a:
        return _failed(rule, "lower", f"requires eps in (0, 1/a), got eps={eps}, a={a}")
    if lip <= 0.0 or d < 1:
        return _failed(rule, "lower", "requires lip > 0 and d >= 1")
    base = a * lip * math.sqrt(d) / _THREE_SQRT_2_E_PI
    return _met(rule, "lower", math.log1p(-a * eps) + d * math.log(base), base=base)


def lb_lipschitz_gradient_cube(eps: float, d: int) -> BoundReport:
    """Lower bound (1-eps)/(d+1) * (8/7)^d on the cube.

    Applies to the gradient class with L0 = 400/sqrt(d), L1 = 16e5/d
    (and to every constant multiple of that profile).
    """
    rule = "gradient_cube_lower"
    if not 0.0 < eps < 1.0:
        return _failed(rule, "lower", f"requires eps in (0,1), got {eps}")
    if d < 1:
        return _failed(rule, "lower", "requires d >= 1")
    return _met(rule, "lower", math.log1p(-eps) - math.log(d + 1.0) + d * math.log(8.0 / 7.0),
                L0=GRADIENT_CUBE_L0 / math.sqrt(d), L1=GRADIENT_CUBE_L1 / d)


def lb_higher_smoothness(eps: float, d: int, growth: float) -> BoundReport:
    """Lower bound (1 - eps) growth^d for higher-smoothness classes.

    The caller supplies growth > 1 obtained from the hull-neighborhood
    volume decay at the chosen delta (small-radius or cube regime).
    """
    rule = "higher_smoothness_lower"
    if growth <= 1.0:
        return _failed(rule, "lower", f"requires growth > 1, got {growth}")
    if not 0.0 < eps < 1.0:
        return _failed(rule, "lower", f"requires eps in (0,1), got {eps}")
    return _met(rule, "lower", math.log1p(-eps) + d * math.log(growth))


def _log_value(value: float, terms: list[tuple[float, ...]]) -> float:
    """ln of a non-negative ``value``, the sum of the products of ``terms``.

    Where the value overflowed, the log comes from the factors' logs.
    """
    if value == 0.0:
        return -math.inf
    if math.isfinite(value):
        return math.log(value)
    logs = [sum(map(math.log, factors)) for factors in terms if min(factors) > 0.0]
    top = max(logs)
    return top + math.log(sum(math.exp(v - top) for v in logs))


def ub_one_point_c0(lip: float, d: int, big_r: float, tail: float) -> BoundReport:
    """Worst-case error of the one-point rule: R L sqrt(d) + 2 tail."""
    rule = "one_point_c0_upper"
    if lip < 0.0 or big_r < 0.0 or tail < 0.0 or d < 1:
        return _failed(rule, "upper", "requires non-negative arguments and d >= 1")
    terms = [(big_r, lip, math.sqrt(d)), (2.0, tail)]
    value = sum(math.prod(factors) for factors in terms)
    return _met(rule, "upper", _log_value(value, terms), value=value)


def ub_one_point_c1(
    lip_grad: float,
    diam: float,
    big_r: float | None = None,
    tail: float | None = None,
    d: int | None = None,
) -> BoundReport:
    """Centroid-rule error: L1 diam^2, or R^2 L1 d + 2 tail when (R, tail, d) given."""
    rule = "one_point_c1_upper"
    if lip_grad < 0.0 or diam < 0.0:
        return _failed(rule, "upper", "requires non-negative arguments")
    if big_r is not None:
        if tail is None or d is None:
            return _failed(rule, "upper", "ball variant needs big_r, tail and d")
        terms = [(big_r, big_r, lip_grad, d), (2.0, tail)]
        variant = "ball"
    else:
        terms = [(lip_grad, diam, diam)]
        variant = "diameter"
    value = sum(math.prod(factors) for factors in terms)
    return _met(rule, "upper", _log_value(value, terms), value=value, variant=variant)


def ub_taylor(j: int, lip_j: float, d: int, big_r: float) -> BoundReport:
    """Taylor-rule error bound R^{j+1} / j! * L_j * d^{(j+1)/2} (log-domain)."""
    rule = "taylor_upper"
    if j < 0 or d < 1 or big_r < 0.0 or lip_j < 0.0:
        return _failed(rule, "upper", "requires j >= 0, d >= 1, non-negative R and L")
    if lip_j == 0.0 or big_r == 0.0:
        return _met(rule, "upper", -math.inf, value=0.0)
    log_value = (
        (j + 1) * math.log(big_r)
        - gammaln(j + 1.0)
        + math.log(lip_j)
        + 0.5 * (j + 1) * math.log(d)
    )
    # The log stays finite; the value is inf beyond the float range.
    return _met(rule, "upper", log_value, value=exp_or_inf(log_value))


def _order_for(c: float, eps: float, a: float) -> int:
    """ceil(log_a(c / eps)), at least 0, for a > 1 and c, eps > 0.

    The float quotient of logs (ln c - ln eps stays finite where c / eps
    would overflow) can land a few ulps above an integer k where c / eps
    is a^k: c=0.5, eps=2^-25, a=2 gives 24.000000000000004.  Such a k is
    kept only if the exact rational a^k >= c / eps confirms it, so the
    order never comes out below the true ceiling.  Above k = 4096 that
    power is not formed and the ceiling stands.
    """
    log_c, log_eps, log_a = math.log(c), math.log(eps), math.log(a)
    quotient = (log_c - log_eps) / log_a
    k = math.floor(quotient)
    # The three logs, the difference and the quotient round once each;
    # 8 ulps of (|ln c| + |ln eps|) / ln a bound their sum with room to spare.
    ulps = 8.0 * sys.float_info.epsilon * (abs(log_c) + abs(log_eps)) / log_a
    if (0 <= k <= 4096 and quotient - k <= ulps
            and Fraction(a) ** k >= Fraction(c) / Fraction(eps)):
        return k
    return max(0, math.ceil(quotient))


def quasi_poly_cost_bound(eps: float, d: int, c: float, a: float) -> BoundReport:
    """Cost of the Taylor rule at order k_eps = ceil(log_a(c/eps)).

    Returns ln n <= k_eps (1 + ln d) together with the closed
    quasi-polynomial envelope (1+ln c)(1+1/ln a)(1-ln eps)(1+ln d).
    A non-positive k_eps means a single evaluation suffices.
    """
    rule = "quasi_poly_cost"
    if a <= 1.0 or c <= 0.0 or not 0.0 < eps < 1.0:
        return _failed(rule, "upper", "requires a > 1, c > 0, eps in (0,1)")
    k_eps = _order_for(c, eps, a)
    log_n = k_eps * (1.0 + math.log(d)) if k_eps > 0 else 0.0
    envelope = (
        (1.0 + math.log(c))
        * (1.0 + 1.0 / math.log(a))
        * (1.0 - math.log(eps))
        * (1.0 + math.log(d))
    )
    return _met(rule, "upper", log_n, k_eps=k_eps, envelope=envelope)


def unit_derivative_cost_bound(eps: float, d: int, rad: float) -> BoundReport:
    """Cost bound for the class with all directional derivatives at most one.

    ln n <= (1 + ln d) * max{e^2 rad, ln(rad / eps)}.
    """
    rule = "unit_derivative_cost"
    if not 0.0 < eps < 1.0 or d < 1 or rad <= 0.0:
        return _failed(rule, "upper", "requires eps in (0,1), d >= 1, rad > 0")
    first = math.e**2 * rad
    second = math.log(rad / eps)
    return _met(rule, "upper", (1.0 + math.log(d)) * max(first, second),
                curvature_branch=first, accuracy_branch=second)


def non_uniform_weak_witness(m: float, k: int, alpha: float) -> BoundReport:
    """Positive liminf witnessing failure of uniform weak tractability.

    For a finite-smoothness class whose bounds satisfy
    ``limsup L_{j,d} d^m > 0`` for all j <= k, the sequence
    ``eps_i = d_i^{-m} / 2`` gives
    ``liminf (d_i - 1) ln 2 / (d_i^alpha + 2^alpha d_i^{alpha m}) > 0``
    whenever ``alpha <= 1/m``; larger alpha is inconclusive.
    """
    rule = "uniform_weak_witness"
    if m <= 0.0 or k < 0:
        return _failed(rule, "lower", "requires m > 0 and k >= 0")
    if alpha <= 0.0 or alpha > 1.0:
        return _failed(rule, "lower", f"requires alpha in (0, 1], got {alpha}")
    if alpha > 1.0 / m:
        note = f"alpha={alpha} exceeds 1/m={1.0 / m}; the ratio tends to zero"
        return _failed(rule, "lower", note, limit=0.0)
    top = max(alpha, alpha * m)
    if top < 1.0:
        limit = math.inf
    else:
        coeff = (1.0 if alpha == 1.0 else 0.0) + (
            2.0**alpha if alpha * m == 1.0 else 0.0
        )
        limit = math.log(2.0) / coeff
    return _met(rule, "lower", math.log(limit),
                "liminf of (d-1) ln2 / (d^alpha + 2^alpha d^(alpha m)) along eps_d = d^-m / 2",
                limit=limit, eps_sequence="d^-m / 2", k=k)


# ---------------------------------------------------------------------------
# Classifier


@dataclass(frozen=True)
class Verdict:
    """Outcome of the tractability classification.

    Curse verdicts carry the constants (c, gamma, eps0) of the
    exponential lower bound and sampled values of ``ln n >= ln c +
    d ln(1 + gamma)`` over a small (d, eps) grid.
    """

    verdict: str  # curse | no_curse | QPT | WT | UWT | not_UWT | indeterminate_gap
    rule: str
    explanation: str
    witness: dict = field(default_factory=dict)

    def log_bound_at(self, d: int, eps: float) -> float | None:
        if self.verdict != "curse" or eps > self.witness.get("eps0", 0.0):
            return None
        return math.log(self.witness["c"]) + d * math.log1p(self.witness["gamma"])

    def to_json_dict(self) -> dict:
        samples = []
        if self.verdict == "curse":
            eps = 0.5 * self.witness["eps0"]
            samples = [
                {"d": d, "eps": eps, "log_bound": self.log_bound_at(d, eps)}
                for d in (10, 100, 1000)
            ]
        return {
            "verdict": self.verdict,
            "rule": self.rule,
            "explanation": self.explanation,
            "witness_parameters": dict(self.witness),
            "log_bound_samples": samples,
        }


_P_FAMILIES = ("cube", "small_radius", "convex_P")
_HULL_FAMILIES = ("cube", "small_radius")


def _curse_witness(profile: SmoothnessProfile) -> dict:
    """Constants (c, gamma, eps0) of the exponential lower bound."""
    c0 = math.exp(profile.levels[0][0])
    if profile.k == 0:
        # Scale the class so the base becomes 2: a = 2 * 3 sqrt(2 e pi) / c0.
        a = max(1.0, 2.0 * _THREE_SQRT_2_E_PI / c0)
        return {"c": 0.5, "gamma": 1.0, "eps0": 1.0 / (2.0 * a), "scale": a}
    return {"c": 0.5, "gamma": 1.0 / 7.0, "eps0": 0.5, "base": 8.0 / 7.0}


def classify(profile: SmoothnessProfile, dom_family: str) -> Verdict:
    """Tractability verdict for a smoothness profile over a domain family.

    ``dom_family`` is one of ``cube``, ``small_radius`` (convex sets with
    radius ratio below the decay threshold), ``convex_P`` (convex with the
    concentrated-mass property) and ``convex``.  Verdicts follow the
    sharpest applicable criterion; profiles falling between the known
    sufficient and necessary conditions get ``indeterminate_gap``.
    """
    if dom_family not in ("cube", "small_radius", "convex_P", "convex"):
        raise ValueError(f"unknown domain family {dom_family!r}")
    partial = profile.derivative_kind == "partial"
    k = profile.k
    e0 = profile.d_exponent(0)

    # Lower-bound (curse) conditions read the profile as given: bounds for
    # directional classes transfer unchanged to partial ones.  Upper-bound
    # conditions for partial profiles embed at the price of d^{j/2}, which
    # shifts the no-curse threshold from d^{(j+1)/2} to d^{j+1/2}.
    def no_curse_threshold(j: int) -> float:
        return -(j + 0.5) if partial else -0.5 * (j + 1)

    if k == 0:
        if dom_family not in _P_FAMILIES:
            return Verdict(
                "indeterminate_gap",
                "none",
                "the Lipschitz dichotomy needs the concentrated-mass property",
            )
        if e0 >= -0.5:
            return Verdict(
                "curse",
                "lipschitz_dichotomy",
                "limsup L_{0,d} sqrt(d) > 0 forces exponential cost",
                _curse_witness(profile),
            )
        return Verdict(
            "no_curse",
            "lipschitz_dichotomy",
            "L_{0,d} sqrt(d) -> 0: one point suffices for large d",
        )

    if not math.isinf(k):
        k = int(k)
        exps = [profile.d_exponent(j) for j in range(k + 1)]
        curse_cond = e0 >= -0.5 and all(exps[j] >= -1.0 for j in range(1, k + 1))
        no_curse_cond = any(exps[j] < no_curse_threshold(j) for j in range(k + 1))
        if k == 1 and not partial:
            if dom_family not in _HULL_FAMILIES:
                return Verdict(
                    "indeterminate_gap",
                    "none",
                    "the gradient dichotomy needs the cube or a small-radius convex domain",
                )
            if curse_cond:
                return Verdict(
                    "curse",
                    "gradient_dichotomy",
                    "limsup L_{0,d} sqrt(d) > 0 and limsup L_{1,d} d > 0",
                    _curse_witness(profile),
                )
            return Verdict(
                "no_curse",
                "gradient_dichotomy",
                "one of the two limsup conditions fails; a one-point rule wins",
            )
        if curse_cond and dom_family in _HULL_FAMILIES:
            return Verdict(
                "curse",
                "smoothed_hull_lower",
                "limsup L_{0,d} sqrt(d) > 0 and limsup L_{j,d} d > 0 for all j <= k",
                _curse_witness(profile),
            )
        if no_curse_cond:
            return Verdict(
                "no_curse",
                "taylor_upper",
                "some order j has L_{j,d} decaying faster than the Taylor threshold",
            )
        return Verdict(
            "indeterminate_gap",
            "none",
            "between the known sufficient and necessary conditions for k >= 2",
        )

    # Infinitely smooth profiles.
    tail = profile.tail
    q = tail.factorial_power
    u, v = tail.d_exponent_base, tail.d_exponent_slope
    log_a = tail.log_base

    curse_cond = (
        dom_family in _HULL_FAMILIES
        and e0 >= -0.5
        and q > 1.0
        and v <= 0.0
        and u + v <= 1.0
    )
    if curse_cond:
        return Verdict(
            "curse",
            "infinite_smoothness_lower",
            "factorial growth above (j!)^(1+eta) with L_{j,d} d bounded away from zero",
            _curse_witness(profile),
        )

    # Quasi-polynomial upper bound: L_{j,d} <= c (2-delta)^j j! d^{-(j+1)/2}.
    shift_ok = q < 1.0 or (q == 1.0 and log_a < math.log(2.0))
    qpt_cond = dom_family in _HULL_FAMILIES and shift_ok and u >= 0.5 and v >= 0.5
    if qpt_cond:
        return Verdict(
            "QPT",
            "taylor_quasi_poly",
            "factorial power at most one and d-decay at least d^{-(j+1)/2}",
            {"factorial_power": q, "log_base": log_a},
        )

    # Uniform bound by a constant: weak tractability on cubes and balls.
    bounded_cond = q <= 0.0 and log_a <= 0.0 and u >= 0.0 and v >= 0.0
    if bounded_cond and dom_family in _HULL_FAMILIES:
        return Verdict(
            "WT",
            "unit_derivative_upper",
            "uniformly bounded derivatives: cost is sub-exponential in d and 1/eps",
        )

    no_curse_cond = (v > (1.0 if partial else 0.5)) or (
        u + v > (1.5 if partial else 1.0)
    )
    if no_curse_cond:
        return Verdict(
            "no_curse",
            "taylor_upper",
            "some order decays faster than the Taylor threshold",
        )

    return Verdict(
        "indeterminate_gap",
        "none",
        "between the factorial-growth lower condition and the known upper bounds",
    )
