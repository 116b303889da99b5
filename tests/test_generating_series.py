"""The named generating series against sympy's expansions through x^12.

sympy is an independent oracle here: it expands each closed form
symbolically, while the package builds the series from its table of
Bernoulli numbers and the exponential series.  sympy is a test extra
(pyproject.toml); src/ never imports it (test_dependencies.py).
"""

import functools
from fractions import Fraction

import pytest
import sympy as sp

from formaldisk import (exp_series, inverse_sqrt_sinh_quotient,
                        sinh_quotient_series, theta_series, tilde_todd_series,
                        todd_series, wheel_weight_closed)

ORDER = 12
x = sp.Symbol("x")
SINH_QUOTIENT = 2 * sp.sinh(x / 2) / x      # (e^{x/2} - e^{-x/2}) / x
THETA = -sp.log(SINH_QUOTIENT) / 2


@functools.cache
def _taylor(expr):
    """sympy's coefficients of x^0 .. x^ORDER, as Fractions."""
    poly = sp.series(expr, x, 0, ORDER + 1).removeO()
    return [Fraction(int(c.p), int(c.q))
            for c in (sp.Rational(poly.coeff(x, k)) for k in range(ORDER + 1))]


@pytest.mark.parametrize("build, expr", [
    (todd_series, x / (1 - sp.exp(-x))),
    (tilde_todd_series, 1 / SINH_QUOTIENT),
    (theta_series, THETA),
    (sinh_quotient_series, SINH_QUOTIENT),
    (inverse_sqrt_sinh_quotient, sp.sqrt(1 / SINH_QUOTIENT)),
    (lambda order: exp_series(order, -2), sp.exp(-2 * x)),
    (lambda order: exp_series(order, Fraction(-1, 2)), sp.exp(-x / 2)),
    (lambda order: exp_series(order, 1), sp.exp(x)),
], ids=["todd", "tilde-todd", "theta", "sinh-quotient",
        "inverse-sqrt-sinh-quotient", "exp(-2x)", "exp(-x/2)", "exp(x)"])
def test_generating_series_match_sympy(build, expr):
    f = build(ORDER)
    assert (f.dim, f.cap) == (1, ORDER)
    assert [f.coefficient((k,)) for k in range(ORDER + 1)] == _taylor(expr)


def test_wheel_weights_match_sympy():
    # W_l = -(-1)^{l(l+1)/2} l s_hat_l, s_hat_l the x^l coefficient of
    # (1/2) log of the sinh quotient, that is -theta_l
    s_hat = [-c for c in _taylor(THETA)]
    for l in range(1, ORDER + 1):
        sign = (-1) ** (l * (l + 1) // 2)
        assert wheel_weight_closed(l) == -sign * l * s_hat[l], l
