"""50-digit references for the entanglement of formation of the pair and the
entropy of a one-mode Gaussian state, in stdlib ``decimal``.

They evaluate the textbook forms directly, c+ log2 c+ - c- log2 c- with
c+ = 1 + c- and, for the pair, nu = (1 + 2 (a/b)^2)^(-1/2).  Each spends
digits: 1 - nu loses ~2 |log10(a/b)| of them at weak entanglement, and the
two entropy terms cancel ~log10(c- ln c-) at strong entanglement.  At 50
digits more than 30 stay correct for nu - 1 in [1e-15, 1e12], the range the
tests use; the pair's reference adds 2 |log10(a/b)| digits to its 50, so as
many stay correct at every a/b.
"""

import decimal
from decimal import Decimal

_CONTEXT = decimal.Context(prec=50)


def _entropy(c_minus: Decimal) -> float:
    if c_minus == 0:
        return 0.0
    c_plus = 1 + c_minus
    return float((c_plus * c_plus.ln() - c_minus * c_minus.ln()) / Decimal(2).ln())


def eof_reference(a: float, b: float) -> float:
    """EoF (bits) of the pair (a, b) with nu = (1 + 2 (a/b)^2)^(-1/2) and
    c- = (1 - nu)^2 / (4 nu); b = inf gives 0."""
    with decimal.localcontext(_CONTEXT) as context:
        r = Decimal(float(a)) / Decimal(float(b))
        context.prec += 2 * abs(r.adjusted()) if r else 0
        nu = 1 / (1 + 2 * r * r).sqrt()
        return _entropy((1 - nu) ** 2 / (4 * nu))


def entropy_reference(nu: float) -> float:
    """Entropy (bits) of a one-mode Gaussian state with symplectic eigenvalue
    nu >= 1: c- = (nu - 1)/2."""
    with decimal.localcontext(_CONTEXT):
        return _entropy((Decimal(float(nu)) - 1) / 2)
