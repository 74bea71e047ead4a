"""Exact arithmetic in the coefficient field of the engine.

The paper works in K = Frac( Z[i][ v^{+-1}, L_1^{+-1}, ..., L_n^{+-1} ] ),
where v is a formal square root of the deformation parameter q and L_j is
the Cartan eigenvalue symbol attached to the j-th orthogonal weight
coordinate.  Every check that needs a weight is made at the distinguished
one, L_j^2 = -q^{-1}: on the branch sigma = +-1 every symbol takes the value
L_j = sigma*i*v^{-1} (``weight_symbol``), which adjoining the imaginary
unit makes exactly representable.  Membership in the ideal of the Serre
relations needs no weight at all (Kashiwara's form, in ``verma``), so the
values that occur lie in Q(i)(v) and no L_j is ever stored.

A Scalar is a reduced fraction whose numerator is a Laurent polynomial in v
and whose denominator is a polynomial in v with a nonzero constant term:
v-powers live in the numerator.  Polynomials are dicts from integer
exponents to coefficients, and coefficients are Gaussian integers stored as
(real, imag) pairs of Python ints.  The canonical form is fixed: numerator
and denominator are coprime, the denominator's leading coefficient is a
positive integer, and no integer > 1 divides every real and imaginary part
of both.  Two such forms of one value differ by a factor of Q(i) that keeps
the leading coefficient positive, a positive rational, which the integer
content then forces to be 1; so equality is literal equality of the stored
data.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd


# ---------------------------------------------------------------------------
# Gaussian integers as (re, im) pairs of ints
# ---------------------------------------------------------------------------

G0 = (0, 0)
G1 = (1, 0)

_UNITS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def _gadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _gsub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def _gneg(a):
    return (-a[0], -a[1])


def _gmul(a, b):
    ar, ai = a
    br, bi = b
    return (ar * br - ai * bi, ar * bi + ai * br)


def _gnorm(a):
    return a[0] * a[0] + a[1] * a[1]


def _gdiv_exact(a, b):
    n = _gnorm(b)
    t = _gmul(a, (b[0], -b[1]))
    if t[0] % n or t[1] % n:
        raise ArithmeticError("inexact Gaussian division")
    return (t[0] // n, t[1] // n)


# ---------------------------------------------------------------------------
# Laurent polynomials in v: dict {integer exponent: Gaussian coefficient}
# ---------------------------------------------------------------------------

PONE = {0: G1}


def padd(p, r):
    if not p:
        return dict(r)
    if not r:
        return dict(p)
    out = dict(p)
    for k, c in r.items():
        s = _gadd(out.get(k, G0), c)
        if s == G0:
            out.pop(k, None)
        else:
            out[k] = s
    return out


def pneg(p):
    return {k: _gneg(c) for k, c in p.items()}


def pmul(p, r):
    if not p or not r:
        return {}
    if len(p) > len(r):
        p, r = r, p
    if len(p) == 1:
        (k1, c1), = p.items()
        if k1 == 0 and c1 == G1:
            return dict(r)
        return {k1 + k: _gmul(c1, c) for k, c in r.items()}
    out: dict = {}
    for k1, c1 in p.items():
        for k2, c2 in r.items():
            k = k1 + k2
            s = _gadd(out.get(k, G0), _gmul(c1, c2))
            if s == G0:
                out.pop(k, None)
            else:
                out[k] = s
    return out


def pscale(p, g):
    if g == G0:
        return {}
    if g == G1:
        return dict(p)
    return {k: _gmul(g, c) for k, c in p.items()}


def _pshift(p, e):
    return {k + e: c for k, c in p.items()} if e else dict(p)


# ---- gcd and exact division of polynomials in v (exponents >= 0) ----------

def _icontent(p):
    """The gcd of every real and imaginary part of p's coefficients."""
    g = 0
    for c in p.values():
        g = gcd(g, *c)
        if g == 1:
            break
    return g


def _idiv(p, g):
    return {k: (c[0] // g, c[1] // g) for k, c in p.items()} if g > 1 else p


def _iprim(p):
    return _idiv(p, _icontent(p))


def _positive_lead(p):
    """p times the conjugate of its leading coefficient, unless that is a
    positive integer already, and the factor used."""
    lc = p[max(p)]
    if lc[1] == 0 and lc[0] > 0:
        return p, G1
    u = (lc[0], -lc[1])
    return pscale(p, u), u


def _prem_uni(a, b):
    db = max(b)
    lb = b[db]
    while a and max(a) >= db:
        da = max(a)
        la = a[da]
        na = {e: _gmul(lb, c) for e, c in a.items()}
        del na[da]
        for e, c in b.items():
            if e == db:
                continue
            k = e + da - db
            s = _gsub(na.get(k, G0), _gmul(la, c))
            if s == G0:
                na.pop(k, None)
            else:
                na[k] = s
        a = na
    return a


def _pgcd_uni(p, r):
    """A gcd of p and r up to a constant of Q(i): a primitive remainder
    sequence that strips only integer contents."""
    a, b = _iprim(p), _iprim(r)
    if max(a) < max(b):
        a, b = b, a
    while b:
        a, b = b, _iprim(_prem_uni(a, b))
    return a


def _pdiv_uni(a, b):
    """Exact division; raises ArithmeticError if b does not divide a."""
    db = max(b)
    lb = b[db]
    rem = dict(a)
    quo: dict = {}
    for da in range(max(a), db - 1, -1):
        if da in rem:
            qc = quo[da - db] = _gdiv_exact(rem[da], lb)
            for e, c in b.items():
                s = _gsub(rem.get(e + da - db, G0), _gmul(qc, c))
                if s == G0:
                    rem.pop(e + da - db, None)
                else:
                    rem[e + da - db] = s
    if rem:
        raise ArithmeticError("inexact polynomial division")
    return quo


# ---------------------------------------------------------------------------
# Scalars: reduced fractions of Laurent polynomials
# ---------------------------------------------------------------------------

def _canonical_pair(num, den):
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return {}, dict(PONE)
    mn, md = min(num), min(den)
    npoly, dpoly = _pshift(num, -mn), _pshift(den, -md)
    if len(dpoly) > 1:
        g = _pgcd_uni(dpoly, npoly)
        if len(g) > 1:
            # pseudo-division: with g's leading coefficient the integer L,
            # L^(k+1) times either polynomial is g times one over Z[i]
            g = _positive_lead(g)[0]
            f = (g[max(g)][0] ** (max(max(npoly), max(dpoly)) - max(g) + 1), 0)
            npoly, dpoly = _pdiv_uni(pscale(npoly, f), g), _pdiv_uni(pscale(dpoly, f), g)
    dpoly, u = _positive_lead(dpoly)
    npoly = pscale(npoly, u)
    c = gcd(_icontent(npoly), _icontent(dpoly))
    return _pshift(_idiv(npoly, c), mn - md), _idiv(dpoly, c)


class Scalar:
    """An element of the exact coefficient ring, in reduced canonical form.

    ``num`` is a Laurent polynomial in v; ``den`` is a polynomial in v with
    a nonzero constant term and a positive-integer leading coefficient,
    coprime to ``num``, and the pair has integer content 1.  v-powers live
    in the numerator.
    """

    __slots__ = ("num", "den", "_key")

    def __init__(self, num, den=None, _canonical=False):
        if den is None:
            den = dict(PONE)
        if not _canonical:
            num, den = _canonical_pair(num, den)
        self.num = num
        self.den = den
        self._key = None

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def integer(k: int) -> "Scalar":
        return Scalar.gauss(k, 0)

    @staticmethod
    def gauss(re: int, im: int) -> "Scalar":
        return Scalar({0: (re, im)} if re or im else {}, dict(PONE), _canonical=True)

    @staticmethod
    def v_power(k: int) -> "Scalar":
        return Scalar({k: G1}, dict(PONE), _canonical=True)

    # -- structure -----------------------------------------------------------

    def key(self):
        if self._key is None:
            self._key = (
                tuple(sorted(self.num.items())),
                tuple(sorted(self.den.items())),
            )
        return self._key

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, int):
            other = Scalar.integer(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    # -- ring operations -------------------------------------------------------

    @staticmethod
    def _promote(x):
        if isinstance(x, Scalar):
            return x
        if isinstance(x, int):
            return Scalar.integer(x)
        return NotImplemented

    def __add__(self, other):
        other = Scalar._promote(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == other.den:
            # over den 1 the sum of canonical numerators is canonical
            return Scalar(padd(self.num, other.num), dict(self.den), _canonical=self.den == PONE)
        num = padd(pmul(self.num, other.den), pmul(other.num, self.den))
        return Scalar(num, pmul(self.den, other.den))

    __radd__ = __add__

    def __neg__(self):
        return Scalar(pneg(self.num), dict(self.den), _canonical=True)

    def __sub__(self, other):
        other = Scalar._promote(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return Scalar._promote(other) - self

    def __mul__(self, other):
        other = Scalar._promote(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == PONE == other.den:
            return Scalar(pmul(self.num, other.num), dict(PONE), _canonical=True)
        return Scalar(pmul(self.num, other.num), pmul(self.den, other.den))

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        return ONE / self

    def __truediv__(self, other):
        other = Scalar._promote(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.num:
            raise ZeroDivisionError("division by the zero scalar")
        return Scalar(pmul(self.num, other.den), pmul(self.den, other.num))

    def __rtruediv__(self, other):
        other = Scalar._promote(other)
        return NotImplemented if other is NotImplemented else other / self

    def __pow__(self, k: int):
        if k == 0:
            return ONE
        base = self if k > 0 else ONE / self
        out = base
        for _ in range(abs(k) - 1):
            out = out * base
        return out

    # -- serialization ---------------------------------------------------------

    def __str__(self):
        if not self.num:
            return "0"
        s_num = _poly_str(self.num)
        if self.den == PONE:
            return s_num
        return "( %s ) / ( %s )" % (_poly_str(self.num, bare=True), _poly_str(self.den, bare=True))

    __repr__ = __str__


def _gauss_str(c):
    re, im = c
    if im == 0:
        return str(re)
    if re == 0:
        if im == 1:
            return "i"
        if im == -1:
            return "-i"
        return "%di" % im
    sign = "+" if im > 0 else "-"
    istr = "i" if abs(im) == 1 else "%di" % abs(im)
    return "(%d%s%s)" % (re, sign, istr)


def _poly_str(p, bare=False):
    parts = []
    for e in sorted(p, reverse=True):
        cs = _gauss_str(p[e])
        if not e:
            term = cs
        elif cs in ("1", "-1"):
            term = cs[:-1] + "v^%d" % e
        else:
            term = "%s v^%d" % (cs, e)
        parts.append(term)
    out = parts[0]
    for t in parts[1:]:
        out += " - " + t[1:] if t.startswith("-") else " + " + t
    if bare:
        return out
    return "( %s )" % out if len(parts) > 1 else out


ZERO = Scalar.integer(0)
ONE = Scalar.integer(1)
I_UNIT = Scalar.gauss(0, 1)
Q = Scalar.v_power(2)  # the deformation parameter q = v^2
QBAR = Scalar.v_power(-2)  # q^{-1}


def weight_symbol(sigma: int, k: int = 1) -> Scalar:
    """(sigma*i*v^{-1})^k, where sigma*i*v^{-1} is the value of every L_j at
    the distinguished weight on the branch sigma, a square root of -q^{-1}."""
    return Scalar({-k: _UNITS[sigma * k % 4]}, dict(PONE), _canonical=True)


def theta() -> Scalar:
    """q^{1/2} - q^{-1/2}, the basic deformation gap."""
    return Scalar.v_power(1) - Scalar.v_power(-1)


# ---------------------------------------------------------------------------
# Gaussian rationals, engine modes and numeric points
# ---------------------------------------------------------------------------

def qqi(re=0, im=0):
    return (Fraction(re), Fraction(im))


def qqi_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def qqi_sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def qqi_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def qqi_inv(a):
    n = a[0] * a[0] + a[1] * a[1]
    if n == 0:
        raise ZeroDivisionError("inverse of zero")
    return (a[0] / n, -a[1] / n)


def qqi_pow(a, k: int):
    if a[1] == 0:  # a real point: one Fraction power
        return (a[0] ** k, a[1])
    if k < 0:
        a, k = qqi_inv(a), -k
    out = qqi(1)
    while k:
        if k & 1:
            out = qqi_mul(out, a)
        a, k = qqi_mul(a, a), k >> 1
    return out


QQI_ZERO = qqi(0)
QQI_ONE = qqi(1)


@dataclass(frozen=True)
class SpecMode:
    """Which form the engine evaluates, or where a scalar is evaluated.

    kind is one of "kashiwara", "specialized", "numeric".  A specialized
    mode is the distinguished weight on the branch sigma, where every L_j is
    ``weight_symbol(sigma)``, or on both branches when sigma is None;
    "kashiwara" is Kashiwara's form on the lowering half, which needs no
    weight (``verma.EvalContext``).  A numeric
    mode is a Gaussian rational point v0, nonzero and no root of unity, for
    ``scalar_to_qqi`` alone, not an engine mode.
    """

    kind: str
    sigma: int = 1
    v0: tuple = None

    @staticmethod
    def kashiwara() -> "SpecMode":
        return SpecMode("kashiwara")

    @staticmethod
    def specialized(sigma: int = None) -> "SpecMode":
        if sigma not in (1, -1, None):
            raise ValueError("branch sign must be +1 or -1")
        return SpecMode("specialized", sigma)

    @staticmethod
    def numeric(v0) -> "SpecMode":
        if not isinstance(v0, tuple):
            v0 = qqi(Fraction(v0), 0)
        else:
            v0 = (Fraction(v0[0]), Fraction(v0[1]))
        if v0 == QQI_ZERO:
            raise ValueError("v0 must be nonzero")
        # the roots of unity in Q(i) are the four units
        if v0 in _UNITS:
            raise ValueError("v0 must not be a root of unity")
        return SpecMode("numeric", v0=v0)


def peval_qqi(p, v0):
    """Evaluate a Laurent polynomial in v at v = v0."""
    acc = QQI_ZERO
    for e, c in p.items():
        acc = qqi_add(acc, qqi_mul(qqi_pow(v0, e), (Fraction(c[0]), Fraction(c[1]))))
    return acc


def scalar_to_qqi(s: Scalar, mode: SpecMode):
    """Numeric value of a scalar under a numeric mode."""
    if mode.kind != "numeric":
        raise ValueError("numeric mode required")
    dv = peval_qqi(s.den, mode.v0)
    if dv == QQI_ZERO:
        raise ZeroDivisionError("denominator vanishes at the numeric point")
    return qqi_mul(peval_qqi(s.num, mode.v0), qqi_inv(dv))


# ---------------------------------------------------------------------------
# q-numbers
# ---------------------------------------------------------------------------

def qnum(z, shift: Scalar = None) -> Scalar:
    """[z]_q = (q^z - q^{-z}) / (q - q^{-1}), optionally with a Cartan shift.

    With a shift eigenvalue s the value is (s*v^{2z} - s^{-1}*v^{-2z}) over
    the same denominator, which is how Cartan-shifted q-numbers evaluate on
    a weight vector.
    """
    t = Fraction(z) * 2
    if t.denominator != 1:
        raise ValueError("q-number argument must be a half-integer")
    t = int(t)
    den = Scalar.v_power(2) - Scalar.v_power(-2)
    if shift is None:
        if t == 0:
            return ZERO
        num = Scalar.v_power(t) - Scalar.v_power(-t)
        return num / den
    num = shift * Scalar.v_power(t) - shift.inverse() * Scalar.v_power(-t)
    return num / den


def qfact(m: int) -> Scalar:
    """The q-factorial [m]_q! = [1]_q [2]_q ... [m]_q."""
    if m < 0:
        raise ValueError("q-factorial of a negative integer")
    out = ONE
    for l in range(1, m + 1):
        out = out * qnum(l)
    return out
