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

The arithmetic reduces only where a result can differ from its canonical
operands.  Over the shared unit denominator ``PONE`` sums and products are
canonical as computed.  For n1/d1 and n2/d2, gcd(n1 n2, d1 d2) =
gcd(n1, d2) gcd(n2, d1), so a product cancels its two cross pairs alone; a
sum over d1 = g a and d2 = g b, g = gcd(d1, d2), can cancel only g.
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

# the one unit denominator: every scalar over 1 holds this dict itself, so
# a unit denominator is recognised by identity; it is never mutated
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


def paddmul(acc, p, r):
    """Add p*r into the polynomial acc in place, dropping zero sums."""
    for k1, c1 in p.items():
        for k2, c2 in r.items():
            k = k1 + k2
            s = _gadd(acc.get(k, G0), _gmul(c1, c2))
            if s == G0:
                acc.pop(k, None)
            else:
                acc[k] = s


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
    paddmul(out, p, r)
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


def _ggcd(a, b):
    """A gcd of two Gaussian integers: Euclid with the nearest quotient."""
    while b != G0:
        n = _gnorm(b)
        t = _gmul(a, (b[0], -b[1]))
        q = ((2 * t[0] + n) // (2 * n), (2 * t[1] + n) // (2 * n))
        a, b = b, _gsub(a, _gmul(q, b))
    return a


def _gcontent(p):
    """A gcd in Z[i] of p's coefficients; the integer content when every
    imaginary part is zero."""
    if all(not c[1] for c in p.values()):
        return (_icontent(p), 0)
    g = G0
    for c in p.values():
        g = _ggcd(g, c)
        if _gnorm(g) == 1:
            break
    return g


def _gprim(p):
    """p over its Gaussian content: primitive over Z[i]."""
    g = _gcontent(p)
    if _gnorm(g) == 1:
        return p
    return {k: _gdiv_exact(c, g) for k, c in p.items()}


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
    """A gcd of p and r, primitive over Z[i]: a primitive remainder sequence
    that strips the Gaussian content of every remainder, so coefficients
    stay bounded on mixed real and imaginary parts (Collins, J. ACM 14,
    1967)."""
    a, b = _gprim(p), _gprim(r)
    if max(a) < max(b):
        a, b = b, a
    while b:
        a, b = b, _gprim(_prem_uni(a, b))
    return a


def _pdiv_uni(a, b):
    """Exact division; raises ArithmeticError if b does not divide a over
    Z[i], as it does whenever b is primitive and divides a over Q(i)."""
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

def _cancel(num, den):
    """num and den over their gcd: num a Laurent polynomial, den a
    polynomial with a nonzero constant term.  A monomial num, or a constant
    den, has no common factor of positive degree with the other.  The gcd
    is primitive over Z[i], so both quotients keep Gaussian-integer
    coefficients (Gauss's lemma)."""
    if len(num) == 1 or len(den) == 1:
        return num, den
    mn = min(num)
    npoly = _pshift(num, -mn)
    g = _pgcd_uni(den, npoly)
    if len(g) == 1:
        return num, den
    return _pshift(_pdiv_uni(npoly, g), mn), _pdiv_uni(den, g)


def _normalized(num, den):
    """The canonical form of the coprime pair num/den: den's leading
    coefficient made a positive integer, then the integer content of both
    removed."""
    den, u = _positive_lead(den)
    if u != G1:
        num = pscale(num, u)
    c = gcd(_icontent(num), _icontent(den))
    den = _idiv(den, c)
    return _idiv(num, c), PONE if den == PONE else den


def _canonical_pair(num, den):
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return {}, PONE
    md = min(den)
    num, den = _cancel(num, _pshift(den, -md) if md else den)
    return _normalized(_pshift(num, -md) if md else num, den)


class Scalar:
    """An element of the exact coefficient ring, in reduced canonical form.

    ``num`` is a Laurent polynomial in v; ``den`` is a polynomial in v with
    a nonzero constant term and a positive-integer leading coefficient,
    coprime to ``num``, and the pair has integer content 1.  v-powers live
    in the numerator.
    """

    __slots__ = ("num", "den", "_key")

    def __init__(self, num, den=PONE, _canonical=False):
        if not _canonical:
            num, den = _canonical_pair(num, den)
        elif den == PONE:
            den = PONE
        self.num = num
        self.den = den
        self._key = None

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def integer(k: int) -> "Scalar":
        return Scalar.gauss(k, 0)

    @staticmethod
    def gauss(re: int, im: int) -> "Scalar":
        return _scalar({0: (re, im)} if re or im else {})

    @staticmethod
    def v_power(k: int) -> "Scalar":
        return _scalar({k: G1})

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
        # an integer-valued scalar equals its int, so it hashes like it; a
        # canonical denominator of one term is 1
        num = self.num
        if len(self.den) == 1 and len(num) <= 1:
            if not num:
                return hash(0)
            c = num.get(0)
            if c is not None and not c[1]:
                return hash(c[0])
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
        if other.__class__ is not Scalar:
            other = Scalar._promote(other)
            if other is NotImplemented:
                return NotImplemented
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        if d1 is PONE and d2 is PONE:
            # over 1 the sum of canonical numerators is canonical
            return _scalar(padd(n1, n2))
        if not n1 or not n2:
            return self if n1 else other
        # with g = gcd(d1, d2), d1 = g a and d2 = g b, the sum is t / (a b g)
        # for t = n1 b + n2 a, and t is coprime to a b: only g can cancel
        if d1 == d2:
            g, a, b = d1, PONE, PONE
        else:
            g = PONE if len(d1) == 1 or len(d2) == 1 else _pgcd_uni(d1, d2)
            if len(g) == 1:
                g, a, b = PONE, d1, d2
            else:
                a, b = _pdiv_uni(d1, g), _pdiv_uni(d2, g)
        t = padd(pmul(n1, b), pmul(n2, a))
        if not t:
            return ZERO
        t, g = _cancel(t, g)
        return _scalar(*_normalized(t, pmul(pmul(a, b), g)))

    __radd__ = __add__

    def __neg__(self):
        return _scalar(pneg(self.num), self.den)

    def __sub__(self, other):
        other = Scalar._promote(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return Scalar._promote(other) - self

    def __mul__(self, other):
        if other.__class__ is not Scalar:
            other = Scalar._promote(other)
            if other is NotImplemented:
                return NotImplemented
        n1, n2 = self.num, other.num
        if not n1 or not n2:
            return ZERO
        d1, d2 = self.den, other.den
        if d1 is PONE and d2 is PONE:
            if len(n1) == 1 == len(n2):
                return _scalar({k1 + k2: _gmul(c1, c2) for k1, c1 in n1.items() for k2, c2 in n2.items()})
            return _scalar(pmul(n1, n2))
        # for canonical operands gcd(n1 n2, d1 d2) = gcd(n1, d2) gcd(n2, d1)
        n1, d2 = _cancel(n1, d2)
        n2, d1 = _cancel(n2, d1)
        return _scalar(*_normalized(pmul(n1, n2), pmul(d1, d2)))

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        """1 / (n / d) = d v^-e / n' for n = v^e n', n' a polynomial with a
        nonzero constant term: a coprime pair already."""
        if not self.num:
            raise ZeroDivisionError("division by the zero scalar")
        e = min(self.num)
        return _scalar(*_normalized(_pshift(self.den, -e), _pshift(self.num, -e)))

    def __truediv__(self, other):
        other = Scalar._promote(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = Scalar._promote(other)
        return NotImplemented if other is NotImplemented else other / self

    def __pow__(self, k: int):
        if k == 0:
            return ONE
        base = self if k > 0 else self.inverse()
        out = base
        for _ in range(abs(k) - 1):
            out = out * base
        return out

    # -- serialization ---------------------------------------------------------

    def __str__(self):
        if not self.num:
            return "0"
        s_num = _poly_str(self.num)
        if self.den is PONE:
            return s_num
        return "( %s ) / ( %s )" % (_poly_str(self.num, bare=True), _poly_str(self.den, bare=True))

    __repr__ = __str__


class ProductSums:
    """Sums of products of canonical scalars, one per key, each reduced
    once.  A product's numerators are multiplied out and added, in place,
    to the numerator kept for its key and its unreduced denominator (the
    product of its factors' denominators); ``scalars`` makes one Scalar per
    key and denominator, with no canonical form over 1, and sums them per
    key."""

    __slots__ = ("groups", "dens")

    def __init__(self):
        self.groups: dict = {}  # (key, denominator key) -> summed numerator
        self.dens: dict = {(): PONE}  # denominator key -> the product of its factors

    def den_key(self, *factors):
        """The key of the product of the factors' denominators."""
        dkey = tuple(sorted(tuple(sorted(s.den.items())) for s in factors if s.den is not PONE))
        if dkey not in self.dens:
            den = PONE
            for s in factors:
                den = pmul(den, s.den)
            self.dens[dkey] = den
        return dkey

    def add(self, key, dkey, p, r):
        """Add the numerator p*r over the denominator of dkey to key."""
        paddmul(self.groups.setdefault((key, dkey), {}), p, r)

    def scalars(self) -> dict:
        """{key: the sum} for every key whose sum is nonzero."""
        out: dict = {}
        for (key, dkey), num in self.groups.items():
            if num:
                c = Scalar(num, self.dens[dkey]) if dkey else _scalar(num)
                cur = out.get(key)
                if cur is not None:
                    c = cur + c
                if c:
                    out[key] = c
                else:
                    del out[key]
        return out


def _scalar(num, den=PONE):
    """A Scalar from a canonical pair; a unit den must be PONE itself."""
    out = _new_scalar(Scalar)
    out.num = num
    out.den = den
    out._key = None
    return out


_new_scalar = object.__new__


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
    return _scalar({-k: _UNITS[sigma * k % 4]})


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
