"""Exact arithmetic in the coefficient ring of the engine.

The paper works in K = Frac( Z[i][ v^{+-1}, L_1^{+-1}, ..., L_n^{+-1} ] ),
where v is a formal square root of the deformation parameter q and L_j is
the Cartan eigenvalue symbol attached to the j-th orthogonal weight
coordinate.  Adjoining the imaginary unit makes the distinguished weight
(L_j^2 = -q^{-1}) exactly representable: under the specialization map the
symbols become L_j = sigma*i*v^{-1} with a branch sign sigma = +-1.

Every value the engine forms divides only by polynomials in v, and an
L-monomial is a unit, so a Scalar is stored as a reduced fraction whose
numerator is a Laurent polynomial in v and the L_j and whose denominator is
a polynomial in v with a nonzero constant term: v-powers and L-monomials
live in the numerator, and dividing by anything else raises
ArithmeticError.  The canonical form is fixed, so equality is literal
equality of the stored data.  Monomials are exponent tuples with index 0
the power of v and index j >= 1 the power of L_j; trailing zeros are
stripped, which lets scalars built for different ranks interoperate.
Coefficients are Gaussian integers stored as (real, imag) pairs of Python
ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


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


def _rnd_div(x, n):
    # nearest integer to x / n for n > 0, ties rounded up
    return (2 * x + n) // (2 * n)


def _gdivmod(a, b):
    """Euclidean division by nearest-lattice-point rounding; |r| < |b|."""
    n = _gnorm(b)
    t = _gmul(a, (b[0], -b[1]))
    q = (_rnd_div(t[0], n), _rnd_div(t[1], n))
    return q, _gsub(a, _gmul(q, b))


def _ggcd(a, b):
    """The gcd, scaled by a unit into the quadrant re > 0, im >= 0."""
    while b != G0:
        a, b = b, _gdivmod(a, b)[1]
    return _gmul(a, _gunit_for(a))


def _gunit_for(a):
    """The unit u with u * a in the canonical quadrant."""
    for u in _UNITS:
        c = _gmul(a, u)
        if c[0] > 0 and c[1] >= 0:
            return u
    raise ZeroDivisionError("unit of zero")


def _gdiv_exact(a, b):
    n = _gnorm(b)
    t = _gmul(a, (b[0], -b[1]))
    if t[0] % n or t[1] % n:
        raise ArithmeticError("inexact Gaussian division")
    return (t[0] // n, t[1] // n)


# ---------------------------------------------------------------------------
# Laurent polynomials: dict {exponent tuple: Gaussian coefficient}
# ---------------------------------------------------------------------------

PZERO: dict = {}
PONE = {(): G1}


def _strip(k):
    while k and k[-1] == 0:
        k = k[:-1]
    return k


def _mono_mul(k1, k2):
    if not k1:
        return k2
    if not k2:
        return k1
    if len(k1) < len(k2):
        k1, k2 = k2, k1
    out = list(k1)
    for idx, e in enumerate(k2):
        out[idx] += e
    return _strip(tuple(out))


def _mono_neg(k):
    return tuple(-e for e in k)


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
        if k1 == ():
            if c1 == G1:
                return dict(r)
            return {k: _gmul(c1, c) for k, c in r.items()}
        return {_mono_mul(k1, k): _gmul(c1, c) for k, c in r.items()}
    out: dict = {}
    for k1, c1 in p.items():
        for k2, c2 in r.items():
            k = _mono_mul(k1, k2)
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


def _nvars(*polys):
    nv = 0
    for p in polys:
        for k in p:
            if len(k) > nv:
                nv = len(k)
    return nv


def _okey(k, nv):
    return k + (0,) * (nv - len(k))


def _min_exps(p):
    nv = _nvars(p)
    if nv == 0:
        return ()
    mins = [None] * nv
    for k in p:
        kk = _okey(k, nv)
        for idx in range(nv):
            e = kk[idx]
            if mins[idx] is None or e < mins[idx]:
                mins[idx] = e
    return _strip(tuple(x if x is not None else 0 for x in mins))


def _mshift(p, delta):
    if not delta:
        return dict(p)
    return {_mono_mul(k, delta): c for k, c in p.items()}


def _gcontent(p):
    g = G0
    for c in p.values():
        g = _ggcd(g, c)
        if g == G1:
            return g
    return g


# ---- polynomials in v alone: dict {exponent >= 0: Gaussian coefficient} ---

def _gprim(p):
    """Divide by Gaussian content, normalize sign of the content."""
    if not p:
        return p, G0
    c = _gcontent(p)
    if c == G1:
        return dict(p), G1
    return {k: _gdiv_exact(v, c) for k, v in p.items()}, c


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
    a, ca = _gprim(p)
    b, cb = _gprim(r)
    c = _ggcd(ca, cb)
    if max(a) < max(b):
        a, b = b, a
    while b:
        rem = _prem_uni(a, b)
        a, b = b, _gprim(rem)[0]
    return pscale(a, c)


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
    mn = _min_exps(num)
    md = _min_exps(den)
    npoly = _mshift(num, _mono_neg(mn)) if mn else dict(num)
    dpoly = _mshift(den, _mono_neg(md)) if md else dict(den)
    if any(len(k) > 1 for k in dpoly):
        raise ArithmeticError("denominator is not a polynomial in v times an L-monomial")
    if len(dpoly) > 1:
        # a factor of a v-polynomial is one, so it divides num exactly when
        # it divides the v-polynomial of each L-monomial of num
        parts: dict = {}
        for k, c in npoly.items():
            parts.setdefault(k[1:], {})[k[0] if k else 0] = c
        g = d = {(k[0] if k else 0): c for k, c in dpoly.items()}
        for part in parts.values():
            g = _pgcd_uni(g, part)
            if len(g) == 1:
                break
        if len(g) > 1:
            npoly = {
                ((e,) + lk if e or lk else ()): c
                for lk, part in parts.items()
                for e, c in _pdiv_uni(part, g).items()
            }
            dpoly = {((e,) if e else ()): c for e, c in _pdiv_uni(d, g).items()}
    gc = _ggcd(_gcontent(npoly), _gcontent(dpoly))
    if gc != G1:
        npoly = {k: _gdiv_exact(c, gc) for k, c in npoly.items()}
        dpoly = {k: _gdiv_exact(c, gc) for k, c in dpoly.items()}
    # keys are () and (e,) with e > 0, so the largest is the leading term
    u = _gunit_for(dpoly[max(dpoly)])
    if u != G1:
        npoly = pscale(npoly, u)
        dpoly = pscale(dpoly, u)
    shift = _mono_mul(mn, _mono_neg(md)) if (mn or md) else ()
    if shift:
        npoly = _mshift(npoly, shift)
    return npoly, dpoly


class Scalar:
    """An element of the exact coefficient ring, in reduced canonical form.

    ``num`` is a Laurent polynomial in v and the L_j; ``den`` is a
    polynomial in v with a nonzero constant term, its leading coefficient
    in the quadrant re > 0, im >= 0, and coprime to ``num``.  v-powers and
    L-monomials live in the numerator.
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
        return Scalar({(): (re, im)} if re or im else {}, dict(PONE), _canonical=True)

    @staticmethod
    def v_power(k: int) -> "Scalar":
        return Scalar({(k,) if k else (): G1}, dict(PONE), _canonical=True)

    @staticmethod
    def L_power(j: int, k: int) -> "Scalar":
        if j < 1:
            raise ValueError("L-symbol index starts at 1")
        if k == 0:
            return ONE
        mono = (0,) * j + (k,)
        return Scalar({mono: G1}, dict(PONE), _canonical=True)

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
        if not self.num:
            raise ZeroDivisionError("inverse of zero scalar")
        return Scalar(dict(self.den), dict(self.num))

    def __truediv__(self, other):
        other = Scalar._promote(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return Scalar._promote(other) * self.inverse()

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
    nv = _nvars(p)
    keys = sorted(p, key=lambda t: _okey(t, nv), reverse=True)
    parts = []
    for k in keys:
        c = p[k]
        factors = []
        kk = _okey(k, nv)
        if nv >= 1 and kk[0]:
            factors.append("v^%d" % kk[0])
        for j in range(1, nv):
            if kk[j]:
                factors.append("L%d^%d" % (j, kk[j]))
        cs = _gauss_str(c)
        if factors:
            if cs == "1":
                term = " ".join(factors)
            elif cs == "-1":
                term = "-" + " ".join(factors)
            else:
                term = cs + " " + " ".join(factors)
        else:
            term = cs
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
V = Scalar.v_power(1)


def theta() -> Scalar:
    """q^{1/2} - q^{-1/2}, the basic deformation gap."""
    return Scalar.v_power(1) - Scalar.v_power(-1)


# ---------------------------------------------------------------------------
# Specialization modes
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
    if k < 0:
        a = qqi_inv(a)
        k = -k
    out = qqi(1)
    while k:
        if k & 1:
            out = qqi_mul(out, a)
        a = qqi_mul(a, a)
        k >>= 1
    return out


QQI_ZERO = qqi(0)
QQI_ONE = qqi(1)


@dataclass(frozen=True)
class SpecMode:
    """Which specialization is applied to the symbols L_j (and optionally v).

    kind is one of "generic", "specialized", "numeric".  In specialized and
    numeric modes all L_j are sent to sigma*i*v^{-1}; numeric mode further
    evaluates v at a Gaussian rational v0, nonzero and no root of unity: a
    point for ``scalar_to_qqi`` alone, neither a ``specialize`` target nor
    an engine mode (``EvalContext``).
    """

    kind: str
    sigma: int = 1
    v0: tuple = None

    @staticmethod
    def generic() -> "SpecMode":
        return SpecMode("generic")

    @staticmethod
    def specialized(sigma: int = 1) -> "SpecMode":
        if sigma not in (1, -1):
            raise ValueError("branch sign must be +1 or -1")
        return SpecMode("specialized", sigma)

    @staticmethod
    def numeric(v0, sigma: int = 1) -> "SpecMode":
        if sigma not in (1, -1):
            raise ValueError("branch sign must be +1 or -1")
        if not isinstance(v0, tuple):
            v0 = qqi(Fraction(v0), 0)
        else:
            v0 = (Fraction(v0[0]), Fraction(v0[1]))
        if v0 == QQI_ZERO:
            raise ValueError("v0 must be nonzero")
        # the roots of unity in Q(i) are the four units
        if v0 in _UNITS:
            raise ValueError("v0 must not be a root of unity")
        return SpecMode("numeric", sigma, v0)


def _spec_mono_sigma(k, sigma):
    """Image of a monomial under L_j -> sigma*i*v^{-1}: (new v-exp, unit)."""
    lsum = sum(k[1:]) if len(k) > 1 else 0
    vexp = (k[0] if k else 0) - lsum
    r = lsum % 4
    unit = _UNITS[r]  # i^r
    if sigma < 0 and lsum % 2:
        unit = _gneg(unit)
    return vexp, unit


def _spec_poly_sigma(p, sigma):
    out: dict = {}
    for k, c in p.items():
        vexp, unit = _spec_mono_sigma(k, sigma)
        key = (vexp,) if vexp else ()
        s = _gadd(out.get(key, G0), _gmul(c, unit))
        if s == G0:
            out.pop(key, None)
        else:
            out[key] = s
    return out


def peval_qqi(p, v0, lvals=None):
    """Evaluate a Laurent polynomial at v = v0 (and L_j = lvals[j-1])."""
    acc = QQI_ZERO
    for k, c in p.items():
        term = qqi_pow(v0, k[0] if k else 0)
        if len(k) > 1:
            if lvals is None:
                raise ValueError("polynomial has L-symbols but no L-values given")
            for j in range(1, len(k)):
                if k[j]:
                    term = qqi_mul(term, qqi_pow(lvals[j - 1], k[j]))
        acc = qqi_add(acc, qqi_mul(term, (Fraction(c[0]), Fraction(c[1]))))
    return acc


def specialize(s: Scalar, mode: SpecMode) -> Scalar:
    """Apply the mode's ring homomorphism and re-canonicalize."""
    if mode.kind == "generic":
        return s
    if mode.kind != "specialized":
        raise ValueError("a numeric point is an evaluation: use scalar_to_qqi")
    # the denominator is a polynomial in v, which the map fixes
    return Scalar(_spec_poly_sigma(s.num, mode.sigma), s.den)


def scalar_to_qqi(s: Scalar, mode: SpecMode):
    """Numeric value of a scalar under a numeric mode."""
    if mode.kind != "numeric":
        raise ValueError("numeric mode required")
    dv = peval_qqi(s.den, mode.v0)
    if dv == QQI_ZERO:
        raise ZeroDivisionError("denominator vanishes at the numeric point")
    return qqi_mul(peval_qqi(_spec_poly_sigma(s.num, mode.sigma), mode.v0), qqi_inv(dv))


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
