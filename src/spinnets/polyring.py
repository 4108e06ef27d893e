"""Sparse multivariate polynomials and truncated series over Gaussian rationals.

Coefficients are QQi, or plain int where every input coefficient is an
integer: the ring operations work on either and mix them, an int meeting a
QQi giving a QQi.

Monomials are packed into a single int key, 6 bits per variable (exponents
must stay at or below MAX_EXPONENT = 63; `pow` refuses a power that would
pass it).  Monomial product is then plain integer addition of keys.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .errors import InputError, PreconditionError
from .rational import QQi, ZERO, ONE

_BITS = 6
MAX_EXPONENT = (1 << _BITS) - 1


class Namespace:
    """Ordered set of variable names with monomial packing helpers."""

    __slots__ = ("names", "index")

    def __init__(self, names):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise InputError("duplicate variable names in namespace")
        self.names = names
        self.index = {n: i for i, n in enumerate(names)}

    def __len__(self):
        return len(self.names)

    def __eq__(self, other):
        return isinstance(other, Namespace) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def encode(self, exps: dict) -> int:
        key = 0
        for name, e in exps.items():
            if e < 0 or e > MAX_EXPONENT:
                raise InputError(f"exponent {e} of {name} out of range")
            if e:
                key |= e << (_BITS * self.index[name])
        return key

    def decode(self, key: int) -> dict:
        out = {}
        i = 0
        while key:
            e = key & MAX_EXPONENT
            if e:
                out[self.names[i]] = e
            key >>= _BITS
            i += 1
        return out

    def degree(self, key: int) -> int:
        d = 0
        while key:
            d += key & MAX_EXPONENT
            key >>= _BITS
        return d

    def shift(self, name: str) -> int:
        return _BITS * self.index[name]


def _max_exponent(key: int) -> int:
    """Largest per-variable exponent in a packed monomial."""
    top = 0
    while key:
        low = (key & -key).bit_length() - 1  # skip the all-zero fields below
        key >>= low - low % _BITS
        top = max(top, key & MAX_EXPONENT)
        key >>= _BITS
    return top


def _check_ns(a: "MPoly", b: "MPoly"):
    if a.ns is not b.ns and a.ns != b.ns:
        raise InputError("namespace mismatch")


class MPoly:
    """Sparse polynomial: {packed monomial key: nonzero QQi or int coefficient}."""

    __slots__ = ("ns", "terms")

    def __init__(self, ns: Namespace, terms: dict | None = None):
        self.ns = ns
        self.terms = terms or {}

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, ns):
        return cls(ns, {})

    @classmethod
    def const(cls, ns, c):
        c = c if isinstance(c, QQi) else QQi(c)
        return cls(ns, {0: c} if c else {})

    @classmethod
    def var(cls, ns, name, coeff=1):
        c = coeff if isinstance(coeff, QQi) else QQi(coeff)
        return cls(ns, {ns.encode({name: 1}): c} if c else {})

    @classmethod
    def monomial(cls, ns, exps: dict, coeff):
        c = coeff if isinstance(coeff, QQi) else QQi(coeff)
        return cls(ns, {ns.encode(exps): c} if c else {})

    # -- ring operations ----------------------------------------------
    def __add__(self, other):
        _check_ns(self, other)
        t = dict(self.terms)
        for k, c in other.terms.items():
            s = t.get(k)
            if s is None:
                t[k] = c
            else:
                s = s + c
                if s:
                    t[k] = s
                else:
                    del t[k]
        return MPoly(self.ns, t)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return MPoly(self.ns, {k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, QQi)):
            return self.scalar_mul(other)
        _check_ns(self, other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out: dict = {}
        for ka, ca in a.items():
            for kb, cb in b.items():
                k = ka + kb
                c = ca * cb
                s = out.get(k)
                if s is None:
                    out[k] = c
                else:
                    s = s + c
                    if s:
                        out[k] = s
                    else:
                        del out[k]
        return MPoly(self.ns, out)

    __rmul__ = __mul__

    def scalar_mul(self, c):
        if type(c) is not int:
            c = c if isinstance(c, QQi) else QQi(c)
        if not c:
            return MPoly.zero(self.ns)
        return MPoly(self.ns, {k: v * c for k, v in self.terms.items()})

    def mul_trunc(self, other, max_degree: int):
        """Product with all monomials of total degree > max_degree dropped."""
        _check_ns(self, other)
        ns = self.ns
        dega = {k: ns.degree(k) for k in self.terms}
        degb = {k: ns.degree(k) for k in other.terms}
        out: dict = {}
        for ka, ca in self.terms.items():
            da = dega[ka]
            for kb, cb in other.terms.items():
                if da + degb[kb] > max_degree:
                    continue
                k = ka + kb
                c = ca * cb
                s = out.get(k)
                if s is None:
                    out[k] = c
                else:
                    s = s + c
                    if s:
                        out[k] = s
                    else:
                        del out[k]
        return MPoly(self.ns, out)

    def pow(self, n: int):
        """self**n by repeated squaring, in the coefficient ring of self."""
        if n < 0:
            raise InputError("negative power")
        if n == 0:
            return MPoly.const(self.ns, 1)
        top = max((_max_exponent(k) for k in self.terms), default=0)
        if n * top > MAX_EXPONENT:
            raise InputError(f"power {n} of a polynomial with exponent {top} "
                             f"exceeds the exponent bound {MAX_EXPONENT}")
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    # -- queries -------------------------------------------------------
    def is_zero(self):
        return not self.terms

    def constant_term(self):
        return self.terms.get(0, ZERO)

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        deg = self.ns.degree
        return max(deg(k) for k in self.terms)

    def coefficient(self, exps: dict):
        return self.terms.get(self.ns.encode(exps), ZERO)

    def truncated(self, max_degree: int):
        deg = self.ns.degree
        return MPoly(self.ns, {k: c for k, c in self.terms.items() if deg(k) <= max_degree})

    def substitute_sign_flip(self, names):
        """Negate the listed variables: X -> -X for each name."""
        shifts = [self.ns.shift(n) for n in names]
        out = {}
        for k, c in self.terms.items():
            p = 0
            for s in shifts:
                p += (k >> s) & MAX_EXPONENT
            out[k] = -c if p & 1 else c
        return MPoly(self.ns, out)

    def __eq__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.ns == other.ns and self.terms == other.terms

    def __hash__(self):
        return hash((self.ns, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "MPoly(0)"
        bits = []
        for k in sorted(self.terms):
            exps = self.ns.decode(k)
            mono = "*".join(f"{n}^{e}" if e > 1 else n for n, e in sorted(exps.items()))
            c = self.terms[k]
            c = c if isinstance(c, QQi) else QQi(c)
            bits.append(f"({c.re}{'+' if c.im >= 0 else ''}{c.im}i){'*' + mono if mono else ''}")
        return " + ".join(bits)

    # -- serialization ---------------------------------------------------
    def to_obj(self):
        out = []
        for k in sorted(self.terms):
            c = self.terms[k]
            c = c if isinstance(c, QQi) else QQi(c)
            out.append({"exponents": self.ns.decode(k), "re": str(c.re), "im": str(c.im)})
        return out

    @classmethod
    def from_obj(cls, ns, obj):
        terms = {}
        for item in obj:
            c = QQi(Fraction(item["re"]), Fraction(item["im"]))
            if c:
                terms[ns.encode(item["exponents"])] = c
        return cls(ns, terms)


class TruncSeries:
    """MPoly together with a total-degree bound; arithmetic re-truncates."""

    __slots__ = ("poly", "degree")

    def __init__(self, poly: MPoly, degree: int):
        self.poly = poly.truncated(degree)
        self.degree = degree

    def __add__(self, other):
        if isinstance(other, TruncSeries):
            if other.degree != self.degree:
                raise InputError("truncation degree mismatch")
            other = other.poly
        return TruncSeries(self.poly + other, self.degree)

    def __neg__(self):
        return TruncSeries(-self.poly, self.degree)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, QQi)):
            return TruncSeries(self.poly.scalar_mul(other), self.degree)
        if isinstance(other, TruncSeries):
            if other.degree != self.degree:
                raise InputError("truncation degree mismatch")
            other = other.poly
        return TruncSeries(self.poly.mul_trunc(other, self.degree), self.degree)

    __rmul__ = __mul__

    def coefficient(self, exps: dict) -> QQi:
        return self.poly.coefficient(exps)

    def __eq__(self, other):
        return (
            isinstance(other, TruncSeries)
            and self.degree == other.degree
            and self.poly == other.poly
        )

    def __repr__(self):
        return f"TruncSeries(deg<={self.degree}, {self.poly!r})"

    def to_obj(self):
        return {"degree": self.degree, "terms": self.poly.to_obj()}


# ---------------------------------------------------------------------------
# edge-contraction operator
# ---------------------------------------------------------------------------

def apply_edge_operator(p: MPoly, z1: str, w1: str, z2: str, w2: str, c: int) -> MPoly:
    """Apply (1/c!^2) (d_z1 d_w2 - d_z2 d_w1)^c to p, then set the four
    variables to zero.

    A monomial z1^a1 w1^b1 z2^a2 w2^b2 * R survives iff a1 = b2, a2 = b1 and
    a1 + a2 = c; it contributes (-1)^a2 / C(c, a2) * R, that is
    (-1)^a2 * a1! * a2! / c! * R.  The surviving monomials are found by one
    dictionary lookup of their four-variable part, summed with the integer
    weights (-1)^a2 * a1! * a2!, and each output coefficient is divided by c!
    once at the end.  Integer coefficients stay int when c! divides the sum
    (the evaluator arranges that it always does) and become Fraction when it
    does not.
    """
    ns = p.ns
    s_z1, s_w1, s_z2, s_w2 = (ns.shift(v) for v in (z1, w1, z2, w2))
    edge_part = ((MAX_EXPONENT << s_z1) | (MAX_EXPONENT << s_w1)
                 | (MAX_EXPONENT << s_z2) | (MAX_EXPONENT << s_w2))
    strip = ~edge_part
    weights = {}
    for a2 in range(max(0, c - MAX_EXPONENT), min(c, MAX_EXPONENT) + 1):
        a1 = c - a2
        w = factorial(a1) * factorial(a2)
        weights[(a1 << s_z1) | (a2 << s_w1) | (a2 << s_z2) | (a1 << s_w2)] = -w if a2 & 1 else w
    out: dict = {}
    for k, coeff in p.terms.items():
        w = weights.get(k & edge_part)
        if w is None:
            continue
        kk = k & strip
        cc = coeff * w
        s = out.get(kk)
        if s is None:
            out[kk] = cc
        else:
            s = s + cc
            if s:
                out[kk] = s
            else:
                del out[kk]
    if c > 1:
        fc = factorial(c)
        out = {k: _div_exact(v, fc) for k, v in out.items()}
    return MPoly(ns, out)


def _div_exact(x, d: int):
    """x / d, staying an int when x is an int that d divides."""
    if type(x) is int:
        q, r = divmod(x, d)
        return Fraction(x, d) if r else q
    return x * Fraction(1, d)


# ---------------------------------------------------------------------------
# determinants
# ---------------------------------------------------------------------------

def _leading_key(p: MPoly) -> int:
    # graded order: compare (degree, key); any monomial order works here
    deg = p.ns.degree
    return max(p.terms, key=lambda k: (deg(k), k))


def exact_div(num: MPoly, den: MPoly) -> MPoly:
    """Exact polynomial division; raises InputError if den does not divide num."""
    if den.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if num.is_zero():
        return MPoly.zero(num.ns)
    _check_ns(num, den)
    ns = num.ns
    if len(den.terms) == 1:
        (kd, cd), = den.terms.items()
        out = {}
        for k, c in num.terms.items():
            if kd and not _divides(kd, k):
                raise InputError("inexact polynomial division")
            out[k - kd] = c / cd
        return MPoly(ns, out)
    import heapq

    lk = _leading_key(den)
    lc = den.terms[lk]
    rem = dict(num.terms)
    deg = ns.degree
    heap = [(-deg(k), -k) for k in rem]  # max-heap on (degree, key), lazy deletion
    heapq.heapify(heap)
    quot: dict = {}
    while heap:
        d, nk = heapq.heappop(heap)
        k = -nk
        if k not in rem:
            continue
        if not _divides(lk, k):
            raise InputError("inexact polynomial division")
        qk = k - lk
        qc = rem[k] / lc
        quot[qk] = qc
        for kd, cd in den.terms.items():
            kk = kd + qk
            s = rem.get(kk, ZERO) - cd * qc
            if s:
                if kk not in rem:
                    heapq.heappush(heap, (-deg(kk), -kk))
                rem[kk] = s
            else:
                rem.pop(kk, None)
    if rem:
        raise InputError("inexact polynomial division")
    return MPoly(ns, quot)


def _divides(ka: int, kb: int) -> bool:
    while ka:
        if (ka & MAX_EXPONENT) > (kb & MAX_EXPONENT):
            return False
        ka >>= _BITS
        kb >>= _BITS
    return True


def det_poly(m) -> MPoly:
    """Exact determinant of a square MPoly matrix.

    A bipartite nonzero pattern (after reordering, block-antidiagonal with
    equal halves) factors the determinant into two half-size blocks; the
    base case is fraction-free Bareiss elimination with full pivoting, the
    pivot being the nonzero entry with the fewest monomials.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise InputError("matrix is not square")
    if n == 0:
        raise InputError("empty matrix")
    ns = m[0][0].ns
    split = _bipartite_split(m)
    if split is not None:
        s, t = split
        a = det_poly([[m[i][j] for j in t] for i in s])
        b = det_poly([[m[i][j] for j in s] for i in t])
        d = a * b
        return d if len(s) % 2 == 0 else -d
    return _det_bareiss(m)


def _bipartite_split(m):
    """Index classes (S, T) with nonzeros only across classes, |S| = |T|,
    both nonempty; None when no such 2-coloring exists."""
    n = len(m)
    color = [None] * n
    for start in range(n):
        if color[start] is not None:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if j == i or (m[i][j].is_zero() and m[j][i].is_zero()):
                    continue
                if color[j] is None:
                    color[j] = 1 - color[i]
                    stack.append(j)
                elif color[j] == color[i]:
                    return None
    s = [i for i in range(n) if color[i] == 0]
    t = [i for i in range(n) if color[i] == 1]
    if not s or not t or len(s) != len(t):
        return None
    if any(not m[i][i].is_zero() for i in range(n)):
        return None
    return s, t


def _det_bareiss(m) -> MPoly:
    n = len(m)
    ns = m[0][0].ns
    a = [[e for e in row] for row in m]
    sign = 1
    prev = MPoly.const(ns, 1)
    for k in range(n - 1):
        # pivot search
        best = None
        for i in range(k, n):
            for j in range(k, n):
                e = a[i][j]
                if e.is_zero():
                    continue
                score = (len(e.terms), e.total_degree())
                if best is None or score < best[0]:
                    best = (score, i, j)
        if best is None:
            return MPoly.zero(ns)
        _, pi, pj = best
        if pi != k:
            a[pi], a[k] = a[k], a[pi]
            sign = -sign
        if pj != k:
            for row in a:
                row[pj], row[k] = row[k], row[pj]
            sign = -sign
        piv = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            for j in range(k + 1, n):
                num = piv * a[i][j] - aik * a[k][j]
                a[i][j] = exact_div(num, prev)
            a[i][k] = MPoly.zero(ns)
        prev = piv
    d = a[n - 1][n - 1]
    return d if sign == 1 else -d


# ---------------------------------------------------------------------------
# series helpers
# ---------------------------------------------------------------------------

def power_series(u: MPoly, max_degree: int, step) -> MPoly:
    """Truncated sum_{k>=0} c_k u^k with c_0 = 1 and c_k = c_{k-1} * step(k).

    u must have no constant term, so u^k vanishes once k > max_degree.
    """
    if u.constant_term():
        raise PreconditionError("power_series needs u without a constant term")
    u = u.truncated(max_degree)
    result = uk = MPoly.const(u.ns, 1)
    c = Fraction(1)
    k = 0
    while True:
        k += 1
        uk = uk.mul_trunc(u, max_degree)
        if uk.is_zero():
            return result
        c = c * step(k)
        result = result + uk.scalar_mul(c)


def inv_sqrt_series(d: MPoly, max_degree: int) -> TruncSeries:
    """Truncated s with s^2 * d = 1 (mod degree > max_degree) and s(0) = 1:
    the binomial series of (1 + u)^(-1/2) in u = d - 1."""
    if d.constant_term() != ONE:
        raise PreconditionError("inv_sqrt_series needs constant term exactly 1")
    u = d - MPoly.const(d.ns, 1)
    return TruncSeries(power_series(u, max_degree, lambda k: Fraction(-(2 * k - 1), 2 * k)),
                       max_degree)


def inverse_series(d: MPoly, max_degree: int) -> TruncSeries:
    """Truncated multiplicative inverse of d, with d(0) = 1: the geometric
    series of (1 + u)^(-1) in u = d - 1."""
    if d.constant_term() != ONE:
        raise PreconditionError("inverse_series needs constant term exactly 1")
    u = d - MPoly.const(d.ns, 1)
    return TruncSeries(power_series(u, max_degree, lambda k: -1), max_degree)
