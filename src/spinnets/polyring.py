"""Sparse multivariate polynomials over int, Fraction or Gaussian rationals.

Coefficients are int, Fraction or QQi, each kept in the narrowest of these
rings its inputs allow: constructors store the coefficient they are given,
the ring operations work on any of them and mix them, an int meeting a
Fraction giving a Fraction and either meeting a QQi giving a QQi, and
division goes through `rational.div_exact`.  A truncated series is an MPoly
whose caller knows its degree bound; the inverse, the inverse square root
and the determinant series all come from one recurrence on homogeneous
parts, F_0 = 1 and k·F_k = sum_m w(m, k)·g_m·F_{k-m}.

Every sparse product runs on one multiply-accumulate kernel, _mul_acc,
acc[ka + kb] += w·ca·cb over two term dicts: MPoly.__mul__, the series
recurrence, the matrix powers and traces of `series`, and the integer
edge contraction, which contracts the factors at an edge against the
largest of them without forming their product.  Each consumer
accumulates into its own destination and drops cancelled terms once at
the end.

Monomials are packed into a single int key, 6 bits per variable (exponents
must stay at or below MAX_EXPONENT = 63; products refuse to pass it).
Monomial product is then plain integer addition of keys.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import factorial
from operator import mul, or_

from .errors import InputError, PreconditionError
from .rational import QQi, div_exact

_BITS = 6
MAX_EXPONENT = (1 << _BITS) - 1


class Namespace:
    """Ordered set of variable names with monomial packing helpers."""

    __slots__ = ("names", "index", "high")

    def __init__(self, names):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise InputError("duplicate variable names in namespace")
        self.names = names
        self.index = {n: i for i, n in enumerate(names)}
        # the top bit of every field, set in a key where that exponent is >= 32
        self.high = sum(1 << (_BITS * i + _BITS - 1) for i in range(len(names)))

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


def _check_exponents(ns: Namespace, a: dict, b: dict):
    """Raise InputError when the product of a key of a and a key of b would
    carry an exponent past MAX_EXPONENT into the next variable's field.

    The OR of all keys of a and b has the top bit of every field clear
    exactly when every exponent is below 32, and then no sum passes 63;
    only when that test fails are the per-field maxima compared.
    """
    if not (reduce(or_, a, 0) | reduce(or_, b, 0)) & ns.high or not (a and b):
        return
    for i, name in enumerate(ns.names):
        s = _BITS * i
        top = (max((k >> s) & MAX_EXPONENT for k in a)
               + max((k >> s) & MAX_EXPONENT for k in b))
        if top > MAX_EXPONENT:
            raise InputError(f"product has exponent {top} of {name}, "
                             f"past the exponent bound {MAX_EXPONENT}")


def _mul_acc(acc: dict, a: dict, b: dict, w=1) -> dict:
    """acc[ka + kb] += w·ca·cb over every term ka: ca of a and kb: cb of b;
    returns acc.

    The one sparse multiply kernel.  The smaller operand runs outside, so w
    multiplies each of its coefficients once.  Cancelled entries stay in acc
    as zeros until the caller drops them with _nonzero, and the caller runs
    _check_exponents on the operands first: a key sum past MAX_EXPONENT
    would carry into the next variable's field.
    """
    if len(a) > len(b):
        a, b = b, a
    get = acc.get
    for ka, ca in a.items():
        if w != 1:
            ca = w * ca
        for kb, cb in b.items():
            k = ka + kb
            s = get(k)
            acc[k] = ca * cb if s is None else s + ca * cb
    return acc


def _nonzero(acc: dict) -> dict:
    """acc with its zero entries deleted in place; returns acc."""
    for k in [k for k, c in acc.items() if not c]:
        del acc[k]
    return acc


def _check_ns(a: "MPoly", b: "MPoly"):
    if a.ns is not b.ns and a.ns != b.ns:
        raise InputError("namespace mismatch")


class MPoly:
    """Sparse polynomial: {packed monomial key: nonzero int, Fraction or QQi}."""

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
        return cls(ns, {0: c} if c else {})

    @classmethod
    def var(cls, ns, name, coeff=1):
        return cls(ns, {ns.encode({name: 1}): coeff} if coeff else {})

    @classmethod
    def monomial(cls, ns, exps: dict, coeff):
        return cls(ns, {ns.encode(exps): coeff} if coeff else {})

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
        _check_exponents(self.ns, self.terms, other.terms)
        return MPoly(self.ns, _nonzero(_mul_acc({}, self.terms, other.terms)))

    __rmul__ = __mul__

    def scalar_mul(self, c):
        if not isinstance(c, (int, Fraction, QQi)):
            c = QQi(c)
        if not c:
            return MPoly.zero(self.ns)
        return MPoly(self.ns, {k: v * c for k, v in self.terms.items()})

    def mul_trunc(self, other, max_degree: int):
        """Product with all monomials of total degree > max_degree dropped.

        Only pairs of homogeneous parts whose degrees add up to at most
        max_degree are multiplied.  With max_degree <= MAX_EXPONENT every
        kept monomial, and so every exponent, stays within the bound; above
        it the exponents are checked as in a full product, before any
        monomial is dropped.
        """
        _check_ns(self, other)
        if max_degree > MAX_EXPONENT:
            _check_exponents(self.ns, self.terms, other.terms)
        a, b = _homogeneous_parts(self, max_degree), _homogeneous_parts(other, max_degree)
        out: dict = {}
        for da, ta in enumerate(a):
            for tb in b[:max_degree - da + 1]:
                _mul_acc(out, ta, tb)
        return MPoly(self.ns, _nonzero(out))

    def pow(self, n: int):
        """self**n by repeated squaring, in the coefficient ring of self; the
        products refuse a power whose exponents would pass MAX_EXPONENT."""
        if n < 0:
            raise InputError("negative power")
        if n == 0:
            return MPoly.const(self.ns, 1)
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
        return self.terms.get(0, 0)

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        deg = self.ns.degree
        return max(deg(k) for k in self.terms)

    def coefficient(self, exps: dict):
        return self.terms.get(self.ns.encode(exps), 0)

    def truncated(self, max_degree: int):
        deg = self.ns.degree
        return MPoly(self.ns, {k: c for k, c in self.terms.items() if deg(k) <= max_degree})

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


# ---------------------------------------------------------------------------
# edge-contraction operator
# ---------------------------------------------------------------------------

def apply_edge_operator(factors: list, z1: str, w1: str, z2: str, w2: str,
                        c: int) -> MPoly:
    """Apply (1/c!) (d_z1 d_w2 - d_z2 d_w1)^c to the product of the factors
    at an edge (a nonempty list of MPoly), then set the four variables to
    zero.

    A monomial z1^a1 w1^b1 z2^a2 w2^b2 * R survives iff a1 = b2, a2 = b1 and
    a1 + a2 = c; it contributes the integer weight (-1)^a2 * a1! * a2! times
    R, so nothing is divided and integer or Gaussian-integer coefficients
    stay in their ring.  The factors are sorted by term count and all but
    the largest, q, are multiplied out into p (the constant 1 when there is
    one factor).  The terms of p and of q are grouped by their four-variable
    edge part; for each group of p and each surviving pattern the one group
    of q whose edge part completes it is found by one lookup, and only those
    group pairs are multiplied, so the product p·q is never formed.
    """
    *rest, q = sorted(factors, key=lambda f: len(f.terms))
    ns = q.ns
    p = reduce(mul, rest) if rest else MPoly.const(ns, 1)
    _check_ns(p, q)
    _check_exponents(ns, p.terms, q.terms)
    s_z1, s_w1, s_z2, s_w2 = (ns.shift(v) for v in (z1, w1, z2, w2))
    edge_part = ((MAX_EXPONENT << s_z1) | (MAX_EXPONENT << s_w1)
                 | (MAX_EXPONENT << s_z2) | (MAX_EXPONENT << s_w2))
    q_groups = _edge_groups(q.terms, edge_part)
    weights = []
    for a2 in range(max(0, c - MAX_EXPONENT), min(c, MAX_EXPONENT) + 1):
        a1 = c - a2
        w = factorial(a1) * factorial(a2)
        weights.append(((a1 << s_z1) | (a2 << s_w1) | (a2 << s_z2) | (a1 << s_w2),
                        -w if a2 & 1 else w))
    out: dict = {}
    # with no exponent past MAX_EXPONENT, key addition is fieldwise, so the
    # q edge part pattern - ep, when present, completes ep to the pattern
    for ep, gp in _edge_groups(p.terms, edge_part).items():
        for pattern, w in weights:
            gq = q_groups.get(pattern - ep)
            if gq is not None:
                _mul_acc(out, gp, gq, w)
    return MPoly(ns, _nonzero(out))


def _edge_groups(terms: dict, edge_part: int) -> dict:
    """{edge part: {rest of the key: coefficient}} for the keys of terms."""
    strip = ~edge_part
    groups: dict = {}
    for k, c in terms.items():
        e = k & edge_part
        g = groups.get(e)
        if g is None:
            groups[e] = {k & strip: c}
        else:
            g[k & strip] = c
    return groups


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
            out[k - kd] = div_exact(c, cd)
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
        qc = div_exact(rem[k], lc)
        quot[qk] = qc
        for kd, cd in den.terms.items():
            kk = kd + qk
            s = rem.get(kk, 0) - cd * qc
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

def _series_recurrence(parts, max_degree: int, weight) -> MPoly:
    """The series F = F_0 + F_1 + ... + F_max_degree with F_0 = 1 and
    k·F_k = sum_{m=1..k} weight(m, k)·g_m·F_{k-m}, where g_m = parts[m] is
    homogeneous of degree m and parts[0] is the constant 1.

    Each F_k is then homogeneous of degree k, so the products need no
    truncation, only parts up to max_degree are read, and a product with an
    empty part is skipped.  The weights are ints and each division by k goes
    through div_exact.
    """
    ns = parts[0].ns
    out = [parts[0]]
    for k in range(1, max_degree + 1):
        acc: dict = {}
        for m in range(1, k + 1):
            a, b = parts[m].terms, out[k - m].terms
            if a and b:
                _check_exponents(ns, a, b)
                _mul_acc(acc, a, b, weight(m, k))
        out.append(MPoly(ns, {key: div_exact(c, k) for key, c in acc.items() if c}))
    # the F_k are homogeneous of distinct degrees, so no monomial repeats
    return MPoly(ns, {key: c for part in out for key, c in part.terms.items()})


def _homogeneous_parts(p: MPoly, max_degree: int) -> list:
    """[p_0, ..., p_max_degree] as term dicts, p_m the degree-m part of p."""
    parts: list = [{} for _ in range(max_degree + 1)]
    deg = p.ns.degree
    for k, c in p.terms.items():
        if (m := deg(k)) <= max_degree:
            parts[m][k] = c
    return parts


def _unit_parts(d: MPoly, max_degree: int, series: str):
    """[1, d_1, ..., d_max_degree], d_m the degree-m part of d, for d with
    constant term 1; the name of the series is for the error."""
    if d.constant_term() != 1:
        raise PreconditionError(f"{series} needs constant term exactly 1")
    parts = _homogeneous_parts(d, max_degree)
    parts[0] = {0: 1}  # the int 1, whatever ring d's constant term is held in
    return [MPoly(d.ns, t) for t in parts]


def inv_sqrt_series(d: MPoly, max_degree: int) -> MPoly:
    """Truncated s with s^2 * d = 1 (mod degree > max_degree) and s(0) = 1.

    Miller's recurrence for d^(-1/2), k·s_k = sum_m (m/2 - k)·d_m·s_{k-m},
    runs on d(4X) = 1 + 4v, whose degree-m part is 4^m·d_m, so the weight
    (m/2 - k)·4^m = (m - 2k)·2^(2m-1) is an int.  The result there,
    sum_k C(2k, k) (-v)^k, is integral wherever d is, as v's degree-m part
    is 4^(m-1)·d_m, so each division by k stays in the ring of d; the
    degree-k part is divided by 4^k once at the end.
    """
    s = _series_recurrence(_unit_parts(d, max_degree, "inv_sqrt_series"), max_degree,
                           lambda m, k: (m - 2 * k) << 2 * m - 1)
    deg = d.ns.degree
    return MPoly(d.ns, {k: div_exact(c, 1 << 2 * deg(k)) for k, c in s.terms.items()})


def inverse_series(d: MPoly, max_degree: int) -> MPoly:
    """Truncated multiplicative inverse of d, with d(0) = 1: Miller's
    recurrence for d^(-1), F_k = -sum_m d_m·F_{k-m}."""
    return _series_recurrence(_unit_parts(d, max_degree, "inverse_series"), max_degree,
                              lambda m, k: -k)
