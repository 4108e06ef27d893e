"""Sparse multivariate polynomials over int, Fraction or Gaussian rationals.

Coefficients are int, Fraction or QQi, each kept in the narrowest of these
rings its inputs allow: constructors store the coefficient they are given,
the ring operations work on any of them and mix them, an int meeting a
Fraction giving a Fraction and either meeting a QQi giving a QQi, and
division goes through `rational.div_exact`.  A truncated series is an MPoly
whose caller knows its degree bound; the inverse, the inverse square root
and the determinant series all come from one recurrence on homogeneous
parts, F_0 = 1 and k·F_k = sum_m w(m, k)·g_m·F_{k-m}.

Every sparse product runs the multiply-accumulate loop acc[ka + kb] +=
w·ca·cb over two term dicts, _mul_acc.  The checked product, _product,
first refuses one whose exponents would pass MAX_EXPONENT (InputError) or
whose count of coefficient products could pass TERM_BUDGET (ResourceError):
MPoly.__mul__, mul_trunc, the factor products of the edge contraction and
the products of the series recurrence all go through it.  Two callers keep
the raw kernel, as their exponents are bounded: `series.abelian_curve_sum`
(no exponent past 2) and `form_power` (n <= MAX_EXPONENT checked on entry),
which expands an angle's power by the binomial theorem.  The edge
contraction, `apply_edge_operator`, contracts p, the product of the factors
at an edge but the largest, against that largest one term against one group
at a time, without forming their product; the matrix powers and traces of
`series` run the loop in a row kernel whose keys carry a matrix column above
the monomial's fields.  Each consumer drops cancelled terms once at the end,
and a series whose terms pass TERM_BUDGET raises ResourceError too.
Gaussian integers in the recurrence and the row kernel run as residues
(_Residues): a + b·i is the int a + b·2^K modulo 2^(2K) + 1, K taken from an
l1 bound on the operands.

Monomials are packed into a single int key, 6 bits per variable (exponents
must stay at or below MAX_EXPONENT = 63; products refuse to pass it).
Monomial product is then plain integer addition of keys.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import accumulate, repeat
from math import comb, factorial
from operator import mul, or_

from .errors import InputError, PreconditionError, ResourceError
from .rational import QQi, _qqi, div_exact

_BITS = 6
MAX_EXPONENT = (1 << _BITS) - 1

# n! and the rows of Pascal's triangle for n <= MAX_EXPONENT: no power of a
# variable, and so no edge weight or angle power, reaches past them
_FACTORIAL = tuple(factorial(n) for n in range(MAX_EXPONENT + 1))
_BINOMIAL = tuple(tuple(comb(n, k) for k in range(n + 1)) for n in range(MAX_EXPONENT + 1))


class Namespace:
    """Ordered set of variable names with monomial packing helpers."""

    __slots__ = ("names", "index", "carry", "_edges")

    def __init__(self, names):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise InputError("duplicate variable names in namespace")
        self.names = names
        self.index = {n: i for i, n in enumerate(names)}
        # the low bit of every field but the first, and the bit past the last
        # one: where a sum of keys that carries out of a field shows
        self.carry = sum(1 << (_BITS * i) for i in range(1, len(names) + 1))
        self._edges = {}  # (z1, w1, z2, w2, c) -> edge_patterns(z1, w1, z2, w2, c)

    def __len__(self):
        return len(self.names)

    def __eq__(self, other):
        return isinstance(other, Namespace) and self.names == other.names

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

    def edge_patterns(self, z1: str, w1: str, z2: str, w2: str, c: int) -> tuple:
        """(mask of the fields of z1, w1, z2 and w2, ((key, weight) of each
        pattern z1^a1 w1^a2 z2^a2 w2^a1 with a1 + a2 = c)): what a contraction
        of color c over these variables needs of the namespace, computed once
        per edge and color.  The weight is (-1)^a2 a1! a2!."""
        names = (z1, w1, z2, w2, c)
        found = self._edges.get(names)
        if found is None:
            s_z1, s_w1, s_z2, s_w2 = (self.shift(v) for v in names[:4])
            unit1, unit2 = (1 << s_z1) | (1 << s_w2), (1 << s_w1) | (1 << s_z2)
            patterns = []
            for a2 in range(max(0, c - MAX_EXPONENT), min(c, MAX_EXPONENT) + 1):
                a1 = c - a2
                w = _FACTORIAL[a1] * _FACTORIAL[a2]
                patterns.append((a1 * unit1 + a2 * unit2, -w if a2 & 1 else w))
            found = self._edges[names] = (MAX_EXPONENT * (unit1 | unit2), tuple(patterns))
        return found


# A term of a product or contraction takes up to about 256 bytes, measured
# with tracemalloc: 124 for an int coefficient on a 64-bit key, 256 for a
# Gaussian integer of 30 digits on a 300-bit key.  TERM_BUDGET bounds a
# product's term count to about 1 GiB of such terms; the bound checked is the
# number of coefficient products, at least the number of terms formed.
_BYTES_PER_TERM = 256
TERM_BUDGET = (1 << 30) // _BYTES_PER_TERM


def _over_budget(bound: int, what: str) -> ResourceError:
    return ResourceError(f"{what} would form up to {bound} terms, past the term "
                         f"budget of {TERM_BUDGET}")


def _check_exponents(ns: Namespace, a, b):
    """Raise InputError when the sum of a key of a and a key of b, two
    collections of keys (a term dict reads as its keys), would carry an
    exponent past MAX_EXPONENT into the next variable's field.

    The OR of a collection's keys bounds each of its exponents, so when the
    sum of the two ORs carries out of no field, no sum of keys does.
    Otherwise the per-field maxima decide: the largest exponent of a field
    over the sums is the sum of the two maxima.
    """
    if not a or not b:
        return
    or_a, or_b = reduce(or_, a), reduce(or_, b)
    if not ((or_a + or_b) ^ or_a ^ or_b) & ns.carry:
        return
    for s, name in zip(range(0, _BITS * len(ns), _BITS), ns.names):
        x = max((k >> s) & MAX_EXPONENT for k in a) + max((k >> s) & MAX_EXPONENT for k in b)
        if x > MAX_EXPONENT:
            raise InputError(f"product has exponent {x} of {name}, "
                             f"past the exponent bound {MAX_EXPONENT}")


def _product(ns: Namespace, acc: dict, a: dict, b: dict, what: str, w=1, checked=False) -> dict:
    """_mul_acc(acc, a, b, w) after its two checks, in this order: the
    exponents of a·b (InputError past MAX_EXPONENT) unless checked, which a
    caller passes when no key sum can carry (a and b homogeneous of degrees
    adding up to at most MAX_EXPONENT, say), then its count of coefficient
    products against TERM_BUDGET (ResourceError, naming what)."""
    if not checked:
        _check_exponents(ns, a, b)
    if len(a) * len(b) > TERM_BUDGET:
        raise _over_budget(len(a) * len(b), what)
    return _mul_acc(acc, a, b, w)


def _mul_acc(acc: dict, a: dict, b: dict, w=1) -> dict:
    """acc[ka + kb] += w·ca·cb over every term ka: ca of a and kb: cb of b;
    returns acc.

    The sparse multiply kernel.  The smaller operand runs outside, so w
    multiplies each of its coefficients once.  Cancelled entries stay in acc
    as zeros until the caller drops them with _nonzero.  It checks nothing:
    a key sum past MAX_EXPONENT would carry into the next variable's field,
    so callers go through _product unless their exponents are bounded.
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
    """acc with its zero entries deleted in place; returns acc.  Zeros are
    rare, so the values are first searched for one in a single C-level scan."""
    if 0 in acc.values():
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
        return MPoly(self.ns, _nonzero(_product(self.ns, {}, self.terms, other.terms,
                                                "a product")))

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
        monomial is dropped.  So each pair checks its term count only.
        """
        _check_ns(self, other)
        ns = self.ns
        if max_degree > MAX_EXPONENT:
            _check_exponents(ns, self.terms, other.terms)
        a, b = _homogeneous_parts(self, max_degree), _homogeneous_parts(other, max_degree)
        out: dict = {}
        for da, ta in enumerate(a):
            for tb in b[:max_degree - da + 1]:
                _product(ns, out, ta, tb, "a truncated product", checked=True)
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

    def __eq__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.ns == other.ns and self.terms == other.terms

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


# ---------------------------------------------------------------------------
# angle powers and the edge-contraction operator
# ---------------------------------------------------------------------------

def _binomial_power(terms: list, m: int, powers: list) -> dict:
    """The terms of (sum of terms)^m for one or two terms (key, coefficient),
    by the binomial theorem; powers[i][e] is the e-th power of term i's
    coefficient."""
    if len(terms) == 1:
        return {m * terms[0][0]: powers[0][m]}
    (k1, _), (k2, _) = terms
    p1, p2 = powers
    row, step, base = _BINOMIAL[m], k1 - k2, m * k2
    return {base + i * step: row[i] * p1[i] * p2[m - i] for i in range(m + 1)}


def form_power(coeffs, keys, n: int) -> dict:
    """The terms of F^n for the nonzero form F = sum_i coeffs[i]·X^keys[i]
    with four monomials in which no variable passes exponent 1 (an angle
    form: z_g z_h, z_g w_h, w_g z_h and w_g w_h); the terms of MPoly.pow(n)
    on F, in the same ring, for n <= MAX_EXPONENT.

    One pass of the binomial theorem, with no polynomial power: the
    nonzero terms of F split into A, the first two, and B, the rest, and
    F^n = sum_j C(n, j) A^j B^(n-j), each power of A and of B expanded by
    the binomial theorem too and each product an unchecked _mul_acc, as no
    exponent passes n.  A form of two terms, such as the trivial
    holonomy's z_g w_h - w_g z_h, is A alone and gives its n + 1 terms
    directly; only a form of four terms has two products on one monomial
    (z_g z_h·w_g w_h = z_g w_h·w_g z_h), and so a sum that may cancel.
    """
    if n > MAX_EXPONENT:
        raise InputError(f"power {n} of a form passes the exponent bound {MAX_EXPONENT}")
    terms = [(k, c) for k, c in zip(keys, coeffs) if c]
    powers = [list(accumulate(repeat(c, n), mul, initial=1)) for _, c in terms]
    if len(terms) <= 2:
        return _binomial_power(terms, n, powers)
    first, second = terms[:2], terms[2:]
    out: dict = {}
    for j, w in enumerate(_BINOMIAL[n]):
        _mul_acc(out, _binomial_power(first, j, powers[:2]),
                 _binomial_power(second, n - j, powers[2:]), w)
    return _nonzero(out) if len(terms) == 4 else out


def apply_edge_operator(factors: list, z1: str, w1: str, z2: str, w2: str,
                        c: int) -> MPoly:
    """Apply (1/c!) (d_z1 d_w2 - d_z2 d_w1)^c to the product of the factors
    at an edge (a nonempty list of MPoly), then set the four variables to
    zero.  The factors' term dicts are read and never written.

    A monomial z1^a1 w1^b1 z2^a2 w2^b2 * R survives iff a1 = b2, a2 = b1 and
    a1 + a2 = c; it contributes the integer weight (-1)^a2 * a1! * a2! times
    R, so nothing is divided and integer or Gaussian-integer coefficients
    stay in their ring.  The factors are sorted by term count and all but
    the largest, q, are multiplied out into p (the constant 1 when there is
    one factor).  The terms of the larger of p and q are grouped by their
    four-variable edge part; for each term of the smaller and each surviving
    pattern, the one group whose edge part completes the term's to the
    pattern is found by one lookup, and only those pairs are multiplied, so
    the product p·q is never formed.  The factor products are checked
    products (_product) on term dicts; the contraction runs in this
    function's own loop.  The edge's field mask and patterns are kept on the
    namespace.

    Each step, a product of p with the next factor and then the contraction,
    is checked in turn as if it ran alone: its exponents (InputError past
    MAX_EXPONENT), then its count of coefficient products against
    TERM_BUDGET (ResourceError), before it is formed.
    """
    factors = sorted(factors, key=lambda f: len(f.terms))
    q = factors[-1]
    ns = q.ns
    for f in factors[:-1]:
        _check_ns(f, q)
    dicts = [f.terms for f in factors]
    edge_part, patterns = ns.edge_patterns(z1, w1, z2, w2, c)
    p = dicts[0] if len(dicts) > 1 else {0: 1}
    for f in dicts[1:-1]:
        p = _nonzero(_product(ns, {}, p, f, "a factor product"))
    _check_exponents(ns, p, dicts[-1])

    # the terms of the larger side, r, grouped by their edge part; with no
    # exponent past MAX_EXPONENT, key addition is fieldwise, so the group of
    # edge part pattern - e, when present, completes a term of the smaller
    # side, s, whose edge part is e, to the pattern.  The count of coefficient
    # products is at most |s|·|r|, and is summed exactly only past the budget
    s, r = (p, dicts[-1]) if len(p) <= len(dicts[-1]) else (dicts[-1], p)
    groups: dict = {}
    add = groups.setdefault
    for k, x in r.items():
        e = k & edge_part
        add(e, []).append((k - e, x))
    if len(s) * len(r) > TERM_BUDGET:
        bound = sum(len(groups.get(pattern - (k & edge_part), ()))
                    for k in s for pattern, _ in patterns)
        if bound > TERM_BUDGET:
            raise _over_budget(bound, "an edge contraction")
    out: dict = {}
    get = out.get
    for ka, ca in s.items():
        e = ka & edge_part
        ka -= e
        for pattern, w in patterns:
            group = groups.get(pattern - e)
            if group is not None:
                ca_w = w * ca
                for kb, cb in group:
                    k = ka + kb
                    x = get(k)
                    out[k] = ca_w * cb if x is None else x + ca_w * cb
    return MPoly(ns, _nonzero(out))


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
# series helpers, and Gaussian integers as residues
# ---------------------------------------------------------------------------

def _on_gaussian_integers(dicts) -> bool:
    """Every coefficient of the term dicts an int or an int-part QQi, one a QQi."""
    others = [c for terms in dicts for c in terms.values() if type(c) is not int]
    return bool(others) and all(type(c) is QQi and type(c.re) is int and type(c.im) is int
                                for c in others)


def _norm1(terms: dict) -> int:
    """The sum of |re| + |im| over a term dict of ints and int-part QQi."""
    return sum(abs(c) if type(c) is int else abs(c.re) + abs(c.im) for c in terms.values())


class _Residues:
    """Gaussian integers a + b·i with |a|, |b| <= bound as residues modulo
    N = 2^(2K) + 1, where 2^K squares to -1 (Schönhage and Strassen): a + b·i
    is encoded as the int a + b·2^K, and a sum of products of encodings,
    reduced modulo N once, is the encoding of the same sum of Gaussian
    products.  2^(K-1) > bound makes the decoding exact: the balanced residue
    r, |r| <= N/2, is then a + b·2^K as an int, and a is r's balanced digit
    modulo 2^K."""

    __slots__ = ("width", "modulus")

    def __init__(self, bound: int):
        self.width = bound.bit_length() + 1
        self.modulus = (1 << 2 * self.width) + 1

    def encode(self, terms: dict) -> dict:
        k = self.width
        return {key: c if type(c) is int else c.re + (c.im << k) for key, c in terms.items()}

    def reduce(self, terms: dict) -> dict:
        """terms modulo N, zeros dropped."""
        n = self.modulus
        return {key: r for key, c in terms.items() if (r := c % n)}

    def decode(self, terms: dict, divisor: int = 1) -> dict:
        """The Gaussian integers that terms encode, each divided by divisor
        as div_exact divides a QQi; zeros dropped."""
        k, n = self.width, self.modulus
        half, low = 1 << k - 1, (1 << k) - 1
        out = {}
        for key, c in terms.items():
            r = c % n
            if r:
                if r > n >> 1:
                    r -= n
                re = ((r + half) & low) - half
                out[key] = _qqi(div_exact(re, divisor), div_exact((r - re) >> k, divisor))
        return out


def _series_recurrence(parts, max_degree: int, weight, base: int = 1) -> MPoly:
    """The series F_0 + F_1/base + ... + F_max_degree/base^max_degree with
    F_0 = 1 and k·F_k = sum_{m=1..k} weight(m, k)·g_m·F_{k-m}, where
    g_m = parts[m] is homogeneous of degree m and parts[0] is the constant 1.

    Each F_k is then homogeneous of degree k, so the products need no
    truncation, only parts up to max_degree are read, and a product with an
    empty part is skipped.  The weights are ints and each division by k
    goes through div_exact.  On Gaussian integers each step runs on residues
    (see _Residues), its width taken from sum_m |weight(m, k)|·|g_m|·|F_{k-m}|
    in the l1 norm, and its sum is decoded once, before the division, which
    the three series keep exact (so each F_k is a Gaussian integer again);
    ints and Fraction parts run as they are.

    Each product g_m·F_{k-m} is a checked product (_product): its
    exponents, then its count of coefficient products against TERM_BUDGET,
    before it is formed.  Its keys all have degree k, so its exponents are
    scanned only past MAX_EXPONENT.  After each product the terms held, the
    F_j below k and the sum so far, are counted against the same budget
    (ResourceError).  The products of one step merge into few monomials (on
    prism3's determinant, about 120 products a term), so their sum is not
    checked.
    """
    ns = parts[0].ns
    g = [p.terms for p in parts[:max_degree + 1]]
    gauss = _on_gaussian_integers(g[1:])
    if gauss:  # the l1 norms of the parts and of the F_k
        g_norm, f_norm = [_norm1(t) for t in g], [_norm1(g[0])]
    out = [g[0]]
    held = len(g[0])  # the terms of the F_j below k
    for k in range(1, max_degree + 1):
        pairs = [(m, g[m], out[k - m]) for m in range(1, k + 1) if g[m] and out[k - m]]
        what = f"the degree-{k} part of a series"
        acc: dict = {}
        if gauss:
            res = _Residues(sum(abs(weight(m, k)) * g_norm[m] * f_norm[k - m] for m, _, _ in pairs))
        for m, a, b in pairs:
            if gauss:
                a, b = res.encode(a), res.encode(b)
            _product(ns, acc, a, b, what, weight(m, k), checked=k <= MAX_EXPONENT)
            if held + len(acc) > TERM_BUDGET:
                raise _over_budget(held + len(acc), what + " and the parts below it")
        if gauss:
            out.append(res.decode(acc, k))
            f_norm.append(_norm1(out[k]))
        else:
            out.append({key: div_exact(c, k) for key, c in acc.items() if c})
        held += len(out[k])
    # the F_k are homogeneous of distinct degrees, so no monomial repeats
    if base == 1:
        return MPoly(ns, {key: c for part in out for key, c in part.items()})
    return MPoly(ns, {key: div_exact(c, base ** k) for k, part in enumerate(out)
                      for key, c in part.items()})


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
    constant term 1; the name of the series is for the errors."""
    if max_degree < 0:
        raise InputError(f"{series} needs a degree >= 0, got {max_degree}")
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
    return _series_recurrence(_unit_parts(d, max_degree, "inv_sqrt_series"), max_degree,
                              lambda m, k: (m - 2 * k) << 2 * m - 1, 4)


def inverse_series(d: MPoly, max_degree: int) -> MPoly:
    """Truncated multiplicative inverse of d, with d(0) = 1: Miller's
    recurrence for d^(-1), F_k = -sum_m d_m·F_{k-m}."""
    return _series_recurrence(_unit_parts(d, max_degree, "inverse_series"), max_degree,
                              lambda m, k: -k)
