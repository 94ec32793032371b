"""Sparse integer polynomials over bit-packed exponent vectors.

A monomial is a single Python integer: ten bits per variable plus a
leading field holding the total degree.  Each exponent and the total
degree stay below FIELD_TOP = 512; pack and every product raise
SizeLimitError past it.  Integer comparison of packed
monomials is then exactly graded-lexicographic order (total degree first,
ties broken by the exponent of the largest registered variable), and
monomial multiplication is integer addition.  A polynomial is a plain dict
mapping packed monomials to nonzero integer coefficients.
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import SizeLimitError

Poly = Dict[int, int]

FIELD_BITS = 10
FIELD_MASK = (1 << FIELD_BITS) - 1
FIELD_TOP = 1 << (FIELD_BITS - 1)
OVERFLOW = ("monomial exponent overflow: each exponent and the total "
            f"degree must stay below {FIELD_TOP}")


def _out_of_range(what: str) -> str:
    return f"{what} out of packing range: it must stay below {FIELD_TOP}"


class Layout:
    """Packing geometry for a fixed list of variables."""

    __slots__ = ("nvars", "total_shift", "borrow_mask", "_units", "_ones")

    def __init__(self, nvars: int):
        self.nvars = nvars
        self.total_shift = FIELD_BITS * nvars
        mask = 0
        for i in range(nvars + 1):
            mask |= FIELD_TOP << (FIELD_BITS * i)
        self.borrow_mask = mask
        self._units = [(1 << (FIELD_BITS * i)) | (1 << self.total_shift)
                       for i in range(nvars)]
        self._ones = sum(1 << (FIELD_BITS * i) for i in range(nvars))

    def pack(self, exps: Sequence[int]) -> int:
        mono = 0
        total = 0
        for i, e in enumerate(exps):
            if e:
                if e < 0 or e >= FIELD_TOP:
                    raise SizeLimitError(_out_of_range(f"exponent {e}"))
                mono |= e << (FIELD_BITS * i)
                total += e
        if total >= FIELD_TOP:
            raise SizeLimitError(_out_of_range(f"total degree {total}"))
        return mono | (total << self.total_shift)

    def unpack(self, mono: int) -> List[int]:
        return [(mono >> (FIELD_BITS * i)) & FIELD_MASK for i in range(self.nvars)]

    def unit(self, i: int) -> int:
        return self._units[i]

    def exp(self, mono: int, i: int) -> int:
        return (mono >> (FIELD_BITS * i)) & FIELD_MASK

    def total(self, mono: int) -> int:
        return mono >> self.total_shift

    def var_mono(self, i: int, e: int = 1) -> int:
        if e < 0 or e >= FIELD_TOP:
            raise SizeLimitError(_out_of_range(f"exponent {e}"))
        return (e << (FIELD_BITS * i)) | (e << self.total_shift)

    def field_mask(self, indices: Iterable[int]) -> int:
        """Mask selecting the exponent fields of the given variables."""
        mask = 0
        for i in indices:
            mask |= FIELD_MASK << (FIELD_BITS * i)
        return mask

    def restrict(self, mono: int, mask: int) -> int:
        """The factor of mono in the variables whose fields mask selects.

        The total degree is the sum of the kept fields.  Multiplying by
        sum(2**(FIELD_BITS*i)) puts the prefix sums of the fields into the
        fields of the product; the top variable's field holds the whole sum,
        and no prefix sum carries, since it is at most the monomial's total
        degree, which pack and every product keep below FIELD_TOP.
        """
        m = mono & mask
        total = ((m * self._ones) >> (self.total_shift - FIELD_BITS)) & FIELD_MASK
        return m | (total << self.total_shift)

    def over_offset(self, caps: Sequence[int]) -> int:
        """Added to a monomial, sets the borrow bit of field i exactly when
        exponent i reaches caps[i]; both are below FIELD_TOP, so no carry."""
        return sum((FIELD_TOP - c) << (FIELD_BITS * i)
                   for i, c in enumerate(caps))

    def mono_vars(self, mono: int):
        """Indices of the variables with a nonzero exponent, ascending: each
        step jumps to the lowest set bit left below the total-degree field
        and clears that bit's whole field."""
        m = mono & ((1 << self.total_shift) - 1)
        while m:
            i = ((m & -m).bit_length() - 1) // FIELD_BITS
            yield i
            m &= ~(FIELD_MASK << (FIELD_BITS * i))


def pconst(c: int) -> Poly:
    return {0: c} if c else {}


def padd_inplace(out: Poly, b: Poly, scale: int = 1) -> None:
    if scale == 0:
        return
    for m, c in b.items():
        v = out.get(m, 0) + c * scale
        if v:
            out[m] = v
        else:
            del out[m]


def pneg(a: Poly) -> Poly:
    return {m: -c for m, c in a.items()}


def pscale(a: Poly, c: int) -> Poly:
    if c == 0:
        return {}
    if c == 1:
        return dict(a)
    return {m: c * v for m, v in a.items()}


def pmul_mono(a: Poly, mono: int, coeff: int, layout: Layout) -> Poly:
    """coeff * mono * a, with the one overflow check of pmul_into."""
    if coeff == 0 or not a:
        return {}
    if (max(a) + mono) & layout.borrow_mask:
        raise SizeLimitError(OVERFLOW)
    out = {}
    for m, c in a.items():
        out[m + mono] = c * coeff
    return out


def pmul_into(out: Poly, a: Poly, b: Poly, layout: Layout, max_terms: int = 0,
              scale: int = 1) -> None:
    """out += scale * a * b, in place.

    A monomial field is at most the total degree, so a product term
    overflows a field only if its total degree overflows, and the term of
    largest total degree is max(a) * max(b); one check of that sum covers
    every term, and it runs before out is touched.  max_terms bounds out
    as it grows."""
    if not a or not b or not scale:
        return
    if (max(a) + max(b)) & layout.borrow_mask:
        raise SizeLimitError(OVERFLOW)
    if len(a) < len(b):
        a, b = b, a
    get = out.get
    for mb, cb in b.items():
        cb *= scale
        for ma, ca in a.items():
            m = ma + mb
            v = get(m, 0) + ca * cb
            if v:
                out[m] = v
            else:
                del out[m]
        if max_terms and len(out) > max_terms:
            raise SizeLimitError(
                f"polynomial exceeded {max_terms} terms during multiplication")


def pmul(a: Poly, b: Poly, layout: Layout, max_terms: int = 0) -> Poly:
    if not a or not b:
        return {}
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        (mono, coeff), = b.items()
        return pmul_mono(a, mono, coeff, layout)
    out: Poly = {}
    pmul_into(out, a, b, layout, max_terms)
    return out


def ppow(a: Poly, k: int, layout: Layout, max_terms: int = 0) -> Poly:
    """a^k by repeated squaring.  For k = 1 the result is a itself, so it
    must not be changed in place."""
    if k < 0:
        raise ValueError("negative power of a polynomial")
    if k == 0:
        return pconst(1)
    out: Optional[Poly] = None
    while True:
        if k & 1:
            out = a if out is None else pmul(out, a, layout, max_terms)
        k >>= 1
        if not k:
            return out
        a = pmul(a, a, layout, max_terms)


def pderiv(a: Poly, i: int, layout: Layout) -> Poly:
    shift = FIELD_BITS * i
    unit = layout.unit(i)
    out = {}
    for m, c in a.items():
        e = (m >> shift) & FIELD_MASK
        if e:
            out[m - unit] = c * e
    return out


def pcontent(a: Poly) -> int:
    g = 0
    for c in a.values():
        g = math.gcd(g, c)
        if g == 1:
            return 1
    return g


def pmono_gcd(a: Poly, layout: Layout) -> int:
    """Largest monomial dividing every term."""
    it = iter(a)
    try:
        first = next(it)
    except StopIteration:
        return 0
    mins = layout.unpack(first)
    for m in it:
        if not any(mins):
            break
        for i in range(layout.nvars):
            e = (m >> (FIELD_BITS * i)) & FIELD_MASK
            if e < mins[i]:
                mins[i] = e
    return layout.pack(mins)


def pdiv_mono(a: Poly, mono: int) -> Poly:
    """Divide by a monomial known to divide every term."""
    if mono == 0:
        return dict(a)
    return {m - mono: c for m, c in a.items()}


def pleading(a: Poly) -> Tuple[int, int]:
    m = max(a)
    return m, a[m]


def pdeg_var(a: Poly, i: int) -> int:
    shift = FIELD_BITS * i
    d = 0
    for m in a:
        e = (m >> shift) & FIELD_MASK
        if e > d:
            d = e
    return d


def pvars(a: Poly, layout: Layout) -> set:
    """Indices of the variables that occur in a.  Fields do not overlap, so
    a field of the OR of all monomials is nonzero exactly when some
    monomial uses that variable."""
    acc = 0
    for m in a:
        acc |= m
    return set(layout.mono_vars(acc))


def pvalue(a: Poly, x: int, layout: Layout) -> int:
    """a(x, ..., x): the coefficients summed per total degree, then Horner's
    rule in x over the sums."""
    shift = layout.total_shift
    by_deg = [0] * ((max(a, default=0) >> shift) + 1)
    for m, c in a.items():
        by_deg[m >> shift] += c
    v = 0
    for c in reversed(by_deg):
        v = v * x + c
    return v


class Divisor:
    """A nonzero divisor b with what every trial division by it reads,
    computed once: its trailing and leading monomial and coefficient, its
    tail below the leading term, and its values at (2, ..., 2) and
    (3, ..., 3); var is i when b is the variable x_i, else None."""

    __slots__ = ("poly", "var", "trail", "tc", "lead", "lc", "tail", "v2",
                 "v3")

    def __init__(self, b: Poly, layout: Layout):
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        self.poly = b
        self.trail, self.lead = min(b), max(b)
        self.tc, self.lc = b[self.trail], b[self.lead]
        self.tail = [(m - self.lead, c) for m, c in b.items() if m != self.lead]
        self.v2, self.v3 = pvalue(b, 2, layout), pvalue(b, 3, layout)
        self.var = (next(layout.mono_vars(self.lead)) if len(b) == 1
                    and self.lc == 1 and layout.total(self.lead) == 1 else None)

    def rejects(self, ta: int, ca: int, a2: int, a3: Optional[int],
                borrow: int) -> bool:
        """True when b cannot divide a, read from the trailing monomial ta
        and coefficient ca of a and its values a2 at (2, ..., 2) and a3 at
        (3, ..., 3), or None while a3 is not known.  Each is a necessary
        condition for b | a in Z[x].  Graded-lex is a monomial order, so
        tt(a) = tt(q) * tt(b): the monomial and coefficient of tt(b) divide
        those of tt(a).  Evaluation is a ring map Z[x] -> Z, so
        a(x..x) = q(x..x) * b(x..x): b's value divides a's, and where b's
        value is 0, a's is 0 as well."""
        d = ta - self.trail
        return bool(d < 0 or d & borrow or ca % self.tc
                    or (a2 % self.v2 if self.v2 else a2)
                    or (a3 is not None and (a3 % self.v3 if self.v3 else a3)))


def pdiv_exact(a: Poly, b, layout: Layout) -> Optional[Poly]:
    """Exact quotient a/b in Z[x], or None when b does not divide a there;
    b is a nonzero polynomial or its Divisor.

    The quotient is unique when it exists, so the answer does not depend on
    how it is found; its terms are returned in descending graded-lex order.
    This is leading-term elimination in graded-lex order, and nothing else:
    the checks that reject most failing trials in O(1) are
    Divisor.rejects, which ratfunc runs before each call on the data it
    carries from one division of a numerator to the next.  When a = q*b the
    running remainder is q_tail*b at every step, so each leading
    coefficient is divisible exactly when the division succeeds at all,
    and each quotient monomial is at least tt(a)/tt(b), which stops a
    failing elimination early.  The remainder's monomials sit in a max-heap
    with lazy deletion, so no step rescans the remainder (Monagan & Pearce,
    "Sparse polynomial division using a heap", J. Symb. Comp. 46(7), 2011).
    """
    div = b if isinstance(b, Divisor) else Divisor(b, layout)
    if not a:
        return {}
    borrow = layout.borrow_mask
    dmin = min(a) - div.trail
    mb, cb, tail = div.lead, div.lc, div.tail
    rem = dict(a)
    heap = [-m for m in rem]
    heapify(heap)
    quot: Poly = {}
    while rem:
        ma = -heappop(heap)
        ca = rem.pop(ma, 0)
        if not ca:
            continue  # stale entry: the term cancelled after it was pushed
        d = ma - mb
        if d < dmin or d & borrow:
            return None
        q, r = divmod(ca, cb)
        if r:
            return None
        quot[d] = q
        for m, c in tail:
            mm = ma + m
            v = rem.get(mm)
            if v is None:
                rem[mm] = -c * q
                heappush(heap, -mm)
            else:
                v -= c * q
                if v:
                    rem[mm] = v
                else:
                    del rem[mm]
    return quot


def psorted(a: Poly) -> List[Tuple[int, int]]:
    """Terms in descending graded-lex order."""
    return sorted(a.items(), key=lambda t: t[0], reverse=True)
