"""Finite rings given by structure constants, and the closure machinery on them.

Everything here is exact: a ring element is an integer vector reduced
componentwise modulo the ranks of the additive group, multiplication is the
biadditive extension of a basis-pair product table, and every predicate is
decided by enumeration.  Rings are allowed to be non-associative; operations
that need associativity check the flag instead of silently assuming it.
"""

from __future__ import annotations

import itertools
from math import prod

DEFAULT_ORDER_CAP = 4096

# Full pairwise product memoisation is only worth it for small rings.
_MEMO_LIMIT = 1024

Vec = tuple  # element vector, one integer per cyclic factor


class CapExceeded(Exception):
    """A construction would enumerate more elements than the configured cap."""


class MalformedSpec(Exception):
    """A ring description is structurally invalid."""


class NotAModule(Exception):
    """The absorption precondition of a bimodule check fails."""


class IllDefinedProduct(Exception):
    """Coset multiplication depends on the chosen representatives."""


class FinAbGroup:
    """Product of cyclic groups Z/d_1 x ... x Z/d_k.

    Elements are integer tuples with component i reduced into [0, d_i).
    """

    def __init__(self, ranks, cap: int = DEFAULT_ORDER_CAP):
        ranks = tuple(int(d) for d in ranks)
        if any(d < 1 for d in ranks):
            raise MalformedSpec(f"ranks must be positive, got {ranks}")
        self.ranks = ranks
        self.order = prod(ranks) if ranks else 1
        if self.order > cap:
            raise CapExceeded(f"group order {self.order} exceeds cap {cap}")
        self.zero: Vec = (0,) * len(ranks)
        self._elements: list[Vec] | None = None

    def reduce(self, v) -> Vec:
        return tuple(x % d for x, d in zip(v, self.ranks))

    def add(self, x: Vec, y: Vec) -> Vec:
        return tuple((a + b) % d for a, b, d in zip(x, y, self.ranks))

    def neg(self, x: Vec) -> Vec:
        return tuple((-a) % d for a, d in zip(x, self.ranks))

    def sub(self, x: Vec, y: Vec) -> Vec:
        return tuple((a - b) % d for a, b, d in zip(x, y, self.ranks))

    def smul(self, n: int, x: Vec) -> Vec:
        return tuple((n * a) % d for a, d in zip(x, self.ranks))

    def elements(self) -> list[Vec]:
        if self._elements is None:
            self._elements = list(itertools.product(*(range(d) for d in self.ranks)))
        return self._elements


class FinRing:
    """Finite ring on a FinAbGroup with multiplication given on basis pairs.

    ``struct_consts[i][j]`` is the element vector of the product of the i-th
    and j-th additive generators; products of arbitrary elements are the
    biadditive extension.  Associativity and commutativity are decided on
    basis triples/pairs, which suffices by biadditivity.
    """

    def __init__(self, ranks, struct_consts, name: str = "R",
                 cap: int = DEFAULT_ORDER_CAP):
        self.group = FinAbGroup(ranks, cap=cap)
        self.name = name
        k = len(self.group.ranks)
        sc = [list(row) for row in struct_consts]
        if len(sc) != k or any(len(row) != k for row in sc):
            raise MalformedSpec(f"structure constant table must be {k}x{k}")
        for i in range(k):
            for j in range(k):
                v = tuple(sc[i][j])
                if len(v) != k:
                    raise MalformedSpec(f"product ({i},{j}) has length {len(v)}, want {k}")
                v = self.group.reduce(v)
                # Biadditivity forces d_i * (e_i e_j) = (d_i e_i) e_j = 0,
                # so the additive order of each entry must divide gcd(d_i, d_j).
                if self.group.smul(self.group.ranks[i], v) != self.group.zero or \
                   self.group.smul(self.group.ranks[j], v) != self.group.zero:
                    raise MalformedSpec(
                        f"product ({i},{j}) = {v} is incompatible with ranks "
                        f"{self.group.ranks}: biadditive extension is ill-defined")
                sc[i][j] = v
        self.sc = tuple(tuple(row) for row in sc)
        self.zero = self.group.zero
        self._memo: dict | None = {} if self.order <= _MEMO_LIMIT else None
        self._simple: bool | None = None     # is_simple, once computed
        self._unitality: dict | None = None  # unitality_predicates(R), once computed
        self.is_associative = self._check_associative()
        self.is_commutative = self._check_commutative()

    # -- additive structure, delegated -------------------------------------
    @property
    def order(self) -> int:
        return self.group.order

    @property
    def ranks(self):
        return self.group.ranks

    def elements(self) -> list[Vec]:
        return self.group.elements()

    def add(self, x: Vec, y: Vec) -> Vec:
        return self.group.add(x, y)

    def neg(self, x: Vec) -> Vec:
        return self.group.neg(x)

    def sub(self, x: Vec, y: Vec) -> Vec:
        return self.group.sub(x, y)

    def basis(self) -> list[Vec]:
        k = len(self.group.ranks)
        out = []
        for i in range(k):
            v = [0] * k
            v[i] = 1
            out.append(self.group.reduce(v))
        return out

    # -- multiplication -----------------------------------------------------
    def mul(self, x: Vec, y: Vec) -> Vec:
        memo = self._memo
        if memo is not None:
            v = memo.get((x, y))
            if v is not None:
                return v
        ranks = self.group.ranks
        k = len(ranks)
        acc = [0] * k
        sc = self.sc
        for i in range(k):
            xi = x[i]
            if not xi:
                continue
            row = sc[i]
            for j in range(k):
                yj = y[j]
                if not yj:
                    continue
                m = xi * yj
                c = row[j]
                for t in range(k):
                    acc[t] += m * c[t]
        v = tuple(a % d for a, d in zip(acc, ranks))
        if memo is not None:
            memo[(x, y)] = v
        return v

    def mul_basis_left(self, i: int, y: Vec) -> Vec:
        """Product e_i * y, cheaper than mul() for a basis left factor."""
        ranks = self.group.ranks
        k = len(ranks)
        acc = [0] * k
        row = self.sc[i]
        for j in range(k):
            yj = y[j]
            if not yj:
                continue
            c = row[j]
            for t in range(k):
                acc[t] += yj * c[t]
        return tuple(a % d for a, d in zip(acc, ranks))

    def mul_basis_right(self, x: Vec, j: int) -> Vec:
        """Product x * e_j."""
        ranks = self.group.ranks
        k = len(ranks)
        acc = [0] * k
        sc = self.sc
        for i in range(k):
            xi = x[i]
            if not xi:
                continue
            c = sc[i][j]
            for t in range(k):
                acc[t] += xi * c[t]
        return tuple(a % d for a, d in zip(acc, ranks))

    def _check_associative(self) -> bool:
        es = self.basis()
        for a in es:
            for b in es:
                ab = self.mul(a, b)
                for c in es:
                    if self.mul(ab, c) != self.mul(a, self.mul(b, c)):
                        return False
        return True

    def _check_commutative(self) -> bool:
        es = self.basis()
        for i, a in enumerate(es):
            for b in es[:i]:
                if self.mul(a, b) != self.mul(b, a):
                    return False
        return True

    def require_associative(self, what: str) -> None:
        if not self.is_associative:
            raise IllDefinedProduct(f"{what} requires an associative ring, "
                                    f"but {self.name} is not associative")

    def __repr__(self):
        return f"FinRing({self.name}, order={self.order})"


def ring_from_spec(ranks, products, name: str = "R",
                   cap: int = DEFAULT_ORDER_CAP) -> FinRing:
    """Build a FinRing from ranks and a sparse basis-pair product map.

    ``products`` maps 0-based pairs (i, j) to element vectors; omitted pairs
    default to the zero product.
    """
    ranks = tuple(int(d) for d in ranks)
    k = len(ranks)
    table = [[(0,) * k for _ in range(k)] for _ in range(k)]
    for (i, j), v in products.items():
        if not (0 <= i < k and 0 <= j < k):
            raise MalformedSpec(f"basis index ({i},{j}) out of range for {k} generators")
        if len(tuple(v)) != k:
            raise MalformedSpec(f"product vector for ({i},{j}) has length {len(tuple(v))}, want {k}")
        table[i][j] = tuple(v)
    return FinRing(ranks, table, name=name, cap=cap)


# ---------------------------------------------------------------------------
# additive subgroups and ideals


class Subgroup:
    """Additive subgroup of a FinRing, stored as its full element set."""

    def __init__(self, ring: FinRing, elements, generators=(), *, trusted=False):
        self.ring = ring
        self.elements = frozenset(elements)
        self.generators = tuple(generators)
        if ring.zero not in self.elements:
            raise MalformedSpec("subgroup must contain zero")
        if not trusted:
            els = self.elements
            for x in els:
                if ring.neg(x) not in els:
                    raise MalformedSpec(f"subgroup not closed under negation at {x}")
                for y in els:
                    if ring.add(x, y) not in els:
                        raise MalformedSpec(f"subgroup not closed under addition at {x}+{y}")
        self._sorted: list | None = None
        self._small_gens: tuple | None = None

    def sorted_elements(self) -> list[Vec]:
        if self._sorted is None:
            self._sorted = sorted(self.elements)
        return self._sorted

    def small_gens(self) -> tuple:
        """A short generating set, found greedily; used to cut product scans."""
        if self._small_gens is None:
            gens = []
            span = {self.ring.zero}
            for x in self.sorted_elements():
                if x not in span:
                    gens.append(x)
                    _adjoin(self.ring.group, span, x)
            self._small_gens = tuple(gens)
        return self._small_gens

    def __contains__(self, x):
        return x in self.elements

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.sorted_elements())

    def __eq__(self, other):
        return (isinstance(other, Subgroup) and self.ring is other.ring
                and self.elements == other.elements)

    def __le__(self, other):
        return self.elements <= other.elements

    def __hash__(self):
        return hash((id(self.ring), self.elements))

    def is_zero(self) -> bool:
        return len(self.elements) == 1

    def __repr__(self):
        return f"Subgroup(order={len(self.elements)} of {self.ring.name})"


class Ideal(Subgroup):
    def __init__(self, ring, elements, generators=(), sidedness="two-sided", *,
                 trusted=False):
        super().__init__(ring, elements, generators, trusted=trusted)
        if sidedness not in ("left", "right", "two-sided"):
            raise MalformedSpec(f"bad sidedness {sidedness!r}")
        self.sidedness = sidedness

    def __repr__(self):
        return f"Ideal({self.sidedness}, order={len(self.elements)} of {self.ring.name})"


def _adjoin(group: FinAbGroup, elems: set, g: Vec) -> list:
    """Grow the subgroup set ``elems`` by the generator g; return new elements."""
    g = group.reduce(g)
    if g in elems:
        return []
    added = []
    base = list(elems)
    m = g
    while m != group.zero:
        for s in base:
            t = group.add(s, m)
            if t not in elems:
                elems.add(t)
                added.append(t)
        m = group.add(m, g)
    return added


def subgroup_closure(R: FinRing, gens) -> Subgroup:
    """Smallest additive subgroup of R containing ``gens``."""
    gens = [R.group.reduce(g) for g in gens]
    elems = {R.zero}
    for g in gens:
        _adjoin(R.group, elems, g)
    return Subgroup(R, elems, gens, trusted=True)


def _close_ideal(R: FinRing, gens, left: bool, right: bool, stop=None):
    """Iterate (additive closure; absorb basis products) to a fixpoint.

    Absorbing only basis-element products suffices by biadditivity; iterating
    keeps the closure valid in non-associative rings.  If ``stop`` is given it
    is called on each newly spanned element and a truthy return aborts the
    closure early (the caller knows the answer at that point).  Absorption
    also ends once the set is the whole ring, which cannot grow further.
    Returns (element set, stopped_early).
    """
    group = R.group
    k = len(group.ranks)
    n = R.order
    elems = {R.zero}
    frontier = []
    for g in gens:
        fresh = _adjoin(group, elems, group.reduce(g))
        frontier.extend(fresh)
    if stop is not None:
        for x in list(elems):
            if x != R.zero and stop(x):
                return elems, True
    while frontier and len(elems) < n:
        new_gens = []
        for f in frontier:
            for i in range(k):
                if left:
                    p = R.mul_basis_left(i, f)
                    if p not in elems:
                        new_gens.append(p)
                if right:
                    p = R.mul_basis_right(f, i)
                    if p not in elems:
                        new_gens.append(p)
        frontier = []
        for p in new_gens:
            fresh = _adjoin(group, elems, p)
            frontier.extend(fresh)
            if stop is not None:
                for x in fresh:
                    if stop(x):
                        return elems, True
            if len(elems) == n:
                break
    return elems, False


def _absorption_escape(R: FinRing, sub: Subgroup):
    """The first x of ``sub`` with e_i x or x e_i outside it, as (x, that
    product written out); None if ``sub`` absorbs basis products on both
    sides, which by biadditivity makes it a two-sided ideal."""
    for x in sub:
        for i in range(len(R.group.ranks)):
            if R.mul_basis_left(i, x) not in sub:
                return x, f"e_{i} * {x}"
            if R.mul_basis_right(x, i) not in sub:
                return x, f"{x} * e_{i}"
    return None


def _hom_escape(A: FinRing, B: FinRing, table: dict, gens):
    """First failure of ``table``, a map from a subring of A generated
    additively by ``gens``, to be a ring homomorphism into B: ("additive",
    (x, g)) or ("multiplicative", (g, h)); None if there is none.  Complete
    by biadditivity: f(0) = 0 and f(x+g) = f(x)+f(g) for every x and every
    generator g make f additive, and then f(xy) and f(x)f(y) are biadditive,
    so they agree everywhere once they agree on generator pairs."""
    if table[A.zero] != B.zero:
        return "additive", (A.zero, A.zero)
    images = [(g, table[g]) for g in gens]
    for x in sorted(table):
        for g, fg in images:
            if table[A.add(x, g)] != B.add(table[x], fg):
                return "additive", (x, g)
    for g, fg in images:
        for h, fh in images:
            if table[A.mul(g, h)] != B.mul(fg, fh):
                return "multiplicative", (g, h)
    return None


def ideal_closure(R: FinRing, gens, sidedness: str = "two-sided") -> Ideal:
    """Smallest ideal of the declared sidedness containing ``gens``.

    Valid in non-associative rings: absorption is iterated to a fixpoint.
    """
    left = sidedness in ("left", "two-sided")
    right = sidedness in ("right", "two-sided")
    if not (left or right):
        raise MalformedSpec(f"bad sidedness {sidedness!r}")
    gens = [R.group.reduce(g) for g in gens]
    elems, _ = _close_ideal(R, gens, left, right)
    return Ideal(R, elems, gens, sidedness, trusted=True)


# ---------------------------------------------------------------------------
# abelian group coordinates (cyclic decomposition of a finite abelian group)


def cyclic_decomposition(elements, add, zero):
    """Basis [(b_i, n_i)] with the given group the internal direct sum of <b_i>.

    Works on any finite abelian group presented as an element set with an
    addition callable.  Splits off a maximal-order cyclic factor, recurses on
    the quotient by it, and lifts the quotient basis back (adjusting each lift
    by a multiple of the split generator so its order is preserved).
    """
    elems = sorted(set(elements))
    if len(elems) == 1:
        return []

    def order_of(x):
        n, y = 1, x
        while y != zero:
            y = add(y, x)
            n += 1
        return n

    orders = {x: order_of(x) for x in elems}
    b = max(elems, key=lambda x: orders[x])
    m = orders[b]

    mult_index = {}
    y = zero
    for j in range(m):
        mult_index[y] = j
        y = add(y, b)

    rep = {}
    for x in elems:
        if x in rep:
            continue
        coset, y = [], x
        for _ in range(m):
            coset.append(y)
            y = add(y, b)
        r = min(coset)
        for z in coset:
            rep[z] = r
    qelems = sorted(set(rep.values()))

    def qadd(u, v):
        return rep[add(u, v)]

    out = [(b, m)]
    for q, o in cyclic_decomposition(qelems, qadd, rep[zero]):
        # o*q lies in <b>; o divides the exponent m, so the adjustment exists.
        y = zero
        for _ in range(o):
            y = add(y, q)
        j = mult_index[y]
        assert j % o == 0, "cyclic decomposition lift failed"
        t = j // o
        adj = q
        for _ in range((m - t) % m):
            adj = add(adj, b)
        out.append((adj, o))
    return out


class GroupCoords:
    """Coordinates on a finite abelian group relative to a cyclic basis."""

    def __init__(self, elements, add, zero):
        self.basis = []
        self.orders = []
        for b, n in cyclic_decomposition(elements, add, zero):
            self.basis.append(b)
            self.orders.append(n)
        self.zero = zero
        index = {}
        for coords in itertools.product(*(range(n) for n in self.orders)):
            x = zero
            for c, b in zip(coords, self.basis):
                for _ in range(c):
                    x = add(x, b)
            index[x] = coords
        if len(index) != len(set(elements)):
            raise MalformedSpec("cyclic basis does not span the group")
        self._encode = index
        self._decode = {v: k for k, v in index.items()}

    def encode(self, x) -> Vec:
        return self._encode[x]

    def decode(self, coords) -> Vec:
        return self._decode[tuple(coords)]


def ring_on_subgroup(sub: Subgroup, name: str | None = None):
    """Present an additively closed, multiplicatively closed subset as a FinRing.

    Returns (ring, encode, decode) where encode/decode translate between
    parent elements and the new ring's vectors.
    """
    R = sub.ring
    for x in sub.small_gens():
        for y in sub.small_gens():
            if R.mul(x, y) not in sub:
                raise MalformedSpec("subset is not multiplicatively closed")
    coords = GroupCoords(sub.elements, R.add, R.zero)
    k = len(coords.basis)
    sc = [[coords.encode(R.mul(coords.basis[i], coords.basis[j])) for j in range(k)]
          for i in range(k)]
    ring = FinRing(coords.orders, sc, name=name or f"{R.name}|sub")
    return ring, coords.encode, coords.decode


# ---------------------------------------------------------------------------
# quotients


class RingQuotient:
    """Quotient of a FinRing by a two-sided ideal, with the projection map.

    Coset representatives are canonical: the lexicographically minimal
    element vector in each coset.
    """

    def __init__(self, ring: FinRing, quotient: FinRing, ideal: Ideal,
                 project, lift):
        self.source = ring
        self.ring = quotient
        self.ideal = ideal
        self.project = project   # source element -> quotient element
        self.lift = lift         # quotient element -> canonical representative


def quotient_ring(R: FinRing, I: Ideal) -> RingQuotient:
    """Quotient R/I for a two-sided ideal I.

    Well-definedness of coset multiplication is exactly two-sided absorption:
    (x+i)(y+j) - xy = iy + xj + ij by biadditivity, so it is verified
    exhaustively over I x basis on both sides and IllDefinedProduct is raised
    on any escape (this is what failure of honest two-sidedness of I under a
    non-associative product looks like).
    """
    if not isinstance(I, Subgroup) or I.ring is not R:
        raise MalformedSpec("ideal does not belong to the ring")
    escape = _absorption_escape(R, I)
    if escape is not None:
        raise IllDefinedProduct(
            f"coset product ill-defined: {escape[1]} escapes the ideal")

    ideal_sorted = I.sorted_elements()
    rep = {}
    for x in R.elements():
        if x in rep:
            continue
        coset = [R.add(x, i) for i in ideal_sorted]
        r = min(coset)
        for z in coset:
            rep[z] = r
    reps = sorted(set(rep.values()))

    def rep_add(u, v):
        return rep[R.add(u, v)]

    coords = GroupCoords(reps, rep_add, rep[R.zero])
    m = len(coords.basis)
    sc = [[coords.encode(rep[R.mul(coords.basis[i], coords.basis[j])])
           for j in range(m)] for i in range(m)]
    Q = FinRing(coords.orders, sc, name=f"{R.name}/I")

    proj = {x: coords.encode(rep[x]) for x in R.elements()}
    lift = {proj[r]: r for r in reps}

    # Projection sanity: kernel is exactly I, and it is multiplicative on
    # basis pairs (biadditivity then gives multiplicativity everywhere).
    for x in R.elements():
        if (proj[x] == Q.zero) != (x in I):
            raise IllDefinedProduct(f"projection kernel mismatch at {x}")
    for a in R.basis():
        for b in R.basis():
            if proj[R.mul(a, b)] != Q.mul(proj[a], proj[b]):
                raise IllDefinedProduct(
                    f"projection not multiplicative at basis pair {a},{b}")

    return RingQuotient(R, Q, I, lambda x: proj[x], lambda q: lift[q])


# ---------------------------------------------------------------------------
# centralizers and ring predicates


def centralizer(R: FinRing, M) -> Subgroup:
    """Elements of R commuting with every element of M (a Subgroup or iterable)."""
    if isinstance(M, Subgroup):
        gens = M.small_gens()
    else:
        gens = [R.group.reduce(x) for x in M]
    elems = [r for r in R.elements()
             if all(R.mul(r, m) == R.mul(m, r) for m in gens)]
    return Subgroup(R, elems, gens, trusted=True)


def center(R: FinRing) -> Subgroup:
    return centralizer(R, R.basis())


def unitality_predicates(R: FinRing, subset=None) -> dict:
    """Unitality flags for R, or for a subset of R viewed as a ring.

    ``locally_unital`` asks for one idempotent e with exe = x for all x (a
    finite set has a single witness for all its finite subsets); in a
    non-associative ring both bracketings of exe must agree with x.  The
    flags of the whole ring are computed once per ring.
    """
    if subset is None and R._unitality is not None:
        return R._unitality
    M = sorted(subset.elements) if isinstance(subset, Subgroup) else \
        (sorted(subset) if subset is not None else R.elements())
    mul = R.mul
    left_ids = [a for a in M if all(mul(a, m) == m for m in M)]
    right_ids = [b for b in M if all(mul(m, b) == m for m in M)]
    left_s = all(any(mul(a, m) == m for a in M) for m in M)
    right_s = all(any(mul(m, b) == m for b in M) for m in M)
    loc = False
    for e in M:
        if mul(e, e) != e:
            continue
        if all(mul(mul(e, x), e) == x and mul(e, mul(x, e)) == x for x in M):
            loc = True
            break
    span = {R.zero}
    if isinstance(subset, Subgroup):
        gens = subset.small_gens()
    else:
        gens = Subgroup(R, set(M), trusted=True).small_gens() if subset is not None \
            else R.basis()
    for x in gens:
        for y in gens:
            _adjoin(R.group, span, mul(x, y))
    flags = {
        "left_unital": bool(left_ids),
        "right_unital": bool(right_ids),
        "unital": bool(left_ids) and bool(right_ids),
        "left_s_unital": left_s,
        "right_s_unital": right_s,
        "s_unital": left_s and right_s,
        "locally_unital": loc,
        "idempotent_ring": span == set(M),
    }
    if subset is None:
        R._unitality = flags
    return flags


def bimodule_predicates(M: Subgroup, left_acting: Subgroup,
                        right_acting: Subgroup) -> dict:
    """Module flags for M as a bimodule under ring multiplication.

    Raises NotAModule if left_acting*M or M*right_acting escapes M
    (checked on generators, which suffices by biadditivity).
    """
    R = M.ring
    for a in left_acting.small_gens():
        for m in M.small_gens():
            if R.mul(a, m) not in M:
                raise NotAModule(f"{a} * {m} escapes the module")
    for m in M.small_gens():
        for b in right_acting.small_gens():
            if R.mul(m, b) not in M:
                raise NotAModule(f"{m} * {b} escapes the module")
    ms = M.sorted_elements()
    la = left_acting.sorted_elements()
    ra = right_acting.sorted_elements()
    left_span = {R.zero}
    for a in left_acting.small_gens():
        for m in M.small_gens():
            _adjoin(R.group, left_span, R.mul(a, m))
    right_span = {R.zero}
    for m in M.small_gens():
        for b in right_acting.small_gens():
            _adjoin(R.group, right_span, R.mul(m, b))
    return {
        "left_unital": any(all(R.mul(a, m) == m for m in ms) for a in la),
        "right_unital": any(all(R.mul(m, b) == m for m in ms) for b in ra),
        "left_s_unital": all(any(R.mul(a, m) == m for a in la) for m in ms),
        "right_s_unital": all(any(R.mul(m, b) == m for b in ra) for m in ms),
        "left_unitary": left_span == M.elements,
        "right_unitary": right_span == M.elements,
    }


def _first_proper_closure(R: FinRing, candidates):
    """The first nonzero x of ``candidates`` whose two-sided ideal closure is
    proper, with that closure's element set; None if every x generates R.

    Elements already known to generate the whole ring short-circuit later
    closures: if y's partial closure reaches such an x then closure(y)
    contains closure(x) = R.  Only a proper closure is computed in full.
    """
    full = set()
    for x in candidates:
        if x in full:
            continue
        elems, stopped = _close_ideal(R, [x], True, True,
                                      stop=(lambda z: z in full) if full else None)
        if not stopped and len(elems) < R.order:
            return x, elems
        full.add(x)
    return None


def proper_ideal_witness(R: FinRing):
    """A nonzero x whose two-sided ideal closure is proper, with that closure.

    Returns (x, Ideal) or None.
    """
    found = _first_proper_closure(R, (x for x in R.elements() if x != R.zero))
    if found is None:
        return None
    x, elems = found
    return x, Ideal(R, elems, [x], "two-sided", trusted=True)


def is_simple(R: FinRing) -> bool:
    """True iff R is nonzero and every nonzero element generates R as an ideal.

    Computed once per ring: a FinRing does not change after construction.
    """
    if R._simple is None:
        R._simple = R.order > 1 and proper_ideal_witness(R) is None
    return R._simple


def common_s_unit(A, xs):
    """An element c of A with c*x = x*c = x for every x in xs, or None.

    ``A`` may be a FinRing or a Subgroup acting through the parent product.
    """
    if isinstance(A, Subgroup):
        R, pool = A.ring, A.sorted_elements()
    else:
        R, pool = A, A.elements()
    xs = list(xs)
    for c in pool:
        if all(R.mul(c, x) == x and R.mul(x, c) == x for x in xs):
            return c
    return None
