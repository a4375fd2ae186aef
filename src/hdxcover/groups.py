"""Finite groups as explicit tables, and Cayley clique complexes.

Element 0 is always the identity.  Tables are validated on construction:
full associativity for orders up to 256, random triples above that.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .complexes import PureComplex, _from_positions, link_arrays
from . import spectral
from .errors import (
    BadLevel,
    NotAGroup,
    NotNormal,
    NotPure,
    NotSubgroup,
    NotSymmetricGenSet,
    TooLarge,
)

ORDER_CAP = 5040  # the largest group order built
_FULL_ASSOC_LIMIT = 256
_TIE_TOL = 1e-12  # well above eigensolver rounding, far below real score gaps
_SCAN_BLOCK = 512  # scan candidates per block: bounds the scan's arrays


class GroupTable:
    """Multiplication table with identity 0 and a derived inverse table."""

    __slots__ = ("mul_table", "inv_table", "order", "name")

    def __init__(self, mul_table, name="group", validate=True):
        mul = np.asarray(mul_table, dtype=np.int32)
        n = mul.shape[0]
        if mul.shape != (n, n):
            raise NotAGroup("multiplication table is not square")
        if mul.min() < 0 or mul.max() >= n:
            raise NotAGroup("table entries out of range")
        self.mul_table = mul
        self.order = n
        self.name = name
        if validate:
            self._validate()
        inv = np.full(n, -1, dtype=np.int32)
        rows, cols = np.nonzero(mul == 0)
        inv[rows] = cols
        if (inv < 0).any():
            raise NotAGroup("some element has no inverse")
        if (mul[inv, np.arange(n)] != 0).any():
            raise NotAGroup("left and right inverses disagree")
        self.inv_table = inv

    def _validate(self):
        mul, n = self.mul_table, self.order
        if (mul[0] != np.arange(n)).any() or (mul[:, 0] != np.arange(n)).any():
            raise NotAGroup("element 0 is not a two-sided identity")
        if (np.sort(mul, axis=1) != np.arange(n)).any():
            raise NotAGroup("a row is not a permutation")
        if (np.sort(mul, axis=0) != np.arange(n)[:, None]).any():
            raise NotAGroup("a column is not a permutation")
        if n <= _FULL_ASSOC_LIMIT:
            # (a*b)*c == a*(b*c), checked in chunks of a to bound memory
            for a0 in range(0, n, 64):
                rows = mul[a0:a0 + 64]
                if (mul[rows] != rows[:, mul]).any():
                    raise NotAGroup("multiplication is not associative")
        else:
            rng = np.random.default_rng(0)
            trips = rng.integers(0, n, size=(512, 3))
            for a, b, c in trips:
                if mul[mul[a, b], c] != mul[a, mul[b, c]]:
                    raise NotAGroup("multiplication is not associative")

    def mul(self, a, b):
        return int(self.mul_table[a, b])

    def inv(self, a):
        return int(self.inv_table[a])

    @property
    def elements(self):
        return range(self.order)

    def __repr__(self):
        return f"GroupTable({self.name}, order={self.order})"


def _check_cap(order):
    if order > ORDER_CAP:
        raise TooLarge(f"group order {order} exceeds the cap {ORDER_CAP}")


def cyclic(n):
    _check_cap(n)
    idx = np.arange(n)
    return GroupTable((idx[:, None] + idx[None, :]) % n, name=f"Z{n}", validate=False)


def dihedral(n):
    """Symmetries of the n-gon, order 2n; (i, j) encoded as i + n*j."""
    _check_cap(2 * n)
    mul = np.zeros((2 * n, 2 * n), dtype=np.int32)
    for i1, j1, i2, j2 in itertools.product(range(n), (0, 1), range(n), (0, 1)):
        i = (i1 + (i2 if j1 == 0 else -i2)) % n
        j = (j1 + j2) % 2
        mul[i1 + n * j1, i2 + n * j2] = i + n * j
    return GroupTable(mul, name=f"D{n}", validate=False)


def symmetric_group(k):
    order = math.factorial(k)
    _check_cap(order)
    parr = np.array(list(itertools.permutations(range(k))), dtype=np.intp)
    # base-k codes ascend, as permutations come in lexicographic order
    place = k ** np.arange(k - 1, -1, -1)
    codes = parr @ place
    # row i: (p_i . p_j)(x) = p_i[p_j[x]]
    mul = np.array([np.searchsorted(codes, p[parr] @ place) for p in parr])
    return GroupTable(mul, name=f"S{k}", validate=False)


def product_group(g1, g2):
    n1, n2 = g1.order, g2.order
    _check_cap(n1 * n2)
    a = np.arange(n1 * n2)
    a1, a2 = a // n2, a % n2
    mul = (
        g1.mul_table[np.ix_(a1, a1)] * n2 + g2.mul_table[np.ix_(a2, a2)]
    )
    return GroupTable(mul, name=f"{g1.name}x{g2.name}", validate=False)


def group_from_table(rows, name="table"):
    """Validate a raw table and relabel so the identity gets id 0."""
    mul = np.asarray(rows, dtype=np.int32)
    n = mul.shape[0]
    _check_cap(n)
    ident = None
    for e in range(n):
        if (mul[e] == np.arange(n)).all() and (mul[:, e] == np.arange(n)).all():
            ident = e
            break
    if ident is None:
        raise NotAGroup("no two-sided identity element")
    if ident != 0:
        perm = np.arange(n)
        perm[[0, ident]] = perm[[ident, 0]]
        inv_perm = perm  # the swap is an involution
        mul = inv_perm[mul[np.ix_(perm, perm)]]
    return GroupTable(mul, name=name)


def make_group(spec):
    """Build a group from a JSON-style description."""
    kind = spec.get("kind")

    def field(key):
        try:
            return spec[key]
        except KeyError:
            raise NotAGroup(f"group of kind {kind!r} needs {key!r}") from None

    if kind == "cyclic":
        return cyclic(int(field("n")))
    if kind == "dihedral":
        return dihedral(int(field("n")))
    if kind == "symmetric":
        return symmetric_group(int(field("k")))
    if kind == "product":
        factors = [make_group(s) for s in field("factors")]
        out = factors[0]
        for g in factors[1:]:
            out = product_group(out, g)
        return out
    if kind == "table":
        return group_from_table(field("mul"), spec.get("name", "table"))
    raise NotAGroup(f"unknown group kind {kind!r}")


def group_to_dict(group):
    return {"kind": "table", "mul": group.mul_table.tolist(), "name": group.name}


# --- generating sets ---


def subgroup_closure(group, seeds):
    """Smallest subgroup containing the seed elements: in a finite group,
    the fixpoint of right multiplication by the seeds, over the whole set."""
    seeds = np.asarray([int(s) for s in seeds], dtype=np.intp)
    inside = np.zeros(group.order, dtype=bool)
    inside[0] = True
    inside[seeds] = True
    count = 0
    while count != (count := np.count_nonzero(inside)):
        inside[group.mul_table[inside][:, seeds]] = True
    return tuple(np.flatnonzero(inside).tolist())


def validate_genset(group, elements, require_generating=True):
    """Normalize a symmetric generating set; returns a sorted tuple."""
    elems = tuple(sorted(set(int(e) for e in elements)))
    if not elems:
        raise NotSymmetricGenSet("generating set is empty")
    if 0 in elems:
        raise NotSymmetricGenSet("generating set contains the identity")
    for s in elems:
        if s < 0 or s >= group.order:
            raise NotSymmetricGenSet(f"element {s} out of range")
        if group.inv(s) not in elems:
            raise NotSymmetricGenSet(f"set not closed under inverse at {s}")
    if require_generating and len(subgroup_closure(group, elems)) != group.order:
        raise NotSymmetricGenSet("set does not generate the group")
    return elems


# --- Cayley clique complexes ---


@dataclass(frozen=True)
class CayleyCliqueComplex:
    """Clique complex of Cay(group, gens) truncated to dimension dim."""

    complex: PureComplex
    group: GroupTable
    gens: tuple
    dim: int


def _identity_cliques(group, gens, d):
    """The d-sets of generators spanning a (d+1)-clique with the identity,
    as rows of an int array; NotPure (with a witnessing edge) if some
    generator is in none."""
    S, owner, tops, (impure,) = _star_cliques(group, [tuple(sorted(set(gens)))], d)
    if impure is not None:
        raise impure
    return S[0, tops]


def cayley_clique_complex(group, gens, d):
    """Top faces are the (d+1)-cliques of the Cayley graph, uniform measure.

    Fails with NotPure (and a witnessing edge) if some Cayley edge lies in
    no (d+1)-clique.
    """
    gens = validate_genset(group, gens, require_generating=False)
    base = _identity_cliques(group, gens, d)
    # each element g with g times each identity clique's generators
    g = np.repeat(np.arange(group.order), len(base))
    rows = np.column_stack([g, group.mul_table[g[:, None], np.tile(base, (group.order, 1))]])
    tops = np.unique(np.sort(rows, axis=1), axis=0)
    return CayleyCliqueComplex(_from_positions(d, group.elements, tops), group, gens, d)


def identity_star_lambda(group, gens, d):
    """Worst two-sided link expansion over the faces of dimension 0..d-2
    of the Cayley clique complex of a symmetric set gens: star_scores of
    the one set, raising its NotPure."""
    (lam,) = star_scores(group, [tuple(sorted(set(gens)))], d)
    if isinstance(lam, NotPure):
        raise lam
    return lam


def _check_star_dim(d):
    if d < 2:
        raise BadLevel(f"d must be at least 2 to have links to score, got {d}")


def _padded(sets, order):
    """The sets as the rows of an int array, padded at the end with 0s, the
    mask of their own entries, and their bool rows over the order elements."""
    sizes = np.array([len(s) for s in sets], dtype=np.intp)
    real = np.arange(sizes.max(initial=0)) < sizes[:, None]
    S = np.zeros(real.shape, dtype=np.intp)
    S[real] = list(itertools.chain.from_iterable(sets))
    member = np.zeros((len(sets), order), dtype=bool)
    member[np.nonzero(real)[0], S[real]] = True
    return S, real, member


def _star_cliques(group, sets, d):
    """The d-cliques of generators of each sorted set, whose tops with 0
    are the star of 0: an (n_sets, width) table of the sets, padded; for
    each clique its set and its d column positions, in lexicographic order
    per set; and per set the NotPure it is, with a witnessing edge, when
    some generator lies in no clique, or None."""
    S, real, member = _padded(sets, group.order)
    n_sets, width = S.shape
    # adj[i, a, b]: the a-th element of set i times its b-th lies in set i
    steps = group.mul_table[group.inv_table[S][:, :, None], S[:, None, :]]
    adj = member[np.arange(n_sets)[:, None, None], steps]
    adj &= real[:, :, None] & real[:, None, :]
    combos = np.array(list(itertools.combinations(range(width), d)), dtype=np.intp)
    combos = combos.reshape(math.comb(width, d), d)
    clique = np.ones((n_sets, len(combos)), dtype=bool)
    for p, q in itertools.combinations(range(d), 2):
        clique &= adj[:, combos[:, p], combos[:, q]]
    owner, which = np.nonzero(clique)
    lack = real.copy()
    lack[owner[:, None], combos[which]] = False
    impure = [None] * n_sets
    for i in np.flatnonzero(lack.any(axis=1)).tolist():
        s = int(S[i, lack[i].argmax()])
        impure[i] = NotPure(f"Cayley edge (0, {s}) lies in no {d + 1}-clique",
                            witness=(0, s))
    return S, owner, combos[which], impure


def star_scores(group, sets, d):
    """identity_star_lambda of each sorted symmetric set in sets, or the
    NotPure it raises, in one pass over all the sets.

    Left multiplication acts transitively and keeps the uniform measure,
    so every link is a translate of a link at a face through 0, and the
    star of 0 (top faces {0} + c for the d-cliques c of generators) has
    those links up to a uniform scale.  The link of {0} + c has a top face
    per clique holding c, the clique less c, of weight 1/T for T cliques,
    in clique order (its coface order in the star); complexes.link_arrays
    weighs its skeleton as for link_skeleton, and spectral.link_spectra
    solves it, so the scores are the star's bit for bit.
    """
    _check_star_dim(d)
    if not sets:
        return []
    S, owner, tops, out = _star_cliques(group, sets, d)
    keep = np.array([lam is None for lam in out])
    owner, tops = owner[keep[owner]], tops[keep[owner]]
    if not len(owner):
        return out
    width = S.shape[1]
    w = 1.0 / np.bincount(owner)[owner]
    worst = np.full(len(sets), -np.inf)
    for k in range(d - 1):
        # each face {0} + c, c a k-subset of a clique's columns, once per
        # clique holding it, grouped by face in clique order
        subs = list(itertools.combinations(range(d), k))
        face = np.repeat(owner, len(subs))
        for j in range(k):
            face = face * width + tops[:, [q[j] for q in subs]].ravel()
        codes, link = np.unique(face, return_inverse=True)
        order = np.argsort(link, kind="stable")
        rest = tops[:, [[j for j in range(d) if j not in q] for q in subs]].reshape(-1, d - k)
        start = np.append(0, np.cumsum(np.bincount(link))).tolist()
        skel = link_arrays(start, rest[order], np.repeat(w, len(subs))[order], width)
        eigs = spectral.link_spectra(*skel[1:])[2]
        np.maximum.at(worst, codes // width**k, [max(abs(e[1]), abs(e[-1])) for e in eigs])
    for i in np.flatnonzero(keep).tolist():
        out[i] = float(worst[i])
    return out


# --- quotients ---


@dataclass(frozen=True)
class Quotient:
    group: GroupTable
    projection: np.ndarray  # element id -> coset id
    subgroup: tuple


def _conjugation_table(group):
    """conj[g, x] = g x g^-1."""
    mul = group.mul_table
    return mul[mul, group.inv_table[:, None]]


def _check_subgroup(group, elems):
    s = set(int(x) for x in elems)
    if 0 not in s:
        raise NotSubgroup("subgroup must contain the identity")
    for a in s:
        if group.inv(a) not in s:
            raise NotSubgroup(f"not closed under inverse at {a}")
        for b in s:
            if group.mul(a, b) not in s:
                raise NotSubgroup(f"not closed under product at ({a}, {b})")
    return s


def _outside_conjugates(group, sub):
    """(g, i) for each g and sub[i] whose conjugate g sub[i] g^-1 leaves sub."""
    inside = np.zeros(group.order, dtype=bool)
    inside[list(sub)] = True
    return np.argwhere(~inside[_conjugation_table(group)[:, sub]])


def quotient_group(group, normal_elems):
    """Coset group of a verified normal subgroup, with the projection map."""
    sub = sorted(_check_subgroup(group, normal_elems))
    bad = _outside_conjugates(group, sub)
    if len(bad):
        g, i = bad[0]
        raise NotNormal(f"conjugation by {g} leaves the subgroup at {sub[i]}")
    # cosets numbered by their least element, so the identity's comes first
    _, proj = np.unique(group.mul_table[:, sub].min(axis=1), return_inverse=True)
    proj = proj.astype(np.int32)
    reps = np.zeros(proj.max() + 1, dtype=np.intp)
    reps[proj] = np.arange(group.order)
    mul = proj[group.mul_table[np.ix_(reps, reps)]]
    q = GroupTable(mul, name=f"{group.name}/N{len(sub)}")
    return Quotient(q, proj, tuple(sub))


def normal_subgroups(group, index_cap=None):
    """Normal subgroups, optionally keeping only index <= index_cap.

    A normal subgroup is a union of conjugacy classes, so it is the join
    of the normal closures of the classes it holds: start from the closure
    of each class and join with those closures until nothing new appears.
    """
    conj = _conjugation_table(group)
    closures = {subgroup_closure(group, conj[:, x]) for x in group.elements}
    found, frontier = set(closures), list(closures)
    while frontier:
        sub = frontier.pop()
        joins = {subgroup_closure(group, sub + c) for c in closures} - found
        found |= joins
        frontier += joins
    return [
        sub
        for sub in sorted(found, key=lambda s: (len(s), s))
        if index_cap is None or group.order // len(sub) <= index_cap
    ]


def characters(group):
    """The characters chi_j(x) = exp(2 pi i theta[j, x] / order) of an abelian
    group as the int array theta, row 0 the trivial one; None if not abelian.
    With H the span so far, g outside it and k the least power with g^k in H,
    each character of H extends to <H, g> = {h g^j : j < k} by a phase w at g
    with k w = theta(g^k) mod order: theta(g^k) / k plus any multiple of
    order / k (k divides the order and, as H's characters extend to G, theta(g^k))."""
    mul, n = group.mul_table, group.order
    if not np.array_equal(mul, mul.T):
        return None
    theta, span = np.zeros((1, n), dtype=np.int64), np.zeros(1, dtype=np.intp)
    while len(span) < n:
        powers = [0, np.setdiff1d(np.arange(n), span)[0]]
        while (g_k := mul[powers[-1], powers[1]]) not in span:
            powers.append(g_k)
        k = len(powers)
        w = theta[:, g_k] // k + n // k * np.arange(k)[:, None]  # (k, characters of H)
        elems = mul[np.ix_(span, powers)]  # h g^j
        new = np.zeros((k, len(theta), n), dtype=np.int64)
        new[:, :, elems] = theta[:, span, None] + np.arange(k) * w[:, :, None, None]
        theta, span = new.reshape(-1, n) % n, elems.ravel()
    return theta


# --- generating-set scan ---


@dataclass(frozen=True)
class GensetCandidate:
    gens: tuple
    worst_link_lambda: float
    meets_target: bool
    orbit_size: int  # how many sets automorphism_table maps gens to


def _inverse_pair_classes(group):
    """The classes {g, g^-1} but the identity's, by least element."""
    inv = group.inv_table.tolist()
    return [(g,) if inv[g] == g else (g, inv[g]) for g in range(1, group.order) if g <= inv[g]]


def automorphism_table(group):
    """Automorphisms of group as rows of element permutations, a group: the
    inner ones, x -> g x g^-1, and for an abelian group the power maps
    x -> x^u, u coprime to the order.  Not all of Aut(G), e.g. for D_n."""
    mul, n = group.mul_table, group.order
    if not np.array_equal(mul, mul.T):
        return np.unique(_conjugation_table(group), axis=0)
    x = np.arange(n)
    rows, power = [], x
    for u in range(1, n + 1):
        if math.gcd(u, n) == 1:
            rows.append(power)
        power = mul[power, x]  # x^(u + 1)
    return np.unique(rows, axis=0)


def _tie_stable(scored, eta_target):
    """Candidates from (gens, score, orbit size) triples in score order.

    Scores chained within _TIE_TOL count as one value, reported as the
    least of them, and candidates of one value come in gens order, so that
    eigensolver rounding cannot pick the order or the best set.
    """
    keyed, prev = [], None
    for gens, lam, size in sorted(scored, key=lambda t: t[1]):
        if prev is None or lam - prev > _TIE_TOL:
            value = lam
        keyed.append((value, gens, size))
        prev = lam
    return [
        GensetCandidate(gens, value, eta_target is None or value <= eta_target, size)
        for value, gens, size in sorted(keyed)
    ]


def _orbit_forms(table, block):
    """Each set's least sorted image under the rows of table, padded in
    front with 0s, and its orbit size: the rows form a group, so those
    taking a set to its least image are a coset of its stabilizer."""
    S = _padded(block, table.shape[1])[0]
    # 0 is fixed by every row, so each set's images keep its 0s in front
    images = np.sort(table[:, S], axis=2)
    least = np.ones(images.shape[:2], dtype=bool)
    for col in np.moveaxis(images, 2, 0):
        col = np.where(least, col, table.shape[1])
        least &= col == col.min(axis=0)
    return images[least.argmax(axis=0), np.arange(len(block))], len(table) // least.sum(axis=0)


def _orbit_reps(group, table, max_size):
    """Each orbit under table's rows of the sets of whole inverse-pair
    classes with at most max_size elements, as its least sorted image
    mapped to its orbit size, in dicts of up to _SCAN_BLOCK.  Level k + 1
    is the least images of level k's sets plus a class they lack: a row
    maps a set less a class to a level-k set, and the class to a class."""
    level, classes = [()], _inverse_pair_classes(group)
    while level:
        grown = (tuple(sorted(rep + cls)) for rep in level for cls in classes
                 if cls[0] not in rep and len(rep) + len(cls) <= max_size)
        found = {}  # each least image and its orbit size, in first-seen order
        while block := list(itertools.islice(grown, _SCAN_BLOCK)):
            forms, sizes = (a.tolist() for a in _orbit_forms(table, block))
            found.update((tuple(f[len(f) - len(e):]), n) for e, f, n in zip(block, forms, sizes))
        reps = iter(found.items())
        while chunk := dict(itertools.islice(reps, _SCAN_BLOCK)):
            yield chunk
        level = found


def _block_masks(group, block):
    """Bool rows for a block of seed sets: the subgroup closure of each set,
    and whether each element a of the set lies in a triangle {0, a, b} of
    its Cayley graph, that is a^-1 b in the set for some b in the set."""
    mul, inv = group.mul_table, group.inv_table
    S = _padded(block, group.order)[2]
    present = np.flatnonzero(S.any(axis=0))
    inside = S.copy()
    inside[:, 0] = True
    # a row takes in x.s for its x and seeds s; only rows that grew can grow
    step = mul[:, inv[present]]
    rows = np.arange(len(block))
    while len(rows):
        part = inside[rows]
        reach = part[:, step]
        reach &= S[rows][:, None, present]
        grown = part | reach.any(axis=2)
        del reach  # before the next pass gathers one as large
        inside[rows] = grown
        rows = rows[(grown != part).any(axis=1)]
    in_tri = ~S
    for a in present:
        in_tri[:, a] |= (S & S[:, mul[inv[a]]]).any(axis=1)
    return inside, in_tri.all(axis=1)


def scan_gensets(group, d, eta_target=None, max_size=8, counts=None):
    """Score the sets of whole inverse-pair classes of group, up to
    max_size elements, that generate it, by their Cayley links.

    The score is the worst two-sided expansion over all proper links of
    the d-dimensional Cayley clique complex (the global skeleton is not
    scored), read off the star of the identity.  An automorphism relabels
    the complex, so _orbit_reps gives each orbit under automorphism_table
    once, as its least sorted image, the set scored and reported with its
    orbit size.  Impure candidates are skipped; candidates come back in
    _tie_stable order.  A dict passed as counts gets the sets enumerated
    (the orbit sizes summed) and duplicate (that less the orbits), and the
    orbits not generating, impure and scored.

    Each block of orbits goes through one fixpoint that closes them all,
    its triangle test (_block_masks), purity at d = 2 and necessary for
    it at d >= 3, and one star_scores call on the sets that pass it,
    giving NotPure for those impure at d >= 3.
    """
    _check_star_dim(d)
    tally = dict.fromkeys(("enumerated", "not_generating", "duplicate", "impure", "scored"), 0)
    scored = []
    for reps in _orbit_reps(group, automorphism_table(group), max_size):
        inside, in_triangles = _block_masks(group, list(reps))
        generates = inside.all(axis=1)
        passing = [s for s, ok in zip(reps, generates & in_triangles) if ok]
        tally["enumerated"] += sum(reps.values())
        tally["duplicate"] += sum(reps.values()) - len(reps)
        tally["not_generating"] += len(reps) - int(generates.sum())
        tally["impure"] += int(generates.sum()) - len(passing)
        for elems, lam in zip(passing, star_scores(group, passing, d)):
            if isinstance(lam, NotPure):
                tally["impure"] += 1
            else:
                scored.append((elems, lam, reps[elems]))
    tally["scored"] = len(scored)
    if counts is not None:
        counts.update(tally)
    return _tie_stable(scored, eta_target)
