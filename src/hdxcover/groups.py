"""Finite groups as explicit tables, and Cayley clique complexes.

Element 0 is always the identity.  Tables are validated on construction:
full associativity for orders up to 256, random triples above that.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .complexes import PureComplex, _from_positions
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

DEFAULT_ORDER_CAP = 5040
_FULL_ASSOC_LIMIT = 256
_TIE_TOL = 1e-12  # well above eigensolver rounding, far below real score gaps
_SCAN_BLOCK = 512  # scan candidates per block: bounds the scan's arrays


class GroupTable:
    """Multiplication table with identity 0 and a derived inverse table."""

    __slots__ = ("mul_table", "inv_table", "order", "name")

    def __init__(self, mul_table, name="group", validate=True, rng=None):
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
            self._validate(rng)
        inv = np.full(n, -1, dtype=np.int32)
        rows, cols = np.nonzero(mul == 0)
        inv[rows] = cols
        if (inv < 0).any():
            raise NotAGroup("some element has no inverse")
        if (mul[inv, np.arange(n)] != 0).any():
            raise NotAGroup("left and right inverses disagree")
        self.inv_table = inv

    def _validate(self, rng):
        mul, n = self.mul_table, self.order
        if (mul[0] != np.arange(n)).any() or (mul[:, 0] != np.arange(n)).any():
            raise NotAGroup("element 0 is not a two-sided identity")
        for row in mul:
            if len(set(row.tolist())) != n:
                raise NotAGroup("a row is not a permutation")
        for col in mul.T:
            if len(set(col.tolist())) != n:
                raise NotAGroup("a column is not a permutation")
        if n <= _FULL_ASSOC_LIMIT:
            # (a*b)*c == a*(b*c), checked in chunks to bound memory
            for a0 in range(0, n, 64):
                a1 = min(a0 + 64, n)
                lhs = mul[mul[a0:a1], :]
                rhs = mul[a0:a1][:, mul]
                if (lhs != rhs).any():
                    raise NotAGroup("multiplication is not associative")
        else:
            rng = np.random.default_rng(rng if rng is not None else 0)
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


def _check_cap(order, cap):
    if order > cap:
        raise TooLarge(f"group order {order} exceeds the cap {cap}")


def cyclic(n, cap=DEFAULT_ORDER_CAP):
    _check_cap(n, cap)
    idx = np.arange(n)
    return GroupTable((idx[:, None] + idx[None, :]) % n, name=f"Z{n}", validate=False)


def dihedral(n, cap=DEFAULT_ORDER_CAP):
    """Symmetries of the n-gon, order 2n; (i, j) encoded as i + n*j."""
    _check_cap(2 * n, cap)
    mul = np.zeros((2 * n, 2 * n), dtype=np.int32)
    for i1, j1, i2, j2 in itertools.product(range(n), (0, 1), range(n), (0, 1)):
        i = (i1 + (i2 if j1 == 0 else -i2)) % n
        j = (j1 + j2) % 2
        mul[i1 + n * j1, i2 + n * j2] = i + n * j
    return GroupTable(mul, name=f"D{n}", validate=False)


def symmetric_group(k, cap=DEFAULT_ORDER_CAP):
    order = math.factorial(k)
    _check_cap(order, cap)
    parr = np.array(list(itertools.permutations(range(k))), dtype=np.intp)
    # base-k codes ascend, as permutations come in lexicographic order
    place = k ** np.arange(k - 1, -1, -1)
    codes = parr @ place
    # row i: (p_i . p_j)(x) = p_i[p_j[x]]
    mul = np.array([np.searchsorted(codes, p[parr] @ place) for p in parr])
    return GroupTable(mul, name=f"S{k}", validate=False)


def product_group(g1, g2, cap=DEFAULT_ORDER_CAP):
    n1, n2 = g1.order, g2.order
    _check_cap(n1 * n2, cap)
    a = np.arange(n1 * n2)
    a1, a2 = a // n2, a % n2
    mul = (
        g1.mul_table[np.ix_(a1, a1)] * n2 + g2.mul_table[np.ix_(a2, a2)]
    )
    return GroupTable(mul, name=f"{g1.name}x{g2.name}", validate=False)


def group_from_table(rows, name="table", cap=DEFAULT_ORDER_CAP):
    """Validate a raw table and relabel so the identity gets id 0."""
    mul = np.asarray(rows, dtype=np.int32)
    n = mul.shape[0]
    _check_cap(n, cap)
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


def make_group(spec, cap=DEFAULT_ORDER_CAP):
    """Build a group from a JSON-style description."""
    kind = spec.get("kind")

    def field(key):
        try:
            return spec[key]
        except KeyError:
            raise NotAGroup(f"group of kind {kind!r} needs {key!r}") from None

    if kind == "cyclic":
        return cyclic(int(field("n")), cap)
    if kind == "dihedral":
        return dihedral(int(field("n")), cap)
    if kind == "symmetric":
        return symmetric_group(int(field("k")), cap)
    if kind == "product":
        factors = [make_group(s, cap) for s in field("factors")]
        out = factors[0]
        for g in factors[1:]:
            out = product_group(out, g, cap)
        return out
    if kind == "table":
        return group_from_table(field("mul"), spec.get("name", "table"), cap)
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


def cayley_clique_complex(group, gens, d, require_generating=False):
    """Top faces are the (d+1)-cliques of the Cayley graph, uniform measure.

    Fails with NotPure (and a witnessing edge) if some Cayley edge lies in
    no (d+1)-clique.
    """
    gens = validate_genset(group, gens, require_generating=require_generating)
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


def _star_cliques(group, sets, d):
    """The d-cliques of generators of each sorted set, whose tops with 0
    are the star of 0: an (n_sets, width) table of the sets, padded; for
    each clique its set and its d column positions, in lexicographic order
    per set; and per set the NotPure it is, with a witnessing edge, when
    some generator lies in no clique, or None."""
    n_sets, width = len(sets), max(len(s) for s in sets)
    sizes = [len(s) for s in sets]
    rows = np.repeat(np.arange(n_sets), sizes)
    cols = np.arange(len(rows)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    S = np.zeros((n_sets, width), dtype=np.intp)
    S[rows, cols] = list(itertools.chain.from_iterable(sets))
    real = np.zeros((n_sets, width), dtype=bool)
    real[rows, cols] = True
    member = np.zeros((n_sets, group.order), dtype=bool)
    member[rows, S[rows, cols]] = True
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


def _star_links(owner, tops, n_tops, d, width):
    """The 1-skeletons of the links of the faces {0} + c of each star, c a
    k-subset of a clique for k <= d - 2, as PureComplex.link_skeleton
    weighs them: per link, its set; per link edge, sorted by link and then
    by ends, its link and its ends' column positions, and its mass."""
    link_set, keys, share, comb = [], [], [], []
    n_links = 0
    for k in range(d - 1):
        # one occurrence of each face per clique holding it, with the
        # clique's other columns as a top face of the face's link
        subs = list(itertools.combinations(range(d), k))
        face = np.repeat(owner, len(subs)).reshape(-1, len(subs))
        for j in range(k):
            face = face * width + tops[:, [q[j] for q in subs]]
        codes, link, cofaces = np.unique(
            face.ravel(), return_inverse=True, return_counts=True)
        sets = codes // width**k
        # each coface weighs the star's 1/T, renormalized over the link's
        # cofaces by a pairwise sum, as numpy sums them
        tc = list(zip(n_tops[sets].tolist(), cofaces.tolist()))
        sums = {(t, c): np.full(c, 1.0 / t).sum() for t, c in set(tc)}
        top_share = np.array([1.0 / t / sums[t, c] for t, c in tc])
        rest = tops[:, [[j for j in range(d) if j not in q] for q in subs]]
        rest = rest.reshape(-1, d - k)
        a, b = np.triu_indices(d - k, 1)
        keys.append((((link[:, None] + n_links) * width + rest[:, a]) * width
                     + rest[:, b]).ravel())
        share.append(np.repeat(top_share[link], len(a)))
        link_set.append(sets)
        comb.append(np.full(len(codes), math.comb(d - k, 2)))
        n_links += len(codes)
    keys, edge = np.unique(np.concatenate(keys), return_inverse=True)
    elink = keys // width**2
    # each edge's coface shares summed one by one, then over C(k + 1, 2)
    mass = np.bincount(edge, weights=np.concatenate(share)) / np.concatenate(comb)[elink]
    return np.concatenate(link_set), elink, keys // width % width, keys % width, mass


def star_scores(group, sets, d):
    """identity_star_lambda of each sorted symmetric set in sets, or the
    NotPure it raises, in one pass over all the sets.

    Left multiplication acts transitively and keeps the uniform measure,
    so every link is a translate of a link at a face through 0, and the
    star of 0 (top faces {0} + c for the d-cliques c of generators) has
    those links up to a uniform scale.  Each link's 1-skeleton and
    weights take the float steps of PureComplex.link_skeleton, and
    spectral.link_spectra solves them, so the scores are theirs bit for
    bit.
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
    link_set, elink, u, v, mass = _star_links(
        owner, tops, np.bincount(owner, minlength=len(sets)), d, width)

    ends = np.stack([elink * width + u, elink * width + v])
    verts, at = np.unique(ends, return_inverse=True)
    _, _, eigs = spectral.link_spectra(verts // width, at.reshape(ends.shape), mass)
    lam = np.array([max(abs(e[1]), abs(e[-1])) for e in eigs])
    worst = np.full(len(sets), -np.inf)
    np.maximum.at(worst, link_set, lam)
    for i in np.flatnonzero(keep).tolist():
        out[i] = float(worst[i])
    return out


# --- quotients ---


@dataclass(frozen=True)
class Quotient:
    group: GroupTable
    projection: np.ndarray  # element id -> coset id
    subgroup: tuple


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
    mul = group.mul_table
    return np.argwhere(~inside[mul[mul[:, sub], group.inv_table[:, None]]])


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
    mul = group.mul_table
    conj = mul[mul, group.inv_table[:, None]]  # conj[g, x] = g x g^-1
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


# --- generating-set scan ---


@dataclass(frozen=True)
class GensetCandidate:
    group_name: str
    gens: tuple
    worst_link_lambda: float
    meets_target: bool


def _inverse_pair_classes(group):
    classes = []
    seen = set()
    for g in range(1, group.order):
        if g in seen:
            continue
        gi = group.inv(g)
        cls = (g,) if gi == g else (g, gi)
        seen.update(cls)
        classes.append(cls)
    return classes


def _adds_mod_n(group):
    """Whether the element ids multiply as addition mod the order, so that
    multiplying ids by a unit mod n is an automorphism."""
    idx = np.arange(group.order)
    return bool(
        np.array_equal(group.mul_table, (idx[:, None] + idx[None, :]) % group.order)
    )


def _cyclic_canonical(n, elems):
    """Canonical form of a subset of Z/n under multiplication by units."""
    best = None
    for u in range(1, n):
        if math.gcd(u, n) != 1:
            continue
        image = tuple(sorted((u * e) % n for e in elems))
        if best is None or image < best:
            best = image
    return best


def _class_combos(classes, max_size):
    """Sets of whole inverse-pair classes with at most max_size elements,
    by class count, then in lexicographic order of class indices."""
    level = [((), 0)]
    while level:
        level = [
            (picked + (j,), size + len(classes[j]))
            for picked, size in level
            for j in range(picked[-1] + 1 if picked else 0, len(classes))
            if size + len(classes[j]) <= max_size
        ]
        for picked, _ in level:
            yield tuple(sorted(e for j in picked for e in classes[j]))


def _tie_stable(scored, eta_target):
    """Candidates from (group_name, gens, score) triples in score order.

    Scores chained within _TIE_TOL count as one value, reported as the
    least of them, and candidates of one value come in (group_name, gens)
    order, so that eigensolver rounding cannot pick the order or the best
    set.
    """
    keyed, prev = [], None
    for name, gens, lam in sorted(scored, key=lambda t: t[2]):
        if prev is None or lam - prev > _TIE_TOL:
            value = lam
        keyed.append((value, name, gens))
        prev = lam
    return [
        GensetCandidate(name, gens, value, eta_target is None or value <= eta_target)
        for value, name, gens in sorted(keyed)
    ]


def _block_masks(group, block):
    """Bool rows for a block of seed sets: the subgroup closure of each set,
    and whether each element a of the set lies in a triangle {0, a, b} of
    its Cayley graph, that is a^-1 b in the set for some b in the set."""
    mul, inv = group.mul_table, group.inv_table
    S = np.zeros((len(block), group.order), dtype=bool)
    S[np.repeat(np.arange(len(block)), [len(e) for e in block]),
      list(itertools.chain.from_iterable(block))] = True
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
        inside[rows] = grown
        rows = rows[(grown != part).any(axis=1)]
    in_tri = ~S
    for a in present:
        in_tri[:, a] |= (S & S[:, mul[inv[a]]]).any(axis=1)
    return inside, in_tri.all(axis=1)


def scan_gensets(groups, d, eta_target=None, max_size=8, dedupe=True, counts=None):
    """Enumerate symmetric generating sets and score their Cayley links.

    The score is the worst two-sided expansion over all proper links of
    the d-dimensional Cayley clique complex (the global skeleton is not
    scored), read off the star of the identity.  Impure candidates are
    skipped; candidates come back in _tie_stable order.  When the group's
    element ids add mod n, candidates equivalent under multiplication by a
    unit (an automorphism) are deduplicated.  A dict passed as counts gets
    the candidates enumerated, not generating, duplicate, impure, scored.

    Candidates go through in blocks of _SCAN_BLOCK: one fixpoint closes a
    block's sets at once, its triangle test (_block_masks) is purity at
    d = 2 and necessary for it at d >= 3, and one star_scores call scores
    the sets that pass it, giving NotPure for those impure at d >= 3.
    """
    _check_star_dim(d)
    if isinstance(groups, GroupTable):
        groups = [groups]
    tally = dict.fromkeys(("enumerated", "not_generating", "duplicate", "impure",
                           "scored"), 0)
    scored = []
    for group in groups:
        seen_canon = set()
        by_units = dedupe and _adds_mod_n(group)
        combos = _class_combos(_inverse_pair_classes(group), max_size)
        while block := list(itertools.islice(combos, _SCAN_BLOCK)):
            inside, in_triangles = _block_masks(group, block)
            generates = inside.all(axis=1).tolist()
            survivors = []
            for elems, gen, tri in zip(block, generates, in_triangles.tolist()):
                tally["enumerated"] += 1
                if not gen:
                    tally["not_generating"] += 1
                    continue
                if by_units:
                    canon = _cyclic_canonical(group.order, elems)
                    if canon in seen_canon:
                        tally["duplicate"] += 1
                        continue
                    seen_canon.add(canon)
                if not tri:
                    tally["impure"] += 1
                    continue
                survivors.append(elems)
            for elems, lam in zip(survivors, star_scores(group, survivors, d)):
                if isinstance(lam, NotPure):
                    tally["impure"] += 1
                else:
                    scored.append((group.name, elems, lam))
    tally["scored"] = len(scored)
    if counts is not None:
        counts.update(tally)
    return _tie_stable(scored, eta_target)
