"""Finite groups as explicit tables, and Cayley clique complexes.

Element 0 is always the identity.  Tables are validated on construction:
full associativity for orders up to 256, random triples above that.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .complexes import PureComplex, build_complex
from .errors import (
    NotAGroup,
    NotNormal,
    NotPure,
    NotSubgroup,
    NotSymmetricGenSet,
    TooLarge,
)

DEFAULT_ORDER_CAP = 5040
_FULL_ASSOC_LIMIT = 256


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

    def is_abelian(self):
        return bool((self.mul_table == self.mul_table.T).all())

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
    perms = list(itertools.permutations(range(k)))
    index = {p: i for i, p in enumerate(perms)}
    parr = np.array(perms)
    mul = np.zeros((order, order), dtype=np.int32)
    for i, p in enumerate(perms):
        composed = np.array(p)[parr]  # (p_i . p_j)(x) = p_i[p_j[x]]
        for j in range(order):
            mul[i, j] = index[tuple(composed[j])]
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
    """Smallest subgroup containing the seed elements (BFS under product)."""
    closure = {0}
    frontier = [0]
    seeds = [int(s) for s in seeds]
    for s in seeds:
        if s not in closure:
            closure.add(s)
            frontier.append(s)
    gens = list(dict.fromkeys(seeds + [group.inv(s) for s in seeds]))
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = group.mul(x, g)
            if y not in closure:
                closure.add(y)
                frontier.append(y)
    return tuple(sorted(closure))


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

    def link_of_identity(self):
        """Representative vertex link; all links are isomorphic by transitivity."""
        return self.complex.link((0,))


def cayley_clique_complex(group, gens, d, require_generating=False):
    """Top faces are the (d+1)-cliques of the Cayley graph, uniform measure.

    Fails with NotPure (and a witnessing edge) if some Cayley edge lies in
    no (d+1)-clique.
    """
    gens = validate_genset(group, gens, require_generating=require_generating)
    gset = set(gens)
    # cliques through the identity, described by d generators
    base = []
    for combo in itertools.combinations(gens, d):
        ok = all(
            group.mul(group.inv(a), b) in gset
            for a, b in itertools.combinations(combo, 2)
        )
        if ok:
            base.append(combo)
    covered = {s for combo in base for s in combo}
    missing = gset - covered
    if missing:
        s = min(missing)
        raise NotPure(
            f"Cayley edge (0, {s}) lies in no {d + 1}-clique", witness=(0, s)
        )
    tops = set()
    for g in group.elements:
        row = group.mul_table[g]
        for combo in base:
            tops.add(tuple(sorted([g] + [int(row[s]) for s in combo])))
    return CayleyCliqueComplex(build_complex(d, sorted(tops)), group, gens, d)


# --- quotients ---


@dataclass(frozen=True)
class Quotient:
    group: GroupTable
    projection: np.ndarray  # element id -> coset id
    subgroup: tuple

    def project(self, g):
        return int(self.projection[g])


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


def quotient_group(group, normal_elems):
    """Coset group of a verified normal subgroup, with the projection map."""
    n_set = _check_subgroup(group, normal_elems)
    for g in group.elements:
        g_inv = group.inv(g)
        for x in n_set:
            if group.mul(group.mul(g, x), g_inv) not in n_set:
                raise NotNormal(f"conjugation by {g} leaves the subgroup at {x}")
    seen = {}
    cosets = []
    for g in group.elements:
        coset = frozenset(group.mul(g, x) for x in n_set)
        if coset not in seen:
            seen[coset] = len(cosets)
            cosets.append(coset)
    # relabel so the coset of the identity comes first
    order = sorted(range(len(cosets)), key=lambda i: min(cosets[i]))
    relabel = {seen[cosets[i]]: j for j, i in enumerate(order)}
    proj = np.zeros(group.order, dtype=np.int32)
    for coset, cid in seen.items():
        for g in coset:
            proj[g] = relabel[cid]
    k = len(cosets)
    mul = np.zeros((k, k), dtype=np.int32)
    reps = [0] * k
    for g in group.elements:
        reps[proj[g]] = g
    for i, a in enumerate(reps):
        for j, b in enumerate(reps):
            mul[i, j] = proj[group.mul(a, b)]
    q = GroupTable(mul, name=f"{group.name}/N{len(n_set)}")
    return Quotient(q, proj, tuple(sorted(n_set)))


def all_subgroups(group, seed_size=3):
    """Subgroups found as closures of small seed sets; exact at desk scale."""
    found = {tuple([0])}
    elems = list(group.elements)
    for size in range(1, seed_size + 1):
        for seeds in itertools.combinations(elems[1:], size):
            found.add(subgroup_closure(group, seeds))
    return sorted(found, key=lambda s: (len(s), s))


def normal_subgroups(group, index_cap=None, seed_size=3):
    """Normal subgroups, optionally keeping only index <= index_cap."""
    out = []
    for sub in all_subgroups(group, seed_size):
        index = group.order // len(sub)
        if index_cap is not None and index > index_cap:
            continue
        s = set(sub)
        normal = all(
            group.mul(group.mul(g, x), group.inv(g)) in s
            for g in group.elements
            for x in sub
        )
        if normal:
            out.append(sub)
    return out


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


def _score_genset(group, elems, d, eta_target):
    from .spectral import is_hdx

    try:
        cayley = cayley_clique_complex(group, elems, d)
    except (NotPure, NotSymmetricGenSet):
        return None
    report = is_hdx(cayley.complex, 1.0, mode="two_sided", include_empty_face=False)
    lam = float(report.worst_value)
    return GensetCandidate(
        group_name=group.name,
        gens=elems,
        worst_link_lambda=lam,
        meets_target=(eta_target is None or lam <= eta_target),
    )


def scan_gensets(groups, d, eta_target=None, max_size=8, dedupe=True):
    """Enumerate symmetric generating sets and score their Cayley links.

    The score is the worst two-sided expansion over all proper links of
    the d-dimensional Cayley clique complex (the global skeleton is not
    scored).  Impure candidates are skipped; candidates come back sorted
    by score.  When the group's element ids add mod n, candidates equivalent
    under multiplication by a unit (an automorphism) are deduplicated.
    """
    if isinstance(groups, GroupTable):
        groups = [groups]
    todo = []
    for group in groups:
        classes = _inverse_pair_classes(group)
        seen_canon = set()
        by_units = dedupe and _adds_mod_n(group)
        for k in range(1, len(classes) + 1):
            for picked in itertools.combinations(classes, k):
                elems = tuple(sorted(e for cls in picked for e in cls))
                if len(elems) > max_size:
                    continue
                if len(subgroup_closure(group, elems)) != group.order:
                    continue
                if by_units:
                    canon = _cyclic_canonical(group.order, elems)
                    if canon in seen_canon:
                        continue
                    seen_canon.add(canon)
                todo.append((group, elems))
    scored = [_score_genset(g, e, d, eta_target) for g, e in todo]
    out = [c for c in scored if c is not None]
    out.sort(key=lambda c: (c.worst_link_lambda, c.group_name, c.gens))
    return out
