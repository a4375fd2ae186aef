import functools
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdxcover.errors import (
    BadLevel, BadParameter, HdxError, NotAGroup, NotNormal, NotPure, NotSubgroup,
    NotSymmetricGenSet, TooLarge,
)
from hdxcover import groups
from hdxcover.groups import (
    cayley_clique_complex,
    cyclic,
    dihedral,
    group_from_table,
    identity_star_lambda,
    make_group,
    normal_subgroups,
    product_group,
    quotient_group,
    scan_gensets,
    star_scores,
    subgroup_closure,
    symmetric_group,
    validate_genset,
)

from helpers import (
    is_abelian,
    plain_automorphism_rows,
    plain_class_combos,
    plain_identity_cliques,
    plain_identity_star_lambda,
    plain_normal_subgroups,
    plain_orbit,
    plain_quotient_group,
    plain_scan_gensets,
    plain_score_genset,
    plain_subgroup_closure,
)


class TestMakeGroup:
    def test_cyclic(self):
        g = cyclic(5)
        assert g.order == 5
        assert g.inv(2) == 3
        assert g.mul(2, 4) == 1

    def test_symmetric_non_abelian(self):
        g = symmetric_group(3)
        assert g.order == 6
        assert any(
            g.mul(a, b) != g.mul(b, a)
            for a in g.elements
            for b in g.elements
        )

    def test_klein_four_self_inverse(self):
        g = product_group(cyclic(2), cyclic(2))
        assert g.order == 4
        assert all(g.inv(a) == a for a in g.elements)

    def test_dihedral(self):
        g = dihedral(4)
        assert g.order == 8
        assert not is_abelian(g)

    def test_too_large(self):
        with pytest.raises(TooLarge):
            cyclic(6000)

    @pytest.mark.parametrize("build, arg", [
        (cyclic, 0), (cyclic, -2), (dihedral, 0), (dihedral, -1), (symmetric_group, 0),
        (symmetric_group, -1),
    ])
    def test_order_below_one(self, build, arg):
        with pytest.raises(BadParameter, match="must be an integer >= 1"):
            build(arg)

    def test_table_roundtrip_with_relabeled_identity(self):
        base = cyclic(4)
        # relabel so the identity sits at position 2
        perm = np.array([2, 1, 0, 3])
        inv = np.argsort(perm)
        scrambled = perm[base.mul_table[np.ix_(inv, inv)]]
        g = group_from_table(scrambled.tolist())
        assert g.mul(0, 3) == 3

    def test_not_a_group(self):
        with pytest.raises(NotAGroup):
            group_from_table([[0, 1], [1, 1]])

    def test_make_group_dispatch(self):
        g = make_group({"kind": "product",
                        "factors": [{"kind": "cyclic", "n": 2},
                                    {"kind": "cyclic", "n": 3}]})
        assert g.order == 6
        assert is_abelian(g)

    def test_associativity_catches_bad_table(self):
        # latin square with identity that is not a group (order 5 loop)
        rows = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 3, 4, 0, 1],
            [3, 4, 1, 2, 0],
            [4, 2, 0, 1, 3],
        ]
        with pytest.raises(NotAGroup):
            group_from_table(rows)


class TestGensets:
    def test_validate(self):
        g = cyclic(5)
        assert validate_genset(g, [1, 2, 3, 4]) == (1, 2, 3, 4)

    def test_identity_rejected(self):
        with pytest.raises(NotSymmetricGenSet):
            validate_genset(cyclic(5), [0, 1, 4])

    def test_asymmetric_rejected(self):
        with pytest.raises(NotSymmetricGenSet):
            validate_genset(cyclic(5), [1])

    def test_non_generating_rejected(self):
        with pytest.raises(NotSymmetricGenSet):
            validate_genset(cyclic(6), [2, 4])

    def test_subgroup_closure_empty(self):
        assert subgroup_closure(cyclic(6), []) == (0,)

    def test_subgroup_closure_cyclic(self):
        assert subgroup_closure(cyclic(6), [2]) == (0, 2, 4)

    def test_subgroup_closure_s4(self):
        g = symmetric_group(4)
        perms = list(itertools.permutations(range(4)))
        transposition = perms.index((1, 0, 2, 3))
        four_cycle = perms.index((1, 2, 3, 0))
        assert len(subgroup_closure(g, [transposition, four_cycle])) == 24

    def test_closure_is_closed(self):
        g = dihedral(6)
        sub = subgroup_closure(g, [2, 6])
        s = set(sub)
        for a in sub:
            assert g.inv(a) in s
            for b in sub:
                assert g.mul(a, b) in s


class TestCayley:
    def test_cyclic_triangles(self):
        g = cyclic(7)
        cc = cayley_clique_complex(g, [1, 2, 5, 6], 2)
        # brute-force triangle scan of the Cayley graph
        gset = {1, 2, 5, 6}
        expected = set()
        for a, b, c in itertools.combinations(range(7), 3):
            if all(
                (y - x) % 7 in gset
                for x, y in itertools.combinations((a, b, c), 2)
            ):
                expected.add((a, b, c))
        assert set(cc.complex.top_faces) == expected
        assert (0, 1, 2) in expected

    def test_no_triangles_not_pure(self):
        with pytest.raises(NotPure) as err:
            cayley_clique_complex(cyclic(7), [1, 6], 2)
        assert err.value.witness is not None

    def test_link_of_identity_vertices_are_generators(self):
        g = cyclic(7)
        cc = cayley_clique_complex(g, [1, 2, 5, 6], 2)
        link = cc.complex.link((0,))
        assert set(link.vertices) == {1, 2, 5, 6}

    def test_vertex_transitivity(self):
        g = cyclic(7)
        cc = cayley_clique_complex(g, [1, 2, 5, 6], 2)
        base = set(cc.complex.link((0,)).top_faces)
        for v in (2, 5):
            translated = {
                tuple(sorted(g.mul(v, u) for u in face)) for face in base
            }
            assert translated == set(cc.complex.link((v,)).top_faces)

    def test_cayley_graph_regular(self):
        g = dihedral(4)
        gens = validate_genset(g, [1, 3, 4])
        cc_edges = set()
        for a in g.elements:
            for s in gens:
                cc_edges.add(tuple(sorted((a, g.mul(a, s)))))
        degree = {v: 0 for v in g.elements}
        for u, v in cc_edges:
            degree[u] += 1
            degree[v] += 1
        assert set(degree.values()) == {len(gens)}


class TestQuotient:
    def test_z6_mod_z2(self):
        q = quotient_group(cyclic(6), [0, 3])
        assert q.group.order == 3
        for g in range(6):
            assert int(q.projection[g]) == g % 3

    def test_s3_mod_a3(self):
        g = symmetric_group(3)
        a3 = subgroup_closure(g, [next(
            i for i in range(6) if g.mul(i, i) != 0 and i != 0
        )])
        q = quotient_group(g, a3)
        assert q.group.order == 2

    def test_projection_is_homomorphism(self):
        g = product_group(cyclic(2), cyclic(4))
        sub = subgroup_closure(g, [2])  # the (0, 2) element
        q = quotient_group(g, sub)
        for a in g.elements:
            for b in g.elements:
                assert int(q.projection[g.mul(a, b)]) == q.group.mul(
                    int(q.projection[a]), int(q.projection[b])
                )

    def test_not_normal(self):
        g = symmetric_group(3)
        perms = list(itertools.permutations(range(3)))
        swap = perms.index((1, 0, 2))
        with pytest.raises(NotNormal):
            quotient_group(g, [0, swap])

    def test_not_subgroup(self):
        with pytest.raises(NotSubgroup):
            quotient_group(cyclic(6), [0, 2, 3])

    def test_normal_subgroup_enumeration(self):
        subs = normal_subgroups(cyclic(6))
        assert sorted(len(s) for s in subs) == [1, 2, 3, 6]
        subs = normal_subgroups(symmetric_group(3))
        assert sorted(len(s) for s in subs) == [1, 3, 6]


STAR_GROUPS = [
    cyclic(13), dihedral(5), symmetric_group(4), product_group(cyclic(3), cyclic(4))
]


class TestScan:
    def test_z13_has_candidates(self):
        out = scan_gensets(cyclic(13), 2, max_size=6)
        # the sets the scan kept when it took unit multiples of Z13 ids as one
        assert [c.gens for c in out] == [(1, 2, 3, 10, 11, 12), (1, 2, 4, 9, 11, 12),
                                         (1, 2, 11, 12), (1, 3, 4, 9, 10, 12)]
        assert all(c.worst_link_lambda >= 0 for c in out)
        assert out == sorted(out, key=lambda c: c.worst_link_lambda)

    def test_scores_reproducible(self):
        from hdxcover.spectral import is_hdx

        out = scan_gensets(cyclic(13), 2, max_size=6)
        best = out[0]
        cc = cayley_clique_complex(cyclic(13), best.gens, 2)
        rep = is_hdx(cc.complex, 1.0, include_empty_face=False)
        assert rep.worst_value == pytest.approx(best.worst_link_lambda, abs=1e-9)

    @pytest.mark.parametrize("group", STAR_GROUPS, ids=lambda g: g.name)
    def test_orbit_keeps_scores(self, group):
        # Z3xZ4 is cyclic, but its element ids do not add mod 12: its power
        # maps, not multiplication of ids by units, are the automorphisms
        table = groups.automorphism_table(group)
        max_size = 6 if group.order == 24 else 8
        sets = [e for e in _scan_combos(group, max_size)
                if len(plain_subgroup_closure(group, e)) == group.order]
        for d in (2, 3):
            own = dict(zip(sets, star_scores(group, sets, d)))
            forms = {}  # each pure orbit's least member and its size
            for elems, lam in own.items():
                orbit = plain_orbit(table, elems)
                rep = own[min(orbit)]
                if isinstance(lam, NotPure):
                    assert isinstance(rep, NotPure)
                else:
                    assert abs(lam - rep) <= 1e-12
                    forms[min(orbit)] = len(orbit)
            out = scan_gensets(group, d, max_size=max_size)
            assert {c.gens: c.orbit_size for c in out} == forms
            pure = [lam for lam in own.values() if not isinstance(lam, NotPure)]
            assert sum(forms.values()) == len(pure)
            assert out[0].worst_link_lambda == pytest.approx(min(pure), abs=1e-12)

    def test_group_without_pure_candidates(self):
        assert scan_gensets(cyclic(2), 2) == []

    def test_eta_target_flag(self):
        out = scan_gensets(cyclic(5), 2, eta_target=0.5, max_size=4)
        assert any(c.meets_target for c in out)


S4_SCAN = dict(d=2, max_size=6)  # the benchmark's S4 scan
Z2_CUBE = product_group(product_group(cyclic(2), cyclic(2)), cyclic(2))


def _scan_combos(group, max_size):
    return list(plain_class_combos(groups._inverse_pair_classes(group), max_size))


class TestArrayPaths:
    """The array closures, quotients and enumeration against the plain
    references they replace."""

    def test_closure_matches_bfs_on_s4_candidates(self):
        g = symmetric_group(4)
        combos = _scan_combos(g, S4_SCAN["max_size"])
        assert len(combos) == 3258
        for elems in combos:
            assert subgroup_closure(g, elems) == plain_subgroup_closure(g, elems)

    @pytest.mark.parametrize(
        "group",
        [cyclic(6), symmetric_group(3), symmetric_group(4), dihedral(6),
         product_group(cyclic(3), cyclic(4)), Z2_CUBE],
        ids=lambda g: g.name,
    )
    def test_normal_subgroups_unchanged(self, group):
        subs = normal_subgroups(group)
        assert subs == plain_normal_subgroups(group)
        for sub in subs:
            q = quotient_group(group, sub)
            mul, proj = plain_quotient_group(group, sub)
            assert np.array_equal(q.group.mul_table, mul)
            assert np.array_equal(q.projection, proj)
            assert q.projection.dtype == np.int32

    def test_normal_subgroups_needing_four_generators(self):
        # (Z2)^4 itself needs four generators, so seeds of three miss it
        group = product_group(Z2_CUBE, cyclic(2))
        subs = normal_subgroups(group)
        assert len(subs) == 67
        assert subs[-1] == tuple(range(16))
        assert subs == plain_normal_subgroups(group, seed_size=4)

    def test_normal_subgroups_s5(self):
        subs = normal_subgroups(symmetric_group(5))
        assert [len(s) for s in subs] == [1, 60, 120]
        for sub in subs:
            quotient_group(symmetric_group(5), sub)  # raises unless normal
        assert normal_subgroups(symmetric_group(5), index_cap=2) == subs[1:]


TABLE_GROUPS = [
    cyclic(1), cyclic(12), cyclic(13), dihedral(5), dihedral(6), symmetric_group(4),
    product_group(cyclic(3), cyclic(4)), Z2_CUBE,
]


class TestAutomorphismTable:
    @pytest.mark.parametrize("group", TABLE_GROUPS, ids=lambda g: g.name)
    def test_table_equals_plain_rows(self, group):
        table = groups.automorphism_table(group)
        rows = set(map(tuple, table.tolist()))
        assert len(rows) == len(table) and rows == plain_automorphism_rows(group)
        mul = group.mul_table
        # each row is an automorphism, and the rows are closed under composition
        assert (np.sort(table, axis=1) == np.arange(group.order)).all()
        assert (table[:, mul] == mul[table[:, :, None], table[:, None, :]]).all()
        assert {tuple(p[q]) for p in table for q in table} == rows

    def test_sizes(self):
        # inner automorphisms are G over its centre; an abelian group has
        # one power map per unit class that acts differently
        sizes = [len(groups.automorphism_table(g)) for g in TABLE_GROUPS]
        assert sizes == [1, 4, 12, 10, 6, 24, 4, 1]

    @pytest.mark.parametrize("n", [5, 12, 13])
    def test_cyclic_power_maps_are_unit_multiplications(self, n):
        x = np.arange(n)
        units = {tuple(u * x % n) for u in range(1, n) if np.gcd(u, n) == 1}
        assert set(map(tuple, groups.automorphism_table(cyclic(n)).tolist())) == units

    @pytest.mark.parametrize("group", TABLE_GROUPS[1:], ids=lambda g: g.name)
    def test_orbit_forms_equal_plain_minimum(self, group):
        table = groups.automorphism_table(group)
        block = _scan_combos(group, 6)
        forms, sizes = groups._orbit_forms(table, block)
        for elems, form, size in zip(block, forms.tolist(), sizes.tolist()):
            orbit = plain_orbit(table, elems)
            assert tuple(form[len(form) - len(elems):]) == min(orbit)
            assert size == len(orbit)


class TestCharacters:
    @pytest.mark.parametrize("group", [
        g for g in TABLE_GROUPS if is_abelian(g)
    ] + [cyclic(6), product_group(cyclic(2), cyclic(3)),
         group_from_table(np.roll(cyclic(6).mul_table, 2, axis=(0, 1)))],
        ids=lambda g: g.name)
    def test_distinct_homomorphisms_to_the_circle(self, group):
        theta = groups.characters(group)
        n, mul = group.order, group.mul_table
        assert theta.shape == (n, n) and (theta >= 0).all() and (theta < n).all()
        assert len(np.unique(theta, axis=0)) == n and (theta[0] == 0).all()
        # chi(xy) = chi(x) chi(y), in the phases and as unit complex numbers
        assert ((theta[:, mul] - theta[:, :, None] - theta[:, None, :]) % n == 0).all()
        chi = np.exp(2j * np.pi * theta / n)
        assert np.allclose(chi[:, mul], chi[:, :, None] * chi[:, None, :], atol=1e-12)
        # distinct characters are orthogonal
        assert np.allclose(chi @ chi.conj().T, n * np.eye(n), atol=1e-9)

    @pytest.mark.parametrize("n", [1, 6, 13])
    def test_cyclic_characters_on_the_ids(self, n):
        j = np.arange(n)
        assert (groups.characters(cyclic(n)) == j[:, None] * j % n).all()

    @pytest.mark.parametrize("group", [dihedral(3), symmetric_group(3), symmetric_group(4)],
                             ids=lambda g: g.name)
    def test_non_abelian_group_has_none(self, group):
        assert groups.characters(group) is None


S5 = symmetric_group(5)


@functools.cache
def _plain_orbit_reps(group, max_size):
    """Each orbit's least member and size, from every set plain_class_combos
    enumerates with one plain_orbit per orbit, and the count of sets."""
    table = groups.automorphism_table(group)
    reps, seen, enumerated = {}, set(), 0
    for elems in plain_class_combos(groups._inverse_pair_classes(group), max_size):
        enumerated += 1
        if elems not in seen:
            orbit = plain_orbit(table, elems)
            seen |= orbit
            reps[min(orbit)] = len(orbit)
    return reps, enumerated


class TestOrbitReps:
    """The level-by-level representatives against full enumeration."""

    @pytest.mark.parametrize("small_blocks", [False, True])
    @pytest.mark.parametrize("group, max_size", [(g, 6) for g in TABLE_GROUPS] + [(S5, 4)],
                             ids=lambda p: getattr(p, "name", p))
    def test_reps_equal_full_enumeration(self, monkeypatch, group, max_size, small_blocks):
        if small_blocks:
            monkeypatch.setattr(groups, "_SCAN_BLOCK", 3)
        table = groups.automorphism_table(group)
        blocks = list(groups._orbit_reps(group, table, max_size))
        assert all(0 < len(b) <= groups._SCAN_BLOCK for b in blocks)
        got = [rep for b in blocks for rep in b.items()]
        want, enumerated = _plain_orbit_reps(group, max_size)
        assert len(got) == len(want) and dict(got) == want  # each orbit once, with its size
        assert sum(size for _, size in got) == enumerated
        # by class count
        inv = group.inv_table
        count = [len({min(e, inv[e]) for e in rep}) for rep, _ in got]
        assert count == sorted(count)


class TestStarScore:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("group", STAR_GROUPS, ids=lambda g: g.name)
    def test_star_equals_full_complex(self, group, d):
        max_size = 6 if group.order == 24 else 8
        full = {}
        for elems in _scan_combos(group, max_size):
            if len(plain_subgroup_closure(group, elems)) != group.order:
                continue
            full[elems] = plain_score_genset(group, elems, d)
            if full[elems] is None:
                with pytest.raises(NotPure):
                    identity_star_lambda(group, elems, d)
            else:
                star = identity_star_lambda(group, elems, d)
                assert abs(star - full[elems]) <= 1e-12
        out = scan_gensets(group, d, max_size=max_size)
        table = groups.automorphism_table(group)
        pure = [e for e, lam in full.items() if lam is not None]
        assert {c.gens for c in out} == {min(plain_orbit(table, e)) for e in pure}
        assert sum(c.orbit_size for c in out) == len(pure)
        for c in out:
            assert abs(c.worst_link_lambda - full[c.gens]) <= 1e-12

    # d = 4 reaches the links of the faces {0} + c with |c| = 2; S4 has no
    # pure set at d = 4
    @pytest.mark.parametrize("group, d", [
        pytest.param(g, d, id=f"{g.name}-{d}")
        for g in STAR_GROUPS for d in (2, 3, 4) if d < 4 or g.order != 24
    ])
    def test_scores_equal_plain_star(self, group, d):
        sets = [e for e in _scan_combos(group, 6 if group.order == 24 else 8)
                if len(plain_subgroup_closure(group, e)) == group.order]
        scores = star_scores(group, sets, d)
        assert len(scores) == len(sets)
        pure = 0
        for elems, lam in zip(sets, scores):
            try:
                want = plain_identity_star_lambda(group, elems, d)
            except NotPure as err:
                assert isinstance(lam, NotPure)
                assert (str(lam), lam.witness) == (str(err), err.witness)
                continue
            assert type(lam) is float and lam == want  # bit for bit
            pure += 1
        assert 0 < pure < len(sets)
        # the one-set call is the same score, and raises the same NotPure
        elems = sets[-1]
        if isinstance(scores[-1], NotPure):
            with pytest.raises(NotPure) as err:
                identity_star_lambda(group, elems, d)
            assert err.value.witness == scores[-1].witness
        else:
            assert identity_star_lambda(group, elems, d) == scores[-1]

    @pytest.mark.parametrize("d", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("group", STAR_GROUPS, ids=lambda g: g.name)
    def test_cliques_equal_plain_search(self, group, d):
        for elems in _scan_combos(group, 6):
            try:
                want = plain_identity_cliques(group, elems, d)
            except NotPure as err:
                with pytest.raises(NotPure) as got:
                    groups._identity_cliques(group, elems, d)
                assert (str(got.value), got.value.witness) == (str(err), err.witness)
                continue
            got = groups._identity_cliques(group, elems, d)
            assert got.shape == (len(want), d) and got.tolist() == [list(c) for c in want]

    @pytest.mark.parametrize("d", [0, 1])
    def test_d_below_two_is_bad_level(self, d):
        g = cyclic(5)
        for call in (lambda: scan_gensets(g, d),
                     lambda: identity_star_lambda(g, (1, 2, 3, 4), d),
                     lambda: star_scores(g, [], d)):
            with pytest.raises(BadLevel, match="at least 2") as err:
                call()
            assert isinstance(err.value, HdxError)

    def test_s4_counts(self):
        counts = {}
        out = scan_gensets(symmetric_group(4), counts=counts, **S4_SCAN)
        assert counts == {"enumerated": 3258, "not_generating": 47, "duplicate": 3011,
                          "impure": 184, "scored": 16}
        assert len(out) == 16
        assert sum(c.orbit_size for c in out) == 240
        assert out[0].gens == (1, 2, 9, 11, 18, 19)
        assert out[0].worst_link_lambda == pytest.approx(0.7953336454431277, abs=1e-9)

    def test_z13_counts_add_up(self):
        counts = {}
        out = scan_gensets(cyclic(13), 2, counts=counts)
        assert counts["duplicate"] > 0
        assert counts["scored"] == len(out)
        assert counts["enumerated"] == sum(
            counts[k] for k in ("not_generating", "duplicate", "impure", "scored"))

    def test_s4_tie_order(self, monkeypatch):
        g = symmetric_group(4)
        out = scan_gensets(g, **S4_SCAN)
        own = [identity_star_lambda(g, c.gens, 2) for c in out]
        # ties are real: few scores to 1e-9, many more bit patterns
        assert len(set(own)) > 5
        values = sorted(set(c.worst_link_lambda for c in out))
        assert len(values) == 5
        assert all(b - a > 1e-9 for a, b in zip(values, values[1:]))
        assert [c.worst_link_lambda for c in out] == sorted(c.worst_link_lambda for c in out)
        for v in values:
            gens = [c.gens for c in out if c.worst_link_lambda == v]
            assert gens == sorted(gens)
        # each candidate reports its tie's least score
        assert all(0 <= lam - c.worst_link_lambda <= 1e-12 for c, lam in zip(out, own))
        # noise at the rounding scale changes neither the order nor the best set
        rng = np.random.default_rng(0)
        star, noised = groups.star_scores, []

        def noisy_scores(*a):
            lams = star(*a)
            noised.extend(lam for lam in lams if not isinstance(lam, NotPure))
            return [lam if isinstance(lam, NotPure) else lam + rng.uniform(-1e-14, 1e-14)
                    for lam in lams]

        monkeypatch.setattr(groups, "star_scores", noisy_scores)
        noisy = scan_gensets(g, **S4_SCAN)
        assert len(noised) == 16
        assert [c.gens for c in noisy] == [c.gens for c in out]


def _block_closures(group, sets):
    return [tuple(np.flatnonzero(row).tolist()) for row in groups._block_masks(group, sets)]


CLOSURE_GROUPS = [
    cyclic(1), cyclic(7), cyclic(12), dihedral(4), dihedral(7),
    product_group(cyclic(2), dihedral(3)), Z2_CUBE,
]


class TestBlockScan:
    """The scan's block masks and the batched scan against the
    per-candidate references they replace."""

    @pytest.mark.parametrize("small_blocks", [True, False])
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("group", STAR_GROUPS, ids=lambda g: g.name)
    def test_scan_equals_per_candidate_loop(self, monkeypatch, group, d, small_blocks):
        if small_blocks:  # orbits spread over blocks, and some blocks hold no new one
            monkeypatch.setattr(groups, "_SCAN_BLOCK", 3)
        kw = dict(eta_target=0.9, max_size=6 if group.order == 24 else 8)
        counts, plain_counts = {}, {}
        out = scan_gensets(group, d, counts=counts, **kw)
        # dataclass equality: the same gens, lambda bit for bit and meets_target
        assert out == plain_scan_gensets(group, d, counts=plain_counts, **kw)
        assert counts == plain_counts

    def test_block_closure_on_s4_candidates(self):
        g = symmetric_group(4)
        combos = _scan_combos(g, S4_SCAN["max_size"])
        assert len(combos) == 3258
        assert _block_closures(g, combos) == [plain_subgroup_closure(g, e) for e in combos]

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(CLOSURE_GROUPS), st.data())
    def test_block_closure_on_random_seeds(self, group, data):
        element = st.integers(0, group.order - 1)
        sets = data.draw(st.lists(st.lists(element, max_size=4), min_size=1, max_size=8))
        assert _block_closures(group, sets) == [plain_subgroup_closure(group, s) for s in sets]

    def test_star_purity_is_d2_purity_on_s4(self):
        g = symmetric_group(4)
        combos = [e for e in _scan_combos(g, S4_SCAN["max_size"])
                  if len(plain_subgroup_closure(g, e)) == g.order]
        expected = []
        for elems in combos:
            try:
                plain_identity_cliques(g, elems, 2)
                expected.append(True)
            except NotPure:
                expected.append(False)
        got = [not isinstance(lam, NotPure) for lam in star_scores(g, combos, 2)]
        assert got == expected
        assert (len(expected), expected.count(True)) == (2964, 240)

    def test_s4_d3_counts(self, monkeypatch):
        star, scored = groups.star_scores, []

        def counted(*a):
            lams = star(*a)
            scored.extend(lams)
            return lams

        monkeypatch.setattr(groups, "star_scores", counted)
        counts = {}
        out = scan_gensets(symmetric_group(4), 3, max_size=6, counts=counts)
        assert counts == {"enumerated": 3258, "not_generating": 47, "duplicate": 3011,
                          "impure": 196, "scored": 4}
        assert len(out) == 4
        assert sum(c.orbit_size for c in out) == 24
        # star_scores sees every generating orbit and alone finds the impure
        assert len(scored) == 200
        assert sum(isinstance(lam, NotPure) for lam in scored) == 196

    @pytest.mark.parametrize("max_size, want", [
        (4, {"enumerated": 31678, "not_generating": 170, "duplicate": 31255, "impure": 253,
             "scored": 0}),
        (5, {"enumerated": 219933, "not_generating": 455, "duplicate": 217583, "impure": 1888,
             "scored": 7}),
    ])
    def test_s5_counts(self, max_size, want):
        counts = {}
        out = scan_gensets(S5, 2, max_size=max_size, counts=counts)
        assert counts == want
        assert len(out) == want["scored"]
        if out:
            assert out[0].gens == (1, 6, 7, 38, 74)

    def test_s5_scan_memory_is_bounded(self):
        scan_gensets(S5, 2, max_size=4)  # first-call caches are not the scan's
        tracemalloc.start()
        try:
            scan_gensets(S5, 2, max_size=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6

    def test_scan_memory_is_bounded(self):
        g = symmetric_group(4)
        scan_gensets(g, **S4_SCAN)  # first-call imports and caches are not the scan's
        tracemalloc.start()
        try:
            scan_gensets(g, **S4_SCAN)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6
