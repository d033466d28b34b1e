import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filmlab.exact import RadicalSum
from filmlab.geom import is_degenerate, simplex_measure, sup_norm
from filmlab.grid import GridCell, chain_of
from filmlab.simplicial import (
    LipschitzViolation,
    PLMap,
    SimplicialChain,
    boundary_simplicial,
    canonical_simplex,
    clamp_to_cube,
    cone,
    embed_grid_chain,
    empty_simplicial,
    mass_simplicial,
    pushforward,
    restrict_simplicial,
    simplicial_chain,
)

from conftest import make_grid, random_point, random_simplicial_chain

F = Fraction


def tri(*pts):
    return tuple(tuple(F(x) for x in p) for p in pts)


def test_canonical_form_cancels_duplicates():
    a = tri((0, 0, 0), (1, 0, 0), (0, 1, 0))
    b = tri((1, 0, 0), (0, 1, 0), (0, 0, 0))  # same triangle, reordered
    chain = simplicial_chain(2, [a, b])
    assert chain.is_zero_presentation()
    assert canonical_simplex(a) == canonical_simplex(b)


def test_canonical_simplex_converts_int_str_and_mixed_vertices():
    fractions = tri((0, 0, 0), (F(1, 2), 0, 0), (0, 1, F(1, 3)))
    ints_and_strs = ((0, 0, 0), ("1/2", 0, 0), (0, 1, "1/3"))
    mixed = [(F(0), 0, "0"), [F(1, 2), F(0), F(0)], (F(0), F(1), F(1, 3))]
    chains = [simplicial_chain(2, [s]) for s in (fractions, ints_and_strs, mixed)]
    assert chains[0] == chains[1] == chains[2]
    for chain in chains:
        assert all(type(x) is F for s in chain.simplices for v in s for x in v)


def test_degenerate_simplices_dropped():
    flat = tri((0, 0, 0), (1, 0, 0), (2, 0, 0))
    assert simplicial_chain(2, [flat]).is_zero_presentation()


def test_mass_of_right_triangle():
    chain = simplicial_chain(2, [tri((0, 0, 0), (1, 0, 0), (0, 1, 0))])
    assert mass_simplicial(chain) * 2 == 1


def test_boundary_of_triangle_is_three_edges():
    chain = simplicial_chain(2, [tri((0, 0, 0), (1, 0, 0), (0, 1, 0))])
    edges = boundary_simplicial(chain)
    assert len(edges) == 3
    assert boundary_simplicial(edges).is_zero_presentation()


def test_shared_edge_cancels():
    a = tri((0, 0, 0), (1, 0, 0), (1, 1, 0))
    b = tri((0, 0, 0), (1, 1, 0), (0, 1, 0))
    edges = boundary_simplicial(simplicial_chain(2, [a, b]))
    assert len(edges) == 4


def test_embed_unit_face():
    grid = make_grid((1, 1, 1))
    face = chain_of(grid, 2, [GridCell((0, 0, 0), (0, 1))])
    emb = embed_grid_chain(face)
    assert emb.k == 2 and len(emb) == 2
    assert mass_simplicial(emb) == 1
    # boundary commutes with embedding
    from filmlab.grid import boundary_grid
    from filmlab.overlay import chains_equal_mod2

    left = embed_grid_chain(boundary_grid(face))
    right = boundary_simplicial(emb)
    assert chains_equal_mod2(left, right).equal


def test_cone_over_square_boundary():
    square = simplicial_chain(
        1,
        [
            tri((0, 0, 0), (1, 0, 0)),
            tri((1, 0, 0), (1, 1, 0)),
            tri((1, 1, 0), (0, 1, 0)),
            tri((0, 1, 0), (0, 0, 0)),
        ],
    )
    filled = cone((F(1, 2), F(1, 2), F(0)), square)
    assert len(filled) == 4
    assert mass_simplicial(filled) == 1
    from filmlab.overlay import chains_equal_mod2

    assert chains_equal_mod2(boundary_simplicial(filled), square).equal


def test_cone_drops_degenerate_joins():
    edge = simplicial_chain(1, [tri((0, 0, 0), (1, 0, 0))])
    flat = cone((2, 0, 0), edge)  # apex collinear with the edge
    assert flat.is_zero_presentation()


def test_cone_dimension_guard():
    cube_like = simplicial_chain(
        3, [tri((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))]
    )
    with pytest.raises(ValueError):
        cone((0, 0, 0), cube_like)


def test_pushforward_scaling_mass():
    chain = simplicial_chain(2, [tri((0, 0, 0), (1, 0, 0), (0, 1, 0))])
    half = PLMap.affine(
        [[F(1, 2), 0, 0], [0, F(1, 2), 0], [0, 0, F(1, 2)]],
        (0, 0, 0),
        F(1, 2),
    )
    img = pushforward(half, chain)
    assert mass_simplicial(img) * 4 == mass_simplicial(chain)


def test_pushforward_rejects_understated_lipschitz():
    chain = simplicial_chain(1, [tri((0, 0, 0), (1, 0, 0))])
    doubling = PLMap.affine(
        [[2, 0, 0], [0, 2, 0], [0, 0, 2]], (0, 0, 0), F(3, 2)
    )
    with pytest.raises(LipschitzViolation):
        pushforward(doubling, chain)


@pytest.mark.parametrize("lip", [F(-2), -1, RadicalSum.sqrt(2) * -1])
def test_plmap_rejects_negative_lipschitz(lip):
    with pytest.raises(ValueError, match="nonnegative"):
        PLMap.affine([[2, 0, 0], [0, 2, 0], [0, 0, 2]], (0, 0, 0), lip)
    with pytest.raises(ValueError, match="nonnegative"):
        PLMap.relocation({(0, 0, 0): (1, 0, 0)}, lip)
    assert PLMap.affine([[0] * 3] * 3, (0, 0, 0), 0).lipschitz_sq() == 0


def test_pushforward_boundary_commutes():
    rng = random.Random(11)
    chain = random_simplicial_chain(2, rng)
    f = PLMap.affine([[1, 0, 0], [0, 0, -1], [0, 1, 0]], (F(1, 3), 0, 0), 1)
    from filmlab.overlay import chains_equal_mod2

    left = boundary_simplicial(pushforward(f, chain))
    right = pushforward(f, boundary_simplicial(chain))
    assert chains_equal_mod2(left, right).equal


def test_relocation_map_applies_table():
    edge = tri((0, 0, 0), (1, 0, 0))
    f = PLMap.relocation({edge[0]: edge[0], edge[1]: (F(0), F(1), F(0))}, 2)
    img = pushforward(f, simplicial_chain(1, [edge]))
    assert img.simplices == simplicial_chain(1, [tri((0, 0, 0), (0, 1, 0))]).simplices
    with pytest.raises(ValueError):
        f.apply_point((F(5), F(5), F(5)))


def test_clamp_inside_is_identity():
    # subdivision may re-present the chain, but the geometry is untouched
    from filmlab.overlay import chains_equal_mod2

    chain = simplicial_chain(2, [tri((0, 0, 0), (1, 0, 0), (0, 1, 0))])
    out = clamp_to_cube(chain, F(2))
    assert mass_simplicial(out) == mass_simplicial(chain)
    assert chains_equal_mod2(out, chain).equal


def test_clamp_idempotent_and_contained():
    chain = simplicial_chain(
        2, [tri((0, 0, 0), (3, 0, 0), (0, 3, 0)), tri((1, 1, 1), (4, 1, 1), (1, 4, 1))]
    )
    r = F(2)
    once = clamp_to_cube(chain, r)
    assert clamp_to_cube(once, r) == once
    assert all(sup_norm(v) <= r for s in once.simplices for v in s)
    # sup-norm projection is 1-Lipschitz, so mass cannot grow
    assert not mass_simplicial(once) > mass_simplicial(chain)


def test_restrict_simplicial_partition():
    chain = simplicial_chain(2, [tri((0, 0, 0), (2, 0, 0), (0, 2, 0))])
    lo = (F(0), F(0), F(0))
    hi = (F(1), F(1), F(1))
    inside, outside = restrict_simplicial(chain, lo, hi)
    assert mass_simplicial(inside) + mass_simplicial(outside) == mass_simplicial(chain)
    assert all(
        F(0) <= v[a] <= F(1) for s in inside.simplices for v in s for a in (0, 1, 2)
    )
    from filmlab.overlay import chains_equal_mod2

    assert chains_equal_mod2(inside + outside, chain).equal


def test_boundary_refuses_zero_chains():
    pts = simplicial_chain(0, [((F(0), F(0), F(0)),)])
    with pytest.raises(ValueError):
        boundary_simplicial(pts)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000), k=st.integers(1, 2))
def test_boundary_squared_random(seed, k):
    chain = random_simplicial_chain(k, random.Random(seed))
    if k == 1:
        assert boundary_simplicial(chain).k == 0
    else:
        assert boundary_simplicial(boundary_simplicial(chain)).is_zero_presentation()


def _boundary_testing_every_facet(chain):
    """Reference: boundary_simplicial testing every facet for degeneracy."""
    acc = set()
    for s in chain.simplices:
        for i in range(len(s)):
            facet = s[:i] + s[i + 1 :]
            if chain.k - 1 > 0 and is_degenerate(facet):
                continue
            acc ^= {facet}
    return SimplicialChain(chain.k - 1, frozenset(acc))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000), k=st.integers(1, 3))
def test_boundary_matches_per_facet_degeneracy_rule(seed, k):
    # the chain is built raw, so degenerate simplices (flat, or with a
    # repeated vertex) stay in it
    rng = random.Random(seed)
    simplices = []
    for _ in range(rng.randint(1, 4)):
        verts = [random_point(rng, span=1, den=2) for _ in range(k + 1)]
        pick = rng.random()
        if pick < 0.3:
            verts[-1] = verts[0]
        elif pick < 0.6:
            t = F(rng.randint(-2, 4), 2)
            verts[-1] = tuple(a + t * (b - a) for a, b in zip(verts[0], verts[-2]))
        simplices.append(tuple(verts))
    chain = SimplicialChain(k, frozenset(simplices))
    assert boundary_simplicial(chain) == _boundary_testing_every_facet(chain)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_clamp_support_random(seed):
    chain = random_simplicial_chain(2, random.Random(seed), span=3)
    r = F(1)
    out = clamp_to_cube(chain, r)
    assert all(sup_norm(v) <= r for s in out.simplices for v in s)
    assert clamp_to_cube(out, r) == out
