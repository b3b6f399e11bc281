"""Tour of one Sidon space: build it, check it two ways, measure everything.

The space is the graph V = {u + u^2 gamma : u in F_8} inside F_2^9, the
smallest interesting member of the scattered-monomial family. Run with:

    python3 demos/graph_space_tour.py
"""

from sidonspace.field import find_generator, make_field
from sidonspace.orbit import orbit_report
from sidonspace.qpoly import LinearizedPoly, is_scattered, v_f_gamma
from sidonspace.sidon import audit_bounds, is_r_sidon, is_sidon_intersection
from sidonspace.subspace import span_chain


def main() -> None:
    ctx = make_field(2, 1, 9)
    print(f"ambient field: order {ctx.order}, degree {ctx.n} over F_{ctx.q}")

    gamma = find_generator(ctx, over_m=3)
    f = LinearizedPoly.monomial(ctx, 3, 1)
    print(f"gamma coefficients: {gamma.coeffs}")
    print(f"f = x^2 is scattered over the k = 3 subfield: {is_scattered(f)[0]}")

    V = v_f_gamma(f, gamma)
    print(f"graph space dim: {V.dim}")

    by_intersection = is_sidon_intersection(V)
    by_products = is_r_sidon(V, 2)
    print(f"Sidon via intersections: {by_intersection.verdict} "
          f"({by_intersection.details['alphas_checked']} scalars swept)")
    print(f"Sidon via products:      {by_products.verdict} "
          f"({by_products.details['multisets_checked']} pair multisets)")
    print(f"3-Sidon: {is_r_sidon(V, 3).verdict} (expected False at this size)")

    chain = span_chain(V)
    print(f"span chain dims: {list(chain.dims)}  (t = {chain.t}, t_bar = {chain.t_bar})")

    audit = audit_bounds(V, r_sidon={2: "measured:products"})
    print(f"bound audit: {len(audit.checks)} checks, ok = {audit.ok}")

    orb = orbit_report(V)
    print(f"cyclic orbit code: size {orb.orbit_size}, "
          f"min distance {orb.min_distance}, "
          f"max intersection dim {orb.max_intersection_dim}")


if __name__ == "__main__":
    main()
