"""The two linear deformations onto the star algebra, with inverses.

Run with: python3 demos/deformation_maps.py
"""

from rookdual import (
    DeformationCell,
    block_subset_sum,
    block_subset_sum_inverse,
    coarsening_sum,
    coarsening_sum_inverse,
    extend_linearly,
    mobius_merge_drop,
    parse_element,
)

k = 2
ident = parse_element("{1,1'}|{2,2'}", "pistar", k)
empty = parse_element("{}", "pistar", k)


def show(label, element):
    print(f"{label}:")
    for diagram, coeff in sorted(element.items(), key=lambda t: t[0].sort_key()):
        print(f"  {str(coeff):>3} * {diagram}")


# coarsening_sum sends a diagram to the sum of everything weakly above
# it: blocks merged, blocks dropped.  Identity-like elements sit low in
# that order, so the image fans out.
show(f"coarsening_sum({ident})", coarsening_sum(ident))
show(f"coarsening_sum({empty})", coarsening_sum(empty))

# Inversion is Mobius inversion on that order.  The coefficient of the
# empty diagram below is 2: both singleton blocks were dropped.
show(f"\ncoarsening_sum_inverse({ident})", coarsening_sum_inverse(ident))
print(f"\nmobius({ident} -> {empty}) = {mobius_merge_drop(ident, empty)}")

round_trip = extend_linearly(coarsening_sum, coarsening_sum_inverse(ident))
assert round_trip == {ident: 1}
print("coarsening_sum inverts exactly: round trip is the basis element")

# block_subset_sum keeps blocks instead of merging them: the image is
# the sum over all subsets of the block set.  Its inverse alternates.
show(f"\nblock_subset_sum({ident})", block_subset_sum(ident))
show(f"block_subset_sum_inverse({ident})", block_subset_sum_inverse(ident))

print("\nHomomorphism reports (every pair at k = 2 and k = 3):")
cells = {kk: DeformationCell(kk) for kk in (2, 3)}
for map_name in ("coarsening_sum", "block_subset_sum"):
    for kk, cell in cells.items():
        report = cell.homomorphism(map_name)
        print(f"  {map_name} k={kk}: pairs={report.pairs_checked} "
              f"homomorphism={report.homomorphism_ok} "
              f"inverse={report.inverse_ok}")
