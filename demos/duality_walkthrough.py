"""Double centralizers on the tensor powers, end to end at one cell.

Run with: python3 demos/duality_walkthrough.py
"""

from rookdual import (
    ActionSpace,
    DualityCell,
    action_targets,
    centralizer_data,
    enumerate_istar,
    enumerate_pistar,
    is_generators,
    targets_commute,
)

n, k = 2, 2

print(f"Ground set size n = {n}, tensor exponent k = {k}.")
print(f"V has dimension {ActionSpace('V', n, k).dimension}, "
      f"U has dimension {ActionSpace('U', n, k).dimension}.")

# One explicit commutation check.  Partial injections act diagonally
# on tensor factors; dual elements act by block matching.  Each action
# sends a basis tensor to one basis tensor or to zero, so it is a tuple
# of target ordinals, and the two sides commute when composing the
# tuples in either order gives the same tuple.
space = ActionSpace("V", n, k)
pi = is_generators(n)[0]
alpha = enumerate_istar(k)[-1]
left = action_targets(pi, space)
right = action_targets(alpha, space)
print(f"\n{pi} and {alpha} commute on V: {targets_commute(left, right)}")

space = ActionSpace("U", n, k)
beta = enumerate_pistar(k)[3]
left = action_targets(pi, space)
right = action_targets(beta, space, "plain")
print(f"{pi} and {beta} commute on U: {targets_commute(left, right)}")

print("\nCentralizer dimensions on V "
      "(commutant of left, span of right, commutant of right, span of left):")
data = centralizer_data(n, k, "V")
print(f"  {data.dims}   equalities hold: {data.ok}")

print("Centralizer dimensions on U:")
data = centralizer_data(n, k, "U")
print(f"  {data.dims}   equalities hold: {data.ok}")

print("\nFull report at this cell:")
report = DualityCell(n, k, "V").report()
for key, value in report.to_json_dict().items():
    print(f"  {key}: {value}")

# Faithfulness flips exactly at the diagonal: the contracted rook
# algebra embeds only once k >= n, the dual algebra only once k <= n.
print("\nAlgebra faithfulness near the diagonal (V):")
for nn, kk in ((2, 1), (2, 2), (2, 3)):
    r = DualityCell(nn, kk, "V").report()
    print(f"  n={nn} k={kk}: rook side {r.algebra_faithful_left}, "
          f"dual side {r.algebra_faithful_right}")
