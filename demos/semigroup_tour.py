"""A walk through the diagram families and their products.

Run with: python3 demos/semigroup_tour.py
"""

from rookdual import (
    HatElement,
    bullet_multiply,
    enumerate_is,
    enumerate_istar,
    enumerate_pistar,
    is_generators,
    multiply_composition,
    multiply_istar,
    multiply_pistar,
    parse_element,
    star_multiply,
)


def header(text):
    print()
    print(text)
    print("-" * len(text))


header("Partial injections")

a = parse_element("[2,-,3,5,-]", "is", 5)
b = parse_element("[5,4,1,-,-]", "is", 5)
print(f"a     = {a}   (domain {sorted(a.domain())}, rank {a.rank()})")
print(f"b     = {b}")
print(f"a*b   = {a * b}   composition reads right to left")
print(f"b*a   = {b * a}")
print(f"a^-1  = {a.inverse()}")
print(f"a a^-1 a == a: {a * a.inverse() * a == a}")

gens = is_generators(3)
closure, frontier = set(gens), list(gens)
while frontier:  # multiply on the right by one generator at a time
    found = {x * g for x in frontier for g in gens} - closure
    closure |= found
    frontier = list(found)
print(f"\ngenerators on 3 points: {', '.join(str(g) for g in gens)}")
print(f"they generate {len(closure)} elements; "
      f"enumeration finds {len(enumerate_is(3))}")

header("Dual elements: bijections between quotients")

# every block touches both rows, so composing never leaves debris
s = parse_element("{1,2,1'}|{3,2',3'}", "istar", 3)
t = parse_element("{1,1',2'}|{2,3,3'}", "istar", 3)
print(f"s     = {s}")
print(f"t     = {t}")
print(f"s*t   = {multiply_istar(s, t)}")
print(f"|dual elements on k=3| = {len(enumerate_istar(3))}")

header("Partial dual elements and the break-down product")

u = parse_element("{1,1'}", "pistar", 2)
top = parse_element("{1,2,1',2'}", "pistar", 2)
print(f"u       = {u}")
print(f"top     = {top}")
print(f"u*top   = {multiply_pistar(u, top)}   (everything broke down)")
print(f"|partial dual elements on k=2| = {len(enumerate_pistar(2))}")

header("The ambient composition semigroup keeps score")

free = parse_element("{1}|{1'}", "composition", 1)
result = multiply_composition(free, free)
print(f"free*free = {result.diagram} with {result.garbage_count} "
      "middle component(s) deleted")

header("Star and bullet: two restricted products")

ident = HatElement.wrap(parse_element("{1,1'}|{2,2'}", "pistar", 2))
hat_top = HatElement.wrap(top)
print(f"id ⋆ id  = {star_multiply(ident, ident)}")
print(f"id ⋆ top = {star_multiply(ident, hat_top)}   "
      "(interfaces disagree, so the product is the adjoined zero)")
print(f"id • top = {bullet_multiply(ident.diagram, top)}   "
      "(bullet breaks mismatches down instead)")
