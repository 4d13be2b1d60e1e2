"""Source-free electromagnetic field: rank its difference schemes.

The 12-generator first-order system is its own Groebner basis; its schemes
need genuine completion work (the forward scheme completes to 80 elements
before autoreduction).  The forward scheme turns out stronger than the
symmetric one here, the opposite of the diffusion equation's ranking.
Across all 256 per-operator rule assignments, only the number of operators
with a central rule decides the polynomial.
"""

import itertools
import time
from collections import defaultdict

from dimpoly import (
    builtin_scheme,
    builtin_system,
    compare_strength,
    compute_strength,
    poly_str,
    rule_spec,
)

p = builtin_system("maxwell")
print(f"{len(p.relations)} relations in {len(p.unknowns)} unknowns over {p.operators}")

pde = compute_strength(p, system_name="maxwell")
print(f"differential: phi(t) = {poly_str(pde.dim.polynomial)}")
print(f"  degree {pde.dim.degree}, typical dimension {pde.dim.typical_dimension}, "
      f"module dimension {pde.dim.delta_dimension}")

for scheme_name in ("forward", "symmetric"):
    start = time.perf_counter()
    doc = compute_strength(
        p,
        system_name="maxwell",
        scheme=builtin_scheme("maxwell", scheme_name),
        scheme_name=scheme_name,
    )
    elapsed = time.perf_counter() - start
    print(f"{scheme_name}: psi(t) = {poly_str(doc.dim.polynomial)}")
    print(f"  basis {len(doc.basis)} (completed {doc.basis.completed_size}), "
          f"pairs {doc.basis.pairs_processed} ({doc.basis.pairs_pruned} pruned), "
          f"oracle ok {doc.validation.ok}, {elapsed:.1f}s")
    if scheme_name == "forward":
        forward_poly = doc.dim.polynomial
    else:
        verdict = compare_strength(forward_poly, doc.dim.polynomial)
        print(f"forward vs symmetric: forward is {verdict}")

classes = defaultdict(list)  # polynomial -> central-rule counts of its assignments
for rules in itertools.product(("forward", "backward", "central", "central2"), repeat=len(p.operators)):
    doc = compute_strength(p, scheme=rule_spec(dict(zip(p.operators, rules)), p.operators))
    classes[poly_str(doc.dim.polynomial)].append(sum(r.startswith("central") for r in rules))
print(f"{sum(map(len, classes.values()))} rule assignments to {', '.join(p.operators)}:")
for poly, centrals in classes.items():
    low, high = min(centrals), max(centrals)
    span = f"{low}" if low == high else f"{low} to {high}"
    print(f"  {span} central ({len(centrals)} assignments): {poly}")
