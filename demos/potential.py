"""Electromagnetic field given by its potential: oracle-checked polynomials.

This system's published forward-scheme polynomial contains a typesetting
error (two quadratic terms).  The demo recomputes it and shows how the
exhaustive counting oracle plus exact interpolation pins down the true
cubic, independently of the Hilbert-numerator route.
"""

from dimpoly import (
    builtin_scheme,
    builtin_system,
    compute_strength,
    free_term_counts,
    poly_str,
)
from dimpoly.dimension import lagrange_interpolate

p = builtin_system("potential")

pde = compute_strength(p, system_name="potential")
print(f"differential: phi(t) = {poly_str(pde.dim.polynomial)}")

fwd = compute_strength(
    p, system_name="potential", scheme=builtin_scheme("potential", "forward"), scheme_name="forward"
)
print(f"forward: psi(t) = {poly_str(fwd.dim.polynomial)}")

# Re-derive the forward polynomial from raw counts alone: count the free
# terms of every order up to r0+8 and interpolate the unique degree-<=8
# polynomial.
r0 = fwd.dim.validity_threshold
counts = free_term_counts(fwd.staircase, r0 + 8)
points = [(r, counts[r]) for r in range(r0, r0 + 9)]
independent = lagrange_interpolate(points)
print(f"  interpolation of exact counts: {poly_str(independent)}")
print(f"  agrees with the symbolic route: {independent == fwd.dim.polynomial}")

sym = compute_strength(
    p, system_name="potential", scheme=builtin_scheme("potential", "symmetric"), scheme_name="symmetric"
)
print(f"symmetric: psi(t) = {poly_str(sym.dim.polynomial)}")
print("forward has the smaller cubic coefficient, so the forward scheme is stronger")
