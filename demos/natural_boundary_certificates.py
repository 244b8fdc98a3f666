"""Exact certificates that the imaginary axis is a natural boundary.

For nu in {2, 4, 8} the coefficient R_nu(m/n) attached to every positive
rational m/n factors into local E/F/G pieces, all exact rationals built from
the prime-power closed forms of r_nu.  Nonvanishing of every factor (plus a
tail bound on the G-product over the primes p > 3, proven for every such
prime) certifies R_nu(m/n) != 0 -- so singularities are dense on Re(s) = 0
and no meromorphic continuation exists.  A float evaluation of the defining
series cross-checks each certificate.
"""

from latzeta import boundary

print("the key prime-power inequality (exact rationals):")
for nu, p, e in ((2, 2, 0), (4, 2, 0), (8, 2, 0), (2, 5, 1)):
    r = boundary.key_lemma_sides(nu, p, e)
    print(f"  nu={nu}, p={p}, e={e}:  lhs = {r.lhs}  !=  rhs = {r.rhs}")

print("\nlocal factors at small primes:")
print(f"  E_2,2 = {boundary.local_E(2, 2)}   F_2,2(e=0) = {boundary.local_F(2, 2, 0)}"
      f"   G_2,2 = {boundary.local_G(2, 2)}")
print(f"  E_4,2 = {boundary.local_E(4, 2)}   F_4,2(e=0) = {boundary.local_F(4, 2, 0)}"
      f"   G_4,2 = {boundary.local_G(4, 2)}")

print("\ncertificates (exact factorization vs direct series):")
for nu, mt, nt in ((2, 1, 1), (4, 1, 2), (8, 3, 5), (2, 7, 20)):
    c = boundary.certify_nonvanishing(nu, mt, nt)
    rel = abs(c.series_value - c.factored_value) / abs(c.series_value)
    print(f"  nu={nu}, m/n = {mt}/{nt}: verdict {c.verdict};"
          f" series {c.series_value:.9f}, factored {c.factored_value:.9f} (rel {rel:.1e});"
          f" G-tail bound {c.g_tail_bound:.2e}")

print("\none full certificate as JSON:")
print(boundary.certify_nonvanishing(4, 1, 2).to_json())
