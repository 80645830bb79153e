"""Full classification: every GL-rack of a given order up to isomorphism.

Run as: python3 demos/03_classification.py
"""

from glracks import classify_gl, count_report, enumerate_racks
from glracks.formats import format_record_table

# Step 1: all racks of order 4 up to isomorphism, by backtracking over
# permutation rows with conjugation constraints propagated, then picking
# the lexicographically least table per relabeling orbit.
racks = enumerate_racks(4)
print("racks of order 4 up to isomorphism:", len(racks))

# Step 2: for each rack, the GL-structure group and its automorphism
# orbits; one record per orbit.
result = classify_gl(4, racks)
print("GL-rack classes of order 4:", len(result.records))

print("\nfirst ten classes:")
for rec in result.records[:10]:
    print(" ", format_record_table(rec))

# The eight headline counts per order.  Orders 7 and 8 work too but take
# much longer; pass long_run=True (or --long-run on the command line).
for n in range(6):
    r = count_report(n)
    print(
        f"n={r.n}: GL-racks={r.g} (medial {r.g_m}), "
        f"GL-quandles={r.g_q} (medial {r.g_qm}), "
        f"racks={r.r} (medial {r.r_m}), quandles={r.r_q} (medial {r.r_qm})"
    )

# Note the GL-quandle column always equals the rack column; demo 04 shows
# the functor responsible.
