"""Build eps-discrete families of perturbed disks and certify their size.

Each family partitions the base circle into cells and toggles one polynomial
bump per cell; distinct bit patterns are provably >= eps apart in Hausdorff
distance.  The family is indexed lazily: its cardinality 2^cells is never
enumerated.
"""

from expinstab import shapes
from expinstab.packing import ShapeClass, build_packing, class_eps0, packing_lower_bound
from expinstab.shapes import hausdorff_distance, hausdorff_resolution

cls = ShapeClass(kind=shapes.RADIAL_SUBGRAPH, base=0.5, m=1, beta=1.0)
eps0 = class_eps0(cls)
print(f"perturbation class: radial subgraphs of S^1(0, {cls.base}), m={cls.m}, beta={cls.beta}")
print(f"construction threshold eps0 = {eps0:.4f}\n")

for eps in (0.1, 0.05, 0.02, 0.01):
    family = build_packing(cls, eps)
    bound = packing_lower_bound(eps, cls.m, eps0)
    print(
        f"eps = {eps:5.3f}: {family.cell_count:3d} cells, "
        f"log #family = {family.certified_log_cardinality:7.2f} "
        f">= lower bound {bound:6.2f}"
    )

print("\nsampled pairwise distances at eps = 0.05 (all certified >= eps):")
family = build_packing(cls, 0.05)
patterns = family.sample_patterns(0, 6)
built = [family.shape(p) for p in patterns]
for i in range(len(built)):
    for j in range(i + 1, len(built)):
        d = hausdorff_distance(built[i], built[j], samples=1024)
        res = hausdorff_resolution(built[i], built[j], samples=1024)
        print(f"  patterns {patterns[i]:4d} vs {patterns[j]:4d}: d = {d:.4f} (res {res:.4f})")
