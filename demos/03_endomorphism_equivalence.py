"""The endomorphism-algebra equivalence: inj.dim T <= r iff gl.dim B <= r.

For a module M whose add-category is the left perpendicular of a cotilting
module T, the opposed endomorphism algebra B = (End M)^op has global
dimension at most r exactly when T has injective dimension at most r.  Here
T = A itself over the self-injective algebra GF(2)[x]/(x^2): inj.dim T = 0,
and B (the classical Auslander-type algebra of A + k) has gl.dim exactly 2.
"""

from homres import (
    AddCategory,
    QuiverPresentation,
    endomorphism_algebra,
    from_quiver,
    gl_dim,
    hom_basis,
    hom_functor,
    regular_module,
    simple_modules,
    verify_theorem2,
)

dual = from_quiver(QuiverPresentation(vertices=1, arrows=[(0, 0)],
                                      relations=[(0, 0)]), p=2)
reg = regular_module(dual)
(k,) = simple_modules(dual)

# B is assembled from the blocks Hom(M_i, M_j) of add(A + k); its radical is
# exact at every prime, so gl.dim B is computable at characteristic 2.
ctx = endomorphism_algebra(AddCategory([reg, k]))
print("dim B =", ctx.b.dim, "| rad B rank =", ctx.b.radical.shape[0])
print("gl.dim B =", gl_dim(ctx.b, 10))

# Hom(M, -) preserves Hom dimensions on add-generated inputs.
for x, label in ((reg, "A"), (k, "k")):
    fx = hom_functor(ctx, x)
    print(f"dim Hom_A({label}, {label}) =", len(hom_basis(x, x)),
          "=> dim Hom_B(F{0}, F{0}) =".format(label), len(hom_basis(fx, fx)))

# The full verification: hypotheses first (every summand in the perpendicular
# of T, finite inj.dim witness), then both sides of the equivalence.
report = verify_theorem2(dual, reg, AddCategory([reg, k]), r=2)
print("\nr =", report.r, "| inj.dim T =", report.injdim_t,
      "| gl.dim B =", report.gldim_b)
print("mode:", report.mode, "| verdict holds:", report.verdict,
      "| B smooth (finite gl.dim):", report.smooth)
