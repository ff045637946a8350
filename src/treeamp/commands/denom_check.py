"""treeamp denom-check: the denominator laws and the product formula on seeded draws.

The loop builds its values with the unchecked kernels: each drawn
element and each shear entry is put in lowest terms by
gaussian._reduced, and each matrix is four such entries, so
gaussian._mat builds it without Mat2's entry check.  The laws
themselves go through gaussian.denom, denom_mat and
product_formula_check, looked up on the module at each call.
"""

import random

from .. import gaussian

# the verdicts, each true unless a sample fails it
NAMES = ("submultiplicative_sum", "submultiplicative_product", "product_formula_exact",
         "denominator_arch_floor", "unimodular_right_invariance", "sl2_inverse_equality")


def run(args):
    """(config, results, verdicts, witnesses): a failing verdict's witness names the
    first sample that fails it and the values drawn there, for stderr only."""
    rng = random.Random(args.seed)
    n = args.samples
    reduced, mat = gaussian._reduced, gaussian._mat
    one, zero = reduced(1, 0, 1), reduced(0, 0, 1)
    witnesses = {}  # written on a failure only, so a passing loop pays nothing for it

    def randint(lo, hi, getrandbits=rng.getrandbits):  # rng.randint's draws, minus its calls
        width = hi - lo + 1
        while (r := getrandbits(width.bit_length())) >= width:
            pass
        return lo + r

    def draw():  # a/b + (c/d)i, drawn in the order a, b, c, d
        a, b = randint(-30, 30), randint(1, 12)
        c, d = randint(-30, 30), randint(1, 12)
        return reduced(a * d, c * b, b * d)

    for i in range(n):
        x, y = draw(), draw()
        dx, dy = gaussian.denom(x), gaussian.denom(y)
        if not gaussian.denom(x + y) <= dx * dy:
            witnesses.setdefault("submultiplicative_sum", f"sample {i}: x = {x}, y = {y}")
        if not gaussian.denom(x * y) <= dx * dy:
            witnesses.setdefault("submultiplicative_product", f"sample {i}: x = {x}, y = {y}")
        if x.a or x.b:  # x is nonzero
            if gaussian.product_formula_check(x) != 1:
                witnesses.setdefault("product_formula_exact", f"sample {i}: x = {x}")
            if not dx * (x.a * x.a + x.b * x.b) >= x.d * x.d:  # dx * x.norm() >= 1
                witnesses.setdefault("denominator_arch_floor", f"sample {i}: x = {x}")
    for i in range(max(1, n // 10)):
        m = mat((draw(), draw(), draw(), draw()))
        # random unimodular integral matrix: product of elementary shears
        k = None
        for _ in range(4):
            s = reduced(randint(-3, 3), randint(-3, 3), 1)
            shear = mat((one, s, zero, one) if rng.random() < 0.5 else (one, zero, s, one))
            k = shear if k is None else k * shear
        if gaussian.denom_mat(m * k) != gaussian.denom_mat(m):
            witnesses.setdefault("unimodular_right_invariance",
                                 f"matrix sample {i}: m = {m}, k = {k}")
        if gaussian.denom_mat(k.inverse()) != gaussian.denom_mat(k):  # det k = 1
            witnesses.setdefault("sl2_inverse_equality", f"matrix sample {i}: k = {k}")
    verdicts = {name: name not in witnesses for name in NAMES}
    return {"samples": n, "seed": args.seed}, {}, verdicts, witnesses
