"""Independent brute-force oracles used to freeze expected test values.

These deliberately avoid the library's DP/table code paths: numerical
membership is a frontier closure, affine membership an exhaustive
combination search with bounded coefficient sum.
"""

from itertools import product as iproduct


def numerical_members(gens, bound):
    """All members of <gens> up to bound, by repeated generator addition."""
    members = {0}
    frontier = [0]
    while frontier:
        n = frontier.pop()
        for g in gens:
            m = n + g
            if m <= bound and m not in members:
                members.add(m)
                frontier.append(m)
    return members


def numerical_gaps(gens, bound):
    members = numerical_members(gens, bound)
    return sorted(set(range(bound + 1)) - members)


def conductor_from_members(members, bound):
    """Least c with [c, bound] fully inside; only trustworthy when bound is generous."""
    gaps = [n for n in range(bound + 1) if n not in members]
    return gaps[-1] + 1 if gaps else 0


def affine_members(gens, max_coeff_sum):
    """All sums of at most max_coeff_sum generators (exhaustive, no DP)."""
    out = {(0,) * len(gens[0])}
    for coeffs in iproduct(range(max_coeff_sum + 1), repeat=len(gens)):
        if sum(coeffs) <= max_coeff_sum:
            vec = tuple(sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(len(gens[0])))
            out.add(vec)
    return out


def staged_union_members(betas, gcd_chain):
    """The staged union of characteristic exponents up to bg + b0, as a plain set.

    Stage 0 is b0*N with the betas, stage j adds b_j + e_j*N.  The last stage
    adds bg + N, so the conductor is at most bg and the returned bound leaves
    room for every minimal generator (all below conductor + b0).
    """
    bound = betas[-1] + betas[0]
    members = set(range(0, bound + 1, betas[0])) | set(betas)
    for b, e in zip(betas[1:], gcd_chain[1:]):
        members.update(range(b, bound + 1, e))
    return members, bound


def min_generators_from_members(members, bound):
    """Nonzero members up to bound that are not a sum of two nonzero members."""
    nonzero = sorted(n for n in members if 0 < n <= bound)
    return [n for n in nonzero if not any(n - x in members for x in nonzero if 2 * x <= n)]
