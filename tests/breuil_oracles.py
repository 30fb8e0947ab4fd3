"""Exhaustive oracles for the Breuil criteria, shared by the test modules.

breuil_sweep_tuples lists every (s, t) of the criteria 7 and 8 sweep, where
the criteria decide one representative per distinct s - t - e;
monodromy_verdict_table gives the monodromy verdict of every y over a set
of coefficients, where criterion 9 proves one subspace identity.
"""

from itertools import product

from dwork_forge import breuil as br


def breuil_sweep_tuples():
    """(p, e, f, s, t) for s, t in [0, e(p-2)]^f, p in {3, 5},
    e in {1, 2, 3} and f in {1, 2}."""
    for p in (3, 5):
        for e in (1, 2, 3):
            for f in (1, 2):
                hi = e * (p - 2)
                for s in product(range(hi + 1), repeat=f):
                    for t in product(range(hi + 1), repeat=f):
                        yield p, e, f, s, t


def monodromy_verdict_table(top, bottom, keys, coeff_dlogs):
    """check(y) for every y = {key: g^k} with coefficient dlogs k drawn from
    coeff_dlogs (None for zero, dropped from y) at each of the distinct keys,
    as a list in itertools.product(coeff_dlogs, repeat=len(keys)) order.

    The running sums start at zero and are extended one key at a time, so a
    prefix shared by many tuples is summed once. A key whose term lands
    outside every row makes each tuple with a nonzero coefficient there
    infeasible, as check does.
    """
    F = top.a.field
    _, n_null, key_weights = br._monodromy_weights(top, bottom)
    zero = [None] * n_null
    states = [zero]    # the running sums of each prefix; None: infeasible
    for key in keys:
        w = key_weights(key)
        nxt = []
        for sums in states:
            for k in coeff_dlogs:
                if sums is None or k is None:
                    nxt.append(sums)
                elif w is None:
                    nxt.append(None)
                else:
                    ext = sums.copy()
                    for n, wk in w:
                        ext[n] = F.k_add(ext[n], F.k_mul(wk, k))
                    nxt.append(ext)
        states = nxt
    return [sums == zero for sums in states]
