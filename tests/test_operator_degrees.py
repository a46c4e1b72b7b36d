"""Every operator handle declares the change of ghost number it makes.

`OperatorHandle.degree` is the change of `superalg.term_degree` (ghosts
minus antighosts) from an input key to each output key: +1 for the Koszul
differential, the codifferentials, D and t = koszul_nu - koszul, -1 for the
homotopies, 0 for restrictions and prolongations.  The test records every
handle that the runner calls on two registry scenarios and applies each one
to basis elements: every ghost/antighost key under the monomials 1, x, the
leading monomial m of J_1 and x m.
"""

from itertools import combinations, product

import pytest

from redstar.poly import Poly, mono_key
from redstar.runner import RunState, run_scenario, stage_load
from redstar.scenarios import get_scenario
from redstar.series import Series
from redstar.superalg import OperatorHandle, SuperElement, term_degree


BOUND = 4


def handles_called(scenario, bound):
    """{id: (handle, a context, dimension and order it was called at)} over one run."""
    seen = {}
    call = OperatorHandle.__call__

    def recording(self, x):
        seen.setdefault(id(self), (self, x.ctx, x.dim, x.order))
        return call(self, x)

    OperatorHandle.__call__ = recording
    try:
        report = run_scenario(get_scenario(scenario), degree_bound=bound)
    finally:
        OperatorHandle.__call__ = call
    assert report.verdict == "pass"
    return seen


def basis_keys(dim):
    subsets = [s for r in range(dim + 1) for s in combinations(range(1, dim + 1), r)]
    return [(g, a) for g in subsets for a in subsets]


@pytest.mark.parametrize("scenario", ["s1-c4", "commuting-n2"])
def test_every_runner_handle_changes_ghost_number_by_its_degree(scenario):
    seen = handles_called(scenario, BOUND)
    names = {h.name for h, *_ in seen.values()}
    assert {"koszul", "h", "delta", "D", "koszul_nu", "delta_nu", "D_nu"} <= names
    assert "(koszul_nu-koszul)" in names
    state = RunState(get_scenario(scenario))
    stage_load(state)
    # basis elements (one monomial under one key), as a column map takes them
    m = max(state.moment.components[0].terms, key=mono_key)
    monomials = [(0,) * len(m), (1,) + (0,) * (len(m) - 1), m, (m[0] + 1,) + m[1:]]
    moved = set()
    for handle, ctx, dim, order in seen.values():
        coefficients = [Poly.monomial(ctx, mono) for mono in monomials]
        for key, p in product(basis_keys(dim), coefficients):
            if p.degree() + sum(state.jdegs[a - 1] for a in key[1]) > BOUND:
                continue  # beyond the slices the run built
            out = handle(SuperElement(ctx, dim, order, {key: Series.from_poly(p, order)}))
            for out_key in out.terms:
                assert term_degree(out_key) - term_degree(key) == handle.degree, (
                    handle.name, key, out_key,
                )
                moved.add(handle.name)
    assert {"koszul", "h", "delta", "D", "koszul_nu", "delta_nu", "D_nu"} <= moved
