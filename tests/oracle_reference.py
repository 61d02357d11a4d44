"""The per-element oracle sweep, kept unchanged as the differential reference
for tests/test_components.py.

`oracle_crosscheck` ran `normalizer_oracle` on every element of the ambient
group H in key order and raised at the first element where the oracle and
the filter's member set disagree.  The coset check replaced it, which
decides the generators of Q and one element of each other coset of Q."""

from inoueaut import InternalConsistencyError, SurfaceParams, component_group
from inoueaut.components import ComponentGroup, normalizer_oracle


def oracle_crosscheck(params: SurfaceParams, q: ComponentGroup | None = None) -> int:
    """Checks the member set of Q against the normalizer oracle on every
    element of the ambient group; returns the element count, raises on any
    disagreement (which is always a bug, never a data problem)."""
    if q is None:
        q = component_group(params)
    ambient = q.ambient
    members = set(q.keys)
    for key in range(ambient.order):
        i, k = ambient.pair(key)
        v = ambient.unit_powers[i]
        y = ambient.quotient.rep(k)
        member = key in members
        oracle = normalizer_oracle(params, v, y)
        if member != oracle:
            raise InternalConsistencyError(
                f"filter/oracle disagreement at [{i},{k}] = [{v}, {y}]: "
                f"filter={member}, oracle={oracle}"
            )
    return ambient.order
