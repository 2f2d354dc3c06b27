"""Pin the lowering's operator choice for the duration of a block."""

from unittest import mock

from repro.plans import lowering
from repro.plans.plan import BINARY


def pinned_operator(operator):
    """A context manager under which every ``lower_plan`` picks ``operator``.

    Patches the one ``choose_operator`` function, so it reaches every
    compile an engine, a context or a sharded coordinator makes inside the
    block.  Eligibility still gates the choice, as it does the real one: a
    plan the twig operator cannot evaluate stays binary.
    """

    def choose(plan, statistics, pipeline):
        return operator if lowering.twig_eligible(plan) else BINARY

    return mock.patch.object(lowering, "choose_operator", choose)
