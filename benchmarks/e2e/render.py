"""Render a TPQ as a query string that ``parse_query`` reads back.

``TPQ.to_xpath()`` marks the distinguished node as ``tag{*}``, which the
parser rejects, so generated queries could not be sent as text.  Here the
path from the root to the distinguished node becomes the trunk steps (the
parser makes the last trunk step the distinguished node) and everything
else — off-trunk subtrees, ``contains`` and attribute comparisons —
becomes a qualifier on the step it hangs from.

The parser numbers variables in pre-order with a step's qualifiers before
the next trunk step; a TPQ numbered differently renders to an equivalent
query that is not ``==`` to it, which the caller's round-trip check drops.
"""


def render(tpq):
    """The XPath-fragment text of ``tpq``."""
    trunk = [tpq.distinguished]
    trunk.extend(tpq.ancestors_of(tpq.distinguished))
    trunk.reverse()
    on_trunk = set(trunk)
    return "".join(
        _step(tpq, var, "ad" if var == tpq.root else tpq.axis_of(var), on_trunk)
        for var in trunk
    )


def _step(tpq, var, axis, on_trunk):
    qualifiers = [
        "." + _step(tpq, child, tpq.axis_of(child), on_trunk)
        for child in tpq.children_of(var)
        if child not in on_trunk
    ]
    qualifiers.extend(
        ".contains(%s)" % predicate.ftexpr for predicate in tpq.contains_on(var)
    )
    qualifiers.extend(
        '@%s %s "%s"' % (predicate.attr, predicate.rel_op, predicate.value)
        for predicate in tpq.attr_predicates
        if predicate.var == var
    )
    text = ("/" if axis == "pc" else "//") + (tpq.tag_of(var) or "*")
    if qualifiers:
        text += "[%s]" % " and ".join(qualifiers)
    return text
