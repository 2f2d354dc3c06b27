"""Tree pattern queries (TPQs) — the XPath fragment of §2.1.

A TPQ is a rooted tree whose nodes are variables (``$1``, ``$2``, ...),
whose edges are parent-child (``pc``) or ancestor-descendant (``ad``), plus
a Boolean conjunction of value-based predicates (tag constraints, attribute
comparisons, ``contains``). One variable is *distinguished*: matches to it
are the query answers.

Instances are immutable; the relaxation operators in :mod:`repro.relax`
produce new TPQs via the ``replacing_*`` / ``without_*`` copy methods here.
"""

from __future__ import annotations

from repro.errors import InvalidQueryError
from repro.query.predicates import Ad, AttrCompare, Contains, Pc, Tag

PC = "pc"
AD = "ad"
_AXES = (PC, AD)


def _quoted(value):
    """An attribute value as a string literal the query parser reads back."""
    quote = "'" if '"' in value else '"'
    return quote + value + quote


class TPQ:
    """An immutable tree pattern query.

    Args:
        root: the root variable.
        edges: mapping ``child_var -> (parent_var, axis)`` with axis ``"pc"``
            or ``"ad"``; every variable except the root must appear as a key.
        tags: mapping ``var -> tag name`` (a variable may be unconstrained).
        distinguished: the answer variable.
        contains: iterable of :class:`~repro.query.predicates.Contains`.
        attr_predicates: iterable of
            :class:`~repro.query.predicates.AttrCompare`.
    """

    __slots__ = (
        "root",
        "distinguished",
        "_parent",
        "_axis",
        "_children",
        "_tags",
        "contains",
        "attr_predicates",
        "_variables",
        "_identity",
        "_hash",
    )

    def __init__(self, root, edges, tags, distinguished, contains=(), attr_predicates=()):
        parent = {}
        axis = {}
        children = {root: []}
        for child, (parent_var, edge_axis) in edges.items():
            if edge_axis not in _AXES:
                raise InvalidQueryError("unknown axis %r" % edge_axis)
            if child == root:
                raise InvalidQueryError("root variable %s cannot have a parent" % root)
            parent[child] = parent_var
            axis[child] = edge_axis
            children.setdefault(child, [])
            children.setdefault(parent_var, []).append(child)

        self.root = root
        self.distinguished = distinguished
        self._parent = parent
        self._axis = axis
        self._children = {var: tuple(kids) for var, kids in children.items()}
        self._tags = dict(tags)
        self.contains = tuple(contains)
        self.attr_predicates = tuple(attr_predicates)
        self._variables = self._validate()
        self._identity = None
        self._hash = None

    # -- validation ----------------------------------------------------------

    def _validate(self):
        reachable = []
        stack = [self.root]
        seen = set()
        while stack:
            var = stack.pop()
            if var in seen:
                raise InvalidQueryError("pattern graph has a cycle at %s" % var)
            seen.add(var)
            reachable.append(var)
            stack.extend(reversed(self._children.get(var, ())))
        declared = set(self._children)
        if seen != declared:
            orphans = sorted(declared - seen)
            raise InvalidQueryError(
                "pattern graph is not a tree; unreachable variables: %s"
                % ", ".join(orphans)
            )
        if self.distinguished not in seen:
            raise InvalidQueryError(
                "distinguished node %s is not in the pattern" % self.distinguished
            )
        for var in self._tags:
            if var not in seen:
                raise InvalidQueryError("tag constraint on unknown variable %s" % var)
        for predicate in self.contains:
            if not isinstance(predicate, Contains):
                raise InvalidQueryError("contains must be Contains predicates")
            if predicate.var not in seen:
                raise InvalidQueryError(
                    "contains predicate on unknown variable %s" % predicate.var
                )
        for predicate in self.attr_predicates:
            if not isinstance(predicate, AttrCompare):
                raise InvalidQueryError("attr_predicates must be AttrCompare")
            if predicate.var not in seen:
                raise InvalidQueryError(
                    "attribute predicate on unknown variable %s" % predicate.var
                )
        return tuple(reachable)

    # -- structure accessors ---------------------------------------------------

    @property
    def variables(self):
        """All variables in pre-order."""
        return self._variables

    def parent_of(self, var):
        """Return the parent variable, or None for the root."""
        return self._parent.get(var)

    def axis_of(self, var):
        """Return the axis ("pc"/"ad") of the edge into ``var``."""
        if var == self.root:
            raise InvalidQueryError("the root %s has no incoming edge" % var)
        return self._axis[var]

    def children_of(self, var):
        """Return the tuple of child variables."""
        return self._children.get(var, ())

    def tag_of(self, var):
        """Return the tag constraint on ``var``, or None."""
        return self._tags.get(var)

    def is_leaf(self, var):
        return not self._children.get(var)

    def leaves(self):
        """Return all leaf variables in pre-order."""
        return tuple(var for var in self._variables if self.is_leaf(var))

    def subtree_variables(self, var):
        """Return ``var`` and all its pattern descendants, in pre-order."""
        result = []
        stack = [var]
        while stack:
            current = stack.pop()
            result.append(current)
            stack.extend(reversed(self._children.get(current, ())))
        return tuple(result)

    def ancestors_of(self, var):
        """Yield proper pattern ancestors from parent up to the root."""
        current = self._parent.get(var)
        while current is not None:
            yield current
            current = self._parent.get(current)

    def edges(self):
        """Yield ``(parent, child, axis)`` triples in pre-order of the child."""
        for var in self._variables:
            if var != self.root:
                yield (self._parent[var], var, self._axis[var])

    def contains_on(self, var):
        """Return the contains predicates attached to ``var``."""
        return tuple(p for p in self.contains if p.var == var)

    def size(self):
        """Return the number of pattern variables."""
        return len(self._variables)

    # -- logical view ----------------------------------------------------------

    def structural_predicates(self):
        """Return the pc/ad predicates encoded by the edges."""
        predicates = set()
        for parent, child, axis in self.edges():
            if axis == PC:
                predicates.add(Pc(parent, child))
            else:
                predicates.add(Ad(parent, child))
        return predicates

    def value_predicates(self):
        """Return tag, attribute, and contains predicates as a set."""
        predicates = {Tag(var, tag) for var, tag in self._tags.items()}
        predicates.update(self.contains)
        predicates.update(self.attr_predicates)
        return predicates

    def logical_predicates(self):
        """Return the full logical expression of the query (Fig. 2)."""
        return self.structural_predicates() | self.value_predicates()

    # -- derivation (used by relaxation operators) -----------------------------

    def _edge_map(self):
        return {
            child: (self._parent[child], self._axis[child])
            for child in self._parent
        }

    def replacing_axis(self, var, axis):
        """Return a copy where the edge into ``var`` has the given axis."""
        edges = self._edge_map()
        parent, _ = edges[var]
        edges[var] = (parent, axis)
        return self._copy(edges=edges)

    def without_leaf(self, var):
        """Return a copy with leaf ``var`` and its predicates removed.

        If ``var`` is the distinguished node, its parent becomes
        distinguished (per the λ operator definition, §3.5.2).
        """
        if not self.is_leaf(var):
            raise InvalidQueryError("%s is not a leaf" % var)
        if var == self.root:
            raise InvalidQueryError("cannot delete the root")
        edges = self._edge_map()
        del edges[var]
        tags = {v: t for v, t in self._tags.items() if v != var}
        contains = tuple(p for p in self.contains if p.var != var)
        attr_predicates = tuple(p for p in self.attr_predicates if p.var != var)
        distinguished = self.distinguished
        if distinguished == var:
            distinguished = self._parent[var]
        return TPQ(
            self.root,
            edges,
            tags,
            distinguished,
            contains=contains,
            attr_predicates=attr_predicates,
        )

    def reparenting(self, var, new_parent, axis):
        """Return a copy where the subtree rooted at ``var`` hangs off
        ``new_parent`` with the given axis."""
        if var == self.root:
            raise InvalidQueryError("cannot re-parent the root")
        if new_parent in self.subtree_variables(var):
            raise InvalidQueryError(
                "cannot re-parent %s under its own subtree" % var
            )
        edges = self._edge_map()
        edges[var] = (new_parent, axis)
        return self._copy(edges=edges)

    def retargeting_contains(self, predicate, new_var):
        """Return a copy where ``predicate`` applies to ``new_var`` instead."""
        if predicate not in self.contains:
            raise InvalidQueryError("predicate %s is not in the query" % predicate)
        contains = tuple(
            Contains(new_var, p.ftexpr) if p == predicate else p
            for p in self.contains
        )
        return self._copy(contains=contains)

    def _copy(self, edges=None, tags=None, distinguished=None, contains=None,
              attr_predicates=None):
        return TPQ(
            self.root,
            self._edge_map() if edges is None else edges,
            self._tags if tags is None else tags,
            self.distinguished if distinguished is None else distinguished,
            contains=self.contains if contains is None else contains,
            attr_predicates=(
                self.attr_predicates if attr_predicates is None else attr_predicates
            ),
        )

    # -- identity ----------------------------------------------------------------

    def _key(self):
        # Instances are immutable, so the canonical key (and its hash) is
        # built on first use and kept: every cache tier probes a dict with
        # this object, while most relaxed TPQs are never hashed at all.
        key = self._identity
        if key is None:
            key = self._identity = (
                self.root,
                self.distinguished,
                tuple(sorted(self._parent.items())),
                tuple(sorted(self._axis.items())),
                tuple(sorted(self._tags.items())),
                tuple(sorted(self.contains, key=str)),
                tuple(sorted(self.attr_predicates, key=str)),
            )
            self._hash = hash(key)
        return key

    def __eq__(self, other):
        if not isinstance(other, TPQ):
            return NotImplemented
        return self is other or self._key() == other._key()

    def __hash__(self):
        return self._hash if self._hash is not None else hash(self._key())

    def __repr__(self):
        return "TPQ(%s)" % self.to_xpath()

    # -- display -------------------------------------------------------------------

    def to_xpath(self):
        """Render the query in the concrete syntax ``parse_query`` reads.

        The path from the root to the distinguished node becomes the trunk
        steps (the parser makes the last trunk step distinguished);
        off-trunk subtrees, ``contains`` and attribute comparisons become
        qualifiers on the step they hang from.  For a TPQ numbered the way
        the parser numbers variables, ``parse_query(t.to_xpath()) == t``;
        any other numbering renders to an equivalent query.
        """
        trunk = [self.distinguished, *self.ancestors_of(self.distinguished)]
        trunk.reverse()
        on_trunk = set(trunk)

        def render(var):
            axis = AD if var == self.root else self._axis[var]
            qualifiers = [
                "." + render(child)
                for child in self.children_of(var)
                if child not in on_trunk
            ]
            qualifiers.extend(
                ".contains(%s)" % predicate.ftexpr
                for predicate in self.contains_on(var)
            )
            qualifiers.extend(
                "@%s %s %s" % (
                    predicate.attr, predicate.rel_op, _quoted(predicate.value)
                )
                for predicate in self.attr_predicates
                if predicate.var == var
            )
            text = ("/" if axis == PC else "//") + self._tags.get(var, "*")
            if qualifiers:
                text += "[%s]" % " and ".join(qualifiers)
            return text

        return "".join(render(var) for var in trunk)

    def pretty(self):
        """Return an indented multi-line rendering of the pattern tree."""
        lines = []

        def walk(var, depth):
            marker = "**" if var == self.distinguished else ""
            axis = "" if var == self.root else ("/" if self._axis[var] == PC else "//")
            tag = self._tags.get(var, "*")
            extra = "".join(
                " contains(%s)" % p.ftexpr for p in self.contains_on(var)
            )
            lines.append("%s%s%s (%s)%s%s" % ("  " * depth, axis, tag, var, marker, extra))
            for child in self.children_of(var):
                walk(child, depth + 1)

        walk(self.root, 0)
        return "\n".join(lines)
