"""The virtual test stand's resource model and the allocation search.

A stand consists of resources (instruments described by the one method
they support and the valid parameter range) and a connection matrix that
wires resources to DUT pins through switch (``SwN.M``) and multiplexer
(``MxN.M``) connectors. For each block the planner asks ``allocate`` for a
conflict-free assignment of requirements to resources, handing it the
run's ``Holds``: the stimulus bindings of the block before and the
resources and connector groups they engage, kept from block to block, so
that only what changed is released and searched.

Exclusivity rules:
  * while a stimulus is held, its resource drives exactly one pin and its
    connector group (``Sw1``, ``Mx3``, ...) is engaged at one position;
  * check-class (get) bindings are sampled sequentially at the end of the
    dwell, so checks may time-share a resource and a connector group among
    themselves, but never with a held stimulus. So ``allocate`` searches
    the exclusive requirements (stimuli, one-shots) alone, and then gives
    each check its first usable resource that none of them holds.

Two requirement shapes consume no resource at all: open-circuit stimuli
(principal parameter INF; the connector is simply disengaged) and
bus-delivered methods (``put_can``), which reach the DUT without an
electrical path through the matrix.
"""

from __future__ import annotations

import re
from decimal import Decimal
from typing import Iterator, Mapping, NamedTuple, Sequence

from .compiler import MethodInvocation
from .errors import AllocationError, SheetError
from .sheets import (MAX_DIGITS, _Fields, _Frozen, _Keyed, check_names,
                     check_unique, method_class)

#: Methods delivered over a bus instead of an electrical pin path.
BUS_METHODS = frozenset({"put_can"})

_NUMBER = f"([0-9]{{1,{MAX_DIGITS}}})"
_CONNECTOR = re.compile(rf"(Sw|Mx){_NUMBER}\.{_NUMBER}\Z")
_KIND = {"Sw": "switch", "Mx": "mux"}
_PREFIX = {"switch": "Sw", "mux": "Mx"}


class Connector(_Frozen):
    """Where a resource meets a pin: a switch or multiplexer group, engaged
    at one position at a time."""

    _compared = ("kind", "group", "position")
    #: ``group_key`` is (kind, group). Stored, as the search reads it for
    #: every candidate it checks. ``text`` is the sheet form (``Sw1.2``),
    #: made once: every stimulus record of the connector shares it.
    __slots__ = (*_compared, "group_key", "text")

    def __init__(self, kind: str, group: int, position: int):
        init = object.__setattr__
        init(self, "kind", kind)  # "switch" | "mux"
        init(self, "group", group)
        init(self, "position", position)
        init(self, "group_key", (kind, group))
        init(self, "text", f"{_PREFIX[kind]}{group}.{position}")

    def __str__(self):
        return self.text


def parse_connector(text: str) -> Connector:
    m = _CONNECTOR.match(text)
    if not m:
        raise ValueError(f"unknown connector syntax {text!r} "
                         f"(expected SwN.M or MxN.M)")
    return Connector(_KIND[m.group(1)], int(m.group(2)), int(m.group(3)))


class ResourceDef(_Fields):
    """One resource: the method it supports and the valid range of its
    ``attribut`` parameter (see ``_range_offence``).

    ``method`` and ``attribut`` must obey the name rule (``sheets.is_name``)
    and ``min`` must not exceed ``max``; construction raises SheetError (a
    ValueError) otherwise.
    """

    _compared = ("id", "method", "attribut", "min", "max", "unit")
    __slots__ = (*_compared, "row")

    def __init__(self, id: str, method: str, attribut: str, min: Decimal,
                 max: Decimal, unit: str = "", row: int | None = None):
        self.id, self.method, self.attribut = id, method, attribut
        self.min, self.max, self.unit, self.row = min, max, unit, row
        check_names(f"resource {id}", "resources", row, method=method,
                    attribut=attribut)
        if min > max:
            raise SheetError(f"resource {id}: min {min} > max {max}",
                             sheet="resources", row=row, column="min")


class ResourceTable(_Keyed):
    __slots__ = _compared = ("resources",)

    def __init__(self, resources: list[ResourceDef]):
        self.resources = resources
        check_unique(((res.id, {"row": res.row}) for res in resources),
                     "resource id", SheetError, sheet="resources",
                     column="res")
        self._by_key = {res.id: res for res in resources}


class ConnectionMatrix(_Fields):
    """Resource-to-pin wiring, with pins as given: ``parse_connection_sheet``
    lowercases a sheet's pins. ``lines`` gives each row's sheet line, for a
    matrix parsed from a sheet."""

    _compared = ("pins", "rows", "cells")
    __slots__ = (*_compared, "lines")

    def __init__(self, pins: list[str], rows: list[str],
                 cells: dict[tuple[str, str], Connector],
                 lines: dict[str, int] | None = None):
        self.pins, self.rows, self.cells = pins, rows, cells
        self.lines = {} if lines is None else lines

    def connector_for(self, resource_id: str, pin: str) -> Connector | None:
        return self.cells.get((resource_id, pin))


class StandModel(_Fields):
    """A stand: its resources and their wiring, which must name only
    resources of the table. ``wired`` maps each pin to the resources wired
    to it, with their connectors, in resource table row order (the
    search's candidate order); ``grouped`` maps each connector group to
    the resources wired through it, each once."""

    _compared = ("resources", "matrix")
    __slots__ = (*_compared, "wired", "grouped")

    def __init__(self, resources: ResourceTable, matrix: ConnectionMatrix):
        self.resources, self.matrix = resources, matrix
        for rid in matrix.rows:
            if rid not in resources:
                raise SheetError(f"resource '{rid}' is not in the resource "
                                 f"table", sheet="connections",
                                 row=matrix.lines.get(rid), column="res")
        by_resource: dict[str, list[tuple[str, Connector]]] = {}
        self.grouped: dict[tuple[str, int], list[str]] = {}
        for (rid, pin), conn in matrix.cells.items():
            by_resource.setdefault(rid, []).append((pin, conn))
            rids = self.grouped.setdefault(conn.group_key, [])
            if rid not in rids:
                rids.append(rid)
        self.wired: dict[str, list[tuple[ResourceDef, Connector]]] = {}
        for res in resources:
            for pin, conn in by_resource.get(res.id, ()):
                self.wired.setdefault(pin, []).append((res, conn))


class Requirement(_Frozen):
    """One thing a step needs: an invocation delivered to one pin. A class
    with slots, not a tuple: the search reads its fields for every
    candidate, and a slot reads faster."""

    __slots__ = _compared = ("pin", "invocation", "signal")

    def __init__(self, pin: str, invocation: MethodInvocation,
                 signal: str | None = None):
        init = object.__setattr__
        init(self, "pin", pin)
        init(self, "invocation", invocation)
        init(self, "signal", signal)


class Binding(_Fields):
    """How a requirement is delivered: through a resource and connector,
    as an open circuit or over a bus. A class with slots, not a tuple:
    ``allocate`` builds one per candidate it takes and per check it
    places, and a tuple type is slower to build."""

    __slots__ = _compared = ("requirement", "delivery", "resource_id",
                             "connector", "held")

    def __init__(self, requirement: Requirement, delivery: str,
                 resource_id: str | None = None,
                 connector: Connector | None = None, held: bool = False):
        self.requirement = requirement
        self.delivery = delivery  # "resource" | "open_circuit" | "bus"
        self.resource_id, self.connector = resource_id, connector
        self.held = held


class Allocation(NamedTuple):
    bindings: list[Binding]


def _range_offence(res: ResourceDef, inv: MethodInvocation) -> tuple[str, Decimal] | None:
    """The first parameter outside the resource's range that the range
    limits: its ``attribut``, or a check's ``<attribut>_min`` and
    ``<attribut>_max`` bounds. Any other parameter, such as a put's d1..d3
    pass-through values, is not range-checked."""
    attr = res.attribut
    for name, value in inv.params.items():
        if (isinstance(value, Decimal) and not (res.min <= value <= res.max)
                and name in (attr, f"{attr}_min", f"{attr}_max")):
            return name, value
    return None


class Holds:
    """The exclusive bindings of one run on one stand: who holds each
    resource and connector group.

    ``by_pin`` maps each pin to the put-class binding that delivers the
    previous block's stimulus there through a resource, as the held binding
    ``allocate`` hands back while that stimulus is unchanged. ``res`` and
    ``grp`` map each engaged resource id and connector group to its pin:
    those of every binding in ``by_pin``, and during a search also those of
    the candidates it has taken. ``allocate`` alone updates a ``Holds``.
    """

    def __init__(self):
        self.by_pin: dict[str, Binding] = {}
        self.res: dict[str, str] = {}              # resource id -> pin
        self.grp: dict[tuple[str, int], str] = {}  # group -> pin

    def engage(self, res_id: str, conn: Connector, pin: str):
        self.res[res_id] = pin
        self.grp[conn.group_key] = pin

    def release(self, res_id: str, conn: Connector):
        del self.res[res_id]
        del self.grp[conn.group_key]

    def engaged(self) -> Holds:
        """A copy of who holds each resource and connector group now."""
        copy = Holds()
        copy.res, copy.grp = dict(self.res), dict(self.grp)
        return copy


def _augment(j: int, usable: Mapping[int, list[tuple[ResourceDef,
                                                   Connector]]],
             holds: Holds, owner: dict, seen: set, groups: bool = False
             ) -> bool:
    """Kuhn's augmenting path: give requirement ``j`` a resource from
    ``usable[j]`` that ``holds`` allows, in that order, moving the owners of
    taken ones along if that frees one. ``owner`` and ``seen`` are keyed by
    resource id, or with ``groups`` by connector group key: ``owner`` maps
    each taken one to its requirement index. A loop, so that a path may be
    as long as the block: ``path`` holds, per owner still to move, the
    requirement that asks for its key, that key and the requirement's
    candidates not yet tried."""
    held_res, held_grp = holds.res, holds.grp
    path: list[tuple[int, object, Iterator]] = []
    todo = iter(usable[j])
    while True:
        for res, conn in todo:
            key = conn.group_key if groups else res.id
            if (key in seen or res.id in held_res
                    or conn.group_key in held_grp):
                continue
            seen.add(key)
            if key not in owner:
                owner[key] = j
                while path:
                    j, key, _ = path.pop()
                    owner[key] = j
                return True
            path.append((j, key, todo))
            j = owner[key]
            todo = iter(usable[j])
            break
        else:
            if not path:
                return False
            j, _, todo = path.pop()


class _Search:
    """Depth-first search over the free exclusive requirements, in the
    given order, that places the checks at each leaf (``_checks``). Each
    requirement's candidates (``usable``) are worked out per call, as the
    search keeps nothing from call to call. A check with no usable resource
    would fail every leaf, so it fails the search at entry, recorded as that
    leaf would record it.

    Before a node expands, every remaining requirement
    must get a resource of its own in a maximum matching whose edges join
    it to the statically usable resources that the ``Holds`` still allows.
    Before a node tries its second candidate, each must also get a
    connector group of its own in a matching over the groups of the same
    edges. A completion would give both, so a node that fails either check
    has none and is cut; as only subtrees without a solution are cut, the
    first solution in candidate order is the one found. The group check
    waits for a failed candidate, as most nodes' first candidate leads to
    the solution; a node whose groups are overcommitted still costs only
    the chain of first candidates below it.

    ``_match`` extends a matching: from scratch at the root and in the
    group check, and at every other node in a repair (``_repair``) of the
    one resource ``matching`` the search keeps and never takes back. An
    entered node takes its own requirement out of it, and one that runs out
    of candidates puts it on the ``pending`` list for the next repair.
    Releasing an engagement only adds edges, so every pair stays valid on
    the way back up. Whether every requirement can be matched does not
    depend on the matching a repair starts from (Berge, 1957), so the cuts
    are those of a matching from scratch. A failed node is recorded by its
    depth and a copy of the engagements; only a search that fails builds
    the error (``failure``).
    An entered node's matching gives its requirement a resource nothing
    engages, and each candidate it engages records a deeper node: a node
    that runs out of candidates is never the deepest, so is not recorded.
    """

    def __init__(self, reqs: list[Requirement], free: list[int],
                 checks: list[int], stand: StandModel, holds: Holds,
                 out: list[Binding | None]):
        self.reqs, self.free, self.checks = reqs, free, checks
        self.stand, self.holds, self.out = stand, holds, out
        self.usable = {i: self._usable(reqs[i]) for i in (*free, *checks)}
        # resource id -> index of the requirement it is matched to, and the
        # requirements the matching is still to place
        self.matching: dict[str, int] = {}
        self.pending: list[int] = []
        # depth and engagements of the deepest failed node
        self.deepest: tuple[int, Holds | None] = (-1, None)

    def _prev(self, req: Requirement) -> str | None:
        prev = self.holds.by_pin.get(req.pin)
        return None if prev is None else prev.resource_id

    def _usable(self, req: Requirement) -> list[tuple[ResourceDef, Connector]]:
        """Statically usable resources, in row order: those wired to the
        pin that support the method and take its parameters in range; the
        previous resource first. A check's list keeps row order: a previous
        resource (``by_pin``) is a put's, and supports no get method."""
        inv, prev = req.invocation, self._prev(req)
        static = [(res, conn) for res, conn in self.stand.wired.get(req.pin, ())
                  if res.method == inv.method
                  and _range_offence(res, inv) is None]
        if prev is not None:
            for n, pair in enumerate(static):
                if pair[0].id == prev:
                    return [pair, *static[:n], *static[n + 1:]] if n else static
        return static

    def _match(self, todo: Sequence[int], owner: dict, holds: Holds,
               groups: bool = False) -> int | None:
        """Extend the matching ``owner`` (resource id, or with ``groups``
        connector group key -> requirement index) under ``holds`` by each
        requirement of ``todo`` in turn: the first that gets no resource,
        or no group, or None if every one gets one."""
        usable = self.usable
        for i in todo:
            if not _augment(i, usable, holds, owner, set(), groups):
                return i
        return None

    def _repair(self, k: int, rid: str, conn: Connector) -> bool:
        """Make the matching place every requirement of ``free[k:]`` again,
        now that node ``k - 1`` has engaged resource ``rid`` through
        ``conn``: each one matched to ``rid`` or through ``conn``'s group
        leaves it and joins the pending ones, which augment in turn. False
        if one cannot; it and those after it stay pending."""
        matching, todo, reqs = self.matching, self.pending, self.reqs
        get, cells, grp = matching.get, self.stand.matrix.cells, conn.group_key
        for other in self.stand.grouped[grp]:
            j = get(other)
            if j is not None and cells[other, reqs[j].pin].group_key == grp:
                del matching[other]
                todo.append(j)
        j = matching.pop(rid, None)
        if j is not None:
            todo.append(j)
        unmatched = self._match(todo, matching, self.holds)
        del todo[:len(todo) if unmatched is None else todo.index(unmatched)]
        return unmatched is None

    def _record(self, k: int):
        """Record failed node ``k`` and what the holds engage there, unless
        a deeper node failed."""
        if k >= self.deepest[0]:
            self.deepest = (k, self.holds.engaged())

    def failure(self) -> AllocationError:
        """The error of the deepest failed node ``k``: the first requirement
        from position ``k`` of the search's order (exclusive requirements,
        then checks) that a matching from scratch under the node's
        engagements cannot place, and every resource with the reason it was
        rejected there. The only code that words a rejection: the search
        tests the same rules without text."""
        k, holds = self.deepest
        owner: dict[str, int] = {}
        req = self.reqs[self._match([*self.free, *self.checks][k:], owner,
                                    holds)]
        stand, inv = self.stand, req.invocation
        prev = self._prev(req)
        rejections: list[tuple[str, str]] = []
        parameter = None
        for res in sorted(stand.resources, key=lambda res: res.id != prev):
            conn = stand.matrix.connector_for(res.id, req.pin)
            if res.method != inv.method:
                reason = f"no method (supports {res.method})"
            elif conn is None:
                reason = "no connection"
            elif (offence := _range_offence(res, inv)) is not None:
                name, value = offence
                reason = (f"range: {name}={value} outside "
                          f"[{res.min}, {res.max}]")
                parameter = parameter or name
            elif res.id in holds.res:
                reason = ("conflict: resource holds a stimulus for pin "
                          f"{holds.res[res.id]}")
            elif conn.group_key in holds.grp:
                reason = (f"conflict: connector group {_PREFIX[conn.kind]}"
                          f"{conn.group} is engaged for pin "
                          f"{holds.grp[conn.group_key]}")
            else:
                reason = ("conflict: resource is needed for pin "
                          f"{self.reqs[owner[res.id]].pin}")
            rejections.append((res.id, reason))
        return AllocationError(pin=req.pin, method=inv.method,
                               parameter=parameter, candidates=rejections)

    def _checks(self) -> bool:
        """A leaf: each check takes its first usable resource that no
        exclusive binding holds; one without fails the leaf, at depth
        ``len(free)`` plus its place among the checks."""
        held_res, held_grp = self.holds.res, self.holds.grp
        for p, i in enumerate(self.checks):
            for res, conn in self.usable[i]:
                if res.id not in held_res and conn.group_key not in held_grp:
                    self.out[i] = Binding(self.reqs[i], "resource", res.id, conn)
                    break
            else:
                self._record(len(self.free) + p)
                return False
        return True

    def solve(self) -> bool:
        """The depth-first search as a loop, so that a block of any size
        needs no deeper recursion. ``path`` holds, per node entered and not
        yet failed, its candidates not yet tried, its tries so far and the
        resource id and connector of the candidate it has engaged. The
        matching places the requirements of ``free[k:]`` after the repair
        that enters node ``k``, those of ``free[k + 1:]`` once it has taken
        its own out, and never one of ``pending``."""
        free, reqs, holds, out = self.free, self.reqs, self.holds, self.out
        held_res, held_grp = holds.res, holds.grp
        matching, usable = self.matching, self.usable
        for p, i in enumerate(self.checks):
            if not usable[i]:  # fails every leaf: no search
                self._record(len(free) + p)
                return False
        if self._match(free, matching, holds) is not None:
            self._record(0)
            return False
        path: list[list] = []
        while True:
            k = len(path)  # enter node k
            if k == len(free):
                if self._checks():
                    return True
            elif k == 0 or self._repair(k, *path[-1][2:]):
                i = free[k]
                for res, _ in usable[i]:
                    if matching.get(res.id) == i:
                        del matching[res.id]
                        break
                path.append([iter(usable[i]), 0, None, None])
            else:
                self._record(k)
            while path:  # the deepest open node tries its next candidate
                k = len(path) - 1
                node = path[k]
                i = free[k]
                if node[2] is not None:
                    holds.release(node[2], node[3])
                    node[2] = None
                for res, conn in node[0]:
                    if res.id in held_res or conn.group_key in held_grp:
                        continue
                    node[1] += 1
                    if node[1] == 2 and self._match(
                            free[k:], {}, holds, groups=True) is not None:
                        # Cut: the failed first candidate recorded a deeper
                        # node.
                        break
                    holds.engage(res.id, conn, reqs[i].pin)
                    out[i] = Binding(reqs[i], "resource", res.id, conn)
                    node[2], node[3] = res.id, conn
                    break
                if node[2] is not None:  # engaged: enter node k + 1
                    break
                self.pending.append(i)
                path.pop()
            else:
                return False


def allocate(requirements: Sequence[Requirement], stand: StandModel,
             holds: Holds | None = None) -> Allocation:
    """Find a conflict-free binding for every requirement.

    ``holds`` carries the stimulus bindings of the previous block (none if
    not given) and what they engage, and is updated to this block's; it
    keeps nothing else from call to call. The caller alone decides
    what is unchanged, by identity: a held binding passed its own
    ``Requirement`` again stays engaged (moving it would glitch a live
    signal) and comes back as is, without a second look at its invocation.
    A stimulus that is searched comes back not held, and ``holds`` keeps a
    held copy of its binding for the blocks after. Every other held binding
    is released; a requirement on its pin, even an equal one, prefers the
    old resource but may move. A call holds at most one stimulus per pin,
    as a script's signals share no pin.

    The search is deterministic: resources are tried in table row order,
    the exclusive requirements not held (changed stimuli and one-shots) in
    the given order, and the result is the first assignment in that order.
    One-shots are released after the block. Checks are placed after every
    exclusive requirement: each takes its first usable resource no
    exclusive binding holds, or sends the search back; a check no resource
    can serve at all fails the block before any search. Bipartite
    matchings of the remaining exclusive requirements to resources and to
    connector groups (``_Search``) cut subtrees that hold no assignment,
    so an infeasible block fails in polynomial time wherever the resources
    alone or the connector groups alone are overcommitted. The allocation
    holds one binding per requirement, in the given order.

    Raises AllocationError naming the first requirement that a matching
    from scratch cannot place from the deepest failed search node on, and
    every resource with its rejection reason; ``holds`` is then left as it
    was.
    """
    holds = Holds() if holds is None else holds
    by_pin = holds.by_pin
    reqs = list(requirements)
    out: list[Binding | None] = [None] * len(reqs)
    released = dict(by_pin)  # those not passed their requirement again
    free, checks = [], []  # indices: exclusive requirements, checks
    puts, one_shots = [], []  # the exclusive ones by class

    for i, req in enumerate(reqs):
        prev = by_pin.get(req.pin)
        if prev is not None and prev.requirement is req:
            del released[req.pin]
            out[i] = prev
        elif req.invocation.method in BUS_METHODS:
            out[i] = Binding(req, "bus")
        elif (cls := method_class(req.invocation.method)) == "get":
            checks.append(i)
        elif req.invocation.is_open_circuit():
            out[i] = Binding(req, "open_circuit")
        else:
            free.append(i)
            (puts if cls == "put" else one_shots).append(i)

    for b in released.values():
        holds.release(b.resource_id, b.connector)
    search = _Search(reqs, free, checks, stand, holds, out)
    if not search.solve():
        for b in released.values():
            holds.engage(b.resource_id, b.connector, b.requirement.pin)
        raise search.failure()
    for pin in released:
        del by_pin[pin]
    for i in puts:
        by_pin[reqs[i].pin] = Binding(reqs[i], "resource", out[i].resource_id,
                                      out[i].connector, held=True)
    for i in one_shots:
        holds.release(out[i].resource_id, out[i].connector)
    return Allocation(out)
