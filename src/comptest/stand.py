"""The virtual test stand's resource model and the allocation search.

A stand consists of resources (instruments described by the one method
they support and the valid parameter range) and a connection matrix that
wires resources to DUT pins through switch (``SwN.M``) and multiplexer
(``MxN.M``) connectors. For each step the interpreter asks ``allocate``
for a conflict-free assignment of requirements to resources.

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
from dataclasses import dataclass, field
from decimal import Decimal
from typing import Iterator, Mapping, Sequence

from .compiler import MethodInvocation
from .errors import AllocationError, SheetError, StandError
from .sheets import check_names, check_unique, method_class

#: Methods delivered over a bus instead of an electrical pin path.
BUS_METHODS = frozenset({"put_can"})

_CONNECTOR = re.compile(r"(Sw|Mx)([0-9]+)\.([0-9]+)\Z")
_KIND = {"Sw": "switch", "Mx": "mux"}
_PREFIX = {"switch": "Sw", "mux": "Mx"}


@dataclass(frozen=True)
class Connector:
    kind: str  # "switch" | "mux"
    group: int
    position: int
    #: (kind, group): the switch or multiplexer, engaged at one position at
    #: a time. Stored, as the search reads it for every candidate it checks.
    group_key: tuple[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "group_key", (self.kind, self.group))

    def __str__(self):
        return f"{_PREFIX[self.kind]}{self.group}.{self.position}"


def parse_connector(text: str) -> Connector:
    m = _CONNECTOR.match(text)
    if not m:
        raise ValueError(f"unknown connector syntax {text!r} "
                         f"(expected SwN.M or MxN.M)")
    return Connector(_KIND[m.group(1)], int(m.group(2)), int(m.group(3)))


@dataclass
class ResourceDef:
    """One resource: the method it supports and the valid parameter range.

    ``method`` and ``attribut`` must obey the name rule (``sheets.is_name``)
    and ``min`` must not exceed ``max``; construction raises SheetError (a
    ValueError) otherwise.
    """

    id: str
    method: str
    attribut: str
    min: Decimal
    max: Decimal
    unit: str = ""
    row: int | None = field(default=None, compare=False)

    def __post_init__(self):
        check_names(f"resource {self.id}", "resources", self.row,
                    method=self.method, attribut=self.attribut)
        if self.min > self.max:
            raise SheetError(f"resource {self.id}: min {self.min} > max "
                             f"{self.max}", sheet="resources", row=self.row,
                             column="min")


@dataclass
class ResourceTable:
    resources: list[ResourceDef]

    def __post_init__(self):
        check_unique(((res.id, {"row": res.row}) for res in self.resources),
                     "resource id", SheetError, sheet="resources",
                     column="res")
        self._by_id = {res.id: res for res in self.resources}

    def __iter__(self) -> Iterator[ResourceDef]:
        return iter(self.resources)

    def __len__(self):
        return len(self.resources)

    def __getitem__(self, rid: str) -> ResourceDef:
        return self._by_id[rid]

    def __contains__(self, rid: str):
        return rid in self._by_id


@dataclass
class ConnectionMatrix:
    """Resource-to-pin wiring. Pins are normalized to lowercase."""

    pins: list[str]
    rows: list[str]
    cells: dict[tuple[str, str], Connector]

    def connector_for(self, resource_id: str, pin: str) -> Connector | None:
        return self.cells.get((resource_id, pin))


@dataclass
class StandModel:
    resources: ResourceTable
    matrix: ConnectionMatrix

    #: pin -> the resources wired to it, with their connectors, in
    #: resource table row order (the search's candidate order).
    wired: dict[str, list[tuple[ResourceDef, Connector]]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        for rid in self.matrix.rows:
            if rid not in self.resources:
                raise StandError(f"connection matrix row '{rid}' is not in "
                                 f"the resource table")
        by_resource: dict[str, list[tuple[str, Connector]]] = {}
        for (rid, pin), conn in self.matrix.cells.items():
            by_resource.setdefault(rid, []).append((pin, conn))
        self.wired = {}
        for res in self.resources:
            for pin, conn in by_resource.get(res.id, ()):
                self.wired.setdefault(pin, []).append((res, conn))


@dataclass(frozen=True)
class Requirement:
    """One thing a step needs: an invocation delivered to one pin."""

    pin: str
    invocation: MethodInvocation
    signal: str | None = None


@dataclass
class Binding:
    requirement: Requirement
    delivery: str  # "resource" | "open_circuit" | "bus"
    resource_id: str | None = None
    connector: Connector | None = None
    held: bool = False


@dataclass
class Allocation:
    bindings: list[Binding]


def _range_offence(res: ResourceDef, inv: MethodInvocation) -> tuple[str, Decimal] | None:
    for name, value in inv.params.items():
        if isinstance(value, Decimal) and not (res.min <= value <= res.max):
            return name, value
    return None


def _static_reject(res: ResourceDef, req: Requirement,
                   matrix: ConnectionMatrix) -> str | None:
    """Reason this resource can never serve this requirement, else None."""
    if res.method != req.invocation.method:
        return f"no method (supports {res.method})"
    if matrix.connector_for(res.id, req.pin) is None:
        return "no connection"
    offence = _range_offence(res, req.invocation)
    if offence is not None:
        name, value = offence
        return f"range: {name}={value} outside [{res.min}, {res.max}]"
    return None


class _Engagements:
    """The exclusive bindings: who holds each resource and connector group."""

    def __init__(self):
        self.res: dict[str, str] = {}              # resource id -> pin
        self.grp: dict[tuple[str, int], str] = {}  # group -> pin

    def conflict(self, res_id: str, conn: Connector) -> str | None:
        if res_id in self.res:
            return f"conflict: resource holds a stimulus for pin {self.res[res_id]}"
        grp = conn.group_key
        if grp in self.grp:
            return (f"conflict: connector group {_PREFIX[conn.kind]}{conn.group} "
                    f"is engaged for pin {self.grp[grp]}")
        return None

    def engage(self, res_id: str, conn: Connector, pin: str):
        self.res[res_id] = pin
        self.grp[conn.group_key] = pin

    def release(self, res_id: str, conn: Connector):
        del self.res[res_id]
        del self.grp[conn.group_key]


def _augment(j: int, edges: Mapping[int, list[str]], owner: dict[str, int],
             seen: set[str]) -> bool:
    """Kuhn's augmenting path: give requirement ``j`` a resource from
    ``edges[j]``, moving the owners of taken ones along if that frees one.
    ``owner`` maps resource id -> requirement index."""
    for rid in edges[j]:
        if rid not in seen:
            seen.add(rid)
            if rid not in owner or _augment(owner[rid], edges, owner, seen):
                owner[rid] = j
                return True
    return False


class _Search:
    """Depth-first search over the free exclusive requirements, in the
    given order, that places the checks at each leaf (``_checks``).

    Before a node expands, every remaining requirement
    must get a resource of its own in a maximum matching whose edges join
    it to the statically usable resources that the engagements still allow.
    Before a node tries its second candidate, each must also get a
    connector group of its own in a matching over the groups of the same
    edges. A completion would give both, so a node that fails either check
    has none and is cut; as only subtrees without a solution are cut, the
    first solution in candidate order is the one found. The group check
    waits for a failed candidate, as most nodes' first candidate leads to
    the solution; a node whose groups are overcommitted still costs only
    the chain of first candidates below it.
    """

    def __init__(self, reqs: list[Requirement], free: list[int],
                 checks: list[int], stand: StandModel,
                 held: Mapping[str, Binding], engaged: _Engagements,
                 out: list[Binding | None]):
        self.reqs, self.free, self.checks = reqs, free, checks
        self.stand, self.held = stand, held
        self.engaged, self.out = engaged, out
        self.usable = {i: self._usable(reqs[i]) for i in free + checks}
        # depth, requirement, rejections of the deepest failed node
        self.deepest: tuple = (-1, None, None)

    def _prev(self, req: Requirement) -> str | None:
        prev = self.held.get(req.pin)
        return None if prev is None else prev.resource_id

    def _usable(self, req: Requirement) -> list[tuple[ResourceDef, Connector]]:
        """Statically usable resources: previous resource first, then row
        order."""
        usable = [(res, conn) for res, conn in self.stand.wired.get(req.pin, ())
                  if _static_reject(res, req, self.stand.matrix) is None]
        prev = self._prev(req)
        return sorted(usable, key=lambda pair: pair[0].id != prev)

    def _unmatched(self, k: int, groups: bool = False
                   ) -> tuple[int | None, dict]:
        """The first requirement from node ``k`` on that the matching
        leaves without a resource, or with ``groups`` without a connector
        group (None if there is none), and the matching: resource id or
        group key -> requirement index."""
        edges: dict[int, list] = {}
        owner: dict = {}
        for i in self.free[k:]:
            edges[i] = [conn.group_key if groups else res.id
                        for res, conn in self.usable[i]
                        if self.engaged.conflict(res.id, conn) is None]
            if not _augment(i, edges, owner, set()):
                return i, owner
        return None, owner

    def _record(self, k: int, req: Requirement, owner: dict[str, int] | None):
        """Record node ``k`` as the failure unless a deeper one is: ``req``
        and every resource, the tried ones leading to a dead end or, when
        the matching cut the node, needed for the pin the matching gave."""
        if k < self.deepest[0]:
            return
        stand = self.stand
        prev = self._prev(req)
        rejections: list[tuple[str, str]] = []
        for res in sorted(stand.resources, key=lambda res: res.id != prev):
            reason = _static_reject(res, req, stand.matrix)
            if reason is None:
                conn = stand.matrix.connector_for(res.id, req.pin)
                reason = self.engaged.conflict(res.id, conn)
            if reason is None:
                reason = ("conflict: leads to a dead end" if owner is None
                          else f"conflict: resource is needed for pin "
                               f"{self.reqs[owner[res.id]].pin}")
            rejections.append((res.id, reason))
        self.deepest = (k, req, rejections)

    def _checks(self) -> bool:
        """A leaf: each check takes its first usable resource that no
        exclusive binding holds; one without fails the leaf, at depth
        ``len(free)`` plus its place among the checks."""
        for p, i in enumerate(self.checks):
            for res, conn in self.usable[i]:
                if self.engaged.conflict(res.id, conn) is None:
                    self.out[i] = Binding(self.reqs[i], "resource", res.id, conn)
                    break
            else:
                self._record(len(self.free) + p, self.reqs[i], None)
                return False
        return True

    def solve(self, k: int) -> bool:
        if k == len(self.free):
            return self._checks()
        unmatched, owner = self._unmatched(k)
        if unmatched is not None:
            self._record(k, self.reqs[unmatched], owner)
            return False
        i = self.free[k]
        req = self.reqs[i]
        engaged = self.engaged
        tries = 0
        for res, conn in self.usable[i]:
            if engaged.conflict(res.id, conn) is not None:
                continue
            tries += 1
            if tries == 2 and self._unmatched(k, groups=True)[0] is not None:
                # Cut: the failed first candidate recorded a deeper node.
                break
            engaged.engage(res.id, conn, req.pin)
            self.out[i] = Binding(req, "resource", res.id, conn)
            if self.solve(k + 1):
                return True
            engaged.release(res.id, conn)
        self._record(k, req, None)
        return False


def allocate(requirements: Sequence[Requirement], stand: StandModel,
             held: Mapping[str, Binding] | None = None) -> Allocation:
    """Find a conflict-free binding for every requirement.

    ``held`` carries the stimulus bindings of the previous step by pin;
    those whose resource is not in ``stand`` are ignored. The caller alone
    decides what is unchanged, by identity: a held binding passed its own
    ``Requirement`` again is pinned (moving it would glitch a live signal)
    and comes back as is, or as a held copy if not yet held, without a
    second look at its invocation. Any other requirement, even an equal
    one, prefers the old resource but may move. The search is
    deterministic: resources are tried in table row order, the exclusive
    requirements (stimuli and one-shots) in the given order, and the result
    is the first assignment in that order. Checks are placed after every
    exclusive requirement: each takes its first usable resource no
    exclusive binding holds, or sends the search back. Bipartite matchings
    of the remaining exclusive requirements to resources and to connector
    groups (``_Search``) cut subtrees that hold no assignment, so an
    infeasible step fails in polynomial time wherever the resources alone
    or the connector groups alone are overcommitted. The allocation holds
    one binding per requirement, in the given order.

    Raises AllocationError naming the requirement at the deepest failed
    search node (for a node the resource matching cut, the requirement it
    left without a resource) and every candidate resource with its
    rejection reason.
    """
    held = {pin: b for pin, b in (held or {}).items()
            if b.resource_id in stand.resources}
    reqs = list(requirements)
    out: list[Binding | None] = [None] * len(reqs)
    engaged = _Engagements()
    free, checks = [], []  # indices: exclusive requirements, checks

    for i, req in enumerate(reqs):
        prev = held.get(req.pin)
        if prev is not None and prev.requirement is req:
            pinned = prev if prev.held else Binding(
                req, "resource", prev.resource_id, prev.connector, held=True)
        elif req.invocation.method in BUS_METHODS:
            out[i] = Binding(req, "bus")
            continue
        elif req.invocation.is_open_circuit():
            out[i] = Binding(req, "open_circuit")
            continue
        else:
            (checks if method_class(req.invocation.method) == "get"
             else free).append(i)
            continue
        clash = engaged.conflict(pinned.resource_id, pinned.connector)
        if clash is not None:
            raise AllocationError(pin=req.pin, method=req.invocation.method,
                                  parameter=None,
                                  candidates=[(pinned.resource_id, clash)])
        engaged.engage(pinned.resource_id, pinned.connector, req.pin)
        out[i] = pinned

    search = _Search(reqs, free, checks, stand, held, engaged, out)
    if not search.solve(0):
        _, req, rejections = search.deepest
        parameter = None
        for _, reason in rejections:
            if reason.startswith("range:"):
                parameter = reason.split(":", 1)[1].strip().split("=", 1)[0]
                break
        raise AllocationError(pin=req.pin, method=req.invocation.method,
                              parameter=parameter, candidates=rejections)
    return Allocation([b for b in out if b is not None])
