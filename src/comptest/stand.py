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
    themselves, but never with a held stimulus.

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

    @property
    def role(self) -> str | None:
        # "put", "get" or None for a one-shot. "get" bindings time-share;
        # everything else is exclusive.
        return method_class(self.invocation.method)


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

    def holds(self) -> dict[str, Binding]:
        """Put-class bindings: the stimuli that persist into the next step.
        One-shots are allocated for their own block only."""
        return {b.requirement.pin: b for b in self.bindings
                if b.delivery == "resource" and b.requirement.role == "put"}


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
    """Occupancy bookkeeping that supports get-class time-sharing."""

    def __init__(self):
        self.put_res: dict[str, str] = {}              # resource id -> pin
        self.get_res: dict[str, int] = {}              # resource id -> samples
        self.put_grp: dict[tuple[str, int], str] = {}  # group -> pin
        self.get_grp: dict[tuple[str, int], int] = {}

    def conflict(self, res_id: str, conn: Connector, role: str) -> str | None:
        if res_id in self.put_res:
            return f"conflict: resource holds a stimulus for pin {self.put_res[res_id]}"
        if role != "get" and self.get_res.get(res_id, 0):
            return "conflict: resource is sampling checks this step"
        grp = conn.group_key
        if grp in self.put_grp:
            return (f"conflict: connector group {_PREFIX[conn.kind]}{conn.group} "
                    f"is engaged for pin {self.put_grp[grp]}")
        if role != "get" and self.get_grp.get(grp, 0):
            return (f"conflict: connector group {_PREFIX[conn.kind]}{conn.group} "
                    f"is sampling checks this step")
        return None

    def engage(self, res_id: str, conn: Connector, role: str, pin: str):
        grp = conn.group_key
        if role == "get":
            self.get_res[res_id] = self.get_res.get(res_id, 0) + 1
            self.get_grp[grp] = self.get_grp.get(grp, 0) + 1
        else:
            self.put_res[res_id] = pin
            self.put_grp[grp] = pin

    def release(self, res_id: str, conn: Connector, role: str):
        grp = conn.group_key
        if role == "get":
            self.get_res[res_id] -= 1
            self.get_grp[grp] -= 1
        else:
            del self.put_res[res_id]
            del self.put_grp[grp]


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
    """Depth-first search over the free requirements, in the given order.

    Before a node expands, every remaining exclusive (non-get) requirement
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
                 stand: StandModel, held: Mapping[str, Binding],
                 engaged: _Engagements, out: list[Binding | None]):
        self.reqs, self.free, self.stand, self.held = reqs, free, stand, held
        self.engaged, self.out = engaged, out
        self.roles = {i: reqs[i].role for i in free}
        self.usable = {i: self._usable(reqs[i]) for i in free}
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
        first = [pair for pair in usable if pair[0].id == prev]
        return first + [pair for pair in usable if pair[0].id != prev]

    def _unmatched(self, k: int, groups: bool = False
                   ) -> tuple[int | None, dict]:
        """The first exclusive requirement from node ``k`` on that the
        matching leaves without a resource, or with ``groups`` without a
        connector group (None if there is none), and the matching: resource
        id or group key -> requirement index."""
        edges: dict[int, list] = {}
        owner: dict = {}
        for i in self.free[k:]:
            role = self.roles[i]
            if role == "get":
                continue
            edges[i] = [conn.group_key if groups else res.id
                        for res, conn in self.usable[i]
                        if self.engaged.conflict(res.id, conn, role) is None]
            if not _augment(i, edges, owner, set()):
                return i, owner
        return None, owner

    def _record(self, k: int, req: Requirement, owner: dict[str, int] | None):
        """Record node ``k`` as the failure, naming ``req`` and every
        resource: the tried ones led to a dead end, or, when the matching
        cut the node, are needed for the pin the matching gave them."""
        stand = self.stand
        prev = self._prev(req)
        ordered = list(stand.resources)
        if prev is not None:
            ordered = ([stand.resources[prev]]
                       + [res for res in ordered if res.id != prev])
        rejections: list[tuple[str, str]] = []
        for res in ordered:
            reason = _static_reject(res, req, stand.matrix)
            if reason is None:
                conn = stand.matrix.connector_for(res.id, req.pin)
                reason = self.engaged.conflict(res.id, conn, req.role)
            if reason is None:
                reason = ("conflict: leads to a dead end" if owner is None
                          else f"conflict: resource is needed for pin "
                               f"{self.reqs[owner[res.id]].pin}")
            rejections.append((res.id, reason))
        self.deepest = (k, req, rejections)

    def solve(self, k: int) -> bool:
        if k == len(self.free):
            return True
        unmatched, owner = self._unmatched(k)
        if unmatched is not None:
            if k >= self.deepest[0]:
                self._record(k, self.reqs[unmatched], owner)
            return False
        i = self.free[k]
        req, role = self.reqs[i], self.roles[i]
        engaged = self.engaged
        tries = 0
        for res, conn in self.usable[i]:
            if engaged.conflict(res.id, conn, role) is not None:
                continue
            tries += 1
            if tries == 2 and self._unmatched(k, groups=True)[0] is not None:
                # Cut: the failed first candidate recorded a deeper node.
                break
            engaged.engage(res.id, conn, role, req.pin)
            self.out[i] = Binding(req, "resource", res.id, conn)
            if self.solve(k + 1):
                return True
            engaged.release(res.id, conn, role)
            self.out[i] = None
        if k >= self.deepest[0]:
            self._record(k, req, None)
        return False


def allocate(requirements: Sequence[Requirement], stand: StandModel,
             held: Mapping[str, Binding] | None = None) -> Allocation:
    """Find a conflict-free binding for every requirement.

    ``held`` carries the stimulus bindings of the previous step; those
    whose resource is not in ``stand`` are ignored. A held stimulus whose
    value is unchanged keeps its binding (moving it would glitch a live
    signal); a changed stimulus prefers its old resource but may move. The
    search is deterministic: resources are tried in table row order,
    requirements in the given order, and the result is the first assignment
    in that order. Bipartite matchings of the remaining
    requirements to resources and to connector groups (``_Search``) cut
    subtrees that hold no assignment, so an infeasible step fails in
    polynomial time wherever the resources alone or the connector groups
    alone are overcommitted. The allocation holds one binding per
    requirement, in the given order. A held binding that is passed its own
    requirement again comes back as the same object, with its invocation
    not compared or range-checked again.

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
    free: list[int] = []

    for i, req in enumerate(reqs):
        prev = held.get(req.pin)
        if prev is not None and prev.held and prev.requirement is req:
            # Pinned in the previous step and passed again: the same
            # binding, without a second look at the requirement.
            pinned = prev
        elif req.invocation.method in BUS_METHODS:
            out[i] = Binding(req, "bus")
            continue
        elif req.invocation.is_open_circuit():
            out[i] = Binding(req, "open_circuit")
            continue
        elif (prev is not None
              and prev.requirement.invocation == req.invocation):
            # Unchanged held stimulus: the binding is pinned.
            pinned = Binding(req, "resource", prev.resource_id,
                             prev.connector, held=True)
        else:
            free.append(i)
            continue
        role = req.role
        clash = engaged.conflict(pinned.resource_id, pinned.connector, role)
        if clash is not None:
            raise AllocationError(pin=req.pin, method=req.invocation.method,
                                  parameter=None,
                                  candidates=[(pinned.resource_id, clash)])
        engaged.engage(pinned.resource_id, pinned.connector, role, req.pin)
        out[i] = pinned

    search = _Search(reqs, free, stand, held, engaged, out)
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
