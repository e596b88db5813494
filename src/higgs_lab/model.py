"""Finite presentations of Higgs objects.

A model is one object together with a declared finite lattice of invariant
subobjects, each carrying quotient bookkeeping.  Chains of line bundles on a
curve are the fully computed generator: their field-invariant coordinate
subobjects are enumerated from the arrow pattern, not declared by hand.
Stability predicates elsewhere quantify over the declared family only; the
family_complete flag records whether that family is claimed exhaustive.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property, reduce
from itertools import repeat
from math import inf
from operator import attrgetter, or_
from typing import FrozenSet, Optional

from .chern import KahlerData, NumericalSheafData, chi_curve, leading_term_violations
from .hilbert import HilbertPolynomial


class InvalidArrowError(ValueError):
    """An arrow asks for a map that no nonzero section can realize."""


class AmbientMismatchError(ValueError):
    """Two models over different ambient data cannot be combined."""


class RealizeBoundError(ValueError):
    """A chain has more index sets than realize walks."""


REALIZE_MASK_BOUND = 1 << 16  # index sets realize walks: chains of up to 16 summands


@dataclass(slots=True, unsafe_hash=True)
class SubobjectEntry:
    """One declared subobject F with the invariants of F and of E/F.

    quotient_torsion_part, when present, is the rank-zero torsion of the quotient.  a lies
    strictly below b exactly when a.key & ~b.key == 0 and a is not b.  names, the dict from key
    to id that a lattice's entries share, gives contains: the ids whose keys lie in this key.
    An entry built by hand passes its claims, the ids below it, which its model turns into
    keys (see declared_entries).  Records are never mutated once built: a convention,
    unenforced, that the value hash needs.
    """

    id: str
    data: NumericalSheafData
    quotient: NumericalSheafData
    quotient_torsion_part: Optional[NumericalSheafData] = None
    claims: Optional[FrozenSet[str]] = field(default=None, repr=False)
    key: Optional[int] = None
    names: Optional[dict] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.claims is not None or self.key is None:
            self.claims = frozenset(self.claims or ())

    @property
    def contains(self) -> FrozenSet[str]:
        """The ids strictly below: the claims, else the names of the keys inside the key."""
        if self.claims is not None:
            return self.claims
        key = self.key
        return frozenset(i for k, i in self.names.items() if k & key == k) - {self.id}


@dataclass(frozen=True, eq=False)
class HiggsObjectModel:
    """An object plus its declared subobject lattice.

    The trivial subobjects (zero and the object itself) are implicit and
    never listed.  Entries are kept sorted by id so every downstream scan is
    deterministic.  The model is frozen, so `distinct`, `violations` and the named tables
    `_memo` keeps (verdicts by formulation, the entries below each upper, quotients by pair
    of sheaves) are computed once, on first use.
    """

    id: str
    ambient: KahlerData
    data: NumericalSheafData
    subobjects: tuple[SubobjectEntry, ...]
    family_complete: bool = False
    _index: dict = field(init=False, repr=False, default=None)
    _unsound: FrozenSet[str] = field(init=False, repr=False, default=frozenset())
    _memo: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        entries = tuple(sorted(self.subobjects, key=attrgetter("id")))
        index = {e.id: e for e in entries}
        if len(index) < len(entries) or self.id in index:  # name the first in id order
            seen = set()
            for e in entries:
                if e.id in seen:
                    raise ValueError(f"duplicate subobject id {e.id!r}")
                if e.id == self.id:
                    raise ValueError(f"a subobject may not reuse the model id {e.id!r}")
                seen.add(e.id)
        shared = entries[0].names if entries else {}
        if shared is None or len(shared) != len(entries) or any(
            e.names is not shared or e.claims is not None for e in entries
        ):  # keys from one table of exactly these entries stand; any others are redone
            entries, unsound = declared_entries(
                [(e.id, e.data, e.quotient, e.quotient_torsion_part, e.contains) for e in entries]
            )
            object.__setattr__(self, "_unsound", unsound)
            index = {e.id: e for e in entries}
        object.__setattr__(self, "subobjects", entries)
        object.__setattr__(self, "_index", index)

    def entry(self, entry_id: str) -> SubobjectEntry:
        return self._index[entry_id]

    def has_entry(self, entry_id: str) -> bool:
        return entry_id in self._index

    @cached_property
    def distinct(self) -> tuple[SubobjectEntry, ...]:
        """The first entry, in id order, of each distinct (data, quotient, torsion part)
        triple by identity: entries share sheaves, and each is decided on this entry alone."""
        first = {}
        for e in self.subobjects:
            first.setdefault((id(e.data), id(e.quotient), id(e.quotient_torsion_part)), e)
        return tuple(first.values())

    @cached_property
    def violations(self) -> tuple[Violation, ...]:
        """Every invariant failure of this model; see validate."""
        return tuple(_scan(self))


@dataclass(frozen=True)
class HiggsChainSpec:
    """A direct sum of line bundles on a curve with a field given by arrows.

    summand_degrees[i-1] is the degree of the i-th line bundle; an arrow
    (i, j) declares a nonzero component from summand i into summand j
    twisted by the canonical bundle.  On a curve there is no wedge
    obstruction, so any arrow pattern is integrable.
    """

    ambient: KahlerData
    summand_degrees: tuple[int, ...]
    arrows: FrozenSet[tuple[int, int]] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "summand_degrees", tuple(self.summand_degrees))
        object.__setattr__(
            self, "arrows", frozenset((int(i), int(j)) for i, j in self.arrows)
        )
        if self.ambient.n != 1:
            raise ValueError("chains live on curves")
        if not self.summand_degrees:
            raise ValueError("a chain needs at least one summand")
        m = len(self.summand_degrees)
        for i, j in self.arrows:
            if not (1 <= i <= m and 1 <= j <= m):
                raise ValueError(f"arrow ({i}, {j}) indexes outside 1..{m}")

    @property
    def size(self) -> int:
        return len(self.summand_degrees)


@dataclass(slots=True, unsafe_hash=True)
class Violation:
    """One failed invariant: where it happened, what failed, and a detail."""

    subject: str
    kind: str
    detail: str

    def __str__(self) -> str:
        return f"{self.subject}: {self.kind} ({self.detail})"


def declared_entries(rows: list[tuple]) -> tuple[tuple[SubobjectEntry, ...], FrozenSet[str]]:
    """Entries from (id, data, quotient, torsion part, contains ids) rows, and the unsound ids.

    A key is the entry's bit, in id order, OR its members' bits.  Shorter lists go
    first, so a sound entry's members' keys OR to its ids' bits (as many as its ids,
    all distinct, not its own).  Any other entry is unsound; then all keep their ids.
    """
    bit = {eid: 1 << i for i, eid in enumerate(sorted(row[0] for row in rows))}
    keys, unsound = {}, set()
    for eid, *_, ids in sorted(rows, key=lambda row: len(row[-1])):
        try:
            below = reduce(or_, map(keys.__getitem__, ids), 0)
            sound = below.bit_count() == len(ids) == len(set(ids))
        except KeyError:
            sound = False
        if not sound:
            below = reduce(or_, map(bit.get, ids, repeat(0)), 0)
            unsound.add(eid)
        keys[eid] = below | bit[eid]
    names = None if unsound else {key: eid for eid, key in keys.items()}
    return tuple(
        SubobjectEntry(eid, data, quotient, torsion, ids if unsound else None, keys[eid], names)
        for eid, data, quotient, torsion, ids in rows
    ), frozenset(unsound)


def _check_arrows(spec: HiggsChainSpec) -> None:
    g = spec.ambient.genus
    d = spec.summand_degrees
    for i, j in sorted(spec.arrows):
        if d[i - 1] > d[j - 1] + (2 * g - 2):
            raise InvalidArrowError(
                f"arrow ({i}, {j}) needs degree {d[i - 1]} <= {d[j - 1] + 2 * g - 2}"
            )


def realize(spec: HiggsChainSpec, object_id: str = "E") -> HiggsObjectModel:
    """Build the model of a chain: one entry per proper nonempty arrow-closed index set.

    Each mask (bit i-1 for summand i) extends the mask without its lowest bit: its degree,
    the OR of its arrow targets (it is closed when that lies inside it) and, when both are
    closed, its label.  A closed mask is an entry's key, its label kept in a table the entries
    share; each distinct (rank, degree) gets one sheaf, in the ambient's table for all its
    chains, so `distinct` keeps one entry per sheaf.  More than REALIZE_MASK_BOUND masks are
    refused.
    """
    kd, m, degrees = spec.ambient, spec.size, spec.summand_degrees
    if 1 << m > REALIZE_MASK_BOUND:
        bound = f"realize walks at most {REALIZE_MASK_BOUND} masks"
        raise RealizeBoundError(f"{bound}, and {m} summands need 2^{m}")
    _check_arrows(spec)
    sheaves, total, full = kd.sheaves, sum(degrees), (1 << m) - 1
    get = sheaves.get  # a sheaf the table holds is read directly

    def part(key):  # the ambient's sheaf of this (rank, degree), built on first use
        return get(key) or sheaves.setdefault(key, chi_curve(kd, *key))

    targets = [0] * m  # summand i's arrow targets, as a mask
    for i, j in spec.arrows:
        targets[i - 1] |= 1 << (j - 1)
    need, degree = [0] * full, [0] * full  # by mask
    labels, entries = {}, []
    for mask in range(1, full):
        rest = mask & (mask - 1)
        i = (mask ^ rest).bit_length() - 1
        need[mask] = closure = need[rest] | targets[i]
        degree[mask] = d = degree[rest] + degrees[i]
        if closure & ~mask:
            continue
        below = labels.get(rest)  # set when rest is closed: then its label ends this one's
        labels[mask] = label = (f"{{{i + 1},{below[1:]}" if below else "{" + ",".join(
            str(k + 1) for k in range(i, m) if mask >> k & 1) + "}")
        sub, quotient = (r := mask.bit_count(), d), (m - r, total - d)
        entries.append(SubobjectEntry(label, get(sub) or part(sub),
                                      get(quotient) or part(quotient), None, None, mask, labels))
    return HiggsObjectModel(object_id, kd, part((m, total)), tuple(entries), family_complete=True)


def chain_sum(a: HiggsChainSpec, b: HiggsChainSpec) -> HiggsChainSpec:
    """The chain of a + b: a's summands, then b's, with b's arrows shifted by a.size."""
    if a.ambient != b.ambient:
        raise AmbientMismatchError("direct sum needs a common ambient")
    arrows = a.arrows | {(i + a.size, j + a.size) for i, j in b.arrows}
    return HiggsChainSpec(a.ambient, a.summand_degrees + b.summand_degrees, arrows)


def chain_semistable(spec: HiggsChainSpec) -> bool:
    """Whether no arrow-closed index set S of the chain has m·deg S > |S|·deg E.

    On a curve Gieseker order is average-degree order, so this is the chain's semistability,
    decided without its lattice.  With weights w_i = m·d_i - deg E it asks whether some closed
    set has positive weight: a maximum-weight closure, one minimum s-t cut (Picard 1976).  The
    network has arcs s->i of capacity w_i > 0 and i->t of capacity -w_i, and per arrow an arc
    i->j of capacity P, the sum of the positive weights.  A cut through an arrow costs at least
    P, the cut around s alone, so a minimum cut's source side is s and a closed set S, of cost
    P - w(S).  The chain is semistable exactly when the minimum cut costs P: when a maximum
    flow, found by shortest augmenting paths (Edmonds-Karp), saturates every source arc.
    """
    _check_arrows(spec)
    m, degrees, total = spec.size, spec.summand_degrees, sum(spec.summand_degrees)
    weights = [m * d - total for d in degrees]
    need = sum(w for w in weights if w > 0)  # the flow still to push out of s
    s, t = 0, m + 1  # summand i is node i
    residual = [{} for _ in range(m + 2)]
    arcs = [(s, i, w) if w > 0 else (i, t, -w) for i, w in enumerate(weights, 1) if w]
    for u, v, c in arcs + [(i, j, need) for i, j in spec.arrows]:
        residual[u][v] = residual[u].get(v, 0) + c
        residual[v].setdefault(u, 0)
    while need:
        parent, queue = {s: s}, [s]
        for u in queue:  # breadth first; the queue grows as it is read
            for v, c in residual[u].items():
                if c and v not in parent:
                    parent[v] = u
                    queue.append(v)
            if t in parent:
                break
        else:
            return False
        path, v = [], t
        while v != s:
            path.append((parent[v], v))
            v = parent[v]
        push = min(residual[u][v] for u, v in path)
        for u, v in path:
            residual[u][v] -= push
            residual[v][u] += push
        need -= push
    return True


def _entry_violation(
    model: HiggsObjectModel, e: SubobjectEntry
) -> Optional[Violation]:
    """First failed invariant of one entry, checked coarse to fine."""
    total = model.data
    if not (0 <= e.data.rank <= total.rank):
        return Violation(e.id, "RankRange", f"rank {e.data.rank} outside 0..{total.rank}")
    if e.data.rank + e.quotient.rank != total.rank:
        detail = f"{e.data.rank} + {e.quotient.rank} != {total.rank}"
        return Violation(e.id, "RankAdditivity", detail)
    if e.data.chi + e.quotient.chi != total.chi:
        return Violation(e.id, "ChiAdditivity", "chi_F + chi_Q differs from chi_E")
    for label, part in (("subobject", e.data), ("quotient", e.quotient)):
        for problem in leading_term_violations(part, model.ambient):
            return Violation(e.id, "LeadingCoefficient", f"{label}: {problem}")
    if e.data.rank > 0 and not e.data.torsion_free:
        return Violation(e.id, "TorsionSubobject", "a subobject of positive rank is torsion")
    if e.data.rank == 0 and not e.data.chi.is_zero:
        return Violation(e.id, "TorsionSubobject", "a nonzero subobject of rank zero is torsion")
    q = e.quotient  # of rank zero: zero, or torsion with eventually positive chi
    if q.rank == 0 and not q.chi.is_zero:
        if q.torsion_free or not HilbertPolynomial().eventually_less(q.chi):
            return Violation(e.id, "TorsionQuotient", "rank-zero quotient is not 0 or torsion")
    if not q.torsion_free:
        t = e.quotient_torsion_part
        if t is None:
            return Violation(e.id, "TorsionPart", "torsion quotient lacks its torsion part")
        if t.rank != 0:
            return Violation(e.id, "TorsionPart", "torsion part must have rank zero")
        if not HilbertPolynomial().eventually_less(t.chi):
            return Violation(e.id, "TorsionPart", "torsion part chi must be eventually positive")
        for problem in leading_term_violations(t, model.ambient):
            return Violation(e.id, "LeadingCoefficient", f"torsion part: {problem}")
    elif e.quotient_torsion_part is not None:
        return Violation(e.id, "TorsionPart", "torsion-free quotient carries a torsion part")
    return None


def validate(model: HiggsObjectModel) -> list[Violation]:
    """All independently detectable invariant failures; empty means coherent.

    Per entry only the first failed check is reported (later checks are
    implied by earlier ones under exact arithmetic), so a single planted
    defect yields a single violation.  The scan runs once per model; each
    call returns a fresh list.
    """
    return list(model.violations)


def _scan(model: HiggsObjectModel) -> list[Violation]:
    violations = [] if model.data.torsion_free else [
        Violation(model.id, "ModelTorsionFree", "stability needs a torsion-free object")]
    for problem in leading_term_violations(model.data, model.ambient):
        violations.append(Violation(model.id, "LeadingCoefficient", problem))
    failed = {(e.data, e.quotient, e.quotient_torsion_part): v
              for e in model.distinct if (v := _entry_violation(model, e))}
    if failed:  # name every entry whose triple fails: a violation reads the three sheaves alone
        violations += [replace(failed[key], subject=e.id) for e in model.subobjects
                       if (key := (e.data, e.quotient, e.quotient_torsion_part)) in failed]
    violations.extend(_containment_violations(model))
    return violations


def _containment_violations(model: HiggsObjectModel) -> list[Violation]:
    """Unknown and self ids, else the order checks of each entry failing the key screen.

    A sound entry passes when no entry of its rank or more has a key of fewer bits:
    its members' keys lie strictly inside its own, so have fewer bits and lower rank.
    One that fails walks only the entries of its rank or more, the only members that
    can break the rank order.  Only an unsound entry can close a cycle or miss an id
    below a member; it walks its contains.
    """
    entries, out = model.subobjects, []
    for e in map(model.entry, sorted(model._unsound)):
        unknown = e.contains - model._index.keys()
        if unknown:
            out.append(Violation(e.id, "Containment", f"contains unknown ids {sorted(unknown)}"))
        elif e.id in e.contains:
            out.append(Violation(e.id, "Containment", "entry contains itself"))
    if out:
        return out
    least = {}  # rank r -> fewest key bits of an entry of rank r, then of rank r or more
    for e in entries:
        if least.get(rank := e.data.rank, inf) > (bits := e.key.bit_count()):
            least[rank] = bits
    fewest = inf
    for rank in sorted(least, reverse=True):
        least[rank] = fewest = min(fewest, least[rank])
    at_least = None  # rank r -> the entries of rank r or more, in id order, built on first use
    for e in entries:
        if e.key.bit_count() <= least[e.data.rank] and e.id not in model._unsound:
            continue
        if unsound := e.id in model._unsound:
            inside = map(model.entry, sorted(e.contains))
        else:  # a sound entry contains exactly the entries whose keys lie inside its own
            at_least = at_least or {r: [x for x in entries if x.data.rank >= r] for r in least}
            inside = (x for x in at_least[e.data.rank] if x.key & e.key == x.key and x is not e)
        for inner in inside:
            mid = inner.id
            if unsound and e.id in inner.contains:
                out.append(Violation(e.id, "Containment", f"containment cycle with {mid}"))
            if inner.data.rank > e.data.rank:
                out.append(Violation(e.id, "Containment", f"contains {mid} of larger rank"))
            elif inner.data.rank == e.data.rank and e.data.chi.eventually_less(inner.data.chi):
                # the torsion e/inner has chi zero or eventually positive
                out.append(
                    Violation(e.id, "Containment", f"contains {mid} of equal rank, larger chi")
                )
            if unsound and not inner.contains <= e.contains:
                missing = sorted(inner.contains - e.contains)
                out.append(
                    Violation(e.id, "Containment", f"not transitive: missing {missing} below {mid}")
                )
    return out
