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
from functools import cache, cached_property, partial, reduce
from operator import or_
from typing import FrozenSet, Iterable, Optional

from .chern import (
    KahlerData,
    NumericalSheafData,
    ZERO_SHEAF,
    chi_curve,
    leading_term_violations,
    sum_data,
)
from .hilbert import HilbertPolynomial


class InvalidArrowError(ValueError):
    """An arrow asks for a map that no nonzero section can realize."""


class AmbientMismatchError(ValueError):
    """Two models over different ambient data cannot be combined."""


@dataclass(frozen=True)
class SubobjectEntry:
    """One declared subobject F with the invariants of F and of E/F.

    quotient_torsion_part, when present, is the rank-zero torsion of the
    quotient; contains lists the ids of declared subobjects strictly below
    this one.  A realized chain entry also keeps its arrow-closed mask and the
    chain's shared mask -> label table, and reads contains off them when first asked.
    """

    id: str
    data: NumericalSheafData
    quotient: NumericalSheafData
    quotient_torsion_part: Optional[NumericalSheafData] = None
    contains: FrozenSet[str] = field(default_factory=frozenset)
    mask: Optional[int] = field(default=None, init=False, repr=False, compare=False)
    labels: Optional[dict] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "contains", frozenset(self.contains))

    @classmethod
    def realized(cls, mask: int, labels: dict, data, quotient) -> SubobjectEntry:
        """The chain entry labels[mask]; unlike __init__, this leaves contains unset."""
        e = cls.__new__(cls)
        vars(e).update(id=labels[mask], data=data, quotient=quotient, quotient_torsion_part=None)
        vars(e).update(mask=mask, labels=labels)
        return e

    def __getattr__(self, name):
        """Reached only by the first read of a realized entry's contains."""
        mask = vars(self).get("mask")
        if name != "contains" or mask is None:
            raise AttributeError(name)
        below, sub = [], (mask - 1) & mask
        while sub:  # every nonempty proper submask; the closed ones are below
            below.append(self.labels.get(sub))
            sub = (sub - 1) & mask
        contains = vars(self)["contains"] = frozenset(below) - {None}
        return contains


@dataclass(frozen=True, eq=False)
class HiggsObjectModel:
    """An object plus its declared subobject lattice.

    The trivial subobjects (zero and the object itself) are implicit and
    never listed.  Entries are kept sorted by id so every downstream scan is
    deterministic.  The model is frozen, so its invariant failures are
    computed once, on first use of `violations`.
    """

    id: str
    ambient: KahlerData
    data: NumericalSheafData
    subobjects: tuple[SubobjectEntry, ...]
    family_complete: bool = False
    _index: dict = field(init=False, repr=False, default=None)

    def __post_init__(self):
        entries = tuple(sorted(self.subobjects, key=lambda e: e.id))
        object.__setattr__(self, "subobjects", entries)
        index = {}
        for e in entries:
            if e.id in index:
                raise ValueError(f"duplicate subobject id {e.id!r}")
            if e.id == self.id:
                raise ValueError(f"a subobject may not reuse the model id {e.id!r}")
            index[e.id] = e
        object.__setattr__(self, "_index", index)

    def entry(self, entry_id: str) -> SubobjectEntry:
        return self._index[entry_id]

    def has_entry(self, entry_id: str) -> bool:
        return entry_id in self._index

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


@dataclass(frozen=True)
class Violation:
    """One failed invariant: where it happened, what failed, and a detail."""

    subject: str
    kind: str
    detail: str

    def __str__(self) -> str:
        return f"{self.subject}: {self.kind} ({self.detail})"


def subset_id(members: Iterable[int]) -> str:
    return "{" + ",".join(str(i) for i in sorted(members)) + "}"


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

    Each such mask gets one label string, shared by every contains, and each
    distinct (rank, degree) one sheaf, shared by every entry.
    """
    _check_arrows(spec)
    kd, m, degrees = spec.ambient, spec.size, spec.summand_degrees
    part, total = cache(partial(chi_curve, kd)), sum(degrees)  # one sheaf per (rank, degree)
    arrows = [(1 << (i - 1), 1 << (j - 1)) for i, j in spec.arrows]  # bit i-1 for summand i
    labels, entries = {}, []
    closed = (s for s in range(1, (1 << m) - 1) if all(s & j for i, j in arrows if s & i))
    for mask in closed:
        members = [i + 1 for i in range(m) if mask >> i & 1]
        labels[mask] = "{" + ",".join(map(str, members)) + "}"
        r, d = len(members), sum([degrees[i - 1] for i in members])
        entries.append(SubobjectEntry.realized(mask, labels, part(r, d), part(m - r, total - d)))
    return HiggsObjectModel(object_id, kd, part(m, total), tuple(entries), family_complete=True)


def chain_sum(a: HiggsChainSpec, b: HiggsChainSpec) -> HiggsChainSpec:
    """The chain of a + b: a's summands, then b's, with b's arrows shifted by a.size."""
    if a.ambient != b.ambient:
        raise AmbientMismatchError("direct sum needs a common ambient")
    arrows = a.arrows | {(i + a.size, j + a.size) for i, j in b.arrows}
    return HiggsChainSpec(a.ambient, a.summand_degrees + b.summand_degrees, arrows)


def _entry_violation(
    model: HiggsObjectModel, e: SubobjectEntry
) -> Optional[Violation]:
    """First failed invariant of one entry, checked coarse to fine."""
    total = model.data
    if not (0 <= e.data.rank <= total.rank):
        return Violation(e.id, "RankRange", f"rank {e.data.rank} outside 0..{total.rank}")
    if e.data.rank + e.quotient.rank != total.rank:
        return Violation(
            e.id,
            "RankAdditivity",
            f"{e.data.rank} + {e.quotient.rank} != {total.rank}",
        )
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
    violations = []
    if not model.data.torsion_free:
        violations.append(
            Violation(model.id, "ModelTorsionFree", "stability needs a torsion-free object")
        )
    for problem in leading_term_violations(model.data, model.ambient):
        violations.append(Violation(model.id, "LeadingCoefficient", problem))
    first = {}  # (data, quotient, torsion part) by identity -> its check, run once
    for e in model.subobjects:
        key = (id(e.data), id(e.quotient), id(e.quotient_torsion_part))
        v = first[key] = first[key] if key in first else _entry_violation(model, e)
        if v is not None:
            violations.append(replace(v, subject=e.id))
    violations.extend(_containment_violations(model))
    return violations


def _containment_violations(model: HiggsObjectModel) -> list[Violation]:
    """Unknown and self ids, else the order checks of each entry failing the bit screen.

    One chain's realized entries, each of its mask's rank, pass outright: strict
    inclusion of closed masks is transitive, acyclic and raises the rank.
    """
    entries = model.subobjects
    table = entries[0].labels if entries else None
    if table and len(table) == len(entries) and all(
        e.labels is table and e.data.rank == e.mask.bit_count() for e in entries
    ):
        return []
    bit = {e.id: 1 << i for i, e in enumerate(entries)}
    try:
        below = {e.id: sum(map(bit.__getitem__, e.contains)) for e in entries}
    except KeyError:  # an unknown id
        below = None
    out = []
    if below is None or any(below[e.id] & bit[e.id] for e in entries):
        for e in entries:
            unknown = e.contains - bit.keys()
            if unknown:
                out.append(
                    Violation(e.id, "Containment", f"contains unknown ids {sorted(unknown)}")
                )
                continue
            if e.id in e.contains:
                out.append(Violation(e.id, "Containment", "entry contains itself"))
        return out
    at_least, acc = {}, 0  # rank r -> mask of the entries of rank r or more
    for e in sorted(entries, key=lambda e: -e.data.rank):
        at_least[e.data.rank] = acc = acc | bit[e.id]
    # A passing entry's members' members are its members, all of lower rank: it fails no
    # order check, and lies on no cycle, which would put it in its own contains.
    for e in entries:
        mask = below[e.id]
        if reduce(or_, map(below.__getitem__, e.contains), mask) == mask & ~at_least[e.data.rank]:
            continue
        for mid in sorted(e.contains):
            inner = model.entry(mid)
            if e.id in inner.contains:
                out.append(Violation(e.id, "Containment", f"containment cycle with {mid}"))
            if inner.data.rank > e.data.rank:
                out.append(Violation(e.id, "Containment", f"contains {mid} of larger rank"))
            elif inner.data.rank == e.data.rank and e.data.chi.eventually_less(inner.data.chi):
                # the torsion e/inner has chi zero or eventually positive
                out.append(
                    Violation(e.id, "Containment", f"contains {mid} of equal rank, larger chi")
                )
            if not inner.contains <= e.contains:
                missing = sorted(inner.contains - e.contains)
                out.append(
                    Violation(e.id, "Containment", f"not transitive: missing {missing} below {mid}")
                )
    return out


def _is_zero_model(m: HiggsObjectModel) -> bool:
    return m.data.rank == 0 and m.data.chi.is_zero


def direct_sum_model(a: HiggsObjectModel, b: HiggsObjectModel) -> HiggsObjectModel:
    """Model of a + b whose family is the product of the two families.

    Every pair (F, G) of declared-or-trivial subobjects contributes F + G,
    except the zero and total combinations; in particular a + 0 and 0 + b are
    entries.  Mixed "graph" subobjects are not representable here: the
    classical reduction replaces any such subobject by its intersection and
    projection, both of which this family carries.
    """
    if a.ambient != b.ambient:
        raise AmbientMismatchError("direct sum needs a common ambient")
    if _is_zero_model(b):
        return a
    if _is_zero_model(a):
        return b
    for m in (a, b):
        if m.id == "0" or m.has_entry("0"):
            raise ValueError('the id "0" is reserved for the zero subobject')
    left, right = _parts(a), _parts(b)
    label = {(lid, rid): f"{lid}(+){rid}" for lid, *_ in left for rid, *_ in right}
    del label["0", "0"], label[a.id, b.id]  # the zero and total combinations
    sums, entries = {}, []  # sums by operand identity: shared sheaves give shared sums

    def add(x, y):  # so that _scan checks each distinct sum triple once
        if (key := (id(x), id(y))) not in sums:
            sums[key] = sum_data(x, y)
        return sums[key]

    for lid, ldata, lquot, ltors, lbelow in left:
        for rid, rdata, rquot, rtors, rbelow in right:
            eid = label.get((lid, rid))
            if eid is None:
                continue
            inside = {label.get((l2, r2)) for l2 in lbelow for r2 in rbelow} - {None, eid}
            tors = add(ltors, rtors) if ltors and rtors else ltors or rtors
            entries.append(SubobjectEntry(eid, add(ldata, rdata), add(lquot, rquot), tors, inside))
    return HiggsObjectModel(
        id=f"{a.id}(+){b.id}",
        ambient=a.ambient,
        data=sum_data(a.data, b.data),
        subobjects=tuple(entries),
        family_complete=a.family_complete and b.family_complete,
    )


def _parts(m: HiggsObjectModel) -> list[tuple]:
    """(id, data, quotient, torsion part, ids weakly below) for zero, each entry and m."""
    entries = m.subobjects
    return [
        ("0", ZERO_SHEAF, m.data, None, ("0",)),
        *((e.id, e.data, e.quotient, e.quotient_torsion_part, ("0", e.id, *e.contains))
          for e in entries),
        (m.id, m.data, ZERO_SHEAF, None, ("0", *(e.id for e in entries), m.id)),
    ]
