"""Finite presentations of Higgs objects.

A model is one object together with a declared finite lattice of invariant
subobjects, each carrying quotient bookkeeping.  Chains of line bundles on a
curve are the fully computed generator: their field-invariant coordinate
subobjects are enumerated from the arrow pattern, not declared by hand.
Stability predicates elsewhere quantify over the declared family only; the
family_complete flag records whether that family is claimed exhaustive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import combinations
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
    this one.
    """

    id: str
    data: NumericalSheafData
    quotient: NumericalSheafData
    quotient_torsion_part: Optional[NumericalSheafData] = None
    contains: FrozenSet[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "contains", frozenset(self.contains))


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
                raise ValueError("a subobject may not reuse the model id")
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


def enumerate_invariant_subobjects(spec: HiggsChainSpec) -> list[frozenset[int]]:
    """All proper nonempty arrow-closed index sets, in deterministic order.

    A coordinate subobject is invariant under the field exactly when its
    index set is closed under arrows: i in S and (i, j) an arrow forces
    j in S.  The empty set and the full set are omitted.
    """
    m = spec.size
    indices = range(1, m + 1)
    closed = []
    for size in range(1, m):
        for combo in combinations(indices, size):
            s = frozenset(combo)
            if all(j in s for i, j in spec.arrows if i in s):
                closed.append(s)
    return closed


def _check_arrows(spec: HiggsChainSpec) -> None:
    g = spec.ambient.genus
    d = spec.summand_degrees
    for i, j in sorted(spec.arrows):
        if d[i - 1] > d[j - 1] + (2 * g - 2):
            raise InvalidArrowError(
                f"arrow ({i}, {j}) needs degree {d[i - 1]} <= {d[j - 1] + 2 * g - 2}"
            )


def realize(spec: HiggsChainSpec, object_id: str = "E") -> HiggsObjectModel:
    """Build the model of a chain with its full coordinate subobject family."""
    _check_arrows(spec)
    kd = spec.ambient
    summands = [chi_curve(kd, 1, d) for d in spec.summand_degrees]
    total = reduce(sum_data, summands)
    closed = enumerate_invariant_subobjects(spec)
    entries = []
    for s in closed:
        inside = reduce(sum_data, (summands[i - 1] for i in sorted(s)))
        outside = reduce(
            sum_data,
            (summands[i - 1] for i in range(1, spec.size + 1) if i not in s),
        )
        below = frozenset(subset_id(t) for t in closed if t < s)
        entries.append(
            SubobjectEntry(
                id=subset_id(s), data=inside, quotient=outside, contains=below
            )
        )
    return HiggsObjectModel(
        id=object_id,
        ambient=kd,
        data=total,
        subobjects=tuple(entries),
        family_complete=True,
    )


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
    for e in model.subobjects:
        v = _entry_violation(model, e)
        if v is not None:
            violations.append(v)
    violations.extend(_containment_violations(model))
    return violations


def _containment_violations(model: HiggsObjectModel) -> list[Violation]:
    out = []
    ids = {e.id for e in model.subobjects}
    for e in model.subobjects:
        unknown = e.contains - ids
        if unknown:
            out.append(
                Violation(e.id, "Containment", f"contains unknown ids {sorted(unknown)}")
            )
            continue
        if e.id in e.contains:
            out.append(Violation(e.id, "Containment", "entry contains itself"))
    if out:
        return out
    # strict order: antisymmetric and transitive
    for e in model.subobjects:
        for mid in e.contains:
            inner = model.entry(mid)
            if e.id in inner.contains:
                out.append(
                    Violation(e.id, "Containment", f"containment cycle with {mid}")
                )
            if inner.data.rank > e.data.rank:
                out.append(Violation(e.id, "Containment", f"contains {mid} of larger rank"))
            elif inner.data.rank == e.data.rank and e.data.chi.eventually_less(inner.data.chi):
                # the torsion e/inner has chi zero or eventually positive
                out.append(
                    Violation(e.id, "Containment", f"contains {mid} of equal rank, larger chi")
                )
            missing = inner.contains - e.contains
            if missing:
                out.append(
                    Violation(
                        e.id,
                        "Containment",
                        f"not transitive: missing {sorted(missing)} below {mid}",
                    )
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

    def options(m: HiggsObjectModel):
        # (id, data, ids weakly below) with "0" for zero and m.id for the whole object
        zero_id, full_id = "0", m.id
        out = [(zero_id, ZERO_SHEAF, [zero_id])]
        for e in m.subobjects:
            out.append((e.id, e.data, [zero_id, e.id, *sorted(e.contains)]))
        out.append((full_id, m.data, [zero_id, *(e.id for e in m.subobjects), full_id]))
        return out

    left = list(options(a))
    right = list(options(b))
    pair_ok = lambda lid, rid: not (
        (lid == "0" and rid == "0") or (lid == a.id and rid == b.id)
    )

    total = sum_data(a.data, b.data)
    entries = []
    for lid, ldata, lbelow in left:
        for rid, rdata, rbelow in right:
            if not pair_ok(lid, rid):
                continue
            eid = f"{lid}(+){rid}"
            data = sum_data(ldata, rdata)
            lquot = _factor_quotient(a, lid)
            rquot = _factor_quotient(b, rid)
            quotient = sum_data(lquot[0], rquot[0])
            torsion = _merge_torsion(lquot[1], rquot[1])
            inside = frozenset(
                f"{l2}(+){r2}"
                for l2 in lbelow
                for r2 in rbelow
                if (l2, r2) != (lid, rid) and pair_ok(l2, r2)
            )
            entries.append(
                SubobjectEntry(
                    id=eid,
                    data=data,
                    quotient=quotient,
                    quotient_torsion_part=torsion,
                    contains=inside,
                )
            )
    return HiggsObjectModel(
        id=f"{a.id}(+){b.id}",
        ambient=a.ambient,
        data=total,
        subobjects=tuple(entries),
        family_complete=a.family_complete and b.family_complete,
    )


def _factor_quotient(m: HiggsObjectModel, part_id: str):
    """Quotient invariants of one factor by the given part, with torsion info."""
    if part_id == "0":
        return m.data, None
    if part_id == m.id:
        return ZERO_SHEAF, None
    e = m.entry(part_id)
    return e.quotient, e.quotient_torsion_part


def _merge_torsion(
    t1: Optional[NumericalSheafData], t2: Optional[NumericalSheafData]
) -> Optional[NumericalSheafData]:
    if t1 is None:
        return t2
    if t2 is None:
        return t1
    return sum_data(t1, t2)
