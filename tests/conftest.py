"""Shared fixture builders: hand-computed models used across the test modules."""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import factorial

from higgs_lab import (
    EventualOrder,
    Filtration,
    FiltrationKind,
    HiggsChainSpec,
    HiggsObjectModel,
    KahlerData,
    MalformedPolynomialError,
    NumericalSheafData,
    PreconditionUnmetError,
    SubobjectEntry,
    Violation,
    ZERO_SHEAF,
    ZeroRankError,
    chi_curve,
    compare_p,
    gieseker_classify,
    normalized_p,
    realize,
    sum_data,
    verify_filtration,
)
from higgs_lab.fuzz import _draw
from higgs_lab.hilbert import HilbertPolynomial
from higgs_lab.model import declared_entries
from higgs_lab.modelfile import sheaf_to_json


def random_chain_spec(rng, max_rank, max_genus):
    """A seeded random chain on its own curve ambient, drawn as fuzz draws one."""
    genus, degrees, arrows = _draw(rng, max_rank, max_genus)
    return HiggsChainSpec(KahlerData.curve(genus, 1), degrees, arrows)


def volume(kd):
    """hn / n!, the leading coefficient of the structure sheaf's chi."""
    return kd.hn / factorial(kd.n)


def curve_chain(genus, deg_h, degrees, arrows=(), object_id="E"):
    spec = HiggsChainSpec(
        ambient=KahlerData.curve(genus, deg_h),
        summand_degrees=tuple(degrees),
        arrows=frozenset(arrows),
    )
    return realize(spec, object_id=object_id)


def poly(*coeffs):
    """Polynomial from lowest-degree coefficients."""
    return HilbertPolynomial(coeffs)


def fraction_order(p, q, rank_p=1, rank_q=1):
    """Oracle: eventual order of p/rank_p against q/rank_q, Fraction by Fraction.

    Scans coefficient(j) from the top degree down; the first difference decides.
    """
    for j in range(max(p.degree, q.degree), -1, -1):
        a, b = p.coefficient(j) / rank_p, q.coefficient(j) / rank_q
        if a != b:
            return EventualOrder.SUCCEEDS if a > b else EventualOrder.PRECEDES
    return EventualOrder.EQUAL


def fraction_leading_terms(s, kd):
    """Oracle: the top two coefficients of chi against rank, hn, deg_h and c1x_h, in Fractions."""
    problems = []
    if s.chi.degree > kd.n:
        problems.append(f"chi has degree {s.chi.degree} above the ambient dimension")
    expected_top = s.rank * volume(kd)
    if s.chi.coefficient(kd.n) != expected_top:
        problems.append("k^n coefficient of chi does not match rank * hn / n!")
    expected_next = (s.deg_h + Fraction(s.rank, 2) * kd.c1x_h) / factorial(kd.n - 1)
    if s.chi.coefficient(kd.n - 1) != expected_next:
        problems.append("k^(n-1) coefficient of chi does not match the H-degree")
    return problems


def oracle_rank_p_residual(total, sub, quotient):
    """Oracle: rk F * (p_E - p_F) + rk Q * (p_E - p_Q), one normalized polynomial at a time."""
    p_total = normalized_p(total)
    left = (p_total - normalized_p(sub)).scale(sub.rank)
    right = (p_total - normalized_p(quotient)).scale(quotient.rank)
    return left + right


def slope_from_p(p, kd, rank):
    """Oracle for slope: recover it from the k^(n-1) coefficient of a normalized polynomial."""
    if rank <= 0:
        raise ZeroRankError("slope recovery needs positive rank")
    if p.coefficient(kd.n) != volume(kd):
        raise MalformedPolynomialError("top coefficient must equal hn / n!")
    return factorial(kd.n - 1) * p.coefficient(kd.n - 1) - kd.c1x_h / 2


def subset_id(members):
    """The label of an index set: its members ascending, as "{1,3}"."""
    return "{" + ",".join(str(i) for i in sorted(members)) + "}"


def _members(mask):
    """The indices of a mask, ascending; bit i-1 stands for summand i."""
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


def _closed_masks(spec):
    """All proper nonempty arrow-closed index sets as masks, by size, then lexicographically.

    A coordinate subobject is invariant under the field exactly when its
    index set is closed under arrows: i in S and (i, j) an arrow forces
    j in S.  The empty set and the full set are omitted.
    """
    arrows = [(1 << (i - 1), 1 << (j - 1)) for i, j in spec.arrows]
    masks = range(1, (1 << spec.size) - 1)
    closed = (m for m in masks if all(m & j for i, j in arrows if m & i))
    return sorted(closed, key=lambda mask: (mask.bit_count(), _members(mask)))


def enumerate_invariant_subobjects(spec):
    """The proper nonempty arrow-closed index sets of a chain, by size, then lexicographically."""
    return [frozenset(_members(mask)) for mask in _closed_masks(spec)]


def reachable_closure(start, size, arrows):
    """Oracle: grow a subset along arrows until it stops changing."""
    current = set(start)
    changed = True
    while changed:
        changed = False
        for i, j in arrows:
            if i in current and j not in current:
                current.add(j)
                changed = True
    return frozenset(current)


def oracle_family(spec):
    """Oracle: the proper nonempty index sets that reachable_closure leaves unchanged."""
    out = set()
    indices = range(1, spec.size + 1)
    for size in range(1, spec.size):
        for combo in combinations(indices, size):
            s = frozenset(combo)
            if reachable_closure(s, spec.size, spec.arrows) == s:
                out.add(s)
    return out


def oracle_realization(spec):
    """Oracle for realize: {id: (data, quotient, contains)} of every closed set.

    contains is strict subset order among the closed sets, and data is the
    sum_data of the members' line bundles.
    """
    family = oracle_family(spec)
    everything = frozenset(range(1, spec.size + 1))

    def label(s):
        return "{" + ",".join(str(i) for i in sorted(s)) + "}"

    def data(s):
        degrees = spec.summand_degrees
        return reduce(sum_data, (chi_curve(spec.ambient, 1, degrees[i - 1]) for i in sorted(s)))

    return {
        label(s): (data(s), data(everything - s), frozenset(label(t) for t in family if t < s))
        for s in family
    }


def oracle_containment(model, contains=None):
    """Oracle: the Containment violations of a model, by frozenset tests, members in id order.

    contains maps each id to the ids declared below it; by default each
    entry's contains.  Unknown and self ids are reported alone; otherwise
    every member of every entry is tested for a cycle, its rank and chi, and
    transitivity.
    """
    below = {e.id: set(e.contains) for e in model.subobjects} if contains is None else contains
    out = []
    ids = {e.id for e in model.subobjects}
    for e in model.subobjects:
        unknown = sorted(below[e.id] - ids)
        if unknown:
            out.append(Violation(e.id, "Containment", f"contains unknown ids {unknown}"))
        elif e.id in below[e.id]:
            out.append(Violation(e.id, "Containment", "entry contains itself"))
    if out:
        return out
    for e in model.subobjects:
        for mid in sorted(below[e.id]):
            inner = model.entry(mid)
            if e.id in below[mid]:
                out.append(Violation(e.id, "Containment", f"containment cycle with {mid}"))
            if inner.data.rank > e.data.rank:
                out.append(Violation(e.id, "Containment", f"contains {mid} of larger rank"))
            elif inner.data.rank == e.data.rank and fraction_order(
                e.data.chi, inner.data.chi
            ) is EventualOrder.PRECEDES:
                out.append(
                    Violation(e.id, "Containment", f"contains {mid} of equal rank, larger chi")
                )
            missing = sorted(below[mid] - below[e.id])
            if missing:
                out.append(
                    Violation(e.id, "Containment", f"not transitive: missing {missing} below {mid}")
                )
    return out


class UnknownIdError(KeyError):
    """interval_quotient_model was asked for a step outside the declared family."""


def interval_quotient_model(model, top_id, bottom_id):
    """Oracle for the step rule: the model of top/bottom, by plain invariant subtraction.

    top_id may be the model id; bottom_id None means zero.  The family is
    every declared entry strictly between the two, read from the contains
    lists, with the parent's ids, so a witness names a parent entry.
    """
    if top_id != model.id and not model.has_entry(top_id):
        raise UnknownIdError(top_id)
    if bottom_id is not None and not model.has_entry(bottom_id):
        raise UnknownIdError(bottom_id)

    def minus(a, b):  # invariants of a/b; positive rank is presumed torsion-free
        rank, chi = a.rank - b.rank, a.chi - b.chi
        return NumericalSheafData(rank, a.deg_h - b.deg_h, chi, rank > 0 or chi.is_zero)

    def data(step):
        return model.data if step == model.id else model.entry(step).data

    top = data(top_id) if bottom_id is None else minus(data(top_id), data(bottom_id))
    between = [
        e
        for e in model.subobjects
        if (top_id == model.id or e.id in model.entry(top_id).contains)
        and (bottom_id is None or bottom_id in e.contains)
    ]
    ids = {e.id for e in between}
    entries = []
    for e in between:
        sub = e.data if bottom_id is None else minus(e.data, data(bottom_id))
        q = minus(top, sub)
        entries.append(SubobjectEntry(e.id, sub, q, None if q.torsion_free else q, ids & e.contains))
    return HiggsObjectModel(top_id, model.ambient, top, tuple(entries), model.family_complete)


def torsion_closure_model(strict=False):
    """Rank-2 model on the projective line with one torsion-quotient entry and its enlargement.

    The object is a sum of two line bundles; entry F is a twist down of the
    first summand (so its quotient picks up a length-one torsion), and Fp is
    the first summand itself, the kernel of the map onto the torsion-free
    part of that quotient.  With strict=True the degrees make Fp an
    equalizer (strictly semistable); otherwise Fp destabilizes.
    """
    kd = KahlerData.curve(0, 1)
    second_degree = 0 if strict else -2
    first = chi_curve(kd, 1, 0)
    second = chi_curve(kd, 1, second_degree)
    total = NumericalSheafData(
        2, first.deg_h + second.deg_h, first.chi + second.chi, torsion_free=True
    )
    torsion = NumericalSheafData(0, Fraction(1), poly(1), torsion_free=False)
    sub = chi_curve(kd, 1, -1)  # twist of the first summand
    quotient_of_sub = NumericalSheafData(
        1,
        total.deg_h - sub.deg_h,
        total.chi - sub.chi,
        torsion_free=False,
    )
    entry_f = SubobjectEntry(
        id="F", data=sub, quotient=quotient_of_sub, quotient_torsion_part=torsion
    )
    entry_fp = SubobjectEntry(
        id="Fp", data=first, quotient=second, contains=frozenset({"F"})
    )
    return HiggsObjectModel(
        id="E",
        ambient=kd,
        data=total,
        subobjects=(entry_f, entry_fp),
        family_complete=False,
    )


def torsion_step_model():
    """O(5) + O on the projective line, with entries Fp = O(5) and F = O(4) inside it.

    E/F is O plus a length-one torsion sheaf, so no filtration step may run
    from E down to F; Fp is the saturation of F.
    """
    kd = KahlerData.curve(0, 1)
    first, second, sub = (chi_curve(kd, 1, degree) for degree in (5, 0, 4))
    total = NumericalSheafData(2, first.deg_h + second.deg_h, first.chi + second.chi, True)
    torsion = NumericalSheafData(0, Fraction(1), poly(1), torsion_free=False)
    quotient_of_sub = NumericalSheafData(
        1, total.deg_h - sub.deg_h, total.chi - sub.chi, torsion_free=False
    )
    entries = (
        SubobjectEntry(id="F", data=sub, quotient=quotient_of_sub, quotient_torsion_part=torsion),
        SubobjectEntry(id="Fp", data=first, quotient=second, contains=frozenset({"F"})),
    )
    return HiggsObjectModel(id="E", ambient=kd, data=total, subobjects=entries)


def twisted_chain(rng):
    """A realized chain with one or two entries S of rank r joined by S(-t), t in {1, 2}.

    S(-t) has degree deg S - t*r, a quotient with a torsion part of length t*r, and
    contains nothing; S and every entry containing S list it, so S is its saturation.
    Returns the model and its copy with the first S removed and struck from every
    contains list, both keyed through declared_entries.
    """
    while not (chain := realize(random_chain_spec(rng, 4, 3))).subobjects:
        pass
    kd, total = chain.ambient, chain.data
    rows = [(e.id, e.data, e.quotient, None, set(e.contains)) for e in chain.subobjects]
    picked = rng.sample(rows, min(len(rows), rng.choice((1, 2))))
    for sid, sub, *_ in picked:
        t, r = rng.choice((1, 2)), sub.rank
        twisted = chi_curve(kd, r, sub.deg_h - t * r)
        quotient = NumericalSheafData(
            total.rank - r, total.deg_h - twisted.deg_h, total.chi - twisted.chi, False
        )
        torsion = NumericalSheafData(0, Fraction(t * r), poly(t * r), torsion_free=False)
        tid = f"{sid}(-{t})"
        for eid, *_, ids in rows:
            if eid == sid or sid in ids:
                ids.add(tid)
        rows.append((tid, twisted, quotient, torsion, set()))
    first = picked[0][0]
    struck = [(*row[:4], row[4] - {first}) for row in rows if row[0] != first]
    return tuple(
        HiggsObjectModel(chain.id, kd, total, declared_entries(r)[0]) for r in (rows, struck)
    )


def oracle_matches_enlargement(model, e):
    """Reference gate: does the family declare the kernel of E -> Q/torsion for entry e?

    A scan of the whole family per torsion-quotient entry, kept as the classifier had it.
    """
    part = e.quotient_torsion_part
    if part is None:
        return False
    enlarged_chi = e.data.chi + part.chi
    for g in model.subobjects:
        if g.id == e.id:
            continue
        if (
            g.data.rank == e.data.rank
            and g.data.chi == enlarged_chi
            and g.quotient.torsion_free
        ):
            return True
    return False


def oracle_tf_gate_passes(model):
    """Reference: every proper entry with a torsion quotient has a declared enlargement."""
    total = model.data.rank
    return all(
        oracle_matches_enlargement(model, e)
        for e in model.subobjects
        if 0 < e.data.rank < total and not e.quotient.torsion_free
    )


def shared_sheaf_model():
    """E = O(1) + O(1) + O(-1) + O(-1) on the line: c and b are the two O(1)s, one sheaf
    object, and a is O(1) + O(-1), an earlier equalizer."""
    kd = KahlerData.curve(0, 1)
    total = reduce(sum_data, (chi_curve(kd, 1, d) for d in (1, 1, -1, -1)))
    line, rest = chi_curve(kd, 1, 1), chi_curve(kd, 3, -1)
    half = chi_curve(kd, 2, 0)
    entries = (SubobjectEntry("c", line, rest, None, ()),
               SubobjectEntry("b", line, rest, None, ()),
               SubobjectEntry("a", half, half, None, ()))
    return HiggsObjectModel("E", kd, total, entries)


def ambiguous_model():
    """Two incomparable equal-rank equal-p destabilizers: no determined maximizer."""
    kd = KahlerData.curve(0, 1)
    big = chi_curve(kd, 1, 1)
    small = chi_curve(kd, 1, -2)
    total = NumericalSheafData(
        3, 2 * big.deg_h + small.deg_h, big.chi + big.chi + small.chi, torsion_free=True
    )
    quotient = NumericalSheafData(
        2, total.deg_h - big.deg_h, total.chi - big.chi, torsion_free=True
    )
    return HiggsObjectModel(
        id="E",
        ambient=kd,
        data=total,
        subobjects=(
            SubobjectEntry(id="A", data=big, quotient=quotient),
            SubobjectEntry(id="B", data=big, quotient=quotient),
        ),
    )


def surface_ambient():
    return KahlerData.surface(1, 0)


def surface_model(object_id, rank, deg_h, constant, entries=()):
    """Surface object with chi = (rank/2) k^2 + deg_h k + constant and given entries."""
    kd = surface_ambient()
    data = NumericalSheafData(
        rank,
        Fraction(deg_h),
        poly(Fraction(constant), Fraction(deg_h), Fraction(rank, 2)),
        torsion_free=True,
    )
    return HiggsObjectModel(
        id=object_id, ambient=kd, data=data, subobjects=tuple(entries)
    )


def descending_chains(model):
    """Every strictly descending id chain through the declared family, object first."""
    ids = [e.id for e in model.subobjects]

    def below(upper, lower):
        if upper == model.id:
            return True
        return lower in model.entry(upper).contains

    chains = [[model.id]]
    grown = [[model.id]]
    while grown:
        fresh = []
        for chain in grown:
            for eid in ids:
                if below(chain[-1], eid):
                    fresh.append(chain + [eid])
        chains.extend(fresh)
        grown = fresh
    return chains


def oracle_chains(model, kind):
    """Brute-force oracle: filter every descending chain through the verifier."""
    valid = []
    for chain in descending_chains(model):
        quotients = []
        data = [model.data if s == model.id else model.entry(s).data for s in chain]
        for i in range(len(chain)):
            upper = data[i]
            if i + 1 < len(chain):
                lower = data[i + 1]
                quotients.append(
                    NumericalSheafData(
                        upper.rank - lower.rank,
                        upper.deg_h - lower.deg_h,
                        upper.chi - lower.chi,
                        torsion_free=True,
                    )
                )
            else:
                quotients.append(upper)
        if kind is FiltrationKind.HN:  # HN steps run upward
            chain, quotients = chain[::-1], quotients[::-1]
        candidate = Filtration(kind, tuple(chain), tuple(quotients))
        if not verify_filtration(model, candidate):
            valid.append(candidate)
    return valid


def oracle_jh_chains(model):
    return oracle_chains(model, FiltrationKind.JH)


def oracle_jordan_holder(model):
    """Reference greedy Jordan-Holder steps, read off ids and contains, not keys.

    None when some proper entry's p is above the object's.  Otherwise the object, then at
    each step the minimum of (-rank, id) among the equal-p entries strictly below the step
    with 0 < rank < the step's rank, until there is none.
    """
    total = model.data
    orders = {e.id: fraction_order(e.data.chi, total.chi, e.data.rank, total.rank)
              for e in model.subobjects if 0 < e.data.rank < total.rank}
    if EventualOrder.SUCCEEDS in orders.values():
        return None
    steps, rank, below = [model.id], total.rank, set(orders)
    while True:
        candidates = [(-model.entry(eid).data.rank, eid) for eid in below
                      if orders.get(eid) is EventualOrder.EQUAL
                      and model.entry(eid).data.rank < rank]
        if not candidates:
            return tuple(steps)
        negative_rank, step = min(candidates)
        steps.append(step)
        rank, below = -negative_rank, model.entry(step).contains


def oracle_hn_chains(model):
    return oracle_chains(model, FiltrationKind.HN)


def induced_model_failure():
    """Rank-2 model whose rank-1 entry A contains B, of rank 1 and higher degree.

    A/B would be a rank-zero quotient of negative chi, which no torsion sheaf
    has, so validation rejects the model.
    """
    kd = KahlerData.curve(1, 1)
    return HiggsObjectModel(
        id="E",
        ambient=kd,
        data=chi_curve(kd, 2, 0),
        subobjects=(
            SubobjectEntry(
                id="A",
                data=chi_curve(kd, 1, 1),
                quotient=chi_curve(kd, 1, -1),
                contains={"B"},
            ),
            SubobjectEntry(id="B", data=chi_curve(kd, 1, 2), quotient=chi_curve(kd, 1, -2)),
        ),
    )


def surface_entry(entry_id, total, rank, deg_h, constant):
    data = NumericalSheafData(
        rank,
        Fraction(deg_h),
        poly(Fraction(constant), Fraction(deg_h), Fraction(rank, 2)),
        torsion_free=True,
    )
    quotient = NumericalSheafData(
        total.rank - rank,
        total.deg_h - data.deg_h,
        total.chi - data.chi,
        torsion_free=True,
    )
    return SubobjectEntry(id=entry_id, data=data, quotient=quotient)


def oracle_direct_sum(a, b):
    """a + b with the product family written out by label and keyed by declared_entries.

    F(+)G contains l(+)r for every l weakly below F and r weakly below G, less 0(+)0 and
    F(+)G itself; the pairs 0(+)0 and a(+)b are no entries.
    """

    def parts(m):  # (id, data, quotient, torsion part, ids weakly below)
        entries = m.subobjects
        return [
            ("0", ZERO_SHEAF, m.data, None, {"0"}),
            *((e.id, e.data, e.quotient, e.quotient_torsion_part, {"0", e.id, *e.contains})
              for e in entries),
            (m.id, m.data, ZERO_SHEAF, None, {"0", m.id, *(e.id for e in entries)}),
        ]

    rows = []
    for lid, ldata, lquot, ltors, lbelow in parts(a):
        for rid, rdata, rquot, rtors, rbelow in parts(b):
            if (lid, rid) in (("0", "0"), (a.id, b.id)):
                continue
            eid = f"{lid}(+){rid}"
            inside = {f"{l}(+){r}" for l in lbelow for r in rbelow} - {"0(+)0", eid}
            tors = sum_data(ltors, rtors) if ltors and rtors else ltors or rtors
            rows.append((eid, sum_data(ldata, rdata), sum_data(lquot, rquot), tors, inside))
    entries, _ = declared_entries(rows)
    total = sum_data(a.data, b.data)
    complete = a.family_complete and b.family_complete
    return HiggsObjectModel(f"{a.id}(+){b.id}", a.ambient, total, entries, complete)


# Written for the paper's corollaries and for round trips, and run by no command yet:
# ROADMAP items 6 (morphism and extension checks) and 13 (declared twins) bring back to
# the library only what their checks need.

class MorphismVerdict(Enum):
    """What a map between two semistable objects can be."""

    MUST_BE_ZERO = "must_be_zero"
    ZERO_OR_INJECTIVE = "zero_or_injective"
    ZERO_OR_GENERICALLY_SURJECTIVE = "zero_or_generically_surjective"
    NO_CONSTRAINT = "no_constraint"


def morphism_verdict(p_source, p_target, source_stable, target_stable):
    """Decision table for a map between two semistable objects (HL 1.2).

    Semistability of both sides is the caller's obligation.  When both are
    stable with equal polynomials the injective conclusion is reported as the
    canonical one (the surjective conclusion holds as well).
    """
    order = p_target.compare_eventual(p_source)
    if order is EventualOrder.PRECEDES:
        return MorphismVerdict.MUST_BE_ZERO
    if order is EventualOrder.EQUAL:
        if source_stable:
            return MorphismVerdict.ZERO_OR_INJECTIVE
        if target_stable:
            return MorphismVerdict.ZERO_OR_GENERICALLY_SURJECTIVE
    return MorphismVerdict.NO_CONSTRAINT


def check_extension_semistability(sub, quotient, total):
    """Check that an extension of equal-p semistable pieces is semistable with that p.

    Used as a theorem check on a provided total object, never as a shortcut:
    the total is classified from its own declared family.
    """
    sub_verdict = gieseker_classify(sub)
    quot_verdict = gieseker_classify(quotient)
    if not (sub_verdict.semistable and quot_verdict.semistable):
        raise PreconditionUnmetError("both pieces must be Gieseker semistable")
    if compare_p(sub.data, quotient.data) is not EventualOrder.EQUAL:
        raise PreconditionUnmetError("the pieces must share one normalized polynomial")
    total_verdict = gieseker_classify(total)
    return (
        total_verdict.semistable
        and compare_p(total.data, sub.data) is EventualOrder.EQUAL
    )


def kahler_to_json(kd):
    """A curve ambient in its file form; the tests write no other ambient."""
    return {"n": 1, "genus": kd.genus, "degH": int(kd.hn)}


def entry_to_json(e):
    out = {"id": e.id, "data": sheaf_to_json(e.data), "quotient": sheaf_to_json(e.quotient),
           "contains": sorted(e.contains)}
    if e.quotient_torsion_part is not None:
        out["quotient_torsion_part"] = sheaf_to_json(e.quotient_torsion_part)
    return out


def model_to_json(obj):
    """A LoadedObject in the explicit model form of a file, with no surface_chern block."""
    m = obj.model
    out = {"type": "model", "id": m.id, "data": sheaf_to_json(m.data),
           "subobjects": [entry_to_json(e) for e in m.subobjects],
           "family_complete": m.family_complete}
    if obj.locally_free:
        out["locally_free"] = True
    return out
