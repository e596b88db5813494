"""JSON model files: exact rationals as "num/den" strings, polynomials as arrays.

A file holds one ambient block and a list of objects, each either a chain
spec (realized on load) or an explicit model with its declared subobject
family.  Loading validates every object; a file whose objects fail
validation is rejected as input.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from .chern import KahlerData, NumericalSheafData, SurfaceChernInput
from .hilbert import HilbertPolynomial, format_rational, parse_rational
from .model import HiggsChainSpec, HiggsObjectModel, declared_entries, realize, validate


class ParseError(ValueError):
    """The file is not a well-formed model file."""


@dataclass(frozen=True)
class LoadedObject:
    """One object from a file: the model plus file-level metadata."""

    model: HiggsObjectModel
    chain: Optional[HiggsChainSpec] = None
    locally_free: bool = False
    surface_chern: Optional[SurfaceChernInput] = None


@dataclass(frozen=True)
class ModelFile:
    ambient: KahlerData
    objects: tuple[LoadedObject, ...]


def _rat(value, where: str, parse=parse_rational):
    try:
        return parse(value)
    except (ValueError, ZeroDivisionError) as exc:  # its message names the bad item
        raise ParseError(f"{where}: {exc}") from None


def _typed(value, kind: type, where: str):
    """value itself if its type is exactly kind: int, bool, str, list or dict."""
    if type(value) is not kind:
        raise ParseError(f"{where}: expected {kind.__name__}, got {type(value).__name__}")
    return value


@dataclass
class _reading:
    """Turns a missing key or a rejected value into a ParseError naming where."""

    where: str

    def __enter__(self):
        return None

    def __exit__(self, kind, exc, tb):
        if isinstance(exc, (KeyError, ValueError, TypeError)):
            if not isinstance(exc, ParseError):
                raise ParseError(f"{self.where}: {exc}")


def _ints(value, where: str) -> tuple[int, ...]:
    return tuple(_typed(v, int, where) for v in _typed(value, list, where))


def _ids(value, where: str) -> list[str]:
    """A JSON array of string ids, as it stands."""
    items = _typed(value, list, where)
    if not set(map(type, items)) <= {str}:  # screened in C: lattices hold 10^4-10^5 ids
        for item in items:  # the first bad id names the error
            _typed(item, str, where)
    return items


def _id(value, where: str) -> str:
    text = _typed(value, str, where)
    if text == "0":  # direct sums name the zero subobject "0"
        raise ParseError('the id "0" is reserved for the zero subobject')
    return text


def _poly(value, where: str) -> HilbertPolynomial:
    return _rat(_typed(value, list, where), where, HilbertPolynomial.from_strings)


def kahler_from_json(block: dict) -> KahlerData:
    if not isinstance(block, dict) or "n" not in block:
        raise ParseError("ambient: expected an object with a dimension 'n'")
    n = _typed(block["n"], int, "ambient.n")
    with _reading("ambient"):
        if n == 1:
            genus = _typed(block["genus"], int, "ambient.genus")
            return KahlerData.curve(genus, _typed(block["degH"], int, "ambient.degH"))
        todd = block.get("todd")
        return KahlerData(
            n=n,
            hn=_rat(block["hn"], "ambient.hn"),
            c1x_h=_rat(block["c1X_H"], "ambient.c1X_H"),
            todd=tuple(_rat(t, "ambient.todd") for t in _typed(todd, list, "ambient.todd"))
            if todd else None,
        )


def sheaf_from_json(block: dict, where: str) -> NumericalSheafData:
    _typed(block, dict, where)
    with _reading(where):
        return NumericalSheafData(
            rank=_typed(block["rank"], int, f"{where}.rank"),
            deg_h=_rat(block["degH"], f"{where}.degH"),
            chi=_poly(block["chi"], f"{where}.chi"),
            torsion_free=_typed(block.get("torsion_free", True), bool, f"{where}.torsion_free"),
        )


def sheaf_to_json(s: NumericalSheafData) -> dict:
    return {
        "rank": s.rank,
        "degH": format_rational(s.deg_h),
        "chi": s.chi.to_strings(),
        "torsion_free": s.torsion_free,
    }


def _shared_sheaf(memo: dict, block, where: str) -> NumericalSheafData:
    """sheaf_from_json once per distinct block: repr tells true, 1, 1.0 and "1" apart."""
    key = repr(block)
    if key not in memo:  # a block that fails to parse is never stored
        memo[key] = sheaf_from_json(block, where)
    return memo[key]


def _entry_row(block: dict, memo: dict) -> tuple:
    """(id, data, quotient, torsion part, contains ids) of one entry, for declared_entries."""
    with _reading("subobject"):
        eid = _id(_typed(block, dict, "subobject")["id"], "subobject id")
        torsion = block.get("quotient_torsion_part")
        return (eid, _shared_sheaf(memo, block["data"], f"{eid}.data"),
                _shared_sheaf(memo, block["quotient"], f"{eid}.quotient"),
                None if torsion is None else _shared_sheaf(memo, torsion, f"{eid}.torsion"),
                _ids(block.get("contains", []), f"{eid}.contains"))


def chain_from_json(block: dict, ambient: KahlerData) -> HiggsChainSpec:
    where = f"chain {block.get('id', '?')}"
    with _reading(where):
        arrows = _typed(block.get("arrows", []), list, f"{where}.arrows")
        degrees = _ints(block["degrees"], f"{where}.degrees")
        pairs = [_ints(a, f"{where}.arrows") for a in arrows]
        for pair in pairs:
            if len(pair) != 2:
                raise ParseError(f"{where}.arrows: expected a pair [i, j], got {list(pair)}")
        return HiggsChainSpec(ambient, degrees, frozenset(pairs))


def _object_from_json(block: dict, ambient: KahlerData) -> LoadedObject:
    if not isinstance(block, dict):
        raise ParseError("objects: each object must be a JSON object")
    kind = block.get("type", "model")
    oid = _id(block.get("id", "E"), "object id")
    locally_free = _typed(block.get("locally_free", False), bool, f"{oid}.locally_free")
    chern_block = block.get("surface_chern")
    surface_chern = None
    if chern_block is not None:
        with _reading(f"{oid}.surface_chern"):
            surface_chern = SurfaceChernInput(
                c1h=_rat(chern_block["c1H"], f"{oid}.c1H"),
                ch2=_rat(chern_block["ch2"], f"{oid}.ch2"),
                c1c1x=_rat(chern_block["c1c1X"], f"{oid}.c1c1X"),
                c1sq=_rat(chern_block["c1sq"], f"{oid}.c1sq"),
                c2int=_rat(chern_block["c2int"], f"{oid}.c2int"),
            )
    if kind == "chain":
        spec = chain_from_json(block, ambient)
        try:
            model = realize(spec, object_id=oid)
        except ValueError as exc:  # infeasible arrows and the like
            raise ParseError(f"chain {oid}: {exc}")
        return LoadedObject(model, chain=spec, locally_free=True)
    if kind == "model":
        memo: dict[str, NumericalSheafData] = {}  # repeated blocks share one frozen sheaf
        with _reading(f"object {oid}"):
            data = _shared_sheaf(memo, block["data"], f"{oid}.data")
            blocks = _typed(block.get("subobjects", []), list, f"{oid}.subobjects")
            rows = [_entry_row(b, memo) for b in blocks]
            complete = _typed(block.get("family_complete", False), bool, f"{oid}.family_complete")
            model = HiggsObjectModel(oid, ambient, data, declared_entries(rows)[0], complete)
        return LoadedObject(model, locally_free=locally_free, surface_chern=surface_chern)
    raise ParseError(f"object {oid}: unknown type {kind!r}")


def loads(text: str) -> ModelFile:
    """Parse and validate a model file; any violation rejects the file."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, or an over-long integer
        raise ParseError(f"not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ParseError("top level must be a JSON object")
    if "ambient" not in doc or "objects" not in doc:
        raise ParseError("a model file needs 'ambient' and 'objects'")
    ambient = kahler_from_json(doc["ambient"])
    if not isinstance(doc["objects"], list):
        raise ParseError("'objects' must be a list")
    objects = []
    seen = set()
    for block in doc["objects"]:
        loaded = _object_from_json(block, ambient)
        if loaded.model.id in seen:
            raise ParseError(f"duplicate object id {loaded.model.id!r}")
        seen.add(loaded.model.id)
        objects.append(loaded)
    for loaded in objects:
        problems = validate(loaded.model)
        if problems:
            raise ParseError(
                f"object {loaded.model.id} fails validation: "
                + "; ".join(str(v) for v in problems)
            )
    return ModelFile(ambient=ambient, objects=tuple(objects))


def load(path: Union[str, Path]) -> ModelFile:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    return loads(text)
