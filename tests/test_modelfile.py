"""Model file parsing, validation gating, and round trips."""

import json
from itertools import combinations

import pytest

import higgs_lab.model
from higgs_lab import KahlerData, ParseError, loads, modelfile, realize
from higgs_lab.cli import run
from higgs_lab.modelfile import sheaf_to_json

from conftest import curve_chain, kahler_to_json, model_to_json, poly


HITCHIN_DOC = {
    "ambient": {"n": 1, "genus": 2, "degH": 1},
    "objects": [
        {"type": "chain", "id": "pair", "degrees": [1, -1], "arrows": [[1, 2]]}
    ],
}


def test_chain_file_realizes():
    mf = loads(json.dumps(HITCHIN_DOC))
    (obj,) = mf.objects
    assert obj.chain is not None
    assert obj.model.data.chi == poly(-2, 2)
    assert [e.id for e in obj.model.subobjects] == ["{2}"]
    assert obj.locally_free


def test_explicit_model_round_trip():
    original = curve_chain(1, 1, (0, 3), object_id="M")
    doc = {
        "ambient": kahler_to_json(original.ambient),
        "objects": [
            model_to_json(
                type(
                    "O", (), {"model": original, "locally_free": False, "surface_chern": None}
                )()
            )
        ],
    }
    mf = loads(json.dumps(doc))
    loaded = mf.objects[0].model
    assert loaded.data == original.data
    assert {e.id for e in loaded.subobjects} == {e.id for e in original.subobjects}
    for e in original.subobjects:
        assert loaded.entry(e.id).data == e.data
        assert loaded.entry(e.id).contains == e.contains


def test_rationals_survive_round_trip():
    s = curve_chain(2, 3, (1,)).data
    block = sheaf_to_json(s)
    assert block["chi"] == s.chi.to_strings()
    assert all("/" in c for c in block["chi"])


def test_rejects_invalid_json():
    with pytest.raises(ParseError):
        loads("{not json")


def test_rejects_missing_blocks():
    with pytest.raises(ParseError):
        loads(json.dumps({"ambient": {"n": 1, "genus": 0, "degH": 1}}))


def test_rejects_bad_rational():
    doc = {
        "ambient": {"n": 1, "genus": 0, "degH": 1},
        "objects": [
            {
                "type": "model",
                "id": "M",
                "data": {"rank": 1, "degH": "one half", "chi": ["1/1", "1/1"]},
            }
        ],
    }
    with pytest.raises(ParseError):
        loads(json.dumps(doc))



@pytest.mark.parametrize(
    "value", ["3/0", "0/0", " 3 ", "+1", "1/-2", "", True, False, 1.5, None, [1], {"a": 1}]
)
@pytest.mark.parametrize("field", ["chi", "degH", "hn"])
def test_bad_rational_names_the_item(field, value):
    # chi items go through from_strings, degH and hn through parse_rational: one message
    sheaf = {"rank": 1, "degH": "0", "chi": ["1", "1"]}
    ambient = {"n": 1, "genus": 1, "degH": 1}
    if field == "chi":
        sheaf["chi"] = ["1", value, "2"]
    elif field == "degH":
        sheaf["degH"] = value
    else:
        ambient = {"n": 2, "hn": value, "c1X_H": "0"}
    doc = {"ambient": ambient, "objects": [{"type": "model", "id": "E", "data": sheaf}]}
    where = "ambient.hn" if field == "hn" else f"E.data.{field}"
    with pytest.raises(ParseError) as info:
        loads(json.dumps(doc))
    assert str(info.value) == f"{where}: expected a rational 'num/den', got {value!r}"

def test_rejects_duplicate_ids():
    doc = {
        "ambient": {"n": 1, "genus": 1, "degH": 1},
        "objects": [
            {"type": "chain", "id": "E", "degrees": [0]},
            {"type": "chain", "id": "E", "degrees": [1]},
        ],
    }
    with pytest.raises(ParseError):
        loads(json.dumps(doc))


def test_rejects_objects_failing_validation():
    doc = {
        "ambient": {"n": 1, "genus": 1, "degH": 1},
        "objects": [
            {
                "type": "model",
                "id": "M",
                "data": {"rank": 2, "degH": "0/1", "chi": ["0/1", "2/1"]},
                "subobjects": [
                    {
                        "id": "F",
                        "data": {"rank": 1, "degH": "1/1", "chi": ["1/1", "1/1"]},
                        "quotient": {"rank": 1, "degH": "0/1", "chi": ["0/1", "1/1"]},
                    }
                ],
            }
        ],
    }
    with pytest.raises(ParseError, match="ChiAdditivity"):
        loads(json.dumps(doc))


def test_rejects_infeasible_chain_arrow():
    doc = {
        "ambient": {"n": 1, "genus": 0, "degH": 1},
        "objects": [
            {"type": "chain", "id": "E", "degrees": [2, 0], "arrows": [[1, 2]]}
        ],
    }
    with pytest.raises(ParseError, match="arrow"):
        loads(json.dumps(doc))


def test_surface_model_with_chern_block():
    doc = {
        "ambient": {"n": 2, "hn": "1/1", "c1X_H": "0/1"},
        "objects": [
            {
                "type": "model",
                "id": "S",
                "data": {"rank": 2, "degH": "0/1", "chi": ["0/1", "0/1", "1/1"]},
                "locally_free": True,
                "surface_chern": {
                    "c1H": "0/1",
                    "ch2": "1/1",
                    "c1c1X": "0/1",
                    "c1sq": "2/1",
                    "c2int": "0/1",
                },
            }
        ],
    }
    mf = loads(json.dumps(doc))
    obj = mf.objects[0]
    assert obj.locally_free
    assert obj.surface_chern.c1sq == 2


def declared_equal_degree_chain(m):
    """Every proper subset of m degree-zero line bundles on a genus-1 curve, written by hand."""

    def sheaf(rank):
        return {"rank": rank, "degH": "0/1", "chi": ["0/1", f"{rank}/1"], "torsion_free": True}

    subsets = [set(s) for size in range(1, m) for s in combinations(range(1, m + 1), size)]

    def label(s):
        return "{" + ",".join(str(i) for i in sorted(s)) + "}"

    entries = [
        {"id": label(s), "data": sheaf(len(s)), "quotient": sheaf(m - len(s)),
         "contains": sorted(label(t) for t in subsets if t < s)}
        for s in subsets
    ]
    model = {"type": "model", "id": "E", "data": sheaf(m), "subobjects": entries}
    return {"ambient": {"n": 1, "genus": 1, "degH": 1}, "objects": [model]}


def unshared(memo, block, where):
    """modelfile._shared_sheaf without the memo: every block parsed on its own."""
    return modelfile.sheaf_from_json(block, where)


class TestRepeatedBlocks:
    """A sheaf block repeated within one declared object is parsed once and shared."""

    DOC = declared_equal_degree_chain(6)

    @staticmethod
    def sheaves(model):
        return [s for e in model.subobjects for s in (e.data, e.quotient)]

    def test_one_object_per_distinct_block(self, monkeypatch):
        entries = self.DOC["objects"][0]["subobjects"]
        blocks = {json.dumps(e[k], sort_keys=True) for e in entries for k in ("data", "quotient")}
        (obj,) = loads(json.dumps(self.DOC)).objects
        assert len(self.sheaves(obj.model)) == 2 * 62 and len(blocks) == 5
        assert len({id(s) for s in self.sheaves(obj.model)}) == len(blocks)
        monkeypatch.setattr(modelfile, "_shared_sheaf", unshared)
        (copy,) = loads(json.dumps(self.DOC)).objects
        assert len({id(s) for s in self.sheaves(copy.model)}) == 2 * 62
        assert (copy.model.data, copy.model.subobjects) == (obj.model.data, obj.model.subobjects)

    def test_blocks_serialize_back_unchanged(self):
        (obj,) = loads(json.dumps(self.DOC)).objects
        out, given = model_to_json(obj), self.DOC["objects"][0]
        assert out["data"] == given["data"]
        written = {e["id"]: (e["data"], e["quotient"]) for e in out["subobjects"]}
        assert written == {e["id"]: (e["data"], e["quotient"]) for e in given["subobjects"]}

    def test_reports_match_an_unshared_load(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "declared.json"
        path.write_text(json.dumps(self.DOC))
        commands = [["analyze", str(path)]]
        commands += [[command, str(path), "--object", "E"] for command in ("jh", "hn")]
        shared = [(run(argv), capsys.readouterr()) for argv in commands]
        monkeypatch.setattr(modelfile, "_shared_sheaf", unshared)
        assert [(run(argv), capsys.readouterr()) for argv in commands] == shared
        assert [code for code, _ in shared] == [0, 0, 0]


class Unshared(dict):
    """A sheaf table that never finds or keeps a sheaf, so realize builds a fresh one per call."""

    def get(self, key, default=None):
        return default

    def setdefault(self, key, default=None):
        return default


class TestSharedChainSheaves:
    """realize builds one sheaf per (rank, degree); reports match a fresh sheaf per entry."""

    DOC = {
        "ambient": {"n": 1, "genus": 2, "degH": 1},
        "objects": [
            {"type": "chain", "id": "E", "degrees": [1, 1, 1, 1]},
            {"type": "chain", "id": "H", "degrees": [3, 1, 0], "arrows": [[1, 2], [2, 3]]},
            {"type": "chain", "id": "U", "degrees": [2, 0, 1]},
        ],
    }

    @staticmethod
    def sheaves(model):
        return [model.data] + [s for e in model.subobjects for s in (e.data, e.quotient)]

    def test_reports_match_unshared_sheaves(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "chains.json"
        path.write_text(json.dumps(self.DOC))
        commands = [["analyze", str(path)], ["verify", str(path)]]
        commands += [["jh", str(path), "--object", "E"], ["hn", str(path), "--object", "U"]]
        model = loads(json.dumps(self.DOC)).objects[0].model
        assert len({id(s) for s in self.sheaves(model)}) == 4  # ranks 1, 2, 3 and the object
        shared = [(run(argv), capsys.readouterr()) for argv in commands]
        monkeypatch.setattr(KahlerData, "sheaves", property(lambda kd: Unshared()))
        model = loads(json.dumps(self.DOC)).objects[0].model
        assert len({id(s) for s in self.sheaves(model)}) == 2 * 14 + 1
        assert [(run(argv), capsys.readouterr()) for argv in commands] == shared
        assert [code for code, _ in shared] == [0, 0, 0, 0]


class TestContainsLists:
    """The loader keys each entry from its contains list as written."""

    @staticmethod
    def declared(size=3, **lists):
        """An equal-degree chain of size line bundles on an elliptic curve, written as a model.

        lists maps an entry id to the contains list to write in its place.
        """
        model = curve_chain(1, 1, (0,) * size)
        block = model_to_json(modelfile.LoadedObject(model))
        for entry in block["subobjects"]:
            entry["contains"] = lists.get(entry["id"], entry["contains"])
        return {"ambient": kahler_to_json(model.ambient), "objects": [block]}

    def test_duplicate_ids_in_one_list_change_nothing(self, tmp_path, capsys):
        doubled = self.declared(**{"{1,2}": ["{1}", "{2}", "{1}", "{2}"], "{2,3}": ["{3}"] * 2})
        reports = []
        for doc in (self.declared(), doubled):
            path = tmp_path / "lists.json"
            path.write_text(json.dumps(doc))
            assert run(["analyze", str(path)]) == 0
            reports.append(capsys.readouterr().out)
            loaded = loads(json.dumps(doc)).objects[0].model
            assert loaded.entry("{1,2}").contains == {"{1}", "{2}"}
        assert reports[0] == reports[1]
        # and a bad list gives the messages of its deduplicated form, even when its repeats
        # are as many as the ids it misses ({3}, below {1,3})
        messages = []
        for bad in (["{1}", "{2}", "{1,3}"], ["{1,3}", "{1}", "{1,3}", "{2}", "{1}"],
                    ["{1,3}", "{1}", "{2}", "{2}"]):
            with pytest.raises(ParseError) as caught:
                loads(json.dumps(self.declared(**{"{1,2}": bad})))
            messages.append(str(caught.value))
        assert messages == 3 * [
            "object E fails validation:"
            " {1,2}: Containment (not transitive: missing ['{3}'] below {1,3})"
        ]

    def test_an_entry_listing_itself(self):
        with pytest.raises(ParseError) as caught:
            loads(json.dumps(self.declared(**{"{1,2}": ["{1}", "{1,2}", "{2}"]})))
        assert str(caught.value) == (
            "object E fails validation: {1,2}: Containment (entry contains itself)"
        )

    def test_the_first_error_in_file_order_is_reported(self):
        doc = self.declared()
        entries = doc["objects"][0]["subobjects"]
        entries[1]["contains"] = [entries[0]["id"], 7]
        entries[2]["quotient"]["degH"] = "1/0"
        with pytest.raises(ParseError) as caught:
            loads(json.dumps(doc))
        assert str(caught.value) == f"{entries[1]['id']}.contains: expected str, got int"
        entries[1]["contains"] = [entries[0]["id"]]
        with pytest.raises(ParseError, match=r"\.quotient\.degH"):
            loads(json.dumps(doc))


class TestRealizeBound:
    def test_a_chain_past_the_bound_is_one_input_error(self, tmp_path, capsys):
        doc = {"ambient": {"n": 1, "genus": 1, "degH": 1},
               "objects": [{"type": "chain", "id": "E", "degrees": [0] * 17}]}
        path = tmp_path / "m17.json"
        path.write_text(json.dumps(doc))
        for command in (["analyze"], ["jh", "--object", "E"], ["hn", "--object", "E"], ["verify"]):
            assert run([command[0], str(path), *command[1:]]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                "error: chain E: realize walks at most 65536 masks, and 17 summands need 2^17\n"
            )

    def test_the_bound_is_the_one_constant(self, monkeypatch):
        monkeypatch.setattr(higgs_lab.model, "REALIZE_MASK_BOUND", 1 << 3)
        assert len(curve_chain(1, 1, (0,) * 3).subobjects) == 6
        with pytest.raises(higgs_lab.model.RealizeBoundError, match="at most 8 masks, and 4"):
            curve_chain(1, 1, (0,) * 4)
