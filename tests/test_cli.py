"""End-to-end tests for the command-line interface."""

import contextlib
import copy
import io
import json
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from json_mutants import mutants
from test_calculus import ioa_two_agent_fixture

from stitprover import (
    Derivation,
    LabelledSequent,
    Provable,
    RuleTag,
    check_frame,
    derivation_from_json,
    derivation_to_json,
    evaluate,
    model_from_json,
    parse,
)
from stitprover.cli import main
from stitprover.prover import SearchStats


# ---------------------------------------------------------------------------
# prove
# ---------------------------------------------------------------------------


def test_prove_reports_provable(capsys):
    assert main(["prove", "p | ~p"]) == 0
    assert capsys.readouterr().out.strip() == "provable"


def test_prove_reports_unprovable(capsys):
    assert main(["prove", "p"]) == 1
    assert capsys.readouterr().out.strip() == "unprovable"


def test_prove_with_choice_bound(capsys):
    assert main(["prove", "dia [1] p -> p"]) == 1
    assert main(["prove", "dia [1] p -> p", "--choices", "1"]) == 0


def test_prove_rejects_garbage(capsys):
    assert main(["prove", "p &"]) == 2
    assert "error" in capsys.readouterr().err.lower()


@pytest.mark.parametrize(
    "text",
    ["(" * 1200 + "p" + ")" * 1200, "box " * 1500 + "p"],
    ids=["parentheses", "boxes"],
)
def test_prove_takes_input_nested_past_the_recursion_limit(text, capsys):
    assert main(["prove", text]) == 1
    assert capsys.readouterr().out.strip() == "unprovable"


def test_prove_step_cap_is_an_internal_failure(capsys):
    assert main(["prove", "p | ~p", "--max-steps", "1"]) == 3
    assert "cap" in capsys.readouterr().err


def test_prove_and_check_round_trip(tmp_path, capsys):
    cert = tmp_path / "proof.json"
    assert main(["prove", "dia [1] p -> p", "--choices", "1",
                 "--emit-proof", str(cert)]) == 0
    assert main(["check", str(cert)]) == 0
    assert "valid certificate" in capsys.readouterr().out


@pytest.mark.parametrize("goal", ["true", "false -> p"])
def test_prove_and_check_round_trip_the_constants(goal, tmp_path, capsys):
    """`true` and `false` stand for a clash on a reserved atom that prints
    as `$const`, a text that does not parse; the reader takes it for the
    subformula of the root's `true` or `false` that prints so."""
    cert = tmp_path / "proof.json"
    assert main(["prove", goal, "--emit-proof", str(cert)]) == 0
    assert '"$const"' in cert.read_text()
    assert main(["check", str(cert)]) == 0
    assert capsys.readouterr().out == "provable\nvalid certificate\n"


def test_check_refuses_the_reserved_atom_under_a_root_without_constants(tmp_path, capsys):
    """Under a root with no `true` or `false`, `$const` is parsed as any
    other text, and its refusal names its path."""
    cert = tmp_path / "proof.json"
    assert main(["prove", "false -> p", "--emit-proof", str(cert)]) == 0
    blob = json.loads(cert.read_text())
    assert blob["steps"][2][3]["forms"][0][1] == "$const"
    blob["root"]["forms"] = [[0, "p | q"]]
    cert.write_text(json.dumps(blob))
    capsys.readouterr()
    assert main(["check", str(cert)]) == 2
    assert capsys.readouterr().err == (
        "error: malformed certificate: steps[2].delta.forms[0][1]: "
        "unexpected character '$' at position 0\n"
    )


def _balanced_disjunction(k: int) -> str:
    """The balanced disjunction of ``p0`` ... ``p{k-1}`` and ``~p0``: its
    proof is a chain of ``or`` steps over an ``id`` leaf, on a sequent that
    grows by two formulas a step."""
    parts = [f"p{i}" for i in range(k)] + ["~p0"]
    while len(parts) > 1:
        parts = [f"({' | '.join(parts[i : i + 2])})" for i in range(0, len(parts), 2)]
    return parts[0]


def test_prove_and_check_a_600_way_disjunction(tmp_path, capsys):
    """Each step writes only what it adds, so the certificate of a proof
    346 nodes deep, on sequents of up to 691 formulas, stays small; written
    whole at every node it took 463 MB."""
    cert = tmp_path / "proof.json"
    assert main(["prove", _balanced_disjunction(600), "--emit-proof", str(cert)]) == 0
    assert cert.stat().st_size < 1_000_000
    assert main(["check", str(cert)]) == 0
    assert capsys.readouterr().out == "provable\nvalid certificate\n"


def test_check_cross_checks_the_header(tmp_path, capsys):
    cert = tmp_path / "proof.json"
    main(["prove", "dia [1] p -> p", "--choices", "1", "--emit-proof", str(cert)])
    assert main(["check", str(cert), "--choices", "1"]) == 0
    capsys.readouterr()
    assert main(["check", str(cert), "--choices", "2"]) == 1
    assert "header mismatch" in capsys.readouterr().out


def test_check_rejects_a_tampered_certificate(tmp_path, capsys):
    cert = tmp_path / "proof.json"
    main(["prove", "box p -> [1] p", "--emit-proof", str(cert)])
    blob = json.loads(cert.read_text())

    # Drop one labelled formula from the deepest step's delta: the proof is
    # a chain, so that is the last step, and its delta then adds nothing.
    delta = blob["steps"][-1][3]
    delta["forms"].pop()
    if not delta["forms"]:
        del delta["forms"]
    cert.write_text(json.dumps(blob))

    capsys.readouterr()
    assert main(["check", str(cert)]) == 1
    out = capsys.readouterr().out
    assert "invalid certificate at root.premises[0]" in out


def test_check_rejects_malformed_files(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["check", str(bad)]) == 2
    assert main(["check", str(tmp_path / "missing.json")]) == 2
    shallow = tmp_path / "shallow.json"
    shallow.write_text(json.dumps({"m": 1}))
    assert main(["check", str(shallow)]) == 2
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100_000 + "]" * 100_000)
    capsys.readouterr()
    assert main(["check", str(nested)]) == 2
    assert capsys.readouterr().err == (
        f"error: {nested} is nested too deeply to decode as JSON\n"
    )


def test_check_reads_a_certificate_deeper_than_the_recursion_limit(tmp_path, capsys):
    """Written by hand: 2,000 ``or`` steps, each the one premise of the one
    before, over an ``id`` leaf, all with an empty sequent and no principal
    data.  The chain is as flat in JSON as a chain of one: the reader
    builds the tree as written, and ``check`` judges it, at the root."""
    blob = {
        "m": 1, "n": 0, "mode": "refined", "version": 2,
        "root": {"rel": [], "forms": []},
        "steps": [["or", {}, 1]] + [["or", {}, 1, {}]] * 1999 + [["id", {}, 0, {}]],
    }
    cfg, root = derivation_from_json(blob)
    assert root.size() == 2001
    assert derivation_to_json(cfg, root) == blob
    deep = tmp_path / "deep.json"
    deep.write_text(json.dumps(blob))
    assert main(["check", str(deep)]) == 1
    assert capsys.readouterr().out == (
        "invalid certificate at root: principal data is missing 'label'\n"
    )


def _premise_five(blob):
    blob["steps"][1] = 5


def _label_text(blob):
    blob["steps"][1][1]["label"] = "0"


def _label_true(blob):
    blob["steps"][1][1]["label"] = True


def _sequent_label_float(blob):
    blob["root"]["forms"][0][0] = 0.0


def _forms_entry(entry):
    def edit(blob):
        blob["root"]["forms"] = [entry]
    return edit


def _rel_entry(entry):
    def edit(blob):
        blob["root"]["rel"] = [entry]
    return edit


def _delta(**part):
    def edit(blob):
        blob["steps"][1][3].update(part)
    return edit


def _header(**values):
    def edit(blob):
        blob.update(values)
    return edit


def _step(i, value):
    def edit(blob):
        blob["steps"][i] = value
    return edit


def _premise_count(i, count):
    def edit(blob):
        blob["steps"][i][2] = count
    return edit


def _bogus_certificate_key(blob):
    blob["bogus"] = 1


def _bogus_node_key(blob):
    blob["steps"][1][3]["bogus"] = 1


def _bogus_sequent_key(blob):
    blob["root"]["bogus"] = 1


def _bogus_principal_key(blob):
    blob["steps"][0][1]["bogus"] = 1


def _no_rule(blob):
    del blob["steps"][0][0]


def _no_version(blob):
    del blob["version"]


def _version_1(blob):
    blob["version"] = 1


def _repeated_form(blob):
    forms = blob["steps"][1][3]["forms"]
    forms.append(list(forms[1]))


def _held_form(blob):
    blob["steps"][1][3]["forms"].append([0, "p | ~p"])


def _unknown_rule(blob):
    blob["steps"][1][0] = "smuggle"


@pytest.mark.parametrize(
    "edit, field",
    [
        pytest.param(_premise_five, "steps[1] should be an array, not int",
                     id="_premise_five-premise"),
        pytest.param(_label_text, "steps[1].principal.label should be an int, not str",
                     id="_label_text-label"),
        pytest.param(_label_true, "steps[1].principal.label should be an int, not bool",
                     id="_label_true-label"),
        pytest.param(_sequent_label_float, "root.forms[0][0] should be an int, not float",
                     id="_sequent_label_float-label"),
        (_bogus_certificate_key, "certificate has an unknown key 'bogus'"),
        pytest.param(_bogus_node_key, "steps[1].delta has an unknown key 'bogus'",
                     id="_bogus_node_key-premise has an unknown key 'bogus'"),
        pytest.param(_bogus_sequent_key, "root has an unknown key 'bogus'",
                     id="_bogus_sequent_key-sequent has an unknown key 'bogus'"),
        pytest.param(_bogus_principal_key, "steps[0].principal has an unknown key 'bogus'",
                     id="_bogus_principal_key-principal has an unknown key 'bogus'"),
        pytest.param(_no_rule, "steps[0] should hold 3 values, not 2",
                     id="_no_rule-derivation lacks the key 'rule'"),
        pytest.param(_unknown_rule, "steps[1].rule names no RuleTag: 'smuggle'",
                     id="_unknown_rule-derivation.premises[0].rule names no RuleTag: 'smuggle'"),
        pytest.param(_forms_entry([0]), "root.forms[0] should hold 2 values, not 1",
                     id="edit-forms entry should hold 2 values, not 1"),
        pytest.param(_forms_entry(5), "root.forms[0] should be an array, not int",
                     id="edit-forms entry should be an array, not int"),
        pytest.param(_forms_entry([0, "p &"]), "root.forms[0][1]: unexpected end of input",
                     id="edit-derivation.sequent.forms[0][1]: unexpected end of input"),
        pytest.param(_rel_entry(5), "root.rel[0] should be an array, not int",
                     id="edit-rel entry should be an array, not int"),
        pytest.param(_rel_entry([1, 0]), "root.rel[0] should hold 3 values, not 2",
                     id="edit-rel entry should hold 3 values, not 2"),
        pytest.param(_rel_entry([2, 0, 0]), "root.rel[0][0] is agent 2, out of range 1..1",
                     id="edit-derivation.sequent.rel[0][0] is agent 2, out of range 1..1"),
        pytest.param(_repeated_form, "steps[1].delta.forms[2] repeats an earlier entry",
                     id="_repeated_form-derivation.premises[0].sequent.forms[3] repeats an earlier entry"),
        (_no_version, "certificate lacks the key 'version'"),
        (_version_1, "version should be 2, not 1"),
        (_step(0, ["or", {"label": 0, "formula": "p | ~p"}, 1, {}]),
         "steps[0] should hold 3 values, not 4"),
        (_premise_count(0, 0), "steps[1] is left over: the steps before it make a whole tree"),
        (_premise_count(1, 1), "steps[1] has 1 premise(s), but the steps end after 0 of them"),
        (_premise_count(1, -1), "steps[1].premise_count is -1, below 0"),
        (_premise_count(1, True), "steps[1].premise_count should be an int, not bool"),
        (_header(m=0), "m is 0, below 1"),
        (_header(n=-1), "n is -1, below 0"),
        (_delta(forms=[[0, "p"], [0, "p &"]]), "steps[1].delta.forms[1][1]: unexpected end of input"),
        (_delta(rel=[]), "steps[1].delta.rel should not be empty"),
        (_delta(rel=[[2, 0, 1]]), "steps[1].delta.rel[0][0] is agent 2, out of range 1..1"),
        (_held_form, "steps[1].delta.forms[2] adds an entry its parent holds"),
        (_delta(drop={}), "steps[1].delta.drop should not be empty"),
        (_delta(drop={"forms": [[0, "p"]]}), "steps[1].delta.drop.forms[0] drops an entry its parent lacks"),
        (_delta(drop={"bogus": 1}), "steps[1].delta.drop has an unknown key 'bogus'"),
    ],
)
def test_check_refuses_values_the_writer_never_writes(edit, field, tmp_path, capsys):
    """A step that is not an array or holds too few or too many values, a
    label that is not exactly an int, a key the writer never writes, a
    missing key it always writes, another version, an unknown rule, a text
    that does not parse, an agent out of range, a premise count that leaves
    steps over or short, an empty part of a delta, an added entry that the
    parent holds or an earlier one repeats, and a dropped entry that the
    parent lacks are malformed: exit 2 with one line that names the value
    by its JSON path, not a traceback, a coerced label or a valid
    certificate."""
    cert = tmp_path / "proof.json"
    assert main(["prove", "p | ~p", "--emit-proof", str(cert)]) == 0
    blob = json.loads(cert.read_text())
    edit(blob)
    cert.write_text(json.dumps(blob))
    capsys.readouterr()
    assert main(["check", str(cert)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: malformed certificate:")
    assert field in err


@pytest.fixture(scope="module")
def emitted(tmp_path_factory):
    """The certificates ``prove --choices 1 --emit-proof`` writes for two
    provable goals, the written two-agent G3 fixture, whose two agentive
    boxes each drop their principal formula, and a file to write mutants
    to."""
    folder = tmp_path_factory.mktemp("certificates")
    blobs = []
    for text in ("p | ~p", "dia [1] p -> p"):
        cert = folder / "proof.json"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["prove", text, "--choices", "1", "--emit-proof", str(cert)]) == 0
        blobs.append(json.loads(cert.read_text()))
    g3 = derivation_to_json(*ioa_two_agent_fixture())
    assert sum("drop" in step[3] for step in g3["steps"][1:]) == 2
    blobs.append(g3)
    return blobs, folder / "mutant.json"


def _with_defaults(blob: dict) -> dict:
    """``blob`` with the empty ``rel`` and ``forms`` that the reader takes
    for a key absent from the root sequent."""
    blob["root"].setdefault("rel", [])
    blob["root"].setdefault("forms", [])
    return blob


@settings(derandomize=True, max_examples=400, deadline=None)
@given(data=st.data())
def test_check_exits_0_only_on_a_certificate_that_reads_back_as_written(emitted, data):
    """One edit to an emitted certificate, at any path: dropping, adding or
    retyping a key, an entry or a value, or copying in another subtree.
    `check` exits 0, 1 or 2 and raises nothing, and it exits 0 only if the
    certificate writes back as the same JSON text, but for the defaults
    the reader fills in: a `true` or `0.0` read as an int would show, and
    so would a delta the writer would not write."""
    blobs, path = emitted
    _check_reads_back(data.draw(mutants(blobs)), path)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data())
def test_check_exits_0_only_on_a_drop_that_reads_back_as_written(emitted, data):
    """Likewise, one edit inside the delta of a G3 step that drops a
    formula, or one entry that the step adds put into its drop too.  Of the
    274 places for an edit in the G3 certificate, two are its ``drop``
    lists, too seldom for the test above.  A reader that takes any drop
    shows only on a drop list that keeps its entry and gains one the
    parent lacks; a random edit seldom makes one, and the second kind of
    edit makes one each time."""
    blobs, path = emitted
    g3 = blobs[-1]
    i = data.draw(st.sampled_from(
        [i for i, step in enumerate(g3["steps"]) if i and "drop" in step[3]]
    ))
    mutant = copy.deepcopy(g3)
    delta = mutant["steps"][i][3]
    if data.draw(st.booleans()):
        mutant["steps"][i][3] = data.draw(mutants([delta]))
    else:
        part = data.draw(st.sampled_from([part for part in ("rel", "forms") if part in delta]))
        dropped = delta["drop"].setdefault(part, [])
        entry = copy.deepcopy(data.draw(st.sampled_from(delta[part])))
        dropped.insert(data.draw(st.integers(0, len(dropped))), entry)
    _check_reads_back(mutant, path)


def _check_reads_back(mutant: dict, path) -> None:
    """`check` on ``mutant`` exits 0, 1 or 2, and 0 only if it writes back
    as the same JSON text but for the reader's defaults."""
    path.write_text(json.dumps(mutant))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["check", str(path)])
    assert code in (0, 1, 2)
    if code == 0:
        again = derivation_to_json(*derivation_from_json(mutant))
        assert json.dumps(again, sort_keys=True) == json.dumps(
            _with_defaults(mutant), sort_keys=True
        )


def test_prove_writes_a_certificate_deeper_than_the_recursion_limit(
    tmp_path, monkeypatch, capsys
):
    """A 2,000-node chain is written as 2,001 flat steps, and reads back
    as the same text; ``check`` then judges it, at the root."""
    from stitprover import cli

    top = Derivation(LabelledSequent(), RuleTag.ID, {"label": 0, "atom": "p"})
    for _ in range(2000):
        top = Derivation(LabelledSequent(), RuleTag.OR, {}, (top,))
    monkeypatch.setattr(cli, "prove", lambda cfg, goal: Provable(top, SearchStats()))
    cert = tmp_path / "proof.json"
    assert main(["prove", "p | ~p", "--emit-proof", str(cert)]) == 0
    blob = json.loads(cert.read_text())
    assert len(blob["steps"]) == 2001
    assert derivation_to_json(*derivation_from_json(blob)) == blob
    capsys.readouterr()
    assert main(["check", str(cert)]) == 1
    assert capsys.readouterr().out.startswith("invalid certificate at root: ")


def _deep_json(monkeypatch):
    from stitprover import cli

    obj: list = []
    for _ in range(2000):
        obj = [obj]
    monkeypatch.setattr(cli, "derivation_to_json", lambda cfg, root: {"d": obj})


@pytest.mark.parametrize("too_deep", [_deep_json])
def test_prove_reports_a_certificate_too_deep_to_write(
    too_deep, tmp_path, monkeypatch, capsys
):
    # A 2000-deep JSON value fails in the encoder, which runs before the
    # file is opened; no certificate is that deep.
    too_deep(monkeypatch)
    cert = tmp_path / "proof.json"
    assert main(["prove", "p | ~p", "--emit-proof", str(cert)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("internal limit:")
    assert not cert.exists()


def test_prove_emits_a_checkable_counter_model(tmp_path, capsys):
    out = tmp_path / "model.json"
    assert main(["prove", "box p", "--emit-model", str(out)]) == 1
    model = model_from_json(json.loads(out.read_text()))
    assert check_frame(model, agents=1, choices=0).ok
    assert not evaluate(model, 0, parse("box p"))


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def test_oracle_accepts_valid_formulas(capsys):
    assert main(["oracle", "box p -> p"]) == 0
    assert "valid" in capsys.readouterr().out


def test_oracle_reports_counter_models(tmp_path, capsys):
    out = tmp_path / "cm.json"
    assert main(["oracle", "p", "--emit-model", str(out)]) == 1
    text = capsys.readouterr().out
    assert "counter-model" in text
    model = model_from_json(json.loads(out.read_text()))
    assert not evaluate(model, 0, parse("p"))


def test_oracle_handles_two_agents(capsys):
    goal = "dia [1] p & dia [2] q -> dia ([1] p & [2] q)"
    assert main(["oracle", goal, "--agents", "2", "--max-worlds", "2"]) == 0
    assert "up to" in capsys.readouterr().out


def test_oracle_does_not_call_a_two_agent_goal_valid(capsys):
    """No world bound is proved for several agents, and this goal has a
    counter-model one world beyond its bound of 3."""
    goal = "!([1] p & dia [1] ~p & [2] r & dia [2] ~r)"
    assert main(["oracle", goal, "--agents", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("no counter-model up to 3 worlds; not proved valid")
    assert main(["oracle", goal, "--agents", "2", "--max-worlds", "4"]) == 1
    assert "counter-model found" in capsys.readouterr().out


def test_oracle_refuses_more_atoms_than_it_takes(capsys):
    goal = " | ".join(f"p{i}" for i in range(17))
    assert main(["oracle", goal]) == 3
    assert "at most 16" in capsys.readouterr().err


def test_oracle_respects_the_choice_bound(capsys):
    assert main(["oracle", "dia [1] p -> p"]) == 1
    capsys.readouterr()
    assert main(["oracle", "dia [1] p -> p", "--choices", "1"]) == 0


# ---------------------------------------------------------------------------
# fuzz
# ---------------------------------------------------------------------------


def test_fuzz_agrees_on_a_small_batch(capsys):
    assert main(["fuzz", "--count", "25", "--depth", "2", "--seed", "11"]) == 0
    assert "agreement: 25/25" in capsys.readouterr().out


def test_fuzz_fails_on_rejected_evidence(monkeypatch, capsys):
    from stitprover import differential

    honest = differential.prove
    # Every goal gets the verdict and stable sequent of ``p``: the oracle
    # agrees on refuted goals, but the model need not falsify the goal.
    monkeypatch.setattr(
        differential, "prove", lambda cfg, goal: honest(cfg, parse("p"))
    )
    assert main(["fuzz", "--count", "25", "--depth", "2", "--seed", "11"]) == 1
    assert "failure on formula" in capsys.readouterr().out


def test_fuzz_rejects_an_absurd_atom_count(capsys):
    assert main(["fuzz", "--atoms", "99"]) == 2


# ---------------------------------------------------------------------------
# Harness details
# ---------------------------------------------------------------------------


def test_usage_errors_exit_with_two():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "stitprover", "prove", "box p -> [1] p"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "provable"
