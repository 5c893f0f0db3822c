import json
import warnings
from pathlib import Path

import pytest

from finsys.finring import CapExceeded
from finsys.harness import (
    InstanceFile,
    ParseError,
    UnresolvedRef,
    parse,
    parse_path,
    random_instances,
    run,
    scenario,
    serialize,
)
from finsys.harness.checks import replay
from finsys.harness.cli import main
from finsys.harness.scenarios import BadParams, build_galois

FIXTURES = Path(__file__).parent.parent / "fixtures"
NEGATIVE = Path(__file__).parent / "fixtures"


# ---------------------------------------------------------------------------
# parsing


def test_empty_file_is_empty_instance():
    inst = parse("")
    assert inst.is_empty()
    report = run(inst)
    assert report.rows == [] and report.exit_code() == 0


def test_shipped_fixtures_parse_and_pass():
    for path in sorted(FIXTURES.glob("*.ins")):
        inst = parse_path(path)
        report = run(inst)
        assert report.fail_count() == 0, (path, report.text())


def test_dangling_reference():
    with pytest.raises(UnresolvedRef):
        parse_path(NEGATIVE / "broken_ref.ins")


def test_bad_line_reports_line_number():
    with pytest.raises(ParseError) as err:
        parse_path(NEGATIVE / "bad_line.ins")
    assert err.value.lineno == 4


def test_cap_honored_at_parse():
    with pytest.raises(CapExceeded):
        parse_path(NEGATIVE / "over_cap.ins")
    parse_path(NEGATIVE / "over_cap.ins", cap=10000)


def test_comments_and_blank_lines_ignored():
    inst = parse("# leading comment\n\n[ring F2] # trailing\nranks = 2\nmul 1 1 = 1\n")
    assert inst.rings["F2"].order == 2


def test_content_before_header_rejected():
    with pytest.raises(ParseError):
        parse("ranks = 2\n")


def test_duplicate_section_rejected():
    text = "[ring R]\nranks = 2\n[ring R]\nranks = 2\n"
    with pytest.raises(UnresolvedRef):
        parse(text)


# ---------------------------------------------------------------------------
# serialization round trips


def test_serialize_reparse_fixture():
    inst = parse_path(FIXTURES / "swap_action.ins")
    text = serialize(inst)
    again = parse(text)
    assert [k for k, _ in again.order] == [k for k, _ in inst.order]
    assert serialize(again) == text
    r1 = run(inst)
    r2 = run(again)
    assert [(r.name, r.status) for r in r1.rows] == \
        [(r.name, r.status) for r in r2.rows]


def test_serialize_scenario_with_mangled_labels():
    inst = scenario("matrix-groupoid", n="2", K="F2")
    text = serialize(inst)
    again = parse(text)
    assert set(again.groupoids) == {"matrix2"}
    assert len(again.gpas["groupoid_ring"].groupoid.morphisms) == 4
    report = run(again)
    assert report.fail_count() == 0


def test_serialize_semigroup_scenario():
    inst = scenario("symmetric-inverse-monoid", n="2")
    again = parse(serialize(inst))
    S = next(iter(again.semigroups.values()))
    assert len(S) == 7


# ---------------------------------------------------------------------------
# scenarios


def test_all_scenarios_build_and_pass():
    cases = [
        ("matrix-groupoid", {}),
        ("group-as-groupoid", {"group": "C3"}),
        ("disconnected", {}),
        ("pair-steinberg", {}),
        ("galois-field", {}),
        ("symmetric-inverse-monoid", {}),
    ]
    for name, params in cases:
        inst = scenario(name, **params)
        report = run(inst)
        assert report.fail_count() == 0, (name, report.text())


def test_scenario_bad_params():
    with pytest.raises(BadParams):
        scenario("matrix-groupoid", n="17")
    with pytest.raises(BadParams):
        scenario("matrix-groupoid", K="F6")
    with pytest.raises(BadParams):
        scenario("no-such-scenario")
    with pytest.raises(BadParams):
        scenario("galois-field", p="2", n="7")
    with pytest.raises(BadParams):
        scenario("pair-steinberg", bogus="1")


def test_galois_scenario_invariants():
    sc = build_galois(2, 2)
    assert sc.frobenius_order() == 2
    assert sc.action.is_global
    sc = build_galois(3, 1)
    assert sc.frobenius_order() == 1


# ---------------------------------------------------------------------------
# fuzz


def test_fuzz_deterministic():
    a = random_instances(12, 4)
    b = random_instances(12, 4)
    ra = "\n".join(run(i).text() for i in a)
    rb = "\n".join(run(i).text() for i in b)
    assert ra == rb


def test_fuzz_instances_are_valid_and_commutative():
    for inst in random_instances(3, 6):
        pi = inst.pactions["pi"]
        assert pi.ring.is_commutative
        from finsys.finring import unitality_predicates
        assert unitality_predicates(pi.ring)["s_unital"]


def test_fuzz_bounds_clamped_with_warning():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        random_instances(0, 1, max_lpi=10 ** 9)
    assert any("clamp" in str(w.message) for w in caught)


# ---------------------------------------------------------------------------
# reports


def test_report_byte_identical():
    inst = parse_path(FIXTURES / "group_ring.ins")
    assert run(inst).text() == run(inst).text()
    assert run(inst).machine() == run(inst).machine()


def test_checks_filter():
    inst = parse_path(FIXTURES / "group_ring.ins")
    report = run(inst, checks=["system.group_ring"])
    assert report.rows
    assert all(r.name.startswith("system.group_ring") for r in report.rows)


def test_machine_format_records():
    inst = parse_path(FIXTURES / "rings.ins")
    for line in run(inst).machine().splitlines():
        rec = json.loads(line)
        assert {"name", "status", "witness", "millis", "instance"} <= set(rec)
        assert rec["millis"] == 0


def test_exit_code_and_lines_on_failures():
    from finsys.harness.checks import Report, ReportRow

    report = Report(rows=[
        ReportRow("a.ok", "PASS"),
        ReportRow("a.bad", "FAIL", {"x": (1, 0)}),
        ReportRow("a.capped", "SKIPPED", {"reason": "cap"}),
    ])
    assert report.exit_code() == 1 and report.fail_count() == 1
    text = report.text()
    assert "CHECK a.bad: FAIL (witness: x=(1,0))" in text
    assert "CHECK a.capped: SKIPPED(cap)" in text
    assert "1 failures" in text


def test_replay_roundtrip(tmp_path):
    inst = parse_path(FIXTURES / "group_ring.ins")
    report = run(inst)
    record = report.rows[0].record(instance=str(FIXTURES / "group_ring.ins"))
    ok, message = replay(record)
    assert ok, message
    tampered = dict(record, status="FAIL")
    ok, message = replay(tampered)
    assert not ok


def test_replay_runs_only_the_emitting_battery(monkeypatch):
    from finsys.harness import checks

    ran = []
    for name in ("_ring_battery", "_semigroup_battery", "_groupoid_battery",
                 "_system_battery", "_paction_battery", "_gpa_battery",
                 "_steinberg_battery"):
        def counted(*args, _name=name, _original=getattr(checks, name)):
            ran.append(_name)
            return _original(*args)
        monkeypatch.setattr(checks, name, counted)
    for path in sorted(FIXTURES.glob("*.ins")):
        for row in run(parse_path(path)).rows:
            ran.clear()
            ok, message = replay(row.record(instance=str(path)))
            assert ok, message
            assert len(ran) == 1, (row.name, ran)


def test_fuzz_source_tag_names_non_default_bounds():
    assert random_instances(5, 1)[0].source == "fuzz:5:0"
    assert random_instances(5, 1, max_ring=9)[0].source == "fuzz:5:0:max_ring=9"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        inst = random_instances(5, 1, max_lpi=10 ** 9)[0]
    assert inst.source == "fuzz:5:0:max_lpi=4096"


def test_replay_fuzz_source():
    inst = random_instances(5, 1)[0]
    report = run(inst)
    record = report.rows[0].record(instance=inst.source)
    ok, message = replay(record)
    assert ok, message
    for bad in ("fuzz:5:0:bogus=1", "fuzz:5:0:max_ring", "fuzz:5"):
        ok, message = replay(dict(record, instance=bad))
        assert not ok and message.startswith("bad fuzz source tag")


# ---------------------------------------------------------------------------
# CLI


def test_cli_verify_ok(capsys):
    assert main(["verify", str(FIXTURES / "matrix_system.ins")]) == 0
    out = capsys.readouterr().out
    assert "SUMMARY" in out and "FAIL" not in out


def test_cli_verify_parse_error(capsys):
    assert main(["verify", str(NEGATIVE / "bad_line.ins")]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("fixture,edits,message", [
    # a bijection that moves 0, so the map at g is not additive
    ("swap_action.ins", [("0,0 -> 0,0", "0,0 -> 1,0"), ("1,0 -> 0,1", "1,0 -> 0,0"),
                         ("0,1 -> 1,0", "0,1 -> 0,1")],
     "map at g is not additive"),
    # span of (1,1) in F_2 x F_2 does not absorb (1,0)
    ("swap_action.ins", [("domain g = 1,0;0,1", "domain g = 1,1")],
     "domain of g is not a two-sided ideal"),
    # swapped off-diagonal components: R_m11 R_m21 = E11 E12 escapes R_o = 0
    ("matrix_system.ins", [("component m12 = 0,1,0,0", "component m12 = 0,0,1,0"),
                           ("component m21 = 0,0,1,0", "component m21 = 0,1,0,0")],
     "R_m11 * R_m21 escapes R_o"),
])
def test_cli_verify_invalid_instance(tmp_path, capsys, fixture, edits, message):
    text = (FIXTURES / fixture).read_text()
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    target = tmp_path / fixture
    target.write_text(text)
    assert main(["verify", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")
    assert captured.err.count("\n") == 1


def test_cli_verify_missing_file(capsys):
    assert main(["verify", "/no/such/file.ins"]) == 2


def test_cli_scenario_emit_and_verify(tmp_path, capsys):
    target = tmp_path / "pair.ins"
    assert main(["scenario", "pair-steinberg", "n=2", "K=F2",
                 "--emit", str(target)]) == 0
    assert target.exists()
    assert main(["verify", str(target)]) == 0


def test_cli_scenario_bad_params(capsys):
    assert main(["scenario", "matrix-groupoid", "n=9"]) == 2


def test_cli_fuzz(capsys):
    assert main(["fuzz", "--seed", "2", "--count", "2"]) == 0
    out = capsys.readouterr().out
    assert "SUMMARY: 2 instances" in out


def test_cli_fuzz_machine_output_replays(tmp_path, capsys):
    assert main(["fuzz", "--seed", "3", "--count", "4", "--format", "machine"]) == 0
    captured = capsys.readouterr()
    assert "SUMMARY: 4 instances" in captured.err
    records = captured.out.splitlines()
    assert records and all(json.loads(line) for line in records)
    witness_file = tmp_path / "fuzz.jsonl"
    witness_file.write_text(captured.out)
    assert main(["replay", str(witness_file)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(records)
    assert all(line.startswith("REPLAY OK: ") for line in lines)


def test_cli_fuzz_non_default_bounds_replay(tmp_path, capsys):
    # the source tag carries the bounds, so replay regenerates the instances
    assert main(["fuzz", "--seed", "5", "--count", "6", "--max-ring", "9",
                 "--max-lpi", "81", "--format", "machine"]) == 0
    records = capsys.readouterr().out.splitlines()
    assert records
    assert all(json.loads(line)["instance"].endswith(":max_ring=9:max_lpi=81")
               for line in records)
    witness_file = tmp_path / "fuzz.jsonl"
    witness_file.write_text("\n".join(records))
    assert main(["replay", str(witness_file)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(records)
    assert all(line.startswith("REPLAY OK: ") for line in lines)


def test_cli_replay_uses_its_caps(tmp_path, capsys):
    assert main(["verify", str(FIXTURES / "swap_action.ins"), "--skew-cap", "4",
                 "--format", "machine"]) == 0
    out = capsys.readouterr().out
    assert '"status": "SKIPPED"' in out
    witness_file = tmp_path / "records.jsonl"
    witness_file.write_text(out)
    assert main(["replay", str(witness_file), "--skew-cap", "4"]) == 0
    assert "MISMATCH" not in capsys.readouterr().out
    assert main(["replay", str(witness_file)]) == 1
    assert "REPLAY MISMATCH: check paction.swap.skew_ring" in capsys.readouterr().out


def test_cli_build_skew(capsys):
    assert main(["build-skew", str(FIXTURES / "swap_action.ins"), "swap"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["skew_ring_order"] == 16
    assert info["skew_ring_simple"] is True


def test_cli_verdict_tokens(tmp_path, capsys):
    assert main(["verdict", "thm5.8", str(FIXTURES / "swap_action.ins"),
                 "swap"]) == 0
    out = capsys.readouterr().out
    assert "skew_simplicity_criterion: PASS" in out
    target = tmp_path / "galois.ins"
    main(["scenario", "galois-field", "p=2", "n=2", "--emit", str(target)])
    capsys.readouterr()
    assert main(["verdict", "thm7.5", str(target), "frobenius"]) == 0
    out = capsys.readouterr().out
    assert "skew_simplicity_biconditional: PASS" in out


def test_cli_steinberg(tmp_path, capsys):
    target = tmp_path / "pair.ins"
    main(["scenario", "pair-steinberg", "--emit", str(target)])
    capsys.readouterr()
    assert main(["steinberg", "verdict", str(target), "F2", "pair2"]) == 0
    out = capsys.readouterr().out
    assert "steinberg_simplicity: PASS" in out
    assert "roundtrip_function_side: PASS" in out


def test_cli_machine_format_and_replay(tmp_path, capsys):
    assert main(["verify", str(FIXTURES / "group_ring.ins"),
                 "--format", "machine"]) == 0
    out = capsys.readouterr().out
    witness_file = tmp_path / "records.jsonl"
    witness_file.write_text(out)
    assert main(["replay", str(witness_file)]) == 0
    assert "REPLAY OK" in capsys.readouterr().out
