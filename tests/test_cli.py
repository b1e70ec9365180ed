import hashlib
import json
import subprocess
import sys
import time

import pytest

from conftest import count_calls
from mobilemem import cli
from mobilemem.cli import main
from mobilemem.explore import Verdict
from mobilemem.sysfile import parse_system

S1_TEXT = """mms 1 timed
output skin
skin:inf[ ; h:3[ a:2, b:5 ] m:inf[ ~a:4 ] ]
endo h m : a |  , ~a |  => c:+7 |
"""

S2_TEXT = """mms 1 timed
output skin
skin:inf[ ; h:0[ a:1 ] ]
"""

DEMO_AMB = "n:4[ in:1 m . in:2 k . out:3 s ] | m:6[ ~in:5 m ]\n"


@pytest.fixture
def s1_file(tmp_path):
    path = tmp_path / "s1.mms"
    path.write_text(S1_TEXT)
    return str(path)


def test_sim_writes_identical_traces_for_equal_seeds(tmp_path, s1_file, capsys):
    t1 = tmp_path / "t1.jsonl"
    t2 = tmp_path / "t2.jsonl"
    assert main(["sim", s1_file, "--steps", "3", "--seed", "7", "--trace", str(t1)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["steps"] == 3
    assert main(["sim", s1_file, "--steps", "3", "--seed", "7", "--trace", str(t2)]) == 0
    assert t1.read_bytes() == t2.read_bytes()


def test_output_command(tmp_path, capsys):
    path = tmp_path / "s2.mms"
    path.write_text(S2_TEXT)
    assert main(["output", str(path), "--steps", "10"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["halted"] is True
    assert report["reading"] == {}


def test_compile_then_check(tmp_path, s1_file, capsys):
    out = tmp_path / "s1u.mms"
    assert main(["compile", s1_file, "-o", str(out)]) == 0
    compiled = parse_system(out.read_text())
    assert compiled.compiled and not compiled.timed
    assert main(["check", "prop2", s1_file, "--depth", "3"]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["verdict"] == "pass"


W3_T12 = """mms 1 timed
output skin
skin:inf[ ; h:12[ a:12, c:12 ] m:12[ ~a:12 ] ]
endo h m : a | c , ~a | => c:+12 |
"""


def test_compile_refuses_an_oversized_family_that_check_still_covers(tmp_path, capsys):
    # ROADMAP W3 at T=12 expands to 12^5 + 5 * 13 = 248,897 rules
    path = tmp_path / "w3.mms"
    path.write_text(W3_T12)
    out = tmp_path / "w3u.mms"
    assert main(["compile", str(path), "-o", str(out)]) == 3
    err = capsys.readouterr().err
    assert "248,897 rules" in err and "timed rule r0 alone expands to 248,832" in err
    assert not out.exists()
    assert main(["check", "prop2", str(path), "--depth", "14"]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["verdict"] == "pass"
    assert verdict["details"]["timed_nodes"] == verdict["details"]["compiled_nodes"] == 104


def test_compile_refuses_a_huge_tick_family_before_building_it(tmp_path, capsys, monkeypatch):
    # one object of lifetime 10^8 would need 10^8 tick rules and a kill
    path = tmp_path / "huge.mms"
    path.write_text("mms 1 timed\noutput skin\nskin:inf[ a:100000000 ]\n")
    families = count_calls(monkeypatch, "mobilemem.compiler._tick_family")
    assert main(["compile", str(path)]) == 3
    err = capsys.readouterr().err
    assert "the compiled system has 100,000,001 rules, over the 100,000 compile writes" in err
    assert families.n == 0


@pytest.mark.parametrize("lifetime, built", [("100000", "100,001"), ("100000000", "100,000,001")])
def test_check_prop2_refuses_a_huge_tick_family_before_building_it(tmp_path, lifetime, built):
    # the tick and kill rules prop2 would build are counted from the
    # lifetimes: over MAX_COMPILED_RULES the verdict is inconclusive, exit 2
    path = tmp_path / "huge.mms"
    path.write_text(f"mms 1 timed\noutput skin\nskin:inf[ a:{lifetime} ]\n")
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "mobilemem", "check", "prop2", str(path), "--depth", "1"],
        capture_output=True, text=True, timeout=60,
    )
    assert time.perf_counter() - start < 1
    assert done.returncode == 2 and "Traceback" not in done.stderr
    assert json.loads(done.stdout) == {"check": "prop2", "verdict": "inconclusive", "details": {
        "reason": f"the compiled system needs {built} tick and kill rules, over the 100,000 check prop2 builds"}}


@pytest.mark.parametrize("command, name, text", [
    (["explore"], "a.mms", "mms 1 timed\noutput skin\nskin:inf[ a:3 ]\n"),
    (["check", "prop1"], "p1.mms", "mms 1 untimed\noutput skin\nskin[ a ; p[ b ] ]\nrw * : a => delta\n"),
    (["check", "prop2"], "p2.mms", "mms 1 timed\noutput skin\nskin:inf[ ; h:3[ a:2 ] ]\nexo h skin : a | , ~a | => |\n"),
    (["check", "prop45"], "p45.amb", "n:3[ in:2 m ] | m:3[ ~in:2 m ]\n"),
], ids=["explore", "prop1", "prop2", "prop45"])
def test_a_bound_past_the_last_new_state_costs_nothing(tmp_path, capsys, command, name, text):
    # every state of these systems is found within depth 6: a bound of 10^12
    # prints what depth 6 prints, well inside the timeout (all four ran past
    # it when every level up to the bound was walked)
    path = tmp_path / name
    path.write_text(text)
    assert main([*command, str(path), "--depth", "6"]) == 0
    done = subprocess.run(
        [sys.executable, "-m", "mobilemem", *command, str(path), "--depth", "1000000000000"],
        capture_output=True, text=True, timeout=10,
    )
    assert done.returncode == 0 and "Traceback" not in done.stderr
    assert done.stdout == capsys.readouterr().out


def test_check_prop2_on_the_corpus_prints_the_same_report(capsys):
    # SHA-256 of the report as printed before prop2 sized its systems
    assert main(["check", "prop2", "--corpus", "0,40", "--depth", "6"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == "f75f7c988b4cb19beb4b4db82f0e4eccee6412de99f65b5998ed988399e7a8ce"


HUGE_LIFETIME = "mms 1 timed\noutput skin\nskin:inf[ a:99999999999999999999999 ]\n"
HUGE_LABEL = (
    "mms 1 timed\noutput skin\nskin:inf[ ; h:99999999999999999999[ a:2 ] m:3[ ~a:2 ] ]\n"
    "endo h m : a | , ~a | => |\n"
)


@pytest.mark.parametrize("command, text", [
    (["compile", "{path}"], HUGE_LIFETIME),
    (["check", "prop2", "{path}", "--depth", "1"], HUGE_LIFETIME),
    (["compile", "{path}"], HUGE_LABEL),
    (["check", "prop2", "{path}", "--depth", "1"], HUGE_LABEL),
], ids=["compile-lifetime", "check-lifetime", "compile-label", "check-label"])
def test_a_compiled_size_past_what_len_can_return_exits_3(tmp_path, command, text):
    # ``len`` cannot return more than ``sys.maxsize``: the size is a plain
    # int, refused before a rule is built, and no traceback is printed
    path = tmp_path / "huge.mms"
    path.write_text(text)
    done = subprocess.run(
        [sys.executable, "-m", "mobilemem", *[str(path) if arg == "{path}" else arg for arg in command]],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 3
    assert "Traceback" not in done.stderr
    assert "rules, more than a sequence can index" in done.stderr


def test_embed_then_check(tmp_path, capsys):
    path = tmp_path / "u.mms"
    path.write_text(
        "mms 1 untimed\noutput skin\nskin[ ; h[ a ] m[ ~a ] ]\n"
        "endo h m : a | , ~a | => c |\n"
    )
    out = tmp_path / "t.mms"
    assert main(["embed", str(path), "-o", str(out)]) == 0
    embedded = parse_system(out.read_text())
    assert embedded.timed
    assert main(["check", "prop1", str(path), "--depth", "4"]) == 0


def test_translate_then_explore_reaches_the_moved_shape(tmp_path, capsys):
    amb = tmp_path / "demo.amb"
    amb.write_text(DEMO_AMB)
    out = tmp_path / "demo.mms"
    assert main(["translate", str(amb), "-o", str(out)]) == 0
    graph_file = tmp_path / "graph.json"
    assert main(["explore", str(out), "--depth", "1", "--graph", str(graph_file)]) == 0
    graph = json.loads(graph_file.read_text())
    keys = [node["key"] for node in graph["nodes"]]
    assert "skin:inf{}[m:5{}[n:3{in_k:1,out_s:2}[]]]|out=skin" in keys


def test_translate_strict_mode(tmp_path):
    amb = tmp_path / "demo.amb"
    amb.write_text(DEMO_AMB)
    out = tmp_path / "demo.mms"
    assert main(["translate", str(amb), "-o", str(out), "--strict-def4"]) == 0
    sf = parse_system(out.read_text())
    assert sf.strict and all(r.keep_active_timer for r in sf.rules)


def test_check_prop45(tmp_path, capsys):
    amb = tmp_path / "demo.amb"
    amb.write_text(DEMO_AMB)
    assert main(["check", "prop45", str(amb), "--depth", "2"]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["details"]["reordering"]["reordering_found"]


U_TEXT = """mms 1 untimed
output m
skin[ ; h[ a, b ] m[ ~a, c ] ]
endo h m : a | , ~a | => c |
exo h m : c | , ~c | => a | ~a
rw m : c => d d
"""


def test_untimed_files_run_through_sim_output_and_explore(tmp_path, capsys):
    path = tmp_path / "u.mms"
    path.write_text(U_TEXT)
    moved = "skin{}[m{d,d}[h{b,c}[]]]|out=m"
    assert main(["sim", str(path), "--steps", "4", "--seed", "3"]) == 0
    assert json.loads(capsys.readouterr().out) == {"final": moved, "halted": True, "steps": 2}
    assert main(["output", str(path), "--steps", "5"]) == 0
    assert json.loads(capsys.readouterr().out) == {"halted": True, "reading": {"d": 2}, "steps": 2}
    graph_file = tmp_path / "u.json"
    assert main(["explore", str(path), "--depth", "3", "--graph", str(graph_file)]) == 0
    assert json.loads(capsys.readouterr().out) == {"edges": 2, "nodes": 2, "truncated": False}
    graph = json.loads(graph_file.read_text())
    assert [(n["key"], n["output"], n["per_membrane"]) for n in graph["nodes"]] == [
        ("skin{}[h{a,b}[] m{~a,c}[]]|out=m", ["c", "~a"], []),
        (moved, ["d", "d"], []),
    ]
    assert [e["label"] for e in graph["edges"]] == ["r0@2->3 + r2@3", "(empty)"]
    assert main(["check", "prop2", str(path), "--depth", "2"]) == 3
    assert capsys.readouterr().err == "error: check prop2 expects a timed system\n"
    assert main(["compile", str(path)]) == 3
    assert capsys.readouterr().err == "error: compile expects a timed system\n"


@pytest.mark.parametrize("prop, digest", [
    ("prop1", "a67bd21eb44abd4bb827c9bfa0c7efd63c419d201a3f7e521de66c2b3409e3c3"),
    ("prop45", "5c552846d5d10693d129e628196b816c881221aa3685ef8cfc2e76d68ac3bbdb"),
])
def test_corpus_checks_print_the_same_report(capsys, prop, digest):
    # the SHA-256 of the whole report as printed, two passing verdicts each
    assert main(["check", prop, "--depth", "2", "--corpus", "0,2"]) == 0
    out = capsys.readouterr().out
    assert [v["verdict"] for v in json.loads(out)] == ["pass", "pass"]
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_check_corpus(capsys):
    assert main(["check", "prop2", "--depth", "3", "--corpus", "0,3"]) == 0
    verdicts = json.loads(capsys.readouterr().out)
    assert len(verdicts) == 3


def test_explore_ambient_file(tmp_path, capsys):
    amb = tmp_path / "demo.amb"
    amb.write_text(DEMO_AMB)
    assert main(["explore", str(amb), "--depth", "1"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["nodes"] == 2


def test_usage_and_parse_errors_exit_3(tmp_path, capsys):
    assert main(["check", "prop1", "--depth", "2"]) == 3  # no file, no corpus
    bad = tmp_path / "bad.mms"
    bad.write_text("mms 9 timed\noutput skin\nskin:inf[]\n")
    assert main(["sim", str(bad), "--steps", "1"]) == 3
    assert main(["sim", str(tmp_path / "missing.mms"), "--steps", "1"]) == 3
    assert main(["frobnicate"]) == 3  # unknown subcommand


@pytest.mark.parametrize("command, name, text, where", [
    (["sim", "{path}", "--steps", "1"], "sup.mms", "mms 1 timed\noutput skin\nskin:inf[ a:\u00b2 ]\n", "3:13"),
    (["explore", "{path}", "--depth", "1"], "sup.amb", "n:\u00b2[]\n", "1:3"),
    (["check", "prop45", "{path}", "--depth", "1"], "sup.amb", "n:\u00b2[]\n", "1:3"),
    (["translate", "{path}"], "sup.amb", "n:\u00b2[]\n", "1:3"),
    (["translate", "{path}"], "accent.amb", "n\u00e9:2[] | m:3[ ~in:1 m ]\n", "1:2"),
], ids=["sim", "explore", "check", "translate", "translate-name"])
def test_non_ascii_digits_and_letters_exit_3_at_their_position(tmp_path, capsys, command, name, text, where):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    assert main([arg.format(path=path) for arg in command]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {where}: unexpected character ")


@pytest.mark.parametrize("command, name, data, where", [
    (["sim", "{path}", "--steps", "1"], "bad.mms", b"mms 1 timed\noutput skin\nskin:inf[ a:\xff ]\n", 36),
    (["explore", "{path}", "--depth", "1"], "bad.amb", b"n\xe9:2[]\n", 1),
    (["check", "prop45", "{path}", "--depth", "1"], "bad.amb", b"n\xe9:2[]\n", 1),
    (["translate", "{path}"], "bad.amb", b"n\xe9:2[]\n", 1),
], ids=["sim", "explore", "check", "translate"])
def test_an_input_that_is_not_utf8_exits_3_at_its_byte(tmp_path, capsys, command, name, data, where):
    path = tmp_path / name
    path.write_bytes(data)
    assert main([arg.format(path=path) for arg in command]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: cannot read {path}: not UTF-8 at byte {where}\n"


@pytest.mark.parametrize("command, name, text, flag, work", [
    (["sim", "{path}", "--steps", "1"], "s1.mms", S1_TEXT, "--trace", ("engine.run", "untimed.u_run")),
    (["compile", "{path}"], "s1.mms", S1_TEXT, "-o", ("compiler.eliminate_timers",)),
    (["explore", "{path}", "--depth", "1"], "s1.mms", S1_TEXT, "--graph",
     ("explore.explore_membranes", "explore.explore_untimed")),
    (["explore", "{path}", "--depth", "1"], "u.mms", U_TEXT, "--graph",
     ("explore.explore_membranes", "explore.explore_untimed")),
    (["embed", "{path}"], "u.mms", U_TEXT, "-o", ("compiler.embed_infinite",)),
    (["translate", "{path}"], "demo.amb", DEMO_AMB, "-o", ("translate.translate",)),
], ids=["sim", "compile", "explore", "explore-untimed", "embed", "translate"])
def test_an_output_path_that_cannot_be_written_exits_3(tmp_path, capsys, monkeypatch, command, name, text, flag, work):
    # a missing directory, or a target that is a directory, is found
    # before the command's work starts
    path = tmp_path / name
    path.write_text(text)
    (tmp_path / "outdir").mkdir()
    calls = [count_calls(monkeypatch, f"mobilemem.{function}") for function in work]
    for target, reason in ((tmp_path / "missing" / "out", "no such directory"), (tmp_path / "outdir", "is a directory")):
        assert main([arg.format(path=path) for arg in command] + [flag, str(target)]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: cannot write {target}: {reason}\n"
        assert [c.n for c in calls] == [0] * len(work)


@pytest.mark.parametrize("prop, name, text", [
    ("prop45", "same.amb", "n:3[ in:2 n ] | n:3[ ~in:2 n ]\n"),
    ("prop2", "s1.mms", S1_TEXT),
], ids=["prop45", "prop2"])
def test_check_reads_its_file_before_or_after_its_options(tmp_path, capsys, prop, name, text):
    # an optional positional after an option is left unbound by argparse
    # on some Pythons: the file must be read there too
    path = tmp_path / name
    path.write_text(text)
    outs = []
    for argv in (["check", prop, str(path), "--depth", "2"], ["check", prop, "--depth", "2", str(path)]):
        assert main(argv) == 0
        outs.append(capsys.readouterr())
    assert outs[0] == outs[1] and json.loads(outs[0].out)["verdict"] == "pass"
    assert main(["check", prop, "--depth", "2", str(path), "extra"]) == 3
    assert capsys.readouterr().err == "error: unrecognized arguments: extra\n"


def test_check_given_a_file_and_a_corpus_exits_3_naming_both(s1_file, capsys):
    assert main(["check", "prop2", s1_file, "--depth", "2", "--corpus", "0,1"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: check takes a file or --corpus, not both: {s1_file} and --corpus 0,1\n"


def test_invalid_system_exits_3_naming_the_violation(tmp_path, capsys):
    resting = tmp_path / "resting.mms"
    resting.write_text("mms 1 timed\noutput skin\nskin:inf[ delta:1 ; h:3[ a:2 ] ]\n")
    assert main(["sim", str(resting), "--steps", "2"]) == 3
    assert "dissolution marker at rest inside skin" in capsys.readouterr().err


def test_check_prop1_rejects_timed_input(s1_file, capsys):
    assert main(["check", "prop1", s1_file, "--depth", "2"]) == 3
    assert capsys.readouterr().err == "error: check prop1 expects an untimed system\n"
    assert main(["embed", s1_file]) == 3
    assert capsys.readouterr().err == "error: embed expects an untimed system\n"


def test_cli_runs_as_a_subprocess(tmp_path, s1_file):
    done = subprocess.run(
        [sys.executable, "-m", "mobilemem", "check", "prop2", s1_file, "--depth", "3"],
        capture_output=True, text=True,
    )
    assert done.returncode == 0
    assert json.loads(done.stdout)["verdict"] == "pass"


def test_a_closed_pipe_ends_quietly(s1_file):
    # ``mobilemem check ... | head``: the reader is gone before anything is
    # written, and the run ends with exit code 1 and nothing on stderr
    proc = subprocess.Popen(
        [sys.executable, "-m", "mobilemem", "check", "prop2", s1_file, "--depth", "3"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == ""


@pytest.mark.parametrize("argv, flag", [
    (["sim", "{s1}", "--steps", "-1"], "--steps"),
    (["output", "{s1}", "--steps", "-1"], "--steps"),
    (["explore", "{s1}", "--depth", "-1"], "--depth"),
    (["check", "prop2", "{s1}", "--depth", "-2"], "--depth"),
    (["explore", "{s1}", "--depth", "1", "--max-nodes", "-5"], "--max-nodes"),
    (["check", "prop2", "{s1}", "--depth", "1", "--max-nodes", "0"], "--max-nodes"),
    (["check", "prop2", "--depth", "1", "--corpus", "0,0"], "--corpus"),
    (["check", "prop2", "--depth", "1", "--corpus", "0,-3"], "--corpus"),
    (["check", "prop2", "--depth", "1", "--corpus", "3"], "--corpus"),
])
def test_out_of_range_arguments_exit_3_naming_the_flag(s1_file, capsys, argv, flag):
    assert main([arg.format(s1=s1_file) for arg in argv]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag in err
    assert "Traceback" not in err


SHARED_TEXT = """mms 1 timed
output skin
skin:inf[ ; h:3[ a:2 ] k:3[ a:2 ] m:2[ ~a:2, ~a:2 ] ]
endo h m : a | , ~a | =>  |
endo k m : a | , ~a | =>  |
"""


def test_failing_and_inconclusive_checks_exit_1_and_2(tmp_path, s1_file, capsys):
    # two movers that may share one target in a timed step fight over its
    # counter once compiled: prop2 fails
    shared = tmp_path / "shared.mms"
    shared.write_text(SHARED_TEXT)
    assert main(["check", "prop2", str(shared), "--depth", "3"]) == 1
    assert json.loads(capsys.readouterr().out)["verdict"] == "fail"
    assert main(["check", "prop2", s1_file, "--depth", "3", "--max-nodes", "1"]) == 2
    assert json.loads(capsys.readouterr().out)["verdict"] == "inconclusive"
    untimed = tmp_path / "u.mms"
    untimed.write_text(U_TEXT)
    assert main(["check", "prop1", str(untimed), "--depth", "3", "--max-nodes", "1"]) == 2
    assert json.loads(capsys.readouterr().out) == {"check": "prop1", "verdict": "inconclusive", "details": {
        "reason": "exploration exceeded 1 nodes while expanding depth 0 (frontier of 1 states)"}}
    # an explore over budget still prints and writes the graph it reached
    graph_file = tmp_path / "partial.json"
    assert main(["explore", s1_file, "--depth", "3", "--max-nodes", "1", "--graph", str(graph_file)]) == 2
    out, err = capsys.readouterr()
    assert err == "error: exploration exceeded 1 nodes while expanding depth 0 (frontier of 1 states)\n"
    summary = json.loads(out)
    assert summary["truncated"] is True and summary["nodes"] == 1 and summary["edges"] >= 1
    graph = json.loads(graph_file.read_text())
    assert graph["truncated"] is True
    assert graph["stats"] == {"nodes": summary["nodes"], "edges": summary["edges"]}


@pytest.mark.parametrize("oks, code", [
    ((True, True), 0), ((True, None), 2), ((None, False), 1), ((False, None), 1),
])
def test_check_exit_code_ranks_a_failure_over_an_inconclusive_verdict(monkeypatch, capsys, oks, code):
    verdicts = iter([Verdict("prop2", ok) for ok in oks])
    monkeypatch.setattr(cli, "check_timer_elimination", lambda *args: next(verdicts))
    assert main(["check", "prop2", "--depth", "1", "--corpus", "0,2"]) == code


def _w6(tmp_path, c):
    """ROADMAP W6: one ambient holding c equal capabilities."""
    path = tmp_path / f"w6_{c}.amb"
    path.write_text("n:9[ " + " | ".join(["in:5 m"] * c) + " ] | m:9[ ~in:5 m ]\n")
    return str(path)


def _check_prop45(path, timeout):
    return subprocess.run(
        [sys.executable, "-m", "mobilemem", "check", "prop45", path, "--depth", "2"],
        capture_output=True, text=True, timeout=timeout,
    )


def test_prop45_lists_each_arrangement_of_equal_capabilities_once(tmp_path):
    # the 10 capabilities' preimages are the 30 partitions of the 9 left
    # after the move, not 9! orderings
    done = _check_prop45(_w6(tmp_path, 10), 30)
    assert done.returncode == 0
    (target,) = json.loads(done.stdout)["details"]["reordering"]["targets"]
    assert target["preimages"] == 30 and "truncated" not in target


def test_prop45_preimage_note_says_when_it_is_cut(tmp_path):
    start = time.perf_counter()
    done = _check_prop45(_w6(tmp_path, 30), 60)
    assert done.returncode == 0
    assert time.perf_counter() - start < 5
    (target,) = json.loads(done.stdout)["details"]["reordering"]["targets"]
    assert target["truncated"] is True and target["preimages"] == 2000
