"""Metamorphic relations: two runs whose outputs must agree, where no
oracle says what either output is.

- Hash seed: the command line prints the same bytes, and writes the same
  files, under ``PYTHONHASHSEED`` 0, 1 and 2.
- Inert bystander: a membrane that no rule names, added to the skin,
  changes no node count, edge count or verdict.
- Clock invariance: every function of the package reads a clocked state
  (one that ``run``, ``explore_membranes`` or ``successors`` returns) as
  it reads its ``core.at_rest`` form.
"""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import mobilemem
from conftest import examples
from mobilemem.ambient import canonical_key
from mobilemem.compiler import eliminate_timers, lifetime
from mobilemem.core import INF, Symbol, at_rest, canonicalize, mem, output_reading, validate
from mobilemem.corpus import random_reducible_process, random_timed_system, random_untimed_system
from mobilemem.engine import run, successors
from mobilemem.explore import check_embedding, check_timer_elimination, explore_membranes
from mobilemem.sysfile import SystemFile, render_system
from mobilemem.translate import generate_rules, has_preimage, literal_successors, some_preimage, translate
from mobilemem.untimed import u_canonicalize, umem
from systems import renumber

_DRIVE = """
import contextlib, hashlib, io, os, sys
from pathlib import Path
from mobilemem.ambient import render_process
from mobilemem.cli import main
from mobilemem.corpus import random_reducible_process, random_timed_system, random_untimed_system
from mobilemem.sysfile import SystemFile, render_system

os.chdir(sys.argv[1])
digest = hashlib.sha256()


def drive(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    digest.update(repr((argv, code, out.getvalue(), err.getvalue())).encode())


for seed in range(3):
    s = str(seed)
    for kind, (config, rules) in (("t", random_timed_system(seed)), ("u", random_untimed_system(seed))):
        name = f"{kind}{seed}.mms"
        Path(name).write_text(render_system(SystemFile(kind == "t", "skin", config, rules)))
        drive("sim", name, "--steps", "8", "--seed", s, "--trace", name + ".trace")
        drive("explore", name, "--depth", "4", "--graph", name + ".graph")
        drive("output", name, "--steps", "20", "--seed", s)
        drive("check", "prop2" if kind == "t" else "prop1", name, "--depth", "4")
    drive("compile", f"t{seed}.mms", "-o", f"t{seed}.compiled.mms")
    Path(f"r{seed}.amb").write_text(render_process(random_reducible_process(seed)))
    drive("translate", f"r{seed}.amb", "-o", f"r{seed}.mms")
    drive("translate", f"r{seed}.amb", "--strict-def4", "-o", f"r{seed}.strict.mms")
    drive("sim", f"r{seed}.mms", "--steps", "6", "--seed", s, "--trace", f"r{seed}.trace")
    drive("explore", f"r{seed}.strict.mms", "--depth", "3", "--graph", f"r{seed}.graph")
    drive("check", "prop2", f"r{seed}.strict.mms", "--depth", "3")
    drive("check", "prop45", f"r{seed}.amb", "--depth", "3")
for path in sorted(Path().iterdir()):
    digest.update(path.name.encode() + b"\\0" + path.read_bytes())
print(digest.hexdigest())
"""


def test_the_command_line_prints_the_same_bytes_under_every_hash_seed(tmp_path):
    src = str(Path(mobilemem.__file__).resolve().parents[1])
    digests = []
    for seed in ("0", "1", "2"):
        work = tmp_path / seed
        work.mkdir()
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", _DRIVE, str(work)], capture_output=True, text=True,
                              timeout=120, env=env, check=True)
        digests.append(done.stdout)
    assert len(digests[0]) == 65 and digests[0] == digests[1] == digests[2]


def _beside(config, bystander):
    """``config`` with ``bystander`` added to its skin, uids 1..n."""
    return renumber(replace(config, skin=replace(config.skin, children=config.skin.children + (bystander,))))


def _shape(verdict) -> tuple:
    """A verdict with its keys left out: its outcome, its node counts and
    the number of its witnesses."""
    counts = {k: v for k, v in verdict.details.items() if k.endswith("_nodes")}
    return verdict.ok, counts, len(verdict.details["witnesses"])


def test_an_inert_bystander_changes_no_count_and_no_verdict():
    # timed: an ``inf`` membrane holding an ``inf`` object; the compiler
    # refuses ``inf`` objects, so prop2's bystander is empty
    q = Symbol("q")
    for seed in range(10):
        config, rules = random_timed_system(seed)
        config = renumber(config)
        plain = explore_membranes(config, rules, 4)
        grown = explore_membranes(_beside(config, mem("zz", INF, [(q, INF)])), rules, 4)
        assert (len(grown.nodes), len(grown.edges)) == (len(plain.nodes), len(plain.edges)), seed
        assert _shape(check_timer_elimination(_beside(config, mem("zz", INF)), rules, 4)) == \
            _shape(check_timer_elimination(config, rules, 4)), seed
        config, rules = random_untimed_system(seed)
        config = renumber(config)
        assert _shape(check_embedding(_beside(config, umem("zz", [q])), rules, 4)) == \
            _shape(check_embedding(config, rules, 4)), seed


def _outcome(read, *args):
    """What ``read(*args)`` gives, or the type and message of the error
    it raises."""
    try:
        return read(*args)
    except Exception as err:  # a refusal is an outcome to compare too
        return type(err).__name__, str(err)


def _compiled(config, rules) -> tuple:
    compiled, compiled_rules = eliminate_timers(config, rules)
    return len(compiled_rules), u_canonicalize(compiled)


def _readings(config, rules, depth: int, translated: bool) -> dict:
    """Everything the package reads of ``config`` that must not depend on
    its clock. A symbol no state holds has a lifetime that only the rules
    give, so only the held symbols' lifetimes are read."""
    symbols = {sym for node in config.skin.walk() for (sym, _t), _n in node.content.items()}
    readings = {
        "key": canonicalize(config),
        "output": output_reading(config),
        "validate": validate(config, rules),
        "render": _outcome(render_system, SystemFile(True, config.output_label, config, rules)),
        "compiled": _outcome(_compiled, config, rules),
        "lifetimes": {str(sym): _outcome(lifetime, sym, config, rules) for sym in symbols},
        "successors": [key for _choice, _next, key in successors(config, rules)],
        "run": run(config, rules, 3, "first").to_jsonl(),
    }
    if translated:
        found = some_preimage(config)
        readings["literal"] = _outcome(lambda: [key for _i, _n, key in literal_successors(config, rules)])
        readings["preimage"] = has_preimage(config), found and canonical_key(found)
    if depth == 1:
        readings["prop2"] = check_timer_elimination(config, rules, 2).to_json()
    return readings


def _assert_clock_invariant(config, rules, translated: bool) -> None:
    """Explore ``config`` to depth 3 and compare the readings of each
    clocked state with those of its ``at_rest`` form."""
    graph = explore_membranes(config, rules, 3)
    for key, record in graph.nodes.items():
        state = graph.objects[key]
        if state.clock:
            assert _readings(state, rules, record.depth, translated) == \
                _readings(at_rest(state), rules, record.depth, translated), key


# An example explores a whole system and reads each of its states a dozen
# ways, so these draw a tenth (timed) and a twentieth (translations) of
# what ``examples`` gives: 10 and 5 systems under ``tier1``, 500 and 250
# under ``deep``.
@settings(max_examples=examples(100) // 10)
@given(st.integers(0, 10_000))
def test_a_clocked_state_reads_as_its_form_at_rest_on_timed_systems(seed):
    _assert_clock_invariant(*random_timed_system(seed), False)


@settings(max_examples=examples(100) // 20)
@given(st.integers(0, 10_000))
def test_a_clocked_state_reads_as_its_form_at_rest_on_translations(seed):
    p = random_reducible_process(seed)
    _assert_clock_invariant(translate(p), generate_rules(p), True)
