"""Golden digests of observable behaviour on fixed seeded inputs.

Each item is one SHA-256 over a text the toolkit produces: choice sets,
seeded traces, reach graphs, literal successors, check verdicts, the
compiled ROADMAP W3 system, and the demos' standard output. The ambient
items cover both the seeded reducible processes and
``systems.hand_processes()``, prop45 at depths 0, 2 and 4. Every corpus
system is renumbered first, so uids do not depend on which tests ran
before. A refactor must keep every
digest. A change meant to alter one rewrites the file with

    PYTHONPATH=src python tests/test_golden.py --write

and names the changed items and the reason in CHANGES.md.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from mobilemem.core import canonicalize
from mobilemem.corpus import random_reducible_process, random_timed_system, random_untimed_system
from mobilemem.compiler import eliminate_timers
from mobilemem.engine import choice_describe, maximal_choices, run, step_choices
from mobilemem.explore import (
    check_embedding,
    check_timer_elimination,
    check_translation,
    explore_ambients,
    explore_membranes,
    explore_untimed,
)
from mobilemem.sysfile import SystemFile, parse_system, render_system
from mobilemem.translate import generate_rules, literal_successors, translate
from mobilemem.untimed import u_maximal_choices, u_run
from systems import hand_processes, renumber

GOLDEN = Path(__file__).with_name("golden.json")
ROOT = GOLDEN.parents[1]
SEEDS = range(40)
AMBIENT_SEEDS = range(20)

W3_T3 = """mms 1 timed
output skin
skin:inf[ ; h:3[ a:3, c:3 ] m:3[ ~a:3 ] ]
endo h m : a | c , ~a | => c:+3 |
"""


def _timed(seed):
    config, rules = random_timed_system(seed)
    return renumber(config), rules


def _untimed(seed):
    config, rules = random_untimed_system(seed)
    return renumber(config), rules


def _lines(choices) -> str:
    return "\n".join(choice_describe(ch) for ch in choices)


def _json(data) -> str:
    return json.dumps(data, sort_keys=True)


def items():
    """(name, text) pairs in a fixed order, each built when it is reached."""
    for seed in SEEDS:
        config, rules = _timed(seed)
        yield f"maximal_choices/{seed}", _lines(maximal_choices(config, rules))
        yield f"step_choices/{seed}", _lines(step_choices(config, rules))
        yield f"run/{seed}", run(config, rules, 8, "random", seed).to_jsonl()
        yield f"explore_membranes/{seed}", _json(explore_membranes(config, rules, 4).to_json())
        yield f"prop2/{seed}", _json(check_timer_elimination(config, rules, 6).to_json())
    for seed in SEEDS:
        config, rules = _untimed(seed)
        yield f"u_maximal_choices/{seed}", _lines(u_maximal_choices(config, rules))
        yield f"u_run/{seed}", u_run(config, rules, 8, "random", seed).to_jsonl()
        yield f"explore_untimed/{seed}", _json(explore_untimed(config, rules, 4).to_json())
        yield f"prop1/{seed}", _json(check_embedding(config, rules, 6).to_json())
    for seed in AMBIENT_SEEDS:
        yield from _ambient_items(str(seed), random_reducible_process(seed), seed < 10)

    sf = parse_system(W3_T3)
    uconfig, urules = eliminate_timers(sf.config, sf.rules)
    yield "compiled_w3_t3", render_system(
        SystemFile(False, uconfig.output_label, uconfig, urules, compiled=True)
    )
    for i, process in enumerate(hand_processes()):
        yield from _ambient_items(f"hand/{i}", process, True)
    # prop45 at depth 0 reduces the root alone; depth 2 is the shallowest
    # where both correspondence passes walk edges
    shallow = [(str(seed), random_reducible_process(seed)) for seed in AMBIENT_SEEDS]
    shallow += [(f"hand/{i}", process) for i, process in enumerate(hand_processes())]
    for depth in (0, 2):
        for tag, process in shallow:
            yield f"prop45_depth{depth}/{tag}", _json(check_translation(process, depth).to_json())
    for demo in sorted((ROOT / "demos").glob("*.py")):
        yield f"demo/{demo.stem}", _demo_stdout(demo)


def _ambient_items(tag, process, with_prop45):
    pairs = literal_successors(translate(process), generate_rules(process, strict=True))
    yield f"literal_successors/{tag}", "\n".join(
        f"{choice_describe(ch)} => {canonicalize(cfg)}" for ch, cfg, _key in pairs
    )
    yield f"explore_ambients/{tag}", _json(explore_ambients(process, 4).to_json())
    if with_prop45:
        yield f"prop45/{tag}", _json(check_translation(process, 4).to_json())


def _demo_stdout(path: Path) -> str:
    """A demo's standard output, run in its own interpreter so that no
    uid counter depends on what ran before."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(path)], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_golden_digests():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    names = []
    for name, text in items():
        names.append(name)
        assert name in want, f"item {name} has no golden digest"
        assert _digest(text) == want[name], f"first item that differs: {name}"
    assert names == list(want), "golden items were added or removed"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    digests = {name: _digest(text) for name, text in items()}
    GOLDEN.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
