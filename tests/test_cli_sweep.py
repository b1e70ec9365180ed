"""Bad or odd input never ends the command line in a traceback (ROADMAP
item 7, the no-traceback half of row M1).

``cli.main`` is called in process on two seeded input sets, and every
call must return 0, 1, 2 or 3 and raise nothing:

- 300 word mutants of corpus ``.mms`` texts that parse
  (``test_sysfile._mutants``), each through ``sim`` (both selectors,
  with ``--trace``), ``explore --graph``, ``compile -o``, ``embed -o``,
  ``output`` and ``check prop1`` and ``prop2``, at depth 2;
- 150 ``.amb`` texts (``systems.random_process``), every second one with
  one word edited, each through ``translate -o``, ``explore`` of the
  process and of its translation, and ``check prop45``, at depth 3.

The file runs as it is against an installed package too: it reads only
``mobilemem`` and the test helpers beside it.
"""

import contextlib
import io
import random
from itertools import islice

from mobilemem.ambient import render_process
from mobilemem.cli import main
from mobilemem.sysfile import InvalidSystemError, ParseError, parse_system
from systems import random_process
from test_sysfile import _mutants


def _sweep(runs) -> list:
    """The ``(argv, outcome)`` of each call of ``main`` in ``runs`` that
    did not return an exit code in 0..3: the code, or the exception."""
    bad = []
    for argv in runs:
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
        except BaseException as err:  # a traceback is what this test looks for
            bad.append((argv, repr(err)))
            continue
        if code not in (0, 1, 2, 3):
            bad.append((argv, code))
    return bad


def _parses(text: str) -> bool:
    try:
        parse_system(text)
    except (ParseError, InvalidSystemError):
        return False
    return True


def _mms_runs(texts):
    for i, text in enumerate(texts):
        name = f"m{i}.mms"
        with open(name, "w", encoding="utf-8") as out:
            out.write(text)
        yield ["sim", name, "--steps", "2", "--selector", "first", "--trace", name + ".first.jsonl"]
        yield ["sim", name, "--steps", "2", "--selector", "random", "--seed", str(i), "--trace", name + ".jsonl"]
        yield ["explore", name, "--depth", "2", "--graph", name + ".graph.json"]
        yield ["compile", name, "-o", name + ".compiled.mms"]
        yield ["embed", name, "-o", name + ".embedded.mms"]
        yield ["output", name, "--steps", "2", "--seed", str(i)]
        yield ["check", "prop1", name, "--depth", "2"]
        yield ["check", "prop2", name, "--depth", "2"]


def test_mms_mutants_never_end_in_a_traceback(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    texts = list(islice(filter(_parses, _mutants(10_000, seed=39)), 300))
    assert len(texts) == 300
    assert _sweep(_mms_runs(texts)) == []


def _edited(text: str, rng: random.Random) -> str:
    """``text`` with one space-separated word deleted, doubled, swapped
    with another, or cut by one character."""
    words = text.split(" ")
    i, k = rng.randrange(len(words)), rng.randrange(len(words))
    op = rng.randrange(4)
    if op == 0:
        del words[i]
    elif op == 1:
        words.insert(i, words[i])
    elif op == 2:
        words[i], words[k] = words[k], words[i]
    elif words[i]:
        j = rng.randrange(len(words[i]))
        words[i] = words[i][:j] + words[i][j + 1:]
    return " ".join(words)


def _amb_runs(texts):
    for i, text in enumerate(texts):
        name = f"p{i}.amb"
        with open(name, "w", encoding="utf-8") as out:
            out.write(text)
        yield ["translate", name, "-o", name + ".mms"]
        yield ["explore", name, "--depth", "3"]
        yield ["explore", name + ".mms", "--depth", "3"]
        yield ["check", "prop45", name, "--depth", "3"]


def test_ambient_texts_never_end_in_a_traceback(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rng = random.Random(39)
    texts = [render_process(random_process(seed)) for seed in range(150)]
    texts = [_edited(text, rng) if i % 2 else text for i, text in enumerate(texts)]
    assert _sweep(_amb_runs(texts)) == []
