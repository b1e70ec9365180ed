"""Command-line front end.

Exit codes: 0 success / check passed, 1 check failed, 2 check
inconclusive (node budget exceeded), 3 usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .engine import run
from .untimed import u_run
from .compiler import CompileError, eliminate_timers, embed_infinite
from .explore import (
    DEFAULT_NODE_CAP,
    BudgetExceeded,
    check_embedding,
    check_timer_elimination,
    check_translation,
    explore_ambients,
    explore_membranes,
    explore_untimed,
)
from .ambient import AmbientSyntaxError, parse_ambient
from .translate import TranslateError, generate_rules, translate
from .sysfile import InvalidSystemError, ParseError, SystemFile, parse_system, render_system
from . import corpus
from .core import output_reading


#: Most rules ``compile`` writes out. Every timed move rule expands to one
#: untimed rule per counter vector, about T^5 for a two-slot rule with
#: lifetimes T (ROADMAP W3: 248,897 rules at T=12). ``check prop2`` matches
#: the compact families directly and has no such limit.
MAX_COMPILED_RULES = 100_000


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _emit(data) -> None:
    print(json.dumps(data, indent=2, sort_keys=True))


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise UsageError(f"cannot read {path}: {err}")
    except UnicodeDecodeError as err:
        raise UsageError(f"cannot read {path}: not UTF-8 at byte {err.start}")


def _write_out(text: str, out: str | None) -> None:
    """Write ``text`` to the file ``out``, or to stdout if ``out`` is None."""
    if out is None:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text, encoding="utf-8")
    except OSError as err:
        raise UsageError(f"cannot write {out}: {err}")


def _check_out(out: str | None) -> None:
    """Refuse, before any work, an output path in a missing directory or
    naming a directory."""
    if out is None:
        return
    if not os.path.isdir(os.path.dirname(out) or "."):
        raise UsageError(f"cannot write {out}: no such directory")
    if os.path.isdir(out):
        raise UsageError(f"cannot write {out}: is a directory")


def _load_system(path: str, timed: bool | None = None, command: str = "") -> SystemFile:
    """The system in ``path``; with ``timed`` given, one of that kind, or a
    usage error naming ``command``."""
    sf = parse_system(_read(path))
    if timed is not None and sf.timed != timed:
        raise UsageError(f"{command} expects {'a timed' if timed else 'an untimed'} system")
    return sf


def _cmd_sim(args) -> int:
    sf = _load_system(args.file)
    trace = (run if sf.timed else u_run)(sf.config, sf.rules, args.steps, args.selector, args.seed)
    if args.trace:
        _write_out(trace.to_jsonl(), args.trace)
    _emit({
        "steps": len(trace.records),
        "halted": trace.halted,
        "final": trace.records[-1].key if trace.records else trace.initial_key,
    })
    return 0


def _cmd_compile(args) -> int:
    sf = _load_system(args.file, True, "compile")
    uconfig, urules = eliminate_timers(sf.config, sf.rules)
    if len(urules) > MAX_COMPILED_RULES:
        message = f"the compiled system has {len(urules):,} rules, over the {MAX_COMPILED_RULES:,} compile writes"
        schemas = urules.schemas()
        if schemas:
            widest = max(schemas, key=len)
            message += f"; timed rule {widest.rule.name} alone expands to {len(widest):,}"
        raise UsageError(message)
    out = SystemFile(False, uconfig.output_label, uconfig, urules, compiled=True)
    _write_out(render_system(out), args.output)
    return 0


def _cmd_embed(args) -> int:
    sf = _load_system(args.file, False, "embed")
    config, rules = embed_infinite(sf.config, sf.rules)
    out = SystemFile(True, config.output_label, config, rules)
    _write_out(render_system(out), args.output)
    return 0


def _cmd_translate(args) -> int:
    process = parse_ambient(_read(args.file))
    config = translate(process)
    rules = generate_rules(process, strict=args.strict_def4)
    out = SystemFile(True, config.output_label, config, rules, strict=args.strict_def4)
    _write_out(render_system(out), args.output)
    return 0


def _cmd_explore(args) -> int:
    """A node budget that runs out still prints, and writes, the graph
    explored so far, then exits 2."""
    try:
        if args.file.endswith(".amb"):
            graph = explore_ambients(parse_ambient(_read(args.file)), args.depth, args.max_nodes)
        else:
            sf = _load_system(args.file)
            explore = explore_membranes if sf.timed else explore_untimed
            graph = explore(sf.config, sf.rules, args.depth, args.max_nodes)
        over = None
    except BudgetExceeded as err:
        graph, over = err.graph, err
    if args.graph:
        _write_out(json.dumps(graph.to_json(), indent=2, sort_keys=True), args.graph)
    _emit({"nodes": len(graph.nodes), "edges": len(graph.edges), "truncated": graph.truncated})
    if over is not None:
        raise over
    return 0


def _at_least(minimum: int):
    """argparse type: an integer no smaller than ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return parse


def _corpus_arg(text: str) -> tuple[int, int]:
    try:
        seed, count = (int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'seed,count', got {text!r}")
    if count < 1:
        raise argparse.ArgumentTypeError(f"count must be at least 1, got {count}")
    return seed, count


def _cmd_check(args) -> int:
    # per property: the check, the corpus generator of its inputs, and the
    # kind of system file it reads (None: an ambient process)
    check, generate, timed = {
        "prop1": (check_embedding, corpus.random_untimed_system, False),
        "prop2": (check_timer_elimination, corpus.random_timed_system, True),
        "prop45": (check_translation, lambda seed: (corpus.random_reducible_process(seed),), None),
    }[args.prop]
    if args.corpus:
        seed, count = args.corpus
        if args.file:
            raise UsageError(f"check takes a file or --corpus, not both: {args.file} and --corpus {seed},{count}")
        inputs = (generate(seed + i) for i in range(count))
    elif not args.file:
        raise UsageError("check needs a file or --corpus seed,count")
    elif timed is None:
        inputs = [(parse_ambient(_read(args.file)),)]
    else:
        sf = _load_system(args.file, timed, f"check {args.prop}")
        inputs = [(sf.config, sf.rules)]
    verdicts = [check(*system, args.depth, args.max_nodes) for system in inputs]
    _emit([v.to_json() for v in verdicts] if len(verdicts) > 1 else verdicts[0].to_json())
    codes = {v.exit_code for v in verdicts}  # a failure outranks an inconclusive verdict
    return 1 if 1 in codes else max(codes)


def _cmd_output(args) -> int:
    sf = _load_system(args.file)
    trace = (run if sf.timed else u_run)(sf.config, sf.rules, args.steps, "random", args.seed)
    reading = output_reading(trace.final)
    _emit({
        "halted": trace.halted,
        "steps": len(trace.records),
        "reading": {str(sym): n for sym, n in reading.items()},
    })
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="mobilemem", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sim", help="simulate a membrane system")
    p.add_argument("file")
    p.add_argument("--steps", type=_at_least(0), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--selector", choices=["first", "random"], default="random")
    p.add_argument("--trace", help="write a JSON-lines trace here")
    p.set_defaults(func=_cmd_sim)

    p = sub.add_parser("compile", help="eliminate timers from a timed system")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("embed", help="embed an untimed system with inf timers")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("translate", help="translate a mobile ambient process")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.add_argument("--strict-def4", action="store_true",
                   help="literal rule mode: movement keeps the mover's timer")
    p.set_defaults(func=_cmd_translate)

    p = sub.add_parser("explore", help="bounded exhaustive exploration")
    p.add_argument("file")
    p.add_argument("--depth", type=_at_least(0), required=True)
    p.add_argument("--graph", help="write the reach graph as JSON here")
    p.add_argument("--max-nodes", type=_at_least(1), default=DEFAULT_NODE_CAP)
    p.set_defaults(func=_cmd_explore)

    p = sub.add_parser("check", help="equivalence and correspondence checks")
    p.add_argument("prop", choices=["prop1", "prop2", "prop45"])
    p.add_argument("file", nargs="?")
    p.add_argument("--depth", type=_at_least(0), required=True)
    p.add_argument("--corpus", type=_corpus_arg,
                   help="seed,count of random systems instead of a file")
    p.add_argument("--max-nodes", type=_at_least(1), default=DEFAULT_NODE_CAP)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("output", help="run to halt (or budget) and read the output membrane")
    p.add_argument("file")
    p.add_argument("--steps", type=_at_least(0), default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_output)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        for out in ("trace", "graph", "output"):  # the commands that write a file
            _check_out(getattr(args, out, None))
        return args.func(args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (ParseError, InvalidSystemError, AmbientSyntaxError, TranslateError, CompileError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except BudgetExceeded as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def entry() -> None:
    """The console script. A reader that closes stdout early (``| head``)
    ends the run quietly with exit code 1, by the recipe of Python's
    ``signal`` documentation (note on SIGPIPE): stdout, flushed again at
    exit, is pointed at devnull first."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    entry()
