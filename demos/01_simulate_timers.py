"""Simulating a membrane system with timers.

A mover membrane `h` holds a trigger object `a`; its sibling `m` holds the
matching co-object `~a`. One endo rule lets h enter m, consuming the pair.
Every object and membrane carries a remaining lifetime; the global step
also ticks every timer, deletes expired objects, and dissolves expired
membranes.
"""

from mobilemem import (
    INF,
    Configuration,
    EndoRule,
    Fresh,
    Multiset,
    Symbol,
    canonicalize,
    find_instances,
    maximal_choices,
    mem,
    run,
    step_choices,
)
from mobilemem.engine import choice_describe

a, b, c = Symbol("a"), Symbol("b"), Symbol("c")

system = Configuration(mem("skin", INF, [], [
    mem("h", 3, [(a, 2), (b, 5)]),
    mem("m", INF, [(a.dual(), 4)]),
]))
enter = EndoRule("h", "m", Multiset([a]), w=((c, Fresh(7)),), name="enter")

print("initial configuration:")
print(" ", canonicalize(system))

print("\napplicable instances:")
for inst in find_instances(system, [enter]):
    print(" ", inst.describe())

print("\nsaturated choices (what a greedy run executes):")
for choice in maximal_choices(system, [enter]):
    print(" ", choice_describe(choice))

print("\nall legal choices (a finite-timer object may tick instead of moving):")
for choice in step_choices(system, [enter]):
    print(" ", choice_describe(choice))

print("\na 6-step run (seed 1); watch h's timer drain after it moves:")
trace = run(system, [enter], 6, selector="random", seed=1)
for record in trace.records:
    print(f"  step {record.index}: {record.key}")
print("halted:", trace.halted)
