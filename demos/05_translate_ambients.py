"""Translating ambients into membranes, and what gets lost.

Capabilities become timed objects, ambients become membranes, and prefix
ORDER is erased: `in m . in k . out s` and `out s . in k` -- any order --
translate to the same object multiset. Every ambient movement is matched
by a membrane movement with the same image. The converse direction is
weaker: a reachable membrane state can be the image of a process whose
capability order the ambient semantics can never produce.
"""

import json

from mobilemem import (
    check_correspondence_PQ,
    check_preimage_reordering,
    check_translation,
    explore_ambients,
    generate_rules,
    parse_ambient,
    translate,
)
from mobilemem.core import canonicalize

process = parse_ambient("n:4[ in:1 m . in:2 k . out:3 s ] | m:6[ ~in:5 m ]")

config = translate(process)
print("membrane image (prefix order gone, one object per capability):")
print(" ", canonicalize(config))

print("\ngenerated movement rules:")
for rule in generate_rules(process):
    print(f"  {rule.name}: {type(rule).__name__} consuming "
          f"{'/'.join(str(s) for s in rule.u)} against its dual")

print("\nforward correspondence (every ambient move has a membrane match):")
report = check_correspondence_PQ(explore_ambients(process, 2))
print(f"  {report['edges']} movement edges checked, "
      f"{'all matched' if report['ok'] else report['misses']}")

print("\nthe reordering phenomenon:")
report = check_preimage_reordering(process)
target = report["targets"][0]
print("  reached membrane state:", target["n_key"])
print(f"  it has {target['preimages']} ambient preimages; these are not")
print("  one-step reducts of the source process:")
for key in target["unreachable_preimages"]:
    print("   ", key)

print("\nfull two-direction check at depth 2:")
verdict = check_translation(process, 2)
print(" ", json.dumps(verdict.to_json()["verdict"]))
