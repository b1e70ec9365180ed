"""Independent reference interpreter used as a test oracle.

Same documented semantics as the engine, written separately and naively:
plain-dict membranes, brute-force slot assignment via cartesian products,
choice enumeration by explicit count vectors, and sequential phase
application. Slow, simple, and structurally unlike the engine on purpose.
The ambient half keeps the plain recursive time progress, redex search and
reduct enumeration that ``mobilemem.ambient`` replaced with folds.
"""

from itertools import product

from mobilemem import ambient as amb
from mobilemem.core import INF, EndoRule, ExoRule, Fresh, RewriteRule, decrement

DELTA_KEY = ("delta", False)


def from_config(config):
    """``config`` as plain-dict membranes with remaining timers: every
    stored timer is a deadline, less the configuration's clock (``INF``
    less a number stays ``INF``)."""
    clock = config.clock

    def conv(node):
        objs = {}
        for (sym, t), n in node.content.items():
            objs[(sym.name, sym.is_co, t - clock)] = n
        return {
            "uid": node.uid,
            "label": node.label,
            "timer": node.timer - clock,
            "objs": objs,
            "kids": [conv(c) for c in node.children],
        }

    return conv(config.skin)


def render(node):
    objs = sorted(
        f"{'~' if co else ''}{name}:{'inf' if t == INF else int(t)}"
        for (name, co, t), n in node["objs"].items()
        for _ in range(n)
    )
    kids = sorted(render(c) for c in node["kids"])
    timer = "inf" if node["timer"] == INF else int(node["timer"])
    return f"{node['label']}:{timer}{objs}{kids}"


def membranes(root):
    """``(uid, parent uid, label, timer, objects)`` of every membrane: the
    tree compared membrane by membrane, uids included."""
    return {
        (node["uid"], None if parent is None else parent["uid"], node["label"], node["timer"],
         frozenset(node["objs"].items()))
        for node, parent in walk(root)
    }


def copies(choice) -> list:
    """An engine choice, ``(instance, count)`` pairs, written out as one
    instance per copy. Checks the pairs' form on the way: distinct
    instances in sort-key order, each counted at least once, a move
    exactly once."""
    keys = [inst.sort_key() for inst, _n in choice]
    assert keys == sorted(set(keys)), choice
    out = []
    for inst, n in choice:
        assert n >= 1 and (n == 1 or not inst.is_move), choice
        out += [inst] * n
    return out


def from_choice(choice):
    """An engine choice (``(Instance, count)`` pairs) in this module's
    form, one row per copy."""

    def binds(classes):
        return tuple((sym.name, sym.is_co, t) for sym, t in classes)

    return tuple(
        (inst.rule_index, inst.active_uid, inst.passive_uid,
         binds(inst.active_classes), binds(inst.passive_classes))
        for inst in copies(choice)
    )


def walk(node, parent=None):
    yield node, parent
    for child in node["kids"]:
        yield from walk(child, node)


def find_instances(root, rules):
    out = []
    for ridx, rule in enumerate(rules):
        if isinstance(rule, EndoRule):
            for parent, _gp in walk(root):
                for active in parent["kids"]:
                    for passive in parent["kids"]:
                        if active is passive:
                            continue
                        if active["label"] != rule.h or passive["label"] != rule.m:
                            continue
                        if active["kids"] or not active["timer"] > 0 or not passive["timer"] > 0:
                            continue
                        for ab in assignments(rule.active_slots, active["objs"]):
                            for pb in assignments(rule.passive_slots, passive["objs"]):
                                out.append((ridx, active["uid"], passive["uid"], ab, pb))
        elif isinstance(rule, ExoRule):
            for passive, _gp in walk(root):
                if passive["label"] != rule.m or not passive["timer"] > 0:
                    continue
                for active in passive["kids"]:
                    if active["label"] != rule.h or active["kids"] or not active["timer"] > 0:
                        continue
                    for ab in assignments(rule.active_slots, active["objs"]):
                        for pb in assignments(rule.passive_slots, passive["objs"]):
                            out.append((ridx, active["uid"], passive["uid"], ab, pb))
        elif isinstance(rule, RewriteRule):
            for host, _gp in walk(root):
                if rule.at is not None and host["label"] != rule.at:
                    continue
                for ab in assignments(rule.active_slots, host["objs"]):
                    out.append((ridx, host["uid"], None, ab, ()))
    return sorted(set(out))


def assignments(slots, objs):
    """All slot-to-class assignments, brute force then availability check."""
    candidates = []
    for sym in slots:
        classes = [
            (name, co, t)
            for (name, co, t) in objs
            if name == sym.name and co == sym.is_co and t > 0
        ]
        if not classes:
            return []
        candidates.append(classes)
    results = set()
    for combo in product(*candidates):
        need = {}
        for cls in combo:
            need[cls] = need.get(cls, 0) + 1
        if all(objs.get(cls, 0) >= n for cls, n in need.items()):
            results.add(tuple(combo))
    return sorted(results)


def _usage_ok(root, counts, instances, rules):
    need = {}
    actives = []
    passives = set()
    for idx, n in enumerate(counts):
        if not n:
            continue
        ridx, a_uid, p_uid, ab, pb = instances[idx]
        if isinstance(rules[ridx], (EndoRule, ExoRule)):
            if n > 1:
                return None
            actives.extend([a_uid] * n)
            passives.add(p_uid)
        for cls in ab:
            need[(a_uid, cls)] = need.get((a_uid, cls), 0) + n
        for cls in pb:
            need[(p_uid, cls)] = need.get((p_uid, cls), 0) + n
    if len(actives) != len(set(actives)):
        return None
    if set(actives) & passives:
        return None
    by_uid = {node["uid"]: node for node, _p in walk(root)}
    for (uid, cls), n in need.items():
        if by_uid[uid]["objs"].get(cls, 0) < n:
            return None
    return need, set(actives), passives


def count_bounds(root, rules, instances):
    """Most copies of each instance a choice can hold: 1 for a move; for a
    rewrite, the copies its host's objects cover, class by class. Any
    higher count fails ``_usage_ok``."""
    by_uid = {node["uid"]: node for node, _p in walk(root)}
    bounds = []
    for ridx, a_uid, _p_uid, ab, _pb in instances:
        if isinstance(rules[ridx], (EndoRule, ExoRule)):
            bounds.append(1)
        else:
            objs = by_uid[a_uid]["objs"]
            bounds.append(min(objs[cls] // ab.count(cls) for cls in ab))
    return bounds


def choices(root, rules, saturated):
    instances = find_instances(root, rules)
    results = []
    for counts in product(*(range(b + 1) for b in count_bounds(root, rules, instances))):
        state = _usage_ok(root, counts, instances, rules)
        if state is None:
            continue
        need, actives, passives = state
        legal = True
        for idx, inst in enumerate(instances):
            ridx, a_uid, p_uid, ab, pb = inst
            if not saturated:
                if any(t != INF for (_n, _c, t) in ab + pb):
                    continue
            extra = dict(need)
            for cls in ab:
                extra[(a_uid, cls)] = extra.get((a_uid, cls), 0) + 1
            for cls in pb:
                extra[(p_uid, cls)] = extra.get((p_uid, cls), 0) + 1
            move = isinstance(rules[ridx], (EndoRule, ExoRule))
            if move and (a_uid in actives or a_uid in passives or p_uid in actives):
                continue
            by_uid = {node["uid"]: node for node, _p in walk(root)}
            if all(by_uid[uid]["objs"].get(cls, 0) >= n for (uid, cls), n in extra.items()):
                legal = False
                break
        if legal:
            choice = []
            for idx, n in enumerate(counts):
                choice.extend([instances[idx]] * n)
            results.append(tuple(choice))
    return results


def literal_choices(root, rules):
    """Every nonempty conflict-free choice of move instances: the literal
    relation of the ambient translation, in which nothing blocks."""
    moves = [inst for inst in find_instances(root, rules) if isinstance(rules[inst[0]], (EndoRule, ExoRule))]
    return [
        tuple(inst for inst, n in zip(moves, counts) if n)
        for counts in product((0, 1), repeat=len(moves))
        if any(counts) and _usage_ok(root, counts, moves, rules) is not None
    ]


def apply_step(root, choice, rules, literal=False):
    """The step's tree, the detached membranes and the step's counts.
    ``literal`` fires the instances and stops: carried timers are not
    ticked, no timer moves and nothing expires or dissolves."""
    import copy

    root = copy.deepcopy(root)
    by_uid = {}
    parents = {}
    for node, parent in walk(root):
        by_uid[node["uid"]] = node
        parents[node["uid"]] = parent

    produced = {node_uid: {} for node_uid in by_uid}
    actives = set()
    moves = []
    stats = dict.fromkeys(("consumed", "produced", "expired", "delta_consumed", "detached_objects"), 0)
    tick = (lambda t: t) if literal else (lambda t: INF if t == INF else t - 1)

    def give(uid, cls):
        stats["produced"] += 1
        node = by_uid[uid]
        node["objs"][cls] = node["objs"].get(cls, 0) + 1
        produced[uid][cls] = produced[uid].get(cls, 0) + 1

    def take(uid, cls):
        stats["consumed"] += 1
        node = by_uid[uid]
        node["objs"][cls] -= 1
        if not node["objs"][cls]:
            del node["objs"][cls]

    for ridx, a_uid, p_uid, ab, pb in choice:
        rule = rules[ridx]
        for cls in ab:
            take(a_uid, cls)
        for cls in pb:
            take(p_uid, cls)
        prods = rule.rhs if isinstance(rule, RewriteRule) else rule.w
        for sym, spec in prods:
            if isinstance(spec, Fresh):
                give(a_uid, (sym.name, sym.is_co, spec.timer))
            else:
                give(a_uid, (sym.name, sym.is_co, tick(ab[spec.slot][2])))
        if isinstance(rule, (EndoRule, ExoRule)):
            for sym, spec in rule.w2:
                if isinstance(spec, Fresh):
                    give(p_uid, (sym.name, sym.is_co, spec.timer))
                else:
                    give(p_uid, (sym.name, sym.is_co, tick(pb[spec.slot][2])))
            actives.add(a_uid)
            if not literal and not rule.keep_active_timer and by_uid[a_uid]["timer"] != INF:
                by_uid[a_uid]["timer"] -= 1
            moves.append((type(rule), a_uid, p_uid))

    detached = []
    for kind, a_uid, p_uid in moves:
        active = by_uid[a_uid]
        parents[active["uid"]]["kids"].remove(active)
        if kind is EndoRule:
            by_uid[p_uid]["kids"].append(active)
            parents[a_uid] = by_uid[p_uid]
        else:
            grand = parents[p_uid]
            if grand is None:
                detached.append(active)
            else:
                grand["kids"].append(active)
                parents[a_uid] = grand
    stats["detached_objects"] = sum(n for node in detached for n in node["objs"].values())
    if literal:
        return root, detached, stats

    for node, _p in walk(root):
        fresh = {}
        for cls, n in node["objs"].items():
            new = produced[node["uid"]].get(cls, 0)
            old = n - new
            if new:
                fresh[cls] = fresh.get(cls, 0) + new
            if old:
                name, co, t = cls
                if (name, co) == DELTA_KEY:
                    fresh[cls] = fresh.get(cls, 0) + old
                elif t == 0:
                    stats["expired"] += old
                elif t == INF:
                    fresh[cls] = fresh.get(cls, 0) + old
                else:
                    fresh[(name, co, t - 1)] = fresh.get((name, co, t - 1), 0) + old
        node["objs"] = fresh

    for node, parent in walk(root):
        if parent is not None and node["uid"] not in actives and node["timer"] == 0:
            node["objs"][(*DELTA_KEY, INF)] = node["objs"].get((*DELTA_KEY, INF), 0) + 1

    def dissolve(node):
        for child in list(node["kids"]):
            dissolve(child)
        marked = [cls for cls in node["objs"] if (cls[0], cls[1]) == DELTA_KEY]
        if not marked:
            return
        for cls in marked:
            stats["delta_consumed"] += node["objs"].pop(cls)
        parent = next(p for n, p in walk(root) if n is node)
        if parent is None:
            return
        for cls, n in node["objs"].items():
            parent["objs"][cls] = parent["objs"].get(cls, 0) + n
        parent["kids"].extend(node["kids"])
        parent["kids"].remove(node)

    dissolve(root)

    for node, parent in walk(root):
        if parent is None or node["uid"] in actives:
            continue
        if node["timer"] not in (INF, 0):
            node["timer"] -= 1
    return root, detached, stats


def successor_renders(root, rules):
    out = set()
    for choice in choices(root, rules, saturated=False):
        new_root, _det, _stats = apply_step(root, choice, rules)
        out.add(render(new_root))
    return out


# ---------------------------------------------------------------------------
# Timed safe mobile ambients: the recursive time progress, redex search and
# reduct enumeration, written as plain recursions over the process term.

def amb_phi_delta(p):
    """One tick of the universal clock over the whole term."""
    if isinstance(p, amb.Zero):
        return p
    if isinstance(p, amb.Prefix):
        if p.cap.timer == 0:
            return p.cont
        cap = amb.Capability(p.cap.kind, p.cap.co, p.cap.target, decrement(p.cap.timer))
        return amb.Prefix(cap, p.cont)
    if isinstance(p, amb.Amb):
        if p.timer == 0:
            return p.body
        return amb.Amb(p.name, decrement(p.timer), amb_phi_delta(p.body), "a")
    return amb.par(*(amb_phi_delta(x) for x in p.parts))


def _amb_prefix_slots(body_parts, kind, target):
    """Slots of live positive ``kind`` prefixes aimed at ``target``."""
    return [
        c for c, comp in enumerate(body_parts)
        if isinstance(comp, amb.Prefix)
        and comp.cap.kind == kind
        and not comp.cap.co
        and comp.cap.target == target
        and comp.cap.timer > 0
    ]


def _amb_local_redexes(parts, path):
    """(redex, firing data) pairs whose participants are components of this
    soup. R-In takes two sibling slots; R-Out takes one."""
    found = []
    for j, comp in enumerate(parts):
        if not isinstance(comp, amb.Amb) or not comp.timer > 0:
            continue
        body = amb.soup(comp.body)
        if len(body) == 1 and isinstance(body[0], amb.Prefix):
            cap = body[0].cap
            if cap.kind == "in" and cap.co and cap.target == comp.name and cap.timer > 0:
                for i, mover in enumerate(parts):
                    if i == j or not isinstance(mover, amb.Amb):
                        continue
                    if mover.tag != "a" or not mover.timer > 0:
                        continue
                    for c in _amb_prefix_slots(amb.soup(mover.body), "in", comp.name):
                        redex = amb.Redex("in", path, mover.name, comp.name, (i, j))
                        found.append((redex, ("in", i, j, c)))
        if len(body) == 2:
            for a_idx, co_idx in ((0, 1), (1, 0)):
                mover, co = body[a_idx], body[co_idx]
                if not isinstance(mover, amb.Amb) or not isinstance(co, amb.Prefix):
                    continue
                if mover.tag != "a" or not mover.timer > 0:
                    continue
                cap = co.cap
                if not (cap.kind == "out" and cap.co and cap.target == comp.name and cap.timer > 0):
                    continue
                for c in _amb_prefix_slots(amb.soup(mover.body), "out", comp.name):
                    redex = amb.Redex("out", path, mover.name, comp.name, (j,))
                    found.append((redex, ("out", j, a_idx, co_idx, c)))
    return found


def amb_redexes(p):
    """Every movement opportunity anywhere in the term."""
    p = amb.normalize(p)
    found = []

    def walk(parts, path):
        found.extend(r for r, _f in _amb_local_redexes(parts, path))
        for idx, comp in enumerate(parts):
            if isinstance(comp, amb.Amb):
                walk(amb.soup(comp.body), path + (idx,))

    walk(amb.soup(p), ())
    return found


def _amb_spend(mover, c):
    mbody = amb.soup(mover.body)
    return amb.Amb(mover.name, mover.timer, amb.par(*(mbody[:c] + mbody[c + 1:]), mbody[c].cont), "p")


def _amb_fire_in(parts, i, j, c):
    target = parts[j]
    co = amb.soup(target.body)[0]
    return amb.Amb(target.name, target.timer, amb.par(_amb_spend(parts[i], c), co.cont), target.tag)


def _amb_fire_out(parts, j, a_idx, co_idx, c):
    parent = parts[j]
    body = amb.soup(parent.body)
    return [amb.Amb(parent.name, parent.timer, body[co_idx].cont, parent.tag), _amb_spend(body[a_idx], c)]


def _amb_soup_variants(parts):
    """All (fired count, components) results of firing an independent set
    of redexes within this soup and below. Count 0 is the unchanged soup."""
    local = _amb_local_redexes(parts, ())

    def inner_variants(comp):
        if not isinstance(comp, amb.Amb):
            return [(0, comp)]
        out = []
        for cnt, new_body in _amb_soup_variants(amb.soup(comp.body)):
            out.append((cnt, comp if cnt == 0 else amb.Amb(comp.name, comp.timer, amb.par(*new_body), comp.tag)))
        return out

    results = []

    def choose(rdx_idx, used, fired):
        if rdx_idx == len(local):
            free = [k for k in range(len(parts)) if k not in used]
            options = [inner_variants(parts[k]) for k in free]
            for combo in product(*options) if options else [()]:
                count = sum(c for c, _x in combo)
                comps = [x for _c, x in combo]
                for _redex, data in fired:
                    if data[0] == "in":
                        comps.append(_amb_fire_in(parts, *data[1:]))
                    else:
                        comps.extend(_amb_fire_out(parts, *data[1:]))
                results.append((count + len(fired), comps))
            return
        choose(rdx_idx + 1, used, fired)
        redex, data = local[rdx_idx]
        if not used & set(redex.slots):
            choose(rdx_idx + 1, used | set(redex.slots), fired + [(redex, data)])

    choose(0, frozenset(), [])
    return results


def amb_reduce_step(p):
    """(reduct keys in order, moved): every nonempty independent redex set
    fired at once, or the clock tick when there is no redex."""
    p = amb.normalize(p)
    seen = {}
    for count, comps in _amb_soup_variants(amb.soup(p)):
        if count:
            result = amb.par(*comps)
            seen.setdefault(amb.canonical_key(result), result)
    if not seen:
        return [amb.canonical_key(amb_phi_delta(p))], False
    return sorted(seen), True
