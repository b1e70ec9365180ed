"""Mobile membrane systems with timers, and timed mobile ambients.

A simulator for systems of mutual mobile membranes whose objects and
membranes carry lifetimes, a compiler between the timed and untimed
variants, a small timed safe mobile ambient calculus with a translation
into membranes, and bounded exhaustive checkers for the equivalences that
tie them together.
"""

from .core import (
    INF,
    Carry,
    Configuration,
    EndoRule,
    ExoRule,
    Fresh,
    MembraneNode,
    Multiset,
    RewriteRule,
    RuleSet,
    Symbol,
    canonicalize,
    dual,
    mem,
    output_reading,
    validate,
)
from .engine import (
    Instance,
    StaleChoiceError,
    apply_step,
    find_instances,
    maximal_choices,
    run,
    step,
    step_choices,
    successors,
)
from .untimed import UConfig, UNode, erase_timers, u_run, u_successors, umem
from .compiler import (
    CompileError,
    eliminate_timers,
    embed_infinite,
    lifetime,
    project,
)
from .ambient import (
    Amb,
    Capability,
    Par,
    Prefix,
    ZERO,
    congruent,
    parse_ambient,
    phi_delta,
    redexes,
    reduce_step,
    render_process,
)
from .translate import (
    check_correspondence_PQ,
    check_preimage_reordering,
    generate_rules,
    translate,
)
from .explore import (
    BudgetExceeded,
    ReachGraph,
    Verdict,
    check_embedding,
    check_timer_elimination,
    check_translation,
    explore_ambients,
    explore_membranes,
    explore_untimed,
)
from .sysfile import SystemFile, parse_system, render_system

__version__ = "0.1.0"
