"""The simlint rule catalogue (SIM001–SIM010).

Each rule is a small :class:`~repro.analysis.simlint.core.Rule` subclass
registered at import time.  See ``RULES.md`` in this package for the
human-facing catalogue with rationale and near-miss examples; the short
form:

==========  ========  =====================================================
code        severity  what it catches
==========  ========  =====================================================
SIM001      error     wall-clock reads (``time.time``, ``datetime.now``, …)
SIM002      error     unseeded randomness outside ``sim/rand.py``
SIM003      warning   iteration over a ``set`` in order-sensitive position
SIM004      warning   ``id()`` feeding sort keys, hashes, or sets
SIM005      warning   float accumulation over an unordered set
SIM006      error     ``yield`` of a raw negative / NaN delay in a process
SIM007      error     blocking host call inside a sim-process generator
SIM008      warning   side effects inside trace/span emission arguments
SIM009      warning   environment/argv access outside the CLI layer
SIM010      error     process entropy (``os.getpid``, ``uuid4``, ``hash()``)
==========  ========  =====================================================
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.simlint.core import (
    Finding,
    ModuleUnderLint,
    Rule,
    is_set_expr,
    register,
)

# ------------------------------------------------------------------ SIM001
_WALL_CLOCK = frozenset({
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})


@register
class WallClockRule(Rule):
    """Wall-clock reads make two runs of the same seed disagree."""

    code = "SIM001"
    name = "wall-clock"
    severity = "error"
    description = ("ban time.time/monotonic/perf_counter/process_time and "
                   "datetime.now/utcnow/today — sim time comes from the "
                   "Simulator clock, never the host")

    def check(self, module: ModuleUnderLint) -> Iterator[Finding]:
        for node in module.nodes:
            if not isinstance(node, ast.Call):
                continue
            name = module.resolve(node.func)
            if name in _WALL_CLOCK:
                yield self.finding(
                    module, node,
                    f"wall-clock call {name}() — use the Simulator clock "
                    f"(sim.now) so runs replay bit-identically")


# ------------------------------------------------------------------ SIM002
@register
class UnseededRandomRule(Rule):
    """All randomness must flow through the named-substream registry."""

    code = "SIM002"
    name = "unseeded-random"
    severity = "error"
    description = ("ban stdlib random and every numpy.random call, seeded "
                   "generators included, outside sim/rand.py")

    def check(self, module: ModuleUnderLint) -> Iterator[Finding]:
        if module.path.endswith("sim/rand.py"):
            return
        for node in module.nodes:
            if isinstance(node, ast.Import):
                for item in node.names:
                    if item.name == "random":
                        yield self.finding(
                            module, node,
                            "import of stdlib random — use "
                            "repro.sim.rand.RandomStreams named substreams")
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    yield self.finding(
                        module, node,
                        "import from stdlib random — use "
                        "repro.sim.rand.RandomStreams named substreams")
            elif isinstance(node, ast.Call):
                name = module.resolve(node.func)
                if name is None:
                    continue
                if name.split(".")[0] == "random":
                    yield self.finding(
                        module, node,
                        f"unseeded stdlib {name}() — draw from a named "
                        f"RandomStreams substream instead")
                elif name.startswith("numpy.random."):
                    yield self.finding(
                        module, node,
                        f"numpy RNG call {name}() outside sim/rand.py — a "
                        f"seeded generator too bypasses the named "
                        f"substreams; use RandomStreams")


# ------------------------------------------------------------------ SIM003
#: Order-insensitive consumers: iterating a set into these is safe.
_ORDER_FREE_SINKS = frozenset({
    "sorted", "min", "max", "any", "all", "len", "set", "frozenset",
})
_MATERIALIZERS = frozenset({"list", "tuple", "enumerate"})


def _comprehension_sink(module: ModuleUnderLint,
                        comp: ast.AST) -> Optional[str]:
    """Name of the call a comprehension feeds directly into, if any."""
    call = module.enclosing_call(comp)
    if call is None or comp not in call.args:
        return None
    if isinstance(call.func, ast.Name):
        return call.func.id
    return None


def _element_is_int_constant(comp: ast.AST) -> bool:
    elt = getattr(comp, "elt", None)
    return (isinstance(elt, ast.Constant) and isinstance(elt.value, int)
            and not isinstance(elt.value, bool))


@register
class SetIterationRule(Rule):
    """Set iteration order is arbitrary; dicts are insertion-ordered."""

    code = "SIM003"
    name = "set-iteration"
    severity = "warning"
    description = ("iterating a set in an order-sensitive position "
                   "(for-loop bodies, list()/tuple()/enumerate(), or "
                   "comprehensions not feeding an order-free reducer) — "
                   "sort first or use an insertion-ordered dict")

    def check(self, module: ModuleUnderLint) -> Iterator[Finding]:
        attrs = module.set_typed_attrs
        names = module.set_typed_names
        for node in module.nodes:
            if isinstance(node, ast.For):
                if is_set_expr(node.iter, attrs, names):
                    yield self.finding(
                        module, node.iter,
                        "for-loop over a set — iteration order is "
                        "arbitrary; iterate sorted(...) or keep an "
                        "insertion-ordered dict")
            elif isinstance(node, (ast.ListComp, ast.SetComp,
                                   ast.GeneratorExp, ast.DictComp)):
                if not any(is_set_expr(g.iter, attrs, names)
                           for g in node.generators):
                    continue
                sink = _comprehension_sink(module, node)
                if sink in _ORDER_FREE_SINKS:
                    continue
                if sink == "sum" and _element_is_int_constant(node):
                    continue  # counting is order-free
                yield self.finding(
                    module, node,
                    "comprehension over a set feeding an order-sensitive "
                    "consumer — sort the set or reduce order-free "
                    "(sorted/min/max/any/all/len or an integer count)")
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Name) \
                    and node.func.id in _MATERIALIZERS \
                    and node.args and is_set_expr(node.args[0], attrs, names):
                yield self.finding(
                    module, node,
                    f"{node.func.id}() over a set materialises an "
                    f"arbitrary order — use sorted(...)")


# ------------------------------------------------------------------ SIM004
@register
class IdOrderRule(Rule):
    """id() values vary run to run; ordering or hashing them is chaos."""

    code = "SIM004"
    name = "id-order"
    severity = "warning"
    description = ("id() inside a sort key, a hash() call, or a set — "
                   "object addresses differ across runs; key on a stable "
                   "field instead")

    def check(self, module: ModuleUnderLint) -> Iterator[Finding]:
        for node in module.nodes:
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "id"
                    and node.func.id not in module.aliases):
                continue
            cur = module.parents.get(node)
            while cur is not None:
                if isinstance(cur, ast.keyword) and cur.arg == "key":
                    yield self.finding(
                        module, node,
                        "id() inside a sort key — object addresses are "
                        "not stable across runs; key on a stable field")
                    break
                if isinstance(cur, ast.Set):
                    yield self.finding(
                        module, node,
                        "id() inside a set — address-derived members make "
                        "iteration order run-dependent")
                    break
                if isinstance(cur, ast.Call) \
                        and isinstance(cur.func, ast.Name) \
                        and cur.func.id in ("hash", "set", "frozenset"):
                    yield self.finding(
                        module, node,
                        f"id() flowing into {cur.func.id}() — object "
                        f"addresses are not stable across runs")
                    break
                if isinstance(cur, ast.stmt):
                    break  # statement boundary: no ordering sink above
                cur = module.parents.get(cur)


# ------------------------------------------------------------------ SIM005
@register
class FloatSetAccumulationRule(Rule):
    """Float addition is not associative; set order varies — so sums do."""

    code = "SIM005"
    name = "float-set-accumulation"
    severity = "warning"
    description = ("sum() over a set (or a comprehension over one) whose "
                   "elements are not integer counts — float rounding is "
                   "order-dependent; sum over sorted(...)")

    def check(self, module: ModuleUnderLint) -> Iterator[Finding]:
        attrs = module.set_typed_attrs
        names = module.set_typed_names
        for node in module.nodes:
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "sum" and node.args):
                continue
            arg = node.args[0]
            if is_set_expr(arg, attrs, names):
                yield self.finding(
                    module, node,
                    "sum() directly over a set — float accumulation order "
                    "is arbitrary; sum over sorted(...)")
            elif isinstance(arg, (ast.GeneratorExp, ast.ListComp)) \
                    and any(is_set_expr(g.iter, attrs, names)
                            for g in arg.generators) \
                    and not _element_is_int_constant(arg):
                yield self.finding(
                    module, node,
                    "sum() of non-count elements drawn from a set — "
                    "float accumulation order is arbitrary; iterate "
                    "sorted(...)")


# ------------------------------------------------------------------ SIM006
def _negative_number(node: ast.AST) -> bool:
    return (isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)
            and isinstance(node.operand, ast.Constant)
            and isinstance(node.operand.value, (int, float)))


def _nan_or_inf_literal(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "float" and len(node.args) == 1
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
            and node.args[0].value.strip().lower().lstrip("+-")
            in ("nan", "inf", "infinity"))


@register
class RawDelayRule(Rule):
    """Sim processes yield delays; negative or NaN delays corrupt time."""

    code = "SIM006"
    name = "raw-delay"
    severity = "error"
    description = ("yield of a literal negative or NaN/inf delay inside a "
                   "sim-process generator — the event queue requires "
                   "finite non-negative delays")

    def check(self, module: ModuleUnderLint) -> Iterator[Finding]:
        gen_ids = set(map(id, module.generator_bodies))
        for node in module.nodes:
            if not isinstance(node, ast.Yield) or node.value is None:
                continue
            fn = module.enclosing_function(node)
            if fn is None or id(fn) not in gen_ids:
                continue
            if _negative_number(node.value):
                yield self.finding(
                    module, node,
                    "yield of a negative delay — the simulator rejects "
                    "time travel; clamp to max(0.0, delay)")
            elif _nan_or_inf_literal(node.value):
                yield self.finding(
                    module, node,
                    "yield of a NaN/inf delay — non-finite delays wedge "
                    "the event queue")


# ------------------------------------------------------------------ SIM007
_BLOCKING_EXACT = frozenset({
    "time.sleep", "os.system", "os.popen", "os.wait", "os.waitpid",
    "urllib.request.urlopen", "input", "breakpoint",
})
_BLOCKING_PREFIXES = ("subprocess.", "socket.", "requests.", "http.client.")


@register
class BlockingHostCallRule(Rule):
    """A sim process that blocks the host stalls every simulated node."""

    code = "SIM007"
    name = "blocking-host-call"
    severity = "error"
    description = ("blocking host call (time.sleep, subprocess, sockets, "
                   "input, …) inside a sim-process generator — model the "
                   "latency with a yielded delay instead")

    def check(self, module: ModuleUnderLint) -> Iterator[Finding]:
        generators = module.generator_bodies
        if not generators:
            return
        gen_ids = set(map(id, generators))
        for node in module.nodes:
            if not isinstance(node, ast.Call):
                continue
            owner = module.enclosing_function(node)
            if owner is None or id(owner) not in gen_ids:
                continue
            name = module.resolve(node.func)
            if name is None:
                continue
            if name in _BLOCKING_EXACT or \
                    name.startswith(_BLOCKING_PREFIXES):
                yield self.finding(
                    module, node,
                    f"blocking host call {name}() inside a sim-process "
                    f"body — yield a simulated delay instead")


# ------------------------------------------------------------------ SIM008
_TRACE_METHODS = frozenset({"record", "begin", "end"})
_MUTATORS = frozenset({
    "append", "appendleft", "add", "update", "pop", "popleft", "remove",
    "discard", "clear", "extend", "insert", "setdefault", "inc", "dec",
    "set", "observe", "sample", "put", "push", "send", "write",
})


def _trace_receiver(func: ast.Attribute) -> bool:
    recv = func.value
    name = None
    if isinstance(recv, ast.Attribute):
        name = recv.attr
    elif isinstance(recv, ast.Name):
        name = recv.id
    if name is None:
        return False
    low = name.lower()
    return "trace" in low or low in ("spans", "span", "emitter")


@register
class TraceSideEffectRule(Rule):
    """Trace emission vanishes when telemetry is off — it must be pure."""

    code = "SIM008"
    name = "trace-side-effect"
    severity = "warning"
    description = ("mutating call or walrus assignment inside the "
                   "arguments of tracer.record/spans.begin/spans.end — "
                   "emission is skipped when telemetry is off, so side "
                   "effects there break on==off bit-identity")

    def check(self, module: ModuleUnderLint) -> Iterator[Finding]:
        for node in module.nodes:
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _TRACE_METHODS
                    and _trace_receiver(node.func)):
                continue
            for arg in list(node.args) + [k.value for k in node.keywords]:
                for sub in ast.walk(arg):
                    if isinstance(sub, ast.NamedExpr):
                        yield self.finding(
                            module, sub,
                            "walrus assignment inside trace emission "
                            "arguments — the binding disappears when "
                            "telemetry is off")
                    elif isinstance(sub, ast.Call) \
                            and isinstance(sub.func, ast.Attribute) \
                            and sub.func.attr in _MUTATORS:
                        yield self.finding(
                            module, sub,
                            f".{sub.func.attr}() inside trace emission "
                            f"arguments — emission must be side-effect "
                            f"free (compute before the guard)")


# ------------------------------------------------------------------ SIM009
_CLI_BASENAMES = ("cli.py", "__main__.py")


@register
class EnvAccessRule(Rule):
    """Environment and argv reads belong in the CLI layer only."""

    code = "SIM009"
    name = "env-access"
    severity = "warning"
    description = ("os.environ / os.getenv / sys.argv outside cli.py or "
                   "__main__.py — ambient host state makes library code "
                   "machine-dependent; thread configuration explicitly")

    def check(self, module: ModuleUnderLint) -> Iterator[Finding]:
        if module.path.endswith(_CLI_BASENAMES):
            return
        for node in module.nodes:
            if isinstance(node, ast.Attribute):
                name = module.resolve(node)
                if name in ("os.environ", "sys.argv"):
                    yield self.finding(
                        module, node,
                        f"{name} access outside the CLI layer — pass "
                        f"configuration explicitly")
            elif isinstance(node, ast.Call):
                if module.resolve(node.func) == "os.getenv":
                    yield self.finding(
                        module, node,
                        "os.getenv() outside the CLI layer — pass "
                        "configuration explicitly")


# ------------------------------------------------------------------ SIM010
_ENTROPY = frozenset({
    "os.getpid", "os.urandom", "os.getrandom",
    "uuid.uuid1", "uuid.uuid4",
})


@register
class ProcessEntropyRule(Rule):
    """PIDs, urandom, uuid4 and hash() differ per process — banned."""

    code = "SIM010"
    name = "process-entropy"
    severity = "error"
    description = ("os.getpid/os.urandom/uuid1/uuid4/secrets/builtin "
                   "hash() — per-process entropy breaks serial == -jN "
                   "bit-identity; derive identifiers from seeds or "
                   "hashlib.sha256")

    def check(self, module: ModuleUnderLint) -> Iterator[Finding]:
        for node in module.nodes:
            if not isinstance(node, ast.Call):
                continue
            name = module.resolve(node.func)
            if name is None:
                continue
            if name in _ENTROPY or name.startswith("secrets."):
                yield self.finding(
                    module, node,
                    f"{name}() is per-process entropy — derive from the "
                    f"experiment seed (hashlib.sha256) instead")
            elif name == "hash" and "hash" not in module.aliases:
                yield self.finding(
                    module, node,
                    "builtin hash() is salted per process "
                    "(PYTHONHASHSEED) — use hashlib.sha256 for stable "
                    "digests")
