"""Spans around the library's public functions, recorded from outside it.

``Tracer.install`` replaces each traced function in every module namespace
that bound it (``embed`` and ``lemmas`` each hold their own reference to
``longest_u_path``, for instance), so no call escapes through a name that
was imported before the patch.  Each call opens a span holding its name,
start, end, parent span and case id; a generator function opens one span per
resumption, so the consumer's work between items is not charged to it.
Spans stay in flat arrays until ``summary`` turns them into per-function
calls, self time and total time.

Search nodes come from every ``esos.errors.Budget`` created while tracing
(``Budget.__init__`` is wrapped to register it); ``fold_budgets`` adds up
``used`` per label once the searches that own them have ended.  The per-node
path is never hooked.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
from array import array
from time import perf_counter

from esos.errors import Budget
from esos.graphs import Graph, mask_of

# (module, function) pairs; every one gets .calls and .self_s.
TRACED = (
    ("enumeration", "enumerate_graphs"),
    ("enumeration", "canonical_key"),
    ("graphs", "Graph.from_graph6"),
    ("graphs", "satisfies_local_condition"),
    ("graphs", "recognize_H"),
    ("graphs", "find_H_subgraph"),
    ("graphs", "verify_H_certificate"),
    ("paths", "longest_u_path"),
    ("paths", "second_ends"),
    ("paths", "reroute_ends"),
    ("paths", "is_absorbable"),
    ("paths", "iter_upaths_exact"),
    ("paths", "first_upath_to"),
    ("paths", "reroute_maximizing_last_neighbor"),
    ("embed", "embed_constructive"),
    ("embed", "embed_bruteforce"),
    ("embed", "verify_embedding"),
    ("lemmas", "enumerate_instances"),
    ("lemmas", "sample_instances"),
    ("lemmas", "make_instance"),
    ("lemmas", "validate_instance"),
    ("lemmas", "analyze"),
    ("lemmas", "verify_outcome"),
)

# Functions that call other traced functions also get .total_s.
WITH_CHILDREN = (
    "enumeration.enumerate_graphs",
    "graphs.find_H_subgraph",
    "embed.embed_constructive",
    "lemmas.enumerate_instances",
    "lemmas.sample_instances",
    "lemmas.make_instance",
    "lemmas.validate_instance",
    "lemmas.analyze",
    "lemmas.verify_outcome",
)

# Budget labels, reported as nodes.<label with spaces as _>.
BUDGET_LABELS = (
    "embedding oracle",
    "guided embedding census",
    "longest_u_path",
    "second_ends",
    "reroute_ends",
    "rotation closure",
    "find_H_subgraph",
    "maximality check",
    "lemma 4 case search",
    "lemma 5 case search",
    "lemma 6 case search",
    "instance synthesis",
    "instance enumeration",
)

def metric_names() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    out = []
    for module, attr in TRACED:
        name = f"{module}.{attr}"
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
        if name in WITH_CHILDREN:
            out.append((f"{name}.total_s", "s", "lower"))
    out += [(node_metric(label), "count", "lower") for label in BUDGET_LABELS]
    out += [
        ("embed.oracle_fallbacks_per_call", "ratio", "lower"),
        ("graphs.subsets_scanned", "count", "lower"),
        ("lemmas.maximality_distinct_ratio", "ratio", "higher"),
        ("lemmas.synthesis_yield", "ratio", "higher"),
        ("trace.untraced_wall_s", "s", "lower"),
        ("trace.traced_wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
        ("trace.uncovered_frac", "ratio", "lower"),
        ("trace.spans", "count", "lower"),
    ]
    return out


def node_metric(label: str) -> str:
    return "nodes." + label.replace(" ", "_")


def _excluded_mask(inst) -> int:
    """The vertex set whose deletion the maximality check is taken in."""
    if inst.lemma == 3:
        return mask_of((inst.w1, inst.w2))
    if inst.lemma == 4:
        return inst.q_path.mask()
    if inst.lemma == 5:
        return mask_of((inst.v, inst.w))
    return mask_of((inst.w,))


class Tracer:
    def __init__(self):
        self.names: list[str] = [f"{m}.{a}" for m, a in TRACED]
        self.calls = [0] * len(self.names)
        self.constructive_id = self.names.index("embed.embed_constructive")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.name = array("l")
        self.case = array("l")
        self.nested = array("b")  # a span of the same name is open around it
        self.stack: list[int] = []
        self.depth = [0] * len(self.names)
        self.case_id = -1
        self.budgets: list[Budget] = []
        self.nodes: dict[str, int] = {}
        self.subsets_scanned = 0
        self.fallbacks = 0
        self.maximality_keys: set = set()
        self.proposals = 0
        self.sampled = 0

    # -- recording ----------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.name.append(nid)
        self.case.append(self.case_id)
        self.nested.append(self.depth[nid] > 0)
        self.end.append(0.0)
        self.depth[nid] += 1
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.depth[self.name[idx]] -= 1
        self.stack.pop()

    def _wrap(self, fn, nid: int, before=None, after=None):
        tracer = self

        if inspect.isgeneratorfunction(fn):

            def resumptions(it):
                while True:
                    idx = tracer._open(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(idx)
                    yield item

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                tracer.calls[nid] += 1
                return resumptions(fn(*args, **kwargs))

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[nid] += 1
            if before is not None:
                before(*args, **kwargs)
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapper

    # -- per-function counters ----------------------------------------------

    def _after_local_condition(self, witness, G, k):
        # the scan stops at the first violating mask in ascending order
        self.subsets_scanned += (1 << G.n) - 1 if witness is None else mask_of(witness)

    def _before_bruteforce(self, *args, **kwargs):
        if self.depth[self.constructive_id] > 0:
            self.fallbacks += 1

    def _before_validate(self, inst):
        self.maximality_keys.add(
            (inst.graph, inst.u, _excluded_mask(inst), inst.p_path.length)
        )

    def _after_sample(self, result, *args, **kwargs):
        insts, discarded = result
        self.sampled += len(insts)
        self.proposals += len(insts) + discarded

    # -- installation -------------------------------------------------------

    def install(self, extra_modules=()) -> None:
        """Patch every traced function wherever it is bound, and register
        every Budget created from now on."""
        hooks = {
            "graphs.satisfies_local_condition": (None, self._after_local_condition),
            "embed.embed_bruteforce": (self._before_bruteforce, None),
            "lemmas.validate_instance": (self._before_validate, None),
            "lemmas.sample_instances": (None, self._after_sample),
        }
        modules = [
            m for name, m in sys.modules.items() if name == "esos" or name.startswith("esos.")
        ] + list(extra_modules)
        for nid, (module, attr) in enumerate(TRACED):
            before, after = hooks.get(self.names[nid], (None, None))
            if attr == "Graph.from_graph6":
                orig = Graph.from_graph6.__func__
                Graph.from_graph6 = classmethod(self._wrap(orig, nid, before, after))
                continue
            orig = getattr(sys.modules[f"esos.{module}"], attr)
            wrapped = self._wrap(orig, nid, before, after)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)

        budgets = self.budgets
        orig_init = Budget.__init__

        def init(budget, *args, **kwargs):
            orig_init(budget, *args, **kwargs)
            budgets.append(budget)

        Budget.__init__ = init

    def fold_budgets(self) -> None:
        """Add up the nodes of every registered budget; call it only when
        the searches owning them have ended (between units)."""
        for b in self.budgets:
            self.nodes[b.label] = self.nodes.get(b.label, 0) + b.used
        self.budgets.clear()

    # -- results ------------------------------------------------------------

    def summary(self, wall: float) -> dict:
        """Per-layer metrics of a traced region that took ``wall`` seconds;
        the trace.* metrics that compare runs are left to the caller."""
        count = len(self.start)
        covered_by_children = [0.0] * count
        self_s = [0.0] * len(self.names)
        total_s = [0.0] * len(self.names)
        root_s = 0.0
        for i in range(count - 1, -1, -1):  # children come after their parent
            dur = self.end[i] - self.start[i]
            nid = self.name[i]
            self_s[nid] += dur - covered_by_children[i]
            if not self.nested[i]:
                total_s[nid] += dur
            p = self.parent[i]
            if p >= 0:
                covered_by_children[p] += dur
            else:
                root_s += dur
        out = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[nid]
            out[f"{name}.self_s"] = self_s[nid]
            if name in WITH_CHILDREN:
                out[f"{name}.total_s"] = total_s[nid]
        for label in BUDGET_LABELS:
            out[node_metric(label)] = self.nodes.get(label, 0)
        constructive = self.calls[self.constructive_id]
        validate = self.calls[self.names.index("lemmas.validate_instance")]
        out["embed.oracle_fallbacks_per_call"] = self.fallbacks / constructive if constructive else 0.0
        out["graphs.subsets_scanned"] = self.subsets_scanned
        out["lemmas.maximality_distinct_ratio"] = (
            len(self.maximality_keys) / validate if validate else 0.0
        )
        out["lemmas.synthesis_yield"] = self.sampled / self.proposals if self.proposals else 0.0
        out["trace.uncovered_frac"] = (wall - root_s) / wall
        out["trace.spans"] = count
        unknown = sorted(set(self.nodes) - set(BUDGET_LABELS))
        if unknown:
            print(f"untracked budget labels: {unknown}", file=sys.stderr)
        units = {name: unit for name, unit, _ in metric_names()}
        return {name: {"value": value, "unit": units[name]} for name, value in out.items()}

    def write_spans(self, path) -> None:
        """All spans as gzip'd TSV: name, start, end, parent index, case id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\tcase\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.names[self.name[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}"
                    f"\t{self.parent[i]}\t{self.case[i]}\n"
                )
