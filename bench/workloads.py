"""The four benchmark workloads.

Each workload turns a seed into a stream of requests (``requests``), serves
one request through the package's public functions (``run``), checks a
run's outputs against references independent of the code that produced
them (``check``) and adds its own per-layer counters (``counters``).

Request mixes are fixed per block of requests and shuffled inside the
block, so the share of each request kind is the same for every seed; only
the statements vary.  That keeps run-to-run spread down without narrowing
the inputs.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import propalg
from propalg import (
    FALSE,
    TRUE,
    Cond,
    OperatorCatalog,
    Variety,
    atom,
    basic_form,
    congruent_oracle,
    desugar,
    enumerate_tc12,
    equal,
    equiv_oracle,
    evaluate,
    in_variety,
    normalize,
    parse,
)

import gen

MAIN = (Variety.FR, Variety.RP, Variety.CR, Variety.WM, Variety.MEM, Variety.ST)
SIDE = (Variety.PMEM, Variety.NMEM)

# The public functions the workloads call, by layer (module).  congruent_oracle
# and equiv_oracle are defined in propalg.congruence but are the oracle's
# entry points: all their work is propalg.oracle.compare_terms.
API = {
    "syntax": ("parse", "desugar"),
    "congruence": ("normalize", "equal"),
    "sat": ("sat",),
    "oracle": ("congruent_oracle", "equiv_oracle"),
    "valuation": ("evaluate",),
    "projective": ("unfold_projection", "approximants", "eval_spec", "primes_spec"),
    "transform": ("caching", "re_eval"),
    "expressive": ("search_equivalent",),
}
LAYERS = ("syntax", "terms", "congruence", "sat", "oracle", "valuation", "projective", "transform", "expressive")


def make_api(tracer=None) -> SimpleNamespace:
    """The public functions, each wrapped in a span named layer.function when
    a tracer is given."""
    api = SimpleNamespace()
    for layer, names in API.items():
        for name in names:
            fn = getattr(propalg, name)
            setattr(api, name, tracer.wrap(f"{layer}.{name}", fn) if tracer else fn)
    return api


def _blocks(rng: random.Random, block: list):
    """Endless shuffled copies of ``block``."""
    while True:
        order = list(block)
        rng.shuffle(order)
        yield from order


def _sample(rng: random.Random, items: list, n: int) -> list:
    return items if len(items) <= n else rng.sample(items, n)


def _nodes(t, seen: set) -> None:
    stack = [t]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, Cond):
            stack.extend((node.left, node.cond, node.right))


class Workload:
    name = ""
    tail_q = 0.99  # the fixed tail percentile reported as latency_tail_ms
    rss_requests = 1000  # peak RSS is read once this many requests are served
    chunk = 64  # requests generated at a time, outside the timed region
    layer_chunks = 20  # traced chunks the per-layer figures cover
    warmup = 100

    def __init__(self, seed: int, rep: int) -> None:
        self.rng = random.Random(f"{self.name}/{seed}/{rep}")
        self.next_id = 0

    def requests(self, n: int) -> list:
        out = []
        for _ in range(n):
            out.append(self.make(self.next_id))
            self.next_id += 1
        return out

    def warm_up(self, api, between) -> None:
        """Serve requests untimed so caches fill before timing starts;
        ``between`` is called after each."""
        for req in self.requests(self.warmup):
            self.run(api, req)
            between()

    def make(self, rid: int):
        raise NotImplementedError

    def run(self, api, req):
        raise NotImplementedError

    def digest(self, req, out):
        """What ``check`` and ``counters`` need of an output.  Runs between
        requests, outside the timed region; it keeps the run from holding
        outputs the package itself would not keep."""
        return out

    def check(self, done: list, rng: random.Random) -> tuple[int, set]:
        """(outputs checked, ids of requests whose output is wrong)."""
        raise NotImplementedError

    def counters(self, traced: list, spans: list) -> dict:
        return {}


# ---------------------------------------------------------------------------


class DecideStream(Workload):
    """Sugared statement texts over 3-5 atoms, operators nested at most four
    deep.  Each request parses and desugars, then runs normalize, equal or
    sat, in equal shares.  normalize and equal take one of the six main
    congruences; sat takes one of the eight families sat supports, and on
    pmem/nmem (positively or negatively memorizing) it asks for a witness, so
    witness requests are 1 in 12.  One request in four repeats an earlier
    fresh request, drawn uniformly from all of them."""

    name = "decide-stream"
    tail_q = 0.99
    rss_requests = 10000
    layer_chunks = 64
    warmup = 300
    SLOTS = (
        [(op, k) for op in ("normalize", "equal") for k in MAIN for _ in range(4)]
        + [("sat", k) for k in MAIN for _ in range(3)]
        + [("witness", k) for k in SIDE for _ in range(3)]
    )
    REPEATS = [True] + [False] * 3
    # A witness search is exhaustive over tables as deep as the statement:
    # about 14 ms at depth 7 and 44 ms at depth 8, so depth 7 keeps witness
    # requests near the 34 ms they are sized by.
    WITNESS_DEPTH = 7

    def __init__(self, seed: int, rep: int) -> None:
        super().__init__(seed, rep)
        self.slots = _blocks(self.rng, self.SLOTS)
        self.repeats = _blocks(self.rng, self.REPEATS)
        self.history: list = []

    def make(self, rid: int):
        (op, k), repeat = next(self.slots), next(self.repeats)
        if repeat and self.history:
            return self.rng.choice(self.history)
        rng = self.rng
        if op == "witness":
            tree = gen.sugar_tree(rng, "abc", 3)
            while gen.depth(gen.core(tree)) > self.WITNESS_DEPTH:
                tree = gen.sugar_tree(rng, "abc", 3)
        else:
            tree = gen.sugar_tree(rng, "abcde"[: rng.choice((3, 4, 5))], 4)
        other = self._partner(tree) if op == "equal" else None
        req = (op, k, tree, gen.text(tree), other, other and gen.text(other))
        self.history.append(req)
        return req

    def _partner(self, tree: tuple) -> tuple:
        """An fr-identity of the statement, a statement differing in one atom,
        or an unrelated statement, in equal shares."""
        rng = self.rng
        names = "".join(sorted(gen.sugar_atoms(tree))) or "a"
        kind = rng.randrange(3)
        if kind == 0:
            return rng.choice(
                (
                    ("not", ("not", tree)),
                    ("land", ("T",), tree),
                    ("land", tree, ("T",)),
                    ("lor", ("F",), tree),
                    ("lor", tree, ("F",)),
                    ("cond", ("T",), tree, ("F",)),
                )
            )
        if kind == 1:
            return self._rename_leaf(tree, names + "x")
        return gen.sugar_tree(rng, names, 3)

    def _rename_leaf(self, s: tuple, names: str) -> tuple:
        if s[0] == "atom" or len(s) == 1:
            current = s[1] if s[0] == "atom" else ""
            return ("atom", self.rng.choice([n for n in names if n != current]))
        i = self.rng.randrange(1, len(s))
        return s[:i] + (self._rename_leaf(s[i], names),) + s[i + 1 :]

    def run(self, api, req):
        op, k, _, text, _, other = req
        p = api.desugar(api.parse(text))
        if op == "normalize":
            return api.normalize(p, k)
        if op == "equal":
            return api.equal(p, api.desugar(api.parse(other)), k)
        return api.sat(p, k, witness=op == "witness")

    def digest(self, req, out):
        op, k, tree = req[:3]
        if op == "witness":
            # A witness table is checked now and dropped: the package keeps
            # no reference to it.
            h = out.witness
            valid = not out.satisfiable or (
                h is not None and in_variety(h, k) and evaluate(gen.core(tree), h).value
            )
            return out.satisfiable, out.falsifiable, valid
        if op == "sat":
            return out.satisfiable, out.falsifiable
        return out

    def check(self, done, rng):
        bad, checked = set(), 0
        for rid, (op, k, tree, text, _, _), out in _sample(rng, done, 300):
            checked += 1
            if desugar(parse(text)) is not gen.core(tree):
                bad.add(rid)
        equals = [d for d in done if d[1][0] == "equal"]
        for rid, (_, k, tree, _, other, _), out in _sample(rng, equals, 150):
            checked += 1
            if out != congruent_oracle(gen.core(tree), gen.core(other), k):
                bad.add(rid)
        sats = []
        for rid, (op, k, tree, _, _, _), out in done:
            if op == "sat" and k == Variety.ST:
                checked += 1
                if out != gen.truth_table(tree):
                    bad.add(rid)
            elif op in ("sat", "witness"):
                sats.append((rid, k, tree, out))
                if op == "witness":
                    checked += 1
                    if not out[2]:
                        bad.add(rid)
        # The other families' verdicts against the oracle: satisfiable iff
        # not equivalent to F, falsifiable iff not equivalent to T.
        for rid, k, tree, out in _sample(rng, sats, 150):
            checked += 1
            p = gen.core(tree)
            if out[:2] != (not equiv_oracle(p, FALSE, k), not equiv_oracle(p, TRUE, k)):
                bad.add(rid)
        return checked, bad

    def counters(self, traced, spans):
        witness_ids = {rid for rid, req, _ in traced if req[0] == "witness"}
        witness_s = sum(
            end - start for name, start, end, _, rid in spans if name == "sat.sat" and rid in witness_ids
        )
        out_nodes = 0
        for _, req, out in traced:
            if req[0] == "normalize":
                seen: set = set()
                _nodes(out, seen)
                out_nodes += len(seen)
        return {"sat.witness_s": witness_s, "congruence.out_nodes": out_nodes}


# ---------------------------------------------------------------------------


class OracleXcheck(Workload):
    """Pairs of core terms over 3-4 atoms, conditionals nested at most three
    deep (query depth at most 8), decided by the lazy semantic oracle.  Half
    are congruent by construction (the partner is the canonical form, or the
    fr basic form on pmem/nmem); half are near misses, the partner with one
    leaf flipped on a path that repeats no atom, which every variety can
    reach.  The six main congruences and pmem/nmem come in equal shares."""

    name = "oracle-xcheck"
    tail_q = 0.999
    rss_requests = 3000
    layer_chunks = 100
    warmup = 100

    def __init__(self, seed: int, rep: int) -> None:
        super().__init__(seed, rep)
        self.slots = _blocks(self.rng, [(k, same) for k in MAIN * 2 + SIDE * 2 for same in (True, False)])

    def make(self, rid: int):
        k, same = next(self.slots)
        rng = self.rng
        while True:
            names = "abcd"[: rng.choice((3, 4))]
            p = gen.core_term(rng, names, 3)
            partner = normalize(p, k) if k in MAIN else basic_form(p)
            q = partner if same else gen.flip_fresh_leaf(rng, partner)
            if q is not None:
                return (k, p, q, same)

    def run(self, api, req):
        k, p, q, _ = req
        if k in MAIN:
            return api.congruent_oracle(p, q, k)
        return api.equiv_oracle(p, q, k)

    def check(self, done, rng):
        bad = {rid for rid, req, out in done if out != req[3]}
        main = [d for d in done if d[1][0] in MAIN]
        sample = _sample(rng, main, 300)
        bad |= {rid for rid, (k, p, q, _), out in sample if equal(p, q, k) != out}
        return len(done) + len(sample), bad

    def counters(self, traced, spans):
        verdicts = [out for _, _, out in traced]
        return {"oracle.congruent_ratio": sum(verdicts) / len(verdicts) if verdicts else 0.0}


# ---------------------------------------------------------------------------


class SpecTransform(Workload):
    """Repeated-query environments, three request kinds in equal shares.  A
    compile takes a join of two random basic forms over a, b, c of depth at
    most 3 under an atom (the stratum acceptance criterion 8 checks) through
    caching, re_eval (the three variants in turn) and unfold_projection of
    that spec at depth + 1, the deepest level the criterion checks.  An
    execute runs an earlier compiled spec, drawn uniformly, with eval_spec,
    and the statement with evaluate, against each of four seeded tables (two
    memorizing, two free).  An approx unfolds approximants(@primes, 1, 5),
    the call acceptance criterion 7 makes."""

    name = "spec-transform"
    # p99.9 falls where requests that pay for a generation-1 collection start,
    # and moved between 1.7 and 3.6 ms across seeds; p99 is a compile.
    tail_q = 0.99
    rss_requests = 4000
    layer_chunks = 800
    chunk = 32
    warmup = 100
    KINDS = ["compile", "execute", "approx"]
    VARIANTS = ("plain", "dlni", "dlni_subst")
    NAMES = ("a", "b", "c", "dlni")
    FUEL = 7  # the tables' depth: a run may ask at most this many queries
    MEMORIZING = 2  # the first two tables are memorizing, the other two free
    LEVELS = 5

    def __init__(self, seed: int, rep: int) -> None:
        super().__init__(seed, rep)
        self.kinds = _blocks(self.rng, self.KINDS)
        self.tables = [gen.table(self.rng, self.NAMES, self.FUEL, memorizing=i < self.MEMORIZING) for i in range(4)]
        self.compile_ids: list[int] = []
        self.compiled: dict = {}

    def make(self, rid: int):
        rng, kind = self.rng, next(self.kinds)
        if kind == "execute" and self.compile_ids:
            return ("execute", rid, rng.choice(self.compile_ids))
        if kind == "approx":
            return ("approx", rid, self.LEVELS)
        self.compile_ids.append(rid)
        variant = self.VARIANTS[len(self.compile_ids) % 3]
        p = Cond(gen.basic(rng, "abc", 3), atom(rng.choice("abc")), gen.basic(rng, "abc", 3))
        return ("compile", rid, p, variant, gen.depth(p) + 1)

    def run(self, api, req):
        kind = req[0]
        if kind == "compile":
            _, rid, p, variant, n = req
            monotest = api.caching(p)
            spec = api.re_eval(p, variant)
            self.compiled[rid] = (p, spec)
            return monotest, spec, api.unfold_projection(spec, spec.start, n)
        if kind == "execute":
            p, spec = self.compiled[req[2]]
            return [(api.eval_spec(spec, spec.start, h, self.FUEL), api.evaluate(p, h).value) for h in self.tables]
        return api.approximants(api.primes_spec(), 1, req[2]).levels

    def digest(self, req, out):
        if req[0] == "compile":
            monotest, spec, _ = out
            return monotest, len(spec.variables)
        return out

    def check(self, done, rng):
        bad, checked = set(), 0
        compiles = [d for d in done if d[1][0] == "compile"]
        for rid, req, (monotest, _) in _sample(rng, compiles, 300):
            checked += 1
            if not gen.is_monotest(monotest) or not congruent_oracle(monotest, req[2], Variety.MEM):
                bad.add(rid)
        for rid, _, runs in (d for d in done if d[1][0] == "execute"):
            checked += 1
            if any(ran != ("T" if value else "F") for ran, value in runs[: self.MEMORIZING]):
                bad.add(rid)
        approx = [d for d in done if d[1][0] == "approx"]
        for rid, _, levels in _sample(rng, approx, 100):
            checked += 1
            if any(levels[m - 1] is not gen.truncate(levels[m], m) for m in range(1, len(levels))):
                bad.add(rid)
        return checked, bad

    def counters(self, traced, spans):
        runs = [ran for _, req, out in traced if req[0] == "execute" for ran, _ in out]
        equations = sum(out[1] for _, req, out in traced if req[0] == "compile")
        return {
            "projective.diverged_ratio": runs.count("diverged") / len(runs) if runs else 0.0,
            "transform.spec_equations": equations,
        }


# ---------------------------------------------------------------------------


class CatalogSearch(Workload):
    """search_equivalent for small basic forms over a, b, c (depth <= 2)
    under fr, wm, mem or st, in the negation_or and negation_and_or catalogs.
    Each block of eight requests has every catalog and variety once; one of
    them searches compositions with at most three binary applications, the
    others with at most two.  Every eight blocks give each catalog and
    variety that heavier search once."""

    name = "catalog-search"
    tail_q = 0.95
    rss_requests = 100
    layer_chunks = 12
    chunk = 8
    ATOMS = ("a", "b", "c")
    MISSES_CHECKED = 30
    VARIETIES = (Variety.FR, Variety.WM, Variety.MEM, Variety.ST)

    def __init__(self, seed: int, rep: int) -> None:
        super().__init__(seed, rep)
        self.catalogs = {"negation_or": OperatorCatalog.negation_or(), "negation_and_or": OperatorCatalog.negation_and_or()}
        self.combos = [(c, k) for c in self.catalogs for k in self.VARIETIES]
        self.heavy = _blocks(self.rng, list(range(len(self.combos))))
        self.block: list = []
        self.enumerated: dict = {}

    def make(self, rid: int):
        rng = self.rng
        if not self.block:
            heavy = next(self.heavy)
            self.block = [(c, k, 3 if i == heavy else 2) for i, (c, k) in enumerate(self.combos)]
            rng.shuffle(self.block)
        catalog, k, max_2p = self.block.pop()
        return (gen.basic(rng, "abc", 2, leaf_p=0.2), k, catalog, max_2p)

    def warm_up(self, api, between) -> None:
        # One search per catalog and bound fills the shared _apply memo.
        for catalog in self.catalogs:
            for max_2p in (2, 3):
                self.run(api, (TRUE, Variety.FR, catalog, max_2p))
                between()

    def run(self, api, req):
        target, k, catalog, max_2p = req
        return api.search_equivalent(target, k, self.ATOMS, self.catalogs[catalog], max_2p)

    def check(self, done, rng):
        found = [d for d in done if d[2] is not None]
        bad = {rid for rid, (target, k, _, _), out in found if not congruent_oracle(out.term, target, k)}
        # A miss at either bound is a miss among the max_2p=2 compositions,
        # which the oracle can scan for a sample.
        missed = _sample(rng, [d for d in done if d[2] is None], self.MISSES_CHECKED)
        for rid, (target, k, catalog, _), _ in missed:
            if any(congruent_oracle(c.term, target, k) for c in self._candidates(catalog, 2)):
                bad.add(rid)
        return len(found) + len(missed), bad

    def _candidates(self, catalog: str, max_2p: int) -> list:
        key = (catalog, max_2p)
        if key not in self.enumerated:
            self.enumerated[key] = enumerate_tc12(self.ATOMS, self.catalogs[catalog], max_2p)
        return self.enumerated[key]

    def counters(self, traced, spans):
        candidates = 0
        for _, (_, _, catalog, max_2p), out in traced:
            scanned = self._candidates(catalog, max_2p)
            candidates += scanned.index(out) + 1 if out is not None else len(scanned)
        found = sum(out is not None for _, _, out in traced)
        return {
            "expressive.candidates": candidates,
            "expressive.found_ratio": found / len(traced) if traced else 0.0,
        }


WORKLOADS = {w.name: w for w in (DecideStream, OracleXcheck, SpecTransform, CatalogSearch)}
