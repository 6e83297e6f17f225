"""Per-layer tracing for the cckit benchmark, kept entirely outside ``src/``.

``Tracer.install()`` replaces public functions in the namespaces of the
modules that call them (``cckit.kkm.contains``, ``cckit.cli.extract``, ...)
and a few methods on their classes with timing wrappers, and
``uninstall()`` puts the originals back. Each wrapped call is a span with a
name, start, end, parent span and instance id. Self time is a span's
duration minus the time its child spans cover; both are added up online
per (instance, name, kind, caller), so the per-layer table needs no second
pass over the spans.

Spans of the very frequent leaf calls (scalar expression evaluation,
simplex projections, label membership tests, excess demand, metric calls)
are folded into those totals and not kept one by one: a traced pass makes
about a million of them. All other spans are kept in memory, up to
``SPAN_CAP``, and written as JSON lines when the run ends.
"""
from __future__ import annotations

import functools
import json
import time

#: spans kept one by one; past this only the totals grow
SPAN_CAP = 200_000

#: the package's modules, which are the benchmark's layers
LAYERS = ("cli", "measure", "expr", "functionals", "convex", "komlos",
          "coercive", "kkm", "saddle", "equilibrium")

#: the set and functional kinds some workload exercises; the others
#: (intersection, sublevel, linear) appear in no workload and are left out
CONTAINS_KINDS = ("polytope", "box", "aggregator-sublevel")
PROJECT_KINDS = ("polytope", "box")
FUNCTIONAL_KINDS = ("pointwise", "quadratic")

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.instance = None
        self.stats: dict = {}       # instance -> {(name, kind, caller): [calls, total, self]}
        self.counts: dict = {}      # instance -> {counter: int}
        self.rounds: dict = {}      # instance -> [(q, pivot steps)] per walk round
        self.spans: list = []
        self.dropped = 0
        self._stack: list = []
        self._next_id = 0
        self._patches: list = []

    # -- recording --------------------------------------------------------

    def begin(self, instance: str) -> None:
        self.instance = instance
        self.stats.setdefault(instance, {})
        self.counts.setdefault(instance, {})
        self.rounds.setdefault(instance, [])

    def count(self, counter: str, n: int = 1) -> None:
        if self.instance is not None:
            c = self.counts[self.instance]
            c[counter] = c.get(counter, 0) + n

    def _enter(self, key, keep):
        span_id = self._next_id
        self._next_id += 1
        frame = [key, keep, span_id, 0.0, _clock()]
        self._stack.append(frame)
        return frame

    def _exit(self, frame):
        end = _clock()
        key, keep, span_id, child, start = frame
        self._stack.pop()
        dur = end - start
        if self._stack:
            self._stack[-1][3] += dur
        st = self.stats[self.instance]
        agg = st.get(key)
        if agg is None:
            agg = st[key] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += dur
        agg[2] += dur - child
        if keep:
            if len(self.spans) < SPAN_CAP:
                parent = self._stack[-1][2] if self._stack else None
                self.spans.append((span_id, key[0], key[1], start, end, parent,
                                   self.instance))
            else:
                self.dropped += 1

    def call(self, fn, name, *args):
        """Run ``fn(*args)`` as one span (used for the CLI entry point)."""
        frame = self._enter((name, None, None), True)
        try:
            return fn(*args)
        finally:
            self._exit(frame)

    # -- wrappers ---------------------------------------------------------

    def _wrapper(self, fn, name, caller, kind_of=None, keep=True, post=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.instance is None:
                return fn(*args, **kwargs)
            kind = kind_of(args) if kind_of is not None else None
            frame = tracer._enter((name, kind, caller), keep)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if post is not None:
                post(args, result)
            return result
        return wrapper

    def _locate_wrapper(self, fn):
        # one call is one refinement round; the shared ``steps`` list tells
        # how many pivot steps the round took
        timed = self._wrapper(fn, "kkm.locate_complete_cell", None)

        @functools.wraps(fn)
        def locate(inst, q, steps):
            before = steps[0]
            try:
                return timed(inst, q, steps)
            finally:
                if self.instance is not None:
                    self.rounds[self.instance].append((q, steps[0] - before))
        return locate

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def wrap(self, module, attr, name, **opts):
        caller = module.__name__.rsplit(".", 1)[-1]
        self._patch(module, attr, self._wrapper(getattr(module, attr), name,
                                                caller, **opts))

    def wrap_method(self, cls, attr, name, **opts):
        self._patch(cls, attr, self._wrapper(cls.__dict__[attr], name, None,
                                             **opts))

    def install(self):
        from cckit import (cli, coercive, convex, equilibrium, expr,
                           functionals, kkm, komlos, measure, saddle)

        set_kind = lambda a: a[0].kind  # noqa: E731  (set_rep is argument 0)

        def minimize_post(args, result):
            report = result[2]
            self.count("coercive.iterations", report["iterations"])
            self.count("coercive.restarts", report["restarts"])

        def net_post(args, result):
            self.count("coercive.net_points", len(result))

        for codec in ("space_from_json", "set_from_json",
                      "functional_from_json", "payoff_from_json",
                      "economy_from_json", "randvar_from_json"):
            self.wrap(cli, codec, "cli.parse", kind_of=lambda a, c=codec: c)
        self.wrap(cli, "extract", "komlos.extract")
        self.wrap(cli, "minimize", "coercive.minimize", post=minimize_post)
        self.wrap(cli, "solve_saddle", "saddle.solve_saddle")
        self.wrap(cli, "sperner_solve", "kkm.sperner_solve")
        self.wrap(cli, "solve_excess_demand", "equilibrium.solve_excess_demand")

        for mod in (kkm, komlos, coercive, saddle):
            self.wrap(mod, "contains", "convex.contains", kind_of=set_kind,
                      keep=mod is not kkm)
        for mod in (coercive, equilibrium, saddle, kkm):
            self.wrap(mod, "project", "convex.project", kind_of=set_kind)
        self.wrap_method(convex.Polytope, "weights_for", "convex.weights_for")
        self.wrap(saddle, "project_simplex", "convex.project_simplex",
                  keep=False)

        self.wrap(komlos, "metric_d", "measure.metric_d", keep=False)
        self.wrap(komlos, "prob_at_least", "measure.prob_at_least", keep=False)
        post_init = measure.RandVar.__dict__["__post_init__"]

        def counted_post_init(rv):
            self.count("measure.randvar")
            post_init(rv)
        self._patch(measure.RandVar, "__post_init__", counted_post_init)

        self.wrap_method(expr.Expression, "eval", "expr.eval", keep=False)
        self.wrap_method(expr.Expression, "derivative", "expr.derivative",
                         keep=False)
        for cls in (functionals.QuadraticFunctional,
                    functionals.PointwiseFunctional):
            for meth in ("value", "grad"):
                self.wrap_method(cls, meth, f"functionals.{meth}",
                                 kind_of=lambda a, k=cls.kind: k, keep=False)

        self.wrap(coercive, "certificate_net", "coercive.certificate_net",
                  post=net_post)
        self.wrap(saddle, "minimize", "coercive.minimize", post=minimize_post)
        for mod in (kkm, equilibrium):
            self._patch(mod, "locate_complete_cell",
                        self._locate_wrapper(mod.locate_complete_cell))
        self.wrap(equilibrium, "excess_demand", "equilibrium.excess_demand",
                  keep=False)
        self.wrap(equilibrium, "check_hypotheses",
                  "equilibrium.check_hypotheses")

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self.instance = None

    # -- results ----------------------------------------------------------

    def call_counts(self, instance: str) -> dict:
        """Deterministic per-instance counts: wrapper calls and counters."""
        out = {f"{n}|{k}|{c}": v[0]
               for (n, k, c), v in self.stats.get(instance, {}).items()}
        out.update(self.counts.get(instance, {}))
        out["kkm.rounds"] = [list(r) for r in self.rounds.get(instance, [])]
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, kind, start, end, parent, inst in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "kind": kind,
                                     "start": start, "end": end,
                                     "parent": parent, "instance": inst}))
                fh.write("\n")

    def layer_metrics(self, instances, outputs) -> dict:
        """The per-layer table over ``instances`` (one traced pass).

        ``outputs`` maps instance name to its parsed CLI output, for the
        counters the solvers report themselves.
        """
        tot: dict = {}
        for inst in instances:
            for (name, kind, caller), (calls, total, self_t) in self.stats[inst].items():
                for key in ((name, kind, caller), (name, kind, "*"),
                            (name, "*", caller), (name, "*", "*")):
                    agg = tot.setdefault(key, [0, 0.0, 0.0])
                    agg[0] += calls
                    agg[1] += total
                    agg[2] += self_t

        def get(name, kind="*", caller="*", field=0):
            return tot.get((name, kind, caller), [0, 0.0, 0.0])[field]

        counts: dict = {}
        for inst in instances:
            for k, v in self.counts[inst].items():
                counts[k] = counts.get(k, 0) + v

        m = {}
        m["cli.parse_s"] = get("cli.parse", field=1)
        m["cli.other_s"] = get("cli.main", field=2)
        m["measure.randvar_count"] = counts.get("measure.randvar", 0)
        m["measure.metric_calls"] = (get("measure.metric_d")
                                     + get("measure.prob_at_least"))
        for op in ("eval", "derivative"):
            m[f"expr.{op}_calls"] = get(f"expr.{op}")
            m[f"expr.{op}_s"] = get(f"expr.{op}", field=1)
        for op in ("value", "grad"):
            for kind in FUNCTIONAL_KINDS:
                m[f"functionals.{op}_calls.{kind}"] = get(f"functionals.{op}", kind)
                m[f"functionals.{op}_s.{kind}"] = get(f"functionals.{op}", kind,
                                                      field=1)
        for op, kinds in (("contains", CONTAINS_KINDS),
                          ("project", PROJECT_KINDS)):
            for kind in kinds:
                m[f"convex.{op}_calls.{kind}"] = get(f"convex.{op}", kind)
                m[f"convex.{op}_s.{kind}"] = get(f"convex.{op}", kind, field=1)
        for op in ("weights_for", "project_simplex"):
            m[f"convex.{op}_calls"] = get(f"convex.{op}")
            m[f"convex.{op}_s"] = get(f"convex.{op}", field=1)

        m["komlos.extract_s"] = get("komlos.extract", field=1)
        m["komlos.self_s"] = get("komlos.extract", field=2)
        m["komlos.stages"] = sum(_extract_stages(outputs[i]) for i in instances)

        m["coercive.minimize_calls"] = get("coercive.minimize")
        m["coercive.minimize_s"] = get("coercive.minimize", field=1)
        m["coercive.net_s"] = get("coercive.certificate_net", field=1)
        m["coercive.net_points"] = counts.get("coercive.net_points", 0)
        m["coercive.iterations"] = counts.get("coercive.iterations", 0)
        m["coercive.restarts"] = counts.get("coercive.restarts", 0)

        walks = [self.rounds[i] for i in instances if self.rounds[i]]
        all_steps = sum(s for w in walks for _, s in w)
        m["kkm.rounds"] = sum(len(w) for w in walks)
        m["kkm.locate_s"] = get("kkm.locate_complete_cell", field=1)
        m["kkm.pivot_steps"] = all_steps
        m["kkm.membership_calls"] = get("convex.contains", caller="kkm")
        m["kkm.membership_s"] = get("convex.contains", caller="kkm", field=1)
        m["kkm.final_q"] = (sum(w[-1][0] for w in walks) / len(walks)
                            if walks else 0)
        m["kkm.final_round_step_frac"] = (
            sum(w[-1][1] for w in walks) / all_steps if all_steps else 0.0)

        m["saddle.solve_s"] = get("saddle.solve_saddle", field=1)
        m["saddle.self_s"] = get("saddle.solve_saddle", field=2)
        m["saddle.eg_iterations"] = sum(
            outputs[i]["result"]["iterations"] for i in instances
            if outputs[i].get("command") == "saddle")
        m["saddle.inner_minimize_calls"] = get("coercive.minimize",
                                               caller="saddle")

        m["equilibrium.solve_s"] = get("equilibrium.solve_excess_demand",
                                       field=1)
        m["equilibrium.excess_demand_calls"] = get("equilibrium.excess_demand")
        m["equilibrium.excess_demand_s"] = get("equilibrium.excess_demand",
                                               field=1)
        m["equilibrium.polish_iterations"] = sum(
            outputs[i]["result"]["report"]["polish_iterations"]
            for i in instances if outputs[i].get("command") == "equilibrium")
        m["equilibrium.hypothesis_check_s"] = get(
            "equilibrium.check_hypotheses", field=1)

        shares, _ = self.layer_shares(instances)
        for layer in LAYERS:
            m[f"self_s.{layer}"] = shares[layer]
        return m

    def layer_shares(self, instances):
        """Self time per layer over ``instances``, and their traced total."""
        shares = dict.fromkeys(LAYERS, 0.0)
        total = 0.0
        for inst in instances:
            for (name, _, _), (_, whole, self_t) in self.stats[inst].items():
                shares[name.split(".")[0]] += self_t
                if name == "cli.main":
                    total += whole
        return shares, total


def _extract_stages(out: dict) -> int:
    """Tail stages an extract run completed (escapes: up to the last fired)."""
    if out.get("command") == "extract":
        return len(out["result"]["stages"])
    cert = out.get("error", {}).get("certificate")
    if cert and "combo_bound" in cert:
        return max(c["D"] for c in cert["combo_bound"]).bit_length()
    return 0
