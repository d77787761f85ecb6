"""Outside-in tracing of the library's layers.

``Tracer.install`` rebinds, in every loaded ``reflectron`` module, each
attribute that refers to a public function of a layer module -- re-exports
such as ``optima.closed_form_rotation_distance`` and ``reflectron.<name>``
included -- to one wrapper per function. Module globals are looked up at
call time, so calls between library functions pass through the wrappers too.
The library itself is not edited. Methods of classes are not wrapped: their
time counts towards the function span that calls them.

Spans stay in memory (name, start, end, parent span) until the pass ends.
Self time is a span's duration minus the durations of its direct children.
"""

import gzip
import importlib
import inspect
import json
import statistics
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "tensor_core", "cyclic", "channels", "distances", "optima",
          "repthy", "universal", "circuits", "config")


class Tracer:
    def __init__(self, pass_id):
        self.pass_id = pass_id
        self.names, self.starts, self.ends, self.parents = [], [], [], []
        self.counts = Counter()
        self.peak_budget_frac = 0.0
        self._stack = [-1]

    def _wrap(self, name, fn, before=None, after=None):
        names, starts, ends, parents, stack = self.names, self.starts, self.ends, self.parents, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            i = len(starts)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def _hooks(self, config):
        budget = config.budget_entries()

        def budget_check(entries):
            self.counts["config.budget_checks"] += 1
            self.peak_budget_frac = max(self.peak_budget_frac, entries / budget)

        def gates(circ, *args, **kwargs):
            self.counts["circuits.gates_applied"] += len(getattr(circ, "gates", circ))

        def nfev(result):
            self.counts["repthy.nelder_mead.nfev"] += int(result.nfev)

        return {
            "config.ensure_vector_budget": (lambda dim, *a, **k: budget_check(dim), None),
            "config.ensure_operator_budget": (lambda dim, *a, **k: budget_check(dim * dim), None),
            "circuits.apply_circuit": (gates, None),
            "circuits.circuit_to_dense": (gates, None),
            "repthy.nelder_mead": (None, nfev),
        }

    def install(self):
        modules = {layer: importlib.import_module(f"reflectron.{layer}") for layer in LAYERS}
        hooks = self._hooks(modules["config"])
        targets = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(inspect.unwrap(obj)):
                    targets[id(obj)] = (obj, f"{layer}.{attr}")
        # the Nelder-Mead search is scipy's, but its calls are repthy's work
        targets[id(modules["repthy"].minimize)] = (modules["repthy"].minimize, "repthy.nelder_mead")
        wrappers = {key: (obj, self._wrap(name, obj, *hooks.get(name, (None, None))))
                    for key, (obj, name) in targets.items()}
        for modname, module in list(sys.modules.items()):
            if modname != "reflectron" and not modname.startswith("reflectron."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])

    def write(self, path):
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({"pass": self.pass_id, "id": i, "name": name,
                                     "start": self.starts[i], "end": self.ends[i],
                                     "parent": self.parents[i]}) + "\n")

    def summary(self):
        """Per-function and per-layer aggregates of the recorded spans."""
        names, parents = self.names, self.parents
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(dur)
        for i, p in enumerate(parents):
            if p >= 0:
                child[p] += dur[i]

        def under(i, ancestor):
            p = parents[i]
            while p >= 0:
                if names[p] == ancestor:
                    return True
                p = parents[p]
            return False

        calls, self_s, durations = Counter(), defaultdict(float), defaultdict(list)
        for i, name in enumerate(names):
            calls[name] += 1
            self_s[name] += dur[i] - child[i]
            durations[name].append(dur[i])
        layer_self, layer_calls = defaultdict(float), Counter()
        for name in calls:
            layer = name.split(".", 1)[0]
            layer_self[layer] += self_s[name]
            layer_calls[layer] += calls[name]

        def p50(name, scale):
            return statistics.median(durations[name]) * scale if durations[name] else 0.0

        covariant = sum(d for i, d in enumerate(dur) if names[i] == "distances.diamond_covariant"
                        and not under(i, "distances.diamond_covariant"))
        oracle = sum(d for i, d in enumerate(dur) if names[i] == "distances.distance_at_p"
                     and under(i, "distances.diamond_covariant"))
        metrics = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
        metrics.update({
            "distances.oracle_share": oracle / covariant if covariant else 0.0,
            "distances.diamond_covariant.calls": calls["distances.diamond_covariant"],
            "distances.diamond_covariant.p50_us": p50("distances.diamond_covariant", 1e6),
            "cyclic.is_channel_element.calls": calls["cyclic.is_channel_element"],
            "cyclic.lmr_coeffs.self_s": self_s["cyclic.lmr_coeffs"],
            "optima.objective_evals": sum(1 for i, name in enumerate(names)
                                          if name == "distances.closed_form_rotation_distance"
                                          and under(i, "optima.theta_star")),
            "optima.theta_star.p50_ms": p50("optima.theta_star", 1e3),
            "optima.landscape.self_s": self_s["optima.landscape"],
            "channels.effective_channel.calls": calls["channels.effective_channel"],
            "repthy.cg_su2.calls": calls["repthy.cg_su2"],
            "repthy.cg_su2.self_s": self_s["repthy.cg_su2"],
            "repthy.commutant_basis.self_s": self_s["repthy.commutant_basis"],
            "repthy.twirl.calls": calls["repthy.twirl"],
            "repthy.twirl.p50_ms": p50("repthy.twirl", 1e3),
            "repthy.maximize_entropy_over_q.self_s": self_s["repthy.maximize_entropy_over_q"],
            "repthy.nelder_mead.nfev": self.counts["repthy.nelder_mead.nfev"],
            "distances.apply_reference_extended.calls": calls["distances.apply_reference_extended"],
            "distances.dense_diamond_covariant.self_s": self_s["distances.dense_diamond_covariant"],
            "channels.dense_reflection_channel.self_s": self_s["channels.dense_reflection_channel"],
            "tensor_core.symmetric_encoder.self_s": self_s["tensor_core.symmetric_encoder"],
            "tensor_core.permutation_operator.calls": calls["tensor_core.permutation_operator"],
            "cyclic.dense_element.self_s": self_s["cyclic.dense_element"],
            "circuits.apply_circuit.self_s": self_s["circuits.apply_circuit"],
            "circuits.gates_applied": self.counts["circuits.gates_applied"],
            "universal.verify_budget.p50_ms": p50("universal.verify_budget", 1e3),
            "cli.calls": layer_calls["cli"],
            "config.budget_checks": self.counts["config.budget_checks"],
            "config.peak_budget_frac": self.peak_budget_frac,
        })
        functions = {name: {"calls": calls[name], "self_s": self_s[name],
                            "p50_s": statistics.median(durations[name])} for name in calls}
        return metrics, functions
