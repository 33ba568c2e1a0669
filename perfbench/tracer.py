"""Layer tracing from outside the program.

Wraps gecmerge's public functions in every gecmerge namespace that binds
them.  Layer-boundary functions get spans (name, start, end, parent),
kept in memory and written out at the end; functions called up to
millions of times get counters only.  A span's self time is its duration
minus the durations of its direct child spans.  Every wrapper is
restored by uninstall().
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
from collections import Counter, defaultdict
from time import perf_counter

# module: function names wrapped with spans; "Class.method" patches the class
SPANNED = {
    "m2": ["parse_m2", "write_m2", "load_m2", "dump_m2"],
    "core": ["apply_edits"],
    "combine": ["partition_pair", "build_stats", "optimize_selection", "train_policy",
                "apply_policy", "combine_iterative", "filter_system", "save_policy", "load_policy"],
    "score": ["match_edits", "check_same_sources", "score_corpus"],
    "align": ["align_tokens", "classify_edit", "extract_edits"],
    "spellcheck": ["build_model", "load_model", "save_model", "load_dictionary", "suggest",
                   "correct_sentence"],
    "synth": ["measure_distribution", "generate_corpus", "generate_pair", "load_distribution",
              "save_distribution", "PoolIndex.__init__"],
}
# counter name: (module, function); several functions may share one counter
COUNTED = {
    "core.check_token.calls": ("core", "check_token"),
    "core.edit_inits": ("core", "Edit.__post_init__"),
    "core.sentence_inits": ("core", "AnnotatedSentence.__post_init__"),
    "distance.damerau_levenshtein.calls": ("distance", "damerau_levenshtein"),
    "distance.is_levenshtein_one.calls": ("distance", "is_levenshtein_one"),
    "distance.is_character_swap.calls": ("distance", "is_character_swap"),
    "synth.candidates.calls": ("synth", "PoolIndex.candidates"),
}
CLI_COMMANDS = {
    "cmd_extract": "extract", "cmd_train_policy": "train-policy", "cmd_apply_policy": "apply-policy",
    "cmd_combine": "combine", "cmd_filter": "filter", "cmd_score": "score", "cmd_apply": "apply",
    "cmd_spell_build_model": "spell.build-model", "cmd_spell_correct": "spell.correct",
    "cmd_synth_measure": "synth.measure", "cmd_synth_generate": "synth.generate",
}


def _after(name, counters, args, result):
    """Work counts that a span records from its arguments and result."""
    if name == "m2.parse_m2":
        counters["m2.parse_m2.sents"] += len(result)
    elif name == "m2.write_m2":
        counters["m2.write_m2.sents"] += len(args[0])
    elif name == "align.align_tokens":
        counters["align.align_tokens.dp_cells"] += len(args[0]) * len(args[1])
    elif name == "combine.optimize_selection":
        counters["combine.optimize_selection.cells"] += len(args[0].cells)
    elif name == "spellcheck.suggest":
        counters["spellcheck.suggest.hits"] += result is not None
    elif name == "synth.generate_pair":
        # draws of zero corrections return without a candidate search
        counters["synth.generate_pair.accepted"] += bool(result[2])


class Tracer:
    def __init__(self, package_name="gecmerge"):
        self.package = importlib.import_module(package_name)
        self.modules = [self.package] + [
            importlib.import_module(f"{package_name}.{m.name}")
            for m in pkgutil.iter_modules(self.package.__path__)
            if m.name != "__main__"
        ]
        self.spans = []  # [name, start, end, parent index]
        self.stack = []
        self.counters = Counter()
        self._restore = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, counters = self.spans, self.stack, self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            _after(name, counters, args, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        counters = self.counters
        if name == "synth.candidates.calls":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                counters[name] += 1
                counters["synth.candidates.size_sum"] += len(result)
                return result
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counters[name] += 1
                return fn(*args, **kwargs)
        return wrapper

    def _patch(self, module_name, attr, make):
        module = importlib.import_module(f"{self.package.__name__}.{module_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth]
            self._restore.append((cls, meth, original))
            setattr(cls, meth, make(original))
            return
        original = getattr(module, attr)
        wrapper = make(original)
        for mod in self.modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def install(self):
        for module_name, names in SPANNED.items():
            for attr in names:
                label = f"{module_name}.{attr.replace('.__init__', '')}"
                self._patch(module_name, attr, lambda fn, label=label: self._span(label, fn))
        for counter, (module_name, attr) in COUNTED.items():
            self._patch(module_name, attr, lambda fn, counter=counter: self._counter(counter, fn))
        for attr, sub in CLI_COMMANDS.items():
            self._patch("cli", attr, lambda fn, sub=sub: self._span(f"cli.{sub}", fn))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- results ----------------------------------------------------------

    def aggregate(self):
        """Per span name: calls, total seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        agg = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for (name, start, end, _), inner in zip(self.spans, child_time):
            a = agg[name]
            a["calls"] += 1
            a["total_s"] += end - start
            a["self_s"] += end - start - inner
        return dict(agg)

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": dict(self.counters)}, fh)


def layer_metrics(agg, counters):
    """The per-layer metrics, by name, from aggregated spans and counters."""
    def calls(name):
        return agg.get(name, {}).get("calls", 0)

    def self_s(name):
        return agg.get(name, {}).get("self_s", 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for sub in CLI_COMMANDS.values():
        m[f"cli.{sub}.s"] = agg.get(f"cli.{sub}", {}).get("total_s", 0.0)
    for name in ("m2.parse_m2", "m2.write_m2"):
        m[f"{name}.self_s"] = self_s(name)
        m[f"{name}.sents"] = counters[f"{name}.sents"]
    m["core.sentence_inits"] = counters["core.sentence_inits"]
    m["core.edit_inits"] = counters["core.edit_inits"]
    m["core.check_token.calls"] = counters["core.check_token.calls"]
    for name in ("core.apply_edits", "combine.partition_pair", "combine.apply_policy",
                 "score.match_edits", "score.check_same_sources", "align.classify_edit",
                 "spellcheck.suggest", "synth.generate_pair"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    for name in ("combine.build_stats", "combine.train_policy", "combine.optimize_selection",
                 "align.align_tokens", "align.extract_edits", "spellcheck.build_model",
                 "spellcheck.load_model", "synth.measure_distribution"):
        m[f"{name}.self_s"] = self_s(name)
    m["combine.optimize_selection.cells"] = counters["combine.optimize_selection.cells"]
    m["align.align_tokens.dp_cells"] = counters["align.align_tokens.dp_cells"]
    m["distance.damerau_levenshtein.calls"] = counters["distance.damerau_levenshtein.calls"]
    tests = counters["distance.is_levenshtein_one.calls"] + counters["distance.is_character_swap.calls"]
    m["distance.candidate_tests"] = tests
    m["spellcheck.suggest.hit_ratio"] = ratio(counters["spellcheck.suggest.hits"], calls("spellcheck.suggest"))
    m["spellcheck.candidate_tests_per_suggest"] = ratio(tests, calls("spellcheck.suggest"))
    m["synth.PoolIndex.build_s"] = agg.get("synth.PoolIndex", {}).get("total_s", 0.0)
    m["synth.candidates.calls"] = counters["synth.candidates.calls"]
    m["synth.candidates.mean_size"] = ratio(counters["synth.candidates.size_sum"], counters["synth.candidates.calls"])
    m["synth.accept_ratio"] = ratio(counters["synth.generate_pair.accepted"], counters["synth.candidates.calls"])
    return m
