"""In-process traced run: per-layer self times and work counters.

The wrappers live here, not in nclocal.  A public function is wrapped by
rebinding its name in every nclocal module that holds it, because
`from .elliptic import trace_of_frobenius` in functor and zeta copies the
function object and patching elliptic alone would miss those calls.

The batch runs three times in one process:

1. plain, for the untraced wall time;
2. with spans around the public functions of each layer (and the series
   operators), giving self times (a span minus its child spans) and call
   counts;
3. with counters on the hot primitives (F_p, F_{p^n} and FieldElement
   operations, IntMatrix products, is_prime), which run millions of times
   at well under a microsecond each and would mostly time the wrapper.

Tracing overhead is the second pass's wall time minus the first's; the
two passes alternate job by job.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import io
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass

LAYERS = ("cli", "functor", "zeta", "elliptic", "ffield", "ck_k0", "intmat", "quadratic_cf", "_factor")
# catalog is left unmeasured: no workload spends time in it
METHOD_SPANS = (("zeta", "TruncatedSeries", ("__mul__", "reciprocal")),)
SERIES_SPANS = ("zeta.series_exp", "zeta.series_log", "zeta.TruncatedSeries.__mul__", "zeta.TruncatedSeries.reciprocal")
# counted in the third pass, never timed
COUNTED_FUNCTIONS = (("_factor", "is_prime"),)
COUNTED_METHODS = (
    ("ffield", "ExtField", ("mul", "add", "inv", "__init__")),
    ("ffield", "PrimeField", ("add", "sub", "neg", "mul", "inv", "pow")),
    (
        "ffield",
        "FieldElement",
        ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__",
         "__rtruediv__", "__neg__", "__pow__"),
    ),
    ("intmat", "IntMatrix", ("__mul__",)),
)


def _modules() -> dict:
    return {name: importlib.import_module(f"nclocal.{name}") for name in LAYERS + ("catalog",)}


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, name, value):
        self._undo.append((owner, name, owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)))
        setattr(owner, name, value)

    def rebind(self, mods: dict, original, wrapper):
        for mod in mods.values():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, name, wrapper)

    def undo(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


class SpanRecorder:
    """Self time per span label, from a stack of child-time accumulators."""

    def __init__(self):
        self.stack = [0]
        self.self_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.counters = defaultdict(int)
        self.job_keys = defaultdict(set)  # per job: distinct keys of cacheable calls
        self.unique = defaultdict(int)

    def wrap(self, label: str, func, hook=None):
        stack, self_ns, calls = self.stack, self.self_ns, self.calls
        clock = time.perf_counter_ns

        def span(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                total = clock() - t0
                child = stack.pop()
                stack[-1] += total
                self_ns[label] += total - child
                calls[label] += 1
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return span

    def end_job(self):
        for key, seen in self.job_keys.items():
            self.unique[key] += len(seen)
        self.job_keys.clear()


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _hook_count(rec, args, kwargs, result):
    e = args[0]
    rec.counters["count_elements"] += e.field.p ** _arg(args, kwargs, 1, "n", 1)


def _hook_trace(rec, args, kwargs, result):
    e = args[0]
    rec.job_keys["ap"].add((tuple(c.val for c in e.coefficients), e.field.p))


def _hook_group(rec, args, kwargs, result):
    rec.counters["group_elements"] += result.order


def _hook_epsilon(rec, args, kwargs, result):
    key = tuple(_arg(args, kwargs, i, name) for i, name in enumerate(("p", "n", "good")))
    rec.job_keys["epsilon"].add(key + (kwargs.get("trace_ap"), kwargs.get("alpha")))


def _hook_cf(rec, args, kwargs, result):
    rec.counters["cf_digits"] += len(result.preperiod) + len(result.period)


def _hook_lemma1(rec, args, kwargs, result):
    rec.counters["primes"] += len(_arg(args, kwargs, 1, "primes"))


def _hook_theorem1(rec, args, kwargs, result):
    rec.counters["trials"] += _arg(args, kwargs, 2, "trials")


HOOKS = {
    "elliptic.count_points": _hook_count,
    "elliptic.count_nonsingular": _hook_count,
    "elliptic.trace_of_frobenius": _hook_trace,
    "elliptic.group_structure": _hook_group,
    "ck_k0.epsilon": _hook_epsilon,
    "quadratic_cf.cf_expand": _hook_cf,
    "zeta.lemma1_check": _hook_lemma1,
    "functor.theorem1_check": _hook_theorem1,
}


def install_spans(mods: dict, rec: SpanRecorder) -> Patches:
    patches = Patches()
    counted = {getattr(mods[m], f) for m, f in COUNTED_FUNCTIONS}
    for layer in LAYERS:
        mod = mods[layer]
        for name, func in list(vars(mod).items()):
            if (
                name.startswith("_")
                or not inspect.isfunction(func)
                or func.__module__ != mod.__name__
                or inspect.isgeneratorfunction(func)
                or func in counted
            ):
                continue
            label = f"{layer}.{name}"
            patches.rebind(mods, func, rec.wrap(label, func, HOOKS.get(label)))
    for layer, cls_name, names in METHOD_SPANS:
        cls = getattr(mods[layer], cls_name)
        for name in names:
            patches.set(cls, name, rec.wrap(f"{layer}.{cls_name}.{name}", cls.__dict__[name]))
    return patches


def install_counters(mods: dict, counts: defaultdict) -> Patches:
    patches = Patches()

    def counting(key, func):
        def counted(*args, **kwargs):
            counts[key] += 1
            return func(*args, **kwargs)

        return counted

    for layer, name in COUNTED_FUNCTIONS:
        func = getattr(mods[layer], name)
        patches.rebind(mods, func, counting(f"{layer}.{name}", func))
    for layer, cls_name, names in COUNTED_METHODS:
        cls = getattr(mods[layer], cls_name)
        for name in names:
            patches.set(cls, name, counting(f"{cls_name}.{name}", cls.__dict__[name]))
    return patches


def run_main(cli, args) -> tuple:
    """(wall time, returncode, stdout, stderr) of cli.main(args) with its
    output captured; a raised exception becomes a traceback on stderr with
    exit code 1, as in a child process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(list(args))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # noqa: BLE001 - the job failed; report it like a crash
            traceback.print_exc()
            rc = 1
        wall = time.perf_counter() - t0
    return wall, rc, out.getvalue().encode(), err.getvalue().encode()


@dataclass
class TracedResult:
    outputs: list  # (returncode, stdout, stderr) per job, from the plain pass
    reproduced: list  # per job: the traced passes printed the same output
    metrics: dict  # name -> (value, unit)


def _pass(mods, jobs, before_job, rec=None):
    cli = mods["cli"]
    walls, outputs = [], []
    for job in jobs:
        before_job()
        wall, *output = run_main(cli, job.args)
        walls.append(wall)
        outputs.append(tuple(output))
        if rec is not None:
            rec.end_job()
    return walls, outputs


def run(jobs, before_job) -> TracedResult:
    """Trace `jobs`; `before_job()` is called before each job is timed.

    The plain and span passes alternate job by job, so that a change in
    the host's speed falls on both sides of the overhead figure.
    """
    mods = _modules()
    rec = SpanRecorder()
    outputs, span_outputs, plain_walls, span_walls = [], [], [], []
    for job in jobs:
        walls, outs = _pass(mods, [job], before_job)
        plain_walls += walls
        outputs += outs
        before = sum(rec.self_ns.values())
        patches = install_spans(mods, rec)
        try:
            walls, outs = _pass(mods, [job], before_job, rec)
        finally:
            patches.undo()
        span_walls.append((walls[0], (sum(rec.self_ns.values()) - before) / 1e9))
        span_outputs += outs

    counts = defaultdict(int)
    patches = install_counters(mods, counts)
    try:
        _, counted_outputs = _pass(mods, jobs, before_job)
    finally:
        patches.undo()

    def self_s(*labels):
        return sum(rec.self_ns[label] for label in labels) / 1e9

    def layer_self_s(layer):
        return sum(ns for label, ns in rec.self_ns.items() if label.startswith(layer + ".")) / 1e9

    def ratio(unique_key, *labels):
        calls = sum(rec.calls[label] for label in labels)
        return rec.unique[unique_key] / calls if calls else 0.0

    c = rec.calls
    stdout_bytes = sum(len(out) for _, out, _ in outputs)
    metrics = {
        "cli.self_s": (layer_self_s("cli"), "s"),
        "cli.stdout_bytes": (stdout_bytes, "bytes"),
        "functor.localize_self_s": (self_s("functor.localize"), "s"),
        "functor.theorem1_self_s": (self_s("functor.theorem1_check"), "s"),
        "functor.trials": (rec.counters["trials"], "count"),
        "zeta.series_s": (self_s(*SERIES_SPANS), "s"),
        "zeta.lemma1_self_s": (self_s("zeta.lemma1_check"), "s"),
        "zeta.curve_local_zeta_calls": (c["zeta.curve_local_zeta"], "count"),
        "zeta.primes": (rec.counters["primes"], "count"),
        "elliptic.reduce_calls": (c["elliptic.reduce_mod_p"], "count"),
        "elliptic.classify_s": (self_s("elliptic.classify_reduction"), "s"),
        "elliptic.classify_calls": (c["elliptic.classify_reduction"], "count"),
        "elliptic.count_s": (self_s("elliptic.count_points", "elliptic.count_nonsingular"), "s"),
        "elliptic.count_calls": (c["elliptic.count_points"] + c["elliptic.count_nonsingular"], "count"),
        "elliptic.count_elements": (rec.counters["count_elements"], "count"),
        "elliptic.ap_unique_ratio": (ratio("ap", "elliptic.trace_of_frobenius"), "ratio"),
        "elliptic.group_s": (self_s("elliptic.group_structure"), "s"),
        "elliptic.group_elements": (rec.counters["group_elements"], "count"),
        "elliptic.transform_s": (self_s("elliptic.transform"), "s"),
        "elliptic.invariants_calls": (c["elliptic.invariants"], "count"),
        "ffield.ext_mul_calls": (counts["ExtField.mul"], "count"),
        "ffield.ext_add_calls": (counts["ExtField.add"], "count"),
        "ffield.ext_inv_calls": (counts["ExtField.inv"], "count"),
        "ffield.prime_ops": (sum(v for k, v in counts.items() if k.startswith("PrimeField.")), "count"),
        "ffield.element_ops": (sum(v for k, v in counts.items() if k.startswith("FieldElement.")), "count"),
        "ffield.field_builds": (counts["ExtField.__init__"], "count"),
        "ffield.find_irreducible_s": (self_s("ffield.find_irreducible"), "s"),
        "ck_k0.k0_group_s": (self_s("ck_k0.k0_group"), "s"),
        "ck_k0.k0_order_calls": (c["ck_k0.k0_order"], "count"),
        "ck_k0.epsilon_calls": (c["ck_k0.epsilon"], "count"),
        "ck_k0.epsilon_unique_ratio": (ratio("epsilon", "ck_k0.epsilon"), "ratio"),
        "intmat.snf_s": (self_s("intmat.smith_normal_form"), "s"),
        "intmat.snf_calls": (c["intmat.smith_normal_form"], "count"),
        "intmat.mat_pow_s": (self_s("intmat.mat_pow"), "s"),
        "intmat.matmul_calls": (counts["IntMatrix.__mul__"], "count"),
        "quadratic_cf.cf_expand_s": (self_s("quadratic_cf.cf_expand"), "s"),
        "quadratic_cf.cf_digits": (rec.counters["cf_digits"], "count"),
        "quadratic_cf.incidence_s": (self_s("quadratic_cf.incidence_matrix"), "s"),
        "factor.is_prime_calls": (counts["_factor.is_prime"], "count"),
        "factor.factorize_s": (self_s("_factor.factorize"), "s"),
        "trace.overhead_s": (sum(w for w, _ in span_walls) - sum(plain_walls), "s"),
        "trace.coverage": (min(covered / wall for wall, covered in span_walls), "ratio"),
    }
    reproduced = [a == b == c for a, b, c in zip(outputs, span_outputs, counted_outputs)]
    return TracedResult(outputs, reproduced, metrics)
