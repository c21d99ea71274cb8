"""Run one `sd` invocation in-process with a span around every layer call.

Usage (from the repository root, with src on PYTHONPATH):

    python3 bench/trace_child.py TRACE_JSON ARGS...

The public functions of selberg_delange.sieve, .exact, .euler and .stats
are wrapped so that each call records a span (name, start, end, parent).
The specs the CLI parses get a counting value_at, so prime-power
evaluations are counted in funcs, twists included.  Nothing under src/
changes: the wrappers replace module attributes in this process only.

The interpreter's start-up, from the parent's spawn time passed in
BENCH_SPAWN_TIME, is recorded as the span cli.startup.
selberg_delange.cli.main(ARGS) then runs as the `sd` entry point would,
writing to this process's stdout.  Spans stay in memory and are written
to TRACE_JSON when the call returns; the exit code is main's.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import sys
import time

LAYERS = ("sieve", "exact", "euler", "stats")

perf = time.perf_counter


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.value_at_calls = 0
        self.spf_bytes = 0
        self.table_bytes = 0
        self.product_cutoffs = []

    def open(self, name):
        index = len(self.spans)
        self.spans.append([name, perf(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(index)
        return index

    def close(self, index):
        self.spans[index][2] = perf()
        self.stack.pop()

    def wrap(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def counted(self, spec):
        value_at = spec.value_at

        def counting_value_at(p, k):
            self.value_at_calls += 1
            return value_at(p, k)

        return dataclasses.replace(spec, value_at=counting_value_at)

    def note_spf(self, table):
        self.spf_bytes = max(self.spf_bytes, table.spf.nbytes)

    def note_table(self, array):
        self.table_bytes += array.nbytes

    def note_product(self, result):
        self.product_cutoffs.append(result.prime_cutoff)


def install(tracer):
    """Replace every module-level reference to a traced function."""
    package = {name: mod for name, mod in sys.modules.items() if name.startswith("selberg_delange")}
    hooks = {
        "sieve.build_sieve": tracer.note_spf,
        "sieve.load_sieve": tracer.note_spf,
        "exact.multiplicative_value_table": tracer.note_table,
        "exact.additive_value_table": tracer.note_table,
        "euler.lambda0": tracer.note_product,
    }
    replacements = {}
    for layer in LAYERS:
        module = package[f"selberg_delange.{layer}"]
        for attr, obj in vars(module).items():
            if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            name = f"{layer}.{attr}"
            replacements[id(obj)] = (obj, tracer.wrap(name, obj, hooks.get(name)))

    funcs = package["selberg_delange.funcs"]
    for attr in ("parse_multiplicative", "parse_additive"):
        parse = getattr(funcs, attr)
        replacements[id(parse)] = (parse, lambda text, parse=parse: tracer.counted(parse(text)))

    for module in package.values():
        for attr, obj in list(vars(module).items()):
            hit = replacements.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, attr, hit[1])


def prime_count(cutoff):
    """Number of primes <= cutoff, from a sieve of this file's own."""
    import numpy as np

    is_prime = np.ones(cutoff + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(cutoff) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    return int(is_prime.sum())


def main(argv):
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    # perf_counter reads CLOCK_MONOTONIC, so the parent's spawn time
    # bounds the interpreter start-up span
    spawned = float(os.environ.get("BENCH_SPAWN_TIME", "nan"))
    if spawned <= perf():
        tracer.spans.append(["cli.startup", spawned, perf(), -1])
    index = tracer.open("cli.import")
    import selberg_delange.cli as cli

    tracer.close(index)
    install(tracer)
    index = tracer.open("cli.main")
    try:
        code = cli.main(cli_args)
    finally:
        tracer.close(index)
        sys.stdout.flush()
        counts = {p: prime_count(p) for p in set(tracer.product_cutoffs)}
        primes = [counts[p] for p in tracer.product_cutoffs]
        record = {
            "spans": tracer.spans,
            "value_at_calls": tracer.value_at_calls,
            "spf_bytes": tracer.spf_bytes,
            "table_bytes": tracer.table_bytes,
            "primes_per_product": primes,
        }
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
