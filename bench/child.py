"""One benchmark round in a fresh interpreter.

    python3 bench/child.py CONFIG REPORT THREADS LAUNCH_NS [SPANS]

Runs CONFIG through ``branchsim.cli.run`` and prints one JSON line of
timings, among them ``cal_s``, the time of a fixed calibration loop run
just before and just after the call.  LAUNCH_NS is the CLOCK_MONOTONIC time, in ns, at which the parent
started this process; set-up time runs from it until ``branchsim.cli`` is
imported.  With SPANS the round is traced: public functions of each layer
are wrapped, spans (name, start, end, parent) are kept in memory and
written to SPANS after the run, and per-layer figures join the JSON line.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
import branchsim.cli as cli  # noqa: E402

IMPORTED_NS = time.monotonic_ns()

import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import threading  # noqa: E402

import numpy as np  # noqa: E402

from branchsim import bisexual, control, engine, rng, scenario  # noqa: E402


class Tracer:
    """Spans kept in memory; each is [name, start_ns, end_ns, parent span]."""

    def __init__(self):
        self.spans = []
        self.batch_cpu_s = 0.0
        self._local = threading.local()

    def wrap(self, name, fn):
        spans, local = self.spans, self._local

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [name, time.perf_counter_ns(), 0, stack[-1] if stack else None]
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
                spans.append(span)
        return traced

    def wrap_cpu(self, name, fn):
        """Like ``wrap``, and adds the process CPU time (all threads) of each
        call to ``batch_cpu_s``."""
        traced = self.wrap(name, fn)

        def timed(*args, **kwargs):
            c0 = time.process_time()
            try:
                return traced(*args, **kwargs)
            finally:
                self.batch_cpu_s += time.process_time() - c0
        return timed

    def install(self):
        cli.run_batch = self.wrap_cpu("cli.simulate", cli.run_batch)
        cli.run_bisexual_batch = self.wrap_cpu("cli.simulate", cli.run_bisexual_batch)
        scenario.ScenarioConfig.from_dict = staticmethod(
            self.wrap("scenario.parse", scenario.ScenarioConfig.from_dict))
        rng.spawn_generator = self.wrap("rng.spawn", rng.spawn_generator)
        control.GrowthFunction.__call__ = self.wrap("control.g", control.GrowthFunction.__call__)
        bisexual.bisexual_step = self.wrap("bisexual.step", bisexual.bisexual_step)
        bisexual.sample_offspring_total = self.wrap("bisexual.sample",
                                                    bisexual.sample_offspring_total)
        bisexual.Min.units = self.wrap("bisexual.mating", bisexual.Min.units)

    def totals(self):
        """{name: [calls, seconds]} over all spans."""
        out = {}
        for name, start, end, _ in self.spans:
            entry = out.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += (end - start) / 1e9
        return out

    def write(self, path):
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_ns,end_ns,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{start},{end},{index[id(parent)] if parent else -1}\n")


def sample_us(law, z, calls):
    """Median over five batches of the time of one call of the offspring-total
    sampler that the GW and truncation loops run, in microseconds.

    That is the closure ``engine._make_total_sampler`` builds and the loops
    call directly; ``sample_offspring_total`` would add a cache lookup per
    call that only the bisexual loop pays.
    """
    draw = engine._make_total_sampler(law, 1 << 200, False)
    gen = np.random.default_rng(20240)
    per_call = []
    for _ in range(5):
        t0 = time.perf_counter_ns()
        for _ in range(calls):
            draw(z, gen)
        per_call.append((time.perf_counter_ns() - t0) / calls / 1e3)
    return statistics.median(per_call)


def _calibration_loop(n, seed):
    gen = np.random.Generator(np.random.PCG64(seed))
    z = 0
    for i in range(n):
        z += int(gen.negative_binomial(i % 7 + 1, 0.6))
        z = (z * 2654435761) % (1 << 61)


def calibrate(threads):
    """Fastest of three runs of a fixed loop of 20000 scalar numpy draws
    folded into a Python integer, the kind of work the trajectory loops do,
    in seconds.  With several threads the loop is split among them, as
    ``run_batch`` splits trials, so that the time includes the same
    hand-offs of the interpreter lock.  It runs no branchsim code, so it
    measures only how fast the machine is at the moment."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        if threads == 1:
            _calibration_loop(20000, 0)
        else:
            workers = [threading.Thread(target=_calibration_loop, args=(20000 // threads, i))
                       for i in range(threads)]
            for w in workers:
                w.start()
            for w in workers:
                w.join()
        best = min(best, time.perf_counter() - t0)
    return best


def main(argv):
    config, report, threads, launch_ns = argv[:4]
    spans_path = argv[4] if len(argv) > 4 else None
    tracer = None
    if spans_path:
        with open(config, "rb") as fh:
            law = scenario.ScenarioConfig.from_dict(json.loads(fh.read())).law
        tracer = Tracer()
        tracer.install()
    threads = int(threads)
    cal_before = calibrate(threads)
    c0, w0 = time.process_time(), time.perf_counter()
    rc = cli.run(config, out=report, threads=threads)
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = {"rc": rc,
           "setup_s": (IMPORTED_NS - int(launch_ns)) / 1e9,
           "wall_s": wall,
           "cpu_s": cpu,
           "cal_s": (cal_before + calibrate(threads)) / 2,
           "peak_rss_mb": peak_rss_mb}
    if tracer:
        tracer.write(spans_path)
        out["spans"] = tracer.totals()
        out["batch_cpu_s"] = tracer.batch_cpu_s
        # z = 2^55 + 1 is above every law's block size (at most 2^53), so
        # the call takes the multi-block slab path
        out["sample_us_scalar"] = sample_us(law, 1, 4000)
        out["sample_us_slab"] = sample_us(law, (1 << 55) + 1, 400)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
