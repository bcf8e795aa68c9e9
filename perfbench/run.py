#!/usr/bin/env python3
"""The repository benchmark: four workloads, end-to-end and per-layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload htc-replay --seed 1 --seconds 10 --trace 0

``--workload`` is one of ``htc-replay``, ``mtc-montage``,
``serve-session`` and ``fluid-scale`` (see ``perfbench/README.md``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are the per-layer metrics of
a traced pass (see ``perfbench/layers.py``).  The line before it is a
summary with each timing's sample count.

Timings are CPU seconds of the benchmark's single thread
(``time.process_time``): on an idle core they equal wall time, and on a
shared machine they do not count the time the process waited for one.

``--record N`` writes the reference payload digests of seeds ``0..N-1``
into ``perfbench/references.json`` (one untimed pass per seed); rerun it
only when a change deliberately alters simulation output.
"""

import os
import sys

# One thread for the numeric stack, and the engine selection each
# workload asks for rather than whatever REPRO_KERNEL says.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("REPRO_KERNEL", None)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

import loads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
REFERENCES = os.path.join(HERE, "references.json")

#: Set-up runs per benchmark run (this process plus fresh children);
#: ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: A tail percentile is reported only with at least ten samples beyond it.
P90_MIN_SAMPLES = 100

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


class SetupError(RuntimeError):
    """The checkout does not hold the program the benchmark measures."""


def import_repro() -> None:
    """Import ``repro`` from this checkout's ``src``, and nothing else."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SetupError(
            "no src/repro next to perfbench/; run from a repository checkout"
        )
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SetupError(f"imported repro from {repro.__file__}, not {SRC}")


def setup(name: str, seed: int):
    """Imports, lazy-import warm-up and input generation/boot."""
    import_repro()
    for module in loads.LAZY_MODULES:
        importlib.import_module(module)
    return loads.WORKLOADS[name](seed)


def setup_samples(name: str, seed: int, own: float) -> list[float]:
    """This process's set-up time plus that of fresh child processes."""
    samples = [own]
    for _ in range(SETUP_SAMPLES - 1):
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, timeout=170, check=True,
        )
        samples.append(float(child.stdout.split()[-1]))
    return samples


def load_references(name: str, seed: int):
    try:
        with open(REFERENCES) as fh:
            table = json.load(fh)
    except FileNotFoundError:
        return None
    return table.get(name, {}).get(str(seed))


class Ledger:
    """Op outcomes: digests checked by pass position, timings by slot.

    A slot is one place in a pass: a simulation, or one request of a
    session.  Each repetition of a pass adds one time per slot, and the
    end-to-end metrics take each slot's best time: on a shared machine
    the host's speed drops for stretches of a second or more, and the
    fastest repetition is the one such a stretch hit least.
    """

    def __init__(self, references) -> None:
        self.references = references
        self.first_seen: dict[int, str] = {}
        #: op or request kind -> every time measured (summary percentiles)
        self.samples: dict[str, list[float]] = {}
        #: (position, kind, request index) -> one time per repetition
        self.slots: dict[tuple, list[float]] = {}
        self.position_jobs: dict[int, int] = {}
        self.by_label: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        self.errors.append(message)

    def check(self, position: int, label: str, digest: str) -> bool:
        """The digest matches the reference (or the first pass's)."""
        first = self.first_seen.setdefault(position, digest)
        refs = self.references
        expected = refs[position] if refs and position < len(refs) else None
        if expected is None:
            expected = first
        if digest != expected:
            self.fail(f"{label}: payload digest {digest} != reference {expected}")
            return False
        return True

    def run(self, op, position: int) -> None:
        t0 = process_time()
        try:
            payload = op.fn()
        except Exception as exc:  # an op failure is a result, not a crash
            self.attempted += max(1, len(op.samples))
            self.fail(f"{op.label}: {type(exc).__name__}: {exc}")
            return
        # a session times its own requests, which leaves its boot out
        timings = op.samples or [(op.kind, process_time() - t0)]
        self.attempted += len(timings)
        if op.failures:
            self.fail("; ".join(op.failures[:3]), len(op.failures))
        if not self.check(position, op.label, loads.digest(payload)) or op.failures:
            return
        for index, (kind, seconds) in enumerate(timings):
            self.samples.setdefault(kind, []).append(seconds)
            self.slots.setdefault((position, kind, index), []).append(seconds)
        self.position_jobs[position] = op.jobs
        self.by_label.setdefault(op.label, []).append(
            sum(seconds for _, seconds in timings)
        )

    def slot_best(self, kind=None) -> list[float]:
        return [
            min(times) for (_, slot_kind, _), times in self.slots.items()
            if kind is None or slot_kind == kind
        ]

    def jobs_per_s(self) -> float:
        """One pass's jobs over the sum of its slots' best times."""
        busy = sum(self.slot_best())
        return sum(self.position_jobs.values()) / busy if busy else 0.0


def run_passes(load, ledger: Ledger, seconds: float) -> None:
    """Whole units of passes until ``seconds`` of wall time have gone."""
    deadline = perf_counter() + seconds
    while True:
        position = 0
        for unit in load.units():
            for op in unit:
                ledger.run(op, position)
                position += 1
            if perf_counter() >= deadline:
                return


def run_one_pass(load, ledger: Ledger) -> None:
    position = 0
    for unit in load.units():
        for op in unit:
            ledger.run(op, position)
            position += 1


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (``statistics.quantiles``, exclusive method)."""
    return statistics.quantiles(values, n=100)[q - 1]


def summary(name: str, ledger: Ledger, setups: list[float]) -> dict:
    """Every timing by its role name, with its sample count."""
    out = {"workload": name, "setup_samples": len(setups)}
    for kind, p50, p90, scale in (
        ("sim", "sim_s_p50", "sim_s_p90", 1.0),
        ("advance", "advance_p50_ms", "advance_p90_ms", 1e3),
        ("what-if", "whatif_p50_s", "whatif_p90_s", 1.0),
    ):
        values = ledger.samples.get(kind)
        if not values:
            continue
        out[p50] = statistics.median(values) * scale
        if len(values) >= P90_MIN_SAMPLES:
            out[p90] = percentile(values, 90) * scale
        out[f"{kind}_samples"] = len(values)
    out["slots"] = len(ledger.slots)
    out["error_rate"] = ledger.failed / max(1, ledger.attempted)
    if ledger.errors:
        out["errors"] = ledger.errors[:5]
    return out


def end_to_end(load, ledger: Ledger, setups: list[float]) -> dict:
    latencies = ledger.slot_best(load.latency_op) or [0.0]
    return {
        "setup_s": statistics.median(setups),
        "jobs_per_s": ledger.jobs_per_s(),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced(name: str, seed: int, untraced: Ledger, references) -> tuple:
    """Two traced passes, each with its own set-up; per-layer metrics.

    Returns ``(metrics, ledgers)``: the first pass's layer metrics plus
    the tracing overhead, and one ledger per pass, the first of which also
    records a failed check when a count differs between the passes.
    """
    import layers
    from repro.workloads.store import default_store

    tracer = layers.install()
    if references is None:
        seen = untraced.first_seen
        references = [seen.get(i) for i in range(max(seen, default=-1) + 1)]
    ledgers, passes = [], []
    for _ in range(2):
        tracer.reset()
        default_store().clear()  # regenerate the inputs under the tracer
        load = loads.WORKLOADS[name](seed)
        setup_self_s = dict(tracer.self_s)
        ledger = Ledger(references)
        t0 = perf_counter()
        run_one_pass(load, ledger)
        passes.append(layers.layer_metrics(
            tracer, sum(ledger.position_jobs.values()), perf_counter() - t0,
            setup_self_s,
        ))
        ledgers.append(ledger)
    first, second = passes
    ledgers[0].attempted += 1
    drift = [k for k in layers.EXACT if first[k] != second[k]]
    if drift:
        ledgers[0].fail(f"traced counts differ between passes: {drift}")

    # like-for-like overhead: the same ops, traced vs untraced
    traced_by_label = ledgers[0].by_label
    common = [k for k in traced_by_label if k in untraced.by_label]
    t_traced = sum(statistics.median(traced_by_label[k]) for k in common)
    t_plain = sum(statistics.median(untraced.by_label[k]) for k in common)
    first["trace.overhead_ratio"] = 1.0 - t_plain / t_traced if t_traced else 0.0
    return first, ledgers


def record(name: str, seeds: int) -> None:
    """Write one pass's digests per seed into the reference table."""
    import_repro()
    from repro.workloads.store import default_store

    entries = {}
    for seed in range(seeds):
        default_store().clear()
        ledger = Ledger(None)
        run_one_pass(loads.WORKLOADS[name](seed), ledger)
        if ledger.failed:
            raise RuntimeError(f"seed {seed}: {ledger.errors}")
        entries[str(seed)] = [ledger.first_seen[i] for i in range(len(ledger.first_seen))]
        print(f"{name} seed {seed}: {len(entries[str(seed)])} digests", file=sys.stderr)
    try:
        with open(REFERENCES) as fh:
            table = json.load(fh)
    except FileNotFoundError:
        table = {}
    table[name] = entries
    # one line per (workload, seed): readable diffs, compact file
    blocks = [
        json.dumps(workload) + ": {\n" + ",\n".join(
            f"  {json.dumps(seed)}: {json.dumps(digests)}"
            for seed, digests in seeds.items()
        ) + "\n}"
        for workload, seeds in sorted(table.items())
    ]
    with open(REFERENCES, "w") as fh:
        fh.write("{\n" + ",\n".join(blocks) + "\n}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(loads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up CPU seconds, exit")
    parser.add_argument("--record", type=int, metavar="N",
                        help="record reference digests for seeds 0..N-1")
    args = parser.parse_args(argv)

    if args.record is not None:
        record(args.workload, args.record)
        return 0

    load = setup(args.workload, args.seed)
    own_setup = process_time()
    if args.setup_only:
        print(own_setup)
        return 0
    if not args.trace:
        setups = setup_samples(args.workload, args.seed, own_setup)

    references = load_references(args.workload, args.seed)
    ledger = Ledger(references)
    modules_before = set(sys.modules)
    run_passes(load, ledger, args.seconds)
    late = sorted(m for m in set(sys.modules) - modules_before
                  if m.startswith("repro"))
    if late:
        print(f"perfbench: imported in the timed phase: {late}", file=sys.stderr)

    if args.trace:
        metrics, ledgers = traced(args.workload, args.seed, ledger, references)
        from layers import METRICS

        units = {k: unit for k, (unit, _) in METRICS.items()}
        ledgers.insert(0, ledger)
        attempted = sum(led.attempted for led in ledgers)
        failed = sum(led.failed for led in ledgers)
        errors = [e for led in ledgers for e in led.errors]
        print(json.dumps({"workload": args.workload, "errors": errors[:5]}))
    else:
        metrics = end_to_end(load, ledger, setups)
        units = END_TO_END
        attempted, failed = ledger.attempted, ledger.failed
        print(json.dumps(summary(args.workload, ledger, setups)))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
