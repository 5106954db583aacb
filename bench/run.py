"""End-to-end and per-layer benchmark of the ``lipfree`` command line.

Usage, from the repository root:

    python3 bench/run.py --workload norm-dense --seed 0 --seconds 32 --trace 0

Workloads (see ``instances.py`` for the constructions and why each exists):

    norm-dense   ``norm`` on generic random spaces, n = 40, dense elements
    family-mix   decide/attains/potentials/norming/gateaux-eps/coverage-prefix
                 on four normalized families per near-degenerate space, n = 32
    orient-l1    ``l1-check`` on three 11-point stars failing at depths 512,
                 257 and 129

``--trace 0`` runs one client in a closed loop: each ``lipfree <cmd>`` is a
separate process, started only after the previous one exits, and timed from
spawn to exit. The timing metrics are scaled by the machine's speed at the
moment: every ``lipfree <cmd>`` is bracketed by runs of a fixed in-process
kernel (``reference_work``), every ``lipfree --help`` by runs of a fixed
Python process that starts and runs that kernel, and each wall time is divided
by the mean of its two reference times over the reference's nominal time
(``REFERENCES``). The metrics are thus seconds at the host speed where the
references take their nominal times. On a shared host whose speed swings by
up to 2x for minutes at a time, these repeat from run to run within a few
per cent where raw wall times spread by 20-35 %. The raw medians and the
slowdowns are logged on the ``wall`` line. A round is one call of the workload
function, and every round draws
fresh instances from (seed, round). Only whole rounds run, about
``--seconds`` / (round time) of them and at least one, so the mix of commands
in the samples never depends on where the clock ran out. Every report is
re-checked against the raw inputs outside the timed interval (``checks.py``),
and for the default seed the verdict values are compared with
``expected_seed0.json``. That file is the union of ``bench/out/verdicts-*``,
which every run writes, from long seed-0 runs of the unoptimised code.

``--trace 1`` repeats round 0: the invocations as processes (untraced), then
replayed in process with spans around every layer call (``tracing.py``), until
``--seconds`` have passed. Times are medians over the repetitions, counts are
those of one round and must repeat exactly. Spans go to ``bench/out/``.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. Earlier lines record the environment, every instance (size, pairs,
denominator bits, sha256 of each document), and the tail percentile with the
sample count.

Self-test: ``python3 -m unittest bench/test_bench.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
EXPECTED = HERE / "expected_seed0.json"
DEFAULT_SEED = 0
SETUP_RUNS = 15  # --help processes per run; setup_s is their median
CHILD_TIMEOUT_S = 120

sys.path.insert(0, str(HERE))
import instances  # noqa: E402

SMOKE_SIZES = {"norm-dense": {"n": 6, "count": 2}, "family-mix": {"n": 10, "count": 1},
               "orient-l1": {"k": 4}}


def log(kind: str, payload) -> None:
    print(json.dumps({kind: payload}, sort_keys=True), flush=True)


def environment(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "lipfree").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "lipfree_commit": commit,
        "lipfree_src_sha256": digest.hexdigest(),
        "loadavg_start": os.getloadavg(),
        "seed": seed,
    }


def reference_work() -> int:
    """Fixed exact-arithmetic work of the kind ``lipfree`` does, from the
    harness's own code: six seeded 16-point metrics, the Fraction closure of
    each one's anchored family, and the document encoding. Returns a checksum."""
    total = 0
    for rep in range(6):
        rng = instances._rng("reference", rep)
        space, _ = instances.shuffled_space(rng, instances.random_metric(rng, 16))
        B = instances.closure(space, [(p, space.base) for p in space.nonbase()])
        total += len(instances.encode(space.doc)) + sum(map(sum, B)).denominator
    return total


# A Python process that starts, imports the harness and runs reference_work():
# the reference for process start-up, which a compute kernel alone tracks badly.
REFERENCE_PROCESS = [sys.executable, "-c",
                     f"import sys; sys.path.insert(0, {str(HERE)!r}); "
                     "import run; run.reference_work()"]


class Runner:
    """Spawns ``lipfree`` processes one at a time and times them.

    Each process is bracketed by runs of a reference, and its wall time is
    divided by the slowdown: the mean of the two reference times over the
    reference's nominal time (``REFERENCES``).
    """

    def __init__(self, cwd: Path):
        self.cwd = cwd
        self.env = {k: v for k, v in os.environ.items() if k != "LIPFREE_MAX_POINTS"}
        self.env["PYTHONPATH"] = str(SRC)
        self.peak_rss_kb = 0
        self.last: tuple[str, float] | None = None  # the last reference and its time
        self.slowdowns: dict[str, list[float]] = {name: [] for name in REFERENCES}

    def kernel(self) -> float:
        start = time.perf_counter()
        reference_work()
        return time.perf_counter() - start

    def process(self) -> float:
        wall, code, _, err, _ = self._spawn(REFERENCE_PROCESS)
        if code != 0:
            raise RuntimeError(f"reference process failed with exit {code}: {err.strip()}")
        return wall

    def timed(self, argv: list[str], reference: str = "kernel"):
        """``spawn`` bracketed by ``reference``; returns (scaled seconds, wall
        seconds, exit code, stdout, stderr), where scaled = wall / slowdown."""
        measure, nominal = getattr(self, reference), REFERENCES[reference]
        if self.last is None or self.last[0] != reference:
            self.last = (reference, measure())
        wall, code, out, err = self.spawn(argv)
        after = measure()
        slowdown = (self.last[1] + after) / 2 / nominal
        self.last = (reference, after)
        self.slowdowns[reference].append(slowdown)
        return wall / slowdown, wall, code, out, err

    def spawn(self, argv: list[str]) -> tuple[float, int, str, str]:
        """Run ``lipfree <argv>``; returns (wall seconds, exit code, stdout, stderr)."""
        wall, code, out, err, rss_kb = self._spawn([sys.executable, "-m", "lipfree.cli", *argv])
        self.peak_rss_kb = max(self.peak_rss_kb, rss_kb)
        return wall, code, out, err

    def _spawn(self, cmd: list[str]) -> tuple[float, int, str, str, int]:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                cwd=self.cwd, env=self.env)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            out = proc.stdout.read()
            err = proc.stderr.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            proc.stdout.close()
            proc.stderr.close()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped above, not by Popen
        return wall, proc.returncode, out.decode(), err.decode(), usage.ru_maxrss

    def setup(self) -> tuple[float, float]:
        """One ``lipfree --help``; returns (scaled seconds, wall seconds)."""
        scaled, wall, code, out, err = self.timed(["--help"], reference="process")
        if code != 0 or not out.startswith("usage: lipfree"):
            raise RuntimeError(f"lipfree --help failed with exit {code}: {err.strip()}")
        return scaled, wall


# Runner method timing a reference -> its nominal seconds: the median of each
# between lipfree processes on a shared 2-vCPU x86-64 host with Python 3.11.7
REFERENCES = {"kernel": 0.070, "process": 0.170}


class Round:
    """The instances and invocations of one round, with their document files."""

    def __init__(self, workload: str, seed: int, index: int, workdir: Path, smoke: bool):
        sizes = SMOKE_SIZES[workload] if smoke else {}
        self.insts, self.invs = instances.WORKLOADS[workload](
            seed if index == 0 else f"{seed}.{index}", **sizes)
        self.dir = workdir / f"r{index}"
        self.dir.mkdir(parents=True, exist_ok=True)
        for inst in self.insts:
            space, docs = inst.space, inst.docs()
            for name, doc in docs.items():
                (self.dir / f"{inst.name}-{name}.json").write_bytes(instances.encode(doc))
            log("instance", {
                "round": index, "name": inst.name, "n": len(space.labels),
                "pairs": {fam: len(pairs) for fam, (pairs, _) in inst.families.items()},
                "denominator_bits": instances.denominator_bits(space.dist),
                "sha256": {name: instances.sha256(doc) for name, doc in docs.items()},
            })
        for inv in self.invs:
            inv.key = f"r{index}/{inv.key}"

    def path_of(self, inst, doc: str) -> str:
        return str(self.dir / f"{inst.name}-{doc}.json")


class Verifier:
    """Checks each (invocation, exit code, stdout) once and tracks agreement."""

    def __init__(self, expected: dict | None):
        self.expected = expected
        self.verified: dict[str, str] = {}  # key -> stdout already checked
        self.values: dict[str, dict] = {}
        self.families: dict[str, list] = {}
        self.errors: list[str] = []

    def __call__(self, inv, code: int, out: str, err: str) -> bool:
        import checks  # imports lipfree, which main puts on sys.path
        if inv.key in self.verified:
            ok = self.verified[inv.key] == out
            if not ok:
                self.errors.append(f"{inv.key}: output changed between runs")
            return ok
        try:
            if code not in (0, 1):
                raise checks.CheckFailed(f"exit {code}: {err.strip()[-300:]}")
            values = checks.check(inv, code, json.loads(out))
            if self.expected is not None and inv.key in self.expected:
                checks.require(self.expected[inv.key] == values,
                               f"verdict {values} differs from expected {self.expected[inv.key]}")
            if inv.family is not None:
                fam = self.families.setdefault(inv.key.rsplit("/", 1)[0], [])
                fam.append((inv.cmd, values))
                checks.agree(fam)
        except (checks.CheckFailed, json.JSONDecodeError) as failure:
            self.errors.append(f"{inv.key}: {failure}")
            return False
        self.verified[inv.key] = out
        self.values[inv.key] = values
        return True


# Tail percentile per workload, chosen to leave about 10 or more samples beyond
# it in a 32 s run on a 2-vCPU machine (norm-dense: about 8 of 33, family-mix:
# about 25 of 100, orient-l1: about 11 of 22). It is
# fixed, not derived from each run's sample count, so two versions are compared
# at the same percentile and a run that ends one round earlier does not jump to
# another cluster of invocations. orient-l1 has three clusters (512, 257 and 129
# orientations) and only about 24 samples, so its tail is the middle cluster's
# median: the same sample as cmd_p50_s.
TAIL_PERCENTILE = {"norm-dense": 75, "family-mix": 75, "orient-l1": 50}


def tail(times: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile of ``times`` and the number of samples beyond it."""
    ordered = sorted(times)
    rank = math.ceil(pct / 100 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def another_round(start: float, done: int, seconds: float) -> bool:
    """Whether one more round, at the mean round time so far, ends no more
    than half a round after ``seconds``: runs take about ``seconds`` overall."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / done / 2 < seconds


def measure(workload, seed, seconds, smoke, runner, verify, workdir):
    """Closed loop for ``seconds``; returns the end-to-end metrics and counts."""
    setups = [runner.setup() for _ in range(SETUP_RUNS // 2)]
    times, walls, ok = [], [], 0
    start = time.perf_counter()
    index = 0
    while True:
        rnd = Round(workload, seed, index, workdir, smoke)
        for inv in rnd.invs:
            scaled, wall, code, out, err = runner.timed(inv.argv(rnd.path_of))
            times.append(scaled)
            walls.append(wall)
            ok += verify(inv, code, out, err)
        shutil.rmtree(rnd.dir)
        index += 1
        if not another_round(start, index, seconds):
            break
    setups += [runner.setup() for _ in range(SETUP_RUNS - len(setups))]
    pct = TAIL_PERCENTILE[workload]
    value, beyond = tail(times, pct)
    log("tail", {"percentile": pct, "samples": len(times), "beyond": beyond,
                 "rounds": index})
    log("wall", {"cmd_p50_s": statistics.median(walls),
                 "cmd_tail_s": tail(walls, pct)[0],
                 "setup_s": statistics.median(wall for _, wall in setups),
                 "slowdown_quartiles": {name: statistics.quantiles(values, n=4)
                                        for name, values in runner.slowdowns.items()}})
    metrics = {
        "cmd_p50_s": (statistics.median(times), "s"),
        "cmd_tail_s": (value, "s"),
        "verdicts_per_s": (ok / sum(times), "1/s"),
        "setup_s": (statistics.median(scaled for scaled, _ in setups), "s"),
        "peak_rss_mb": (runner.peak_rss_kb / 1024, "MB"),
        "ok_ratio": (ok / len(times), "1"),
    }
    return metrics, len(times), len(times) - ok


def traced(workload, seed, seconds, smoke, runner, verify, workdir):
    """Round 0 as processes, then replayed with spans, until ``seconds`` pass."""
    import tracing
    rnd = Round(workload, seed, 0, workdir, smoke)
    keys = [inv.key for inv in rnd.invs]
    tracers, reps, attempted, failed = [], [], 0, 0
    start = time.perf_counter()
    while not reps or another_round(start, len(reps), seconds):
        timed = 0.0
        outputs = []
        for inv in rnd.invs:
            wall, code, out, err = runner.spawn(inv.argv(rnd.path_of))
            timed += wall
            attempted += 1
            good = verify(inv, code, out, err)
            failed += not good
            outputs.append((code, out, good))
        tracer = tracing.Tracer()
        with tracer.patched():
            for i, inv in enumerate(rnd.invs):
                try:
                    result = tracing.replay(tracer, inv, rnd.path_of, i)
                except Exception as exc:  # a replay crash is a failed invocation
                    result = (None, f"{type(exc).__name__}: {exc}")
                code, out, good = outputs[i]
                if result != (code, out):
                    verify.errors.append(f"{inv.key}: replay differs from the process")
                    failed += good
        layer = tracer.metrics()
        layer["trace.timed_s"] = timed
        tracers.append(tracer)
        reps.append(layer)
    for name in tracing.COUNTS:
        if len({rep[name] for rep in reps}) > 1:
            verify.errors.append(f"count {name} differs between repetitions")
    metrics = {}
    for name in reps[0]:  # counts are equal in every repetition, times vary
        value = reps[0][name] if name in tracing.COUNTS else statistics.median(
            rep[name] for rep in reps)
        metrics[name] = (value, tracing.unit(name))
    tracers[0].dump(OUT / f"trace-{workload}-seed{seed}.json", keys)
    log("trace", {"repetitions": len(reps), "spans": len(tracers[0].spans),
                  "l1_orientations_tried": tracers[0].l1_tried})
    return metrics, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(instances.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny instances, for the harness's own tests")
    args = parser.parse_args(argv)
    if not (SRC / "lipfree" / "cli.py").is_file():
        print(f"bench: no lipfree sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    log("env", environment(args.seed))

    expected = None
    if args.seed == DEFAULT_SEED and not args.smoke:
        expected = json.loads(EXPECTED.read_text())[args.workload]
    verify = Verifier(expected)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"docs-{os.getpid()}"
    runner = Runner(ROOT)
    try:
        runner.setup()  # warm the bytecode cache; not measured
        run = traced if args.trace else measure
        metrics, attempted, failed = run(args.workload, args.seed, args.seconds, args.smoke,
                                         runner, verify, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if verify.errors:
        log("failures", verify.errors[:20])
    (OUT / f"verdicts-{args.workload}-seed{args.seed}.json").write_text(
        json.dumps(verify.values, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": not verify.errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
