"""One workload run: rounds of set-up, tuning, frontier and serving.

Everything the program under test sees goes through public entry
points: ``Project.from_benchmark`` → ``tune`` → ``deploy``, then
``Service.load`` (one in-process front-door shard on a ``serial``
backend) and ``FrontDoor.submit``.  Load comes from the calling
thread on a fixed open-loop schedule; every request and every
held-out input is generated from the seed before the slice that uses
it starts.

A run is a fixed number of rounds and each round is one whole
lifecycle: timed set-up (and, for a tuning workload, timed tunes),
one pass over the frontier on held-out inputs, a steady serving slice
and a saturation slice on a freshly loaded service.  Every timed
quantity is therefore sampled once or more per round, spread evenly
over the whole run.

Repeated deterministic work (a tune, a frontier run) is reported by
its fastest sample, as ``timeit`` does.  Every timing is then scaled to
the host's reference speed: the host this was calibrated on runs the
same work up to 2x slower for minutes at a time, which no spreading
within a run removes.  Between its timed parts each round times a fixed
probe (:func:`probe_seconds`); the run's *slowdown* is the mean probe
time over ``PROBE_REFERENCE_S``, times are divided by it and rates
multiplied.  A change in the program moves its timings and not the
probe, so it shows in full; the unscaled figures are printed beside the
reported ones.

The correctness gate runs outside the clock after each round: every
``ok`` response must equal ``TunedProgram.run(bin_target=<served
bin>)`` on the same inputs and seed (bit-identical for all-float64
configurations, to float32 working precision otherwise), the front
door's books must balance, and every tune with the same seed must
return the same frontier.  A failed check raises :class:`GateFailure`
and the run reports no numbers.
"""

from __future__ import annotations

import concurrent.futures
import functools
import hashlib
import json
import math
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from repro.api import Project, Service, ServicePolicy
from repro.serving import (DEFAULT_TAG, ArtifactStore, ServeRequest,
                           percentile)
from repro.suite import get_benchmark

from workloads import ProgramPlan, Workload

#: The saturation slices are invalid unless goodput stays below this
#: share of the offered rate (the rate was not above capacity).
SATURATED_SHARE = 0.95
#: Steady requests at least, so p95 has >= 10 samples beyond it.
MIN_STEADY_REQUESTS = 200
#: A steady slice is invalid when the generator fell behind its
#: schedule: when more than 5 % of its sends were later than
#: ``STEADY_LAG_SHARE`` of the inter-arrival time after their due time
#: (a send then falls nearer the next request's due time than its own),
#: or any send was later than ``STEADY_MAX_LAG`` inter-arrival times.
STEADY_LAG_SHARE = 0.5
STEADY_MAX_LAG = 2.0
#: A saturation slice is invalid when the generator sent a request
#: later than this share of the slice's scheduled length after its due
#: time: the rate it offered fell that far short of the schedule.
SATURATION_LAG_SHARE = 0.1
#: Interpreter switch interval while a slice is sent: the generator
#: thread, woken for a send, waits at most about this long for the
#: serving thread to release the interpreter.
SWITCH_INTERVAL_S = 0.0005
#: Probes timed at each boundary between a round's timed parts, and
#: :func:`probe_seconds` on the calibration host (a 2-CPU container,
#: Python 3.11, numpy 2.4) in its fast state.
PROBES_PER_POINT = 3
PROBE_REFERENCE_S = 0.015
#: The end-to-end timings scaled to the reference speed.
TIMINGS = ("setup_s", "tune_s", "frontier_run_ms", "latency_p50_ms",
           "latency_p95_ms", "goodput_rps")
#: float32 outputs must agree with the reference to this tolerance
#: (working-precision ulp at the magnitudes the suite produces).
FLOAT32_RTOL = 5e-5
FLOAT32_ATOL = 5e-6
#: Seconds to wait for the last response of a slice.
DRAIN_TIMEOUT = 120.0


class GateFailure(Exception):
    """A correctness check failed; the run must report no numbers."""


def artifact_digest(artifact) -> str:
    """Content digest of a tuned artifact's canonical JSON."""
    payload = json.dumps(artifact.to_json(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def probe_seconds() -> float:
    """Wall time of a fixed piece of work like the program's own:
    interpreted integer arithmetic, then small-matrix numpy calls."""
    start = time.perf_counter()
    total = 0
    for i in range(150000):
        total += i * i % 7
    matrix = np.full((32, 32), 0.5)
    for _ in range(1000):
        matrix = np.tanh(matrix @ matrix * 0.01)
    return time.perf_counter() - start


def _frontier_key(handle) -> list:
    return [[float(v) for v in row] for row in handle.frontier()]


def _allocate(count: int, shares) -> list[int]:
    """Split ``count`` by ``shares`` exactly (largest remainder)."""
    total = float(sum(shares))
    raw = [count * share / total for share in shares]
    counts = [int(math.floor(value)) for value in raw]
    order = sorted(range(len(shares)), key=lambda i: counts[i] - raw[i])
    for i in order[:count - sum(counts)]:
        counts[i] += 1
    return counts


@dataclass
class Tuned:
    """One program's tuning outcome."""

    plan: ProgramPlan
    handle: object
    seconds: float
    digest: str
    space_digest: str


@dataclass
class Served:
    """One pre-generated request and what came back for it."""

    request: ServeRequest
    plan: ProgramPlan
    #: Pool index for pooled problems, None for fresh ones.
    pool_key: int | None
    due: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    response: object = None
    #: Whether an ok, undegraded response's accuracy, recomputed with
    #: ``CompiledProgram.accuracy_of``, meets the requested target.
    meets: bool = True

    @property
    def latency(self) -> float:
        return self.done - self.due


@dataclass
class Slice:
    """One serving slice of a round, sent open-loop at ``rate``."""

    name: str
    rate: float
    items: list
    start: float = 0.0
    end: float = 0.0
    #: Largest and 95th-percentile lateness of a send (seconds).
    max_lag: float = 0.0
    lag_p95: float = 0.0
    #: (program, (tuned, digest) before, (tuned, digest) after, call
    #: start, call end) of the hot swap made halfway, if any.
    swap: tuple | None = None

    @property
    def wall_s(self) -> float:
        return self.end - self.start


@dataclass
class Round:
    """One lifecycle: set-up, tunes, frontier pass and two slices."""

    index: int
    traced: bool
    tuned: list = field(default_factory=list)
    service: Service | None = None
    #: program -> ((tuned, digest), (tuned, digest)) of the two stored
    #: versions a hot swap alternates between.
    swaps: dict = field(default_factory=dict)
    slices: tuple = ()
    #: Raw timings: set-up, tunes (summed over programs), and
    #: (program, bin) -> held-out frontier runs.
    setup_s: float = 0.0
    tune_s: float = 0.0
    frontier: dict = field(default_factory=dict)
    #: Times of :func:`probe_seconds` between the round's timed parts.
    probes: list = field(default_factory=list)
    #: Front-door counters, read once the round's slices are served.
    errors: int = 0
    refused: int = 0
    escalations: int = 0
    fallbacks: int = 0


@dataclass
class RunResult:
    metrics: dict
    layer: dict
    attempted: int
    failed: int
    stamp: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)


class WorkloadRun:
    """State of one workload run (one process, one seed)."""

    def __init__(self, workload: Workload, seed: int, seconds: float,
                 workdir: str, tracer=None):
        self.workload = workload
        self.seconds = seconds
        self.workdir = workdir
        self.tracer = tracer
        self.rng = np.random.default_rng([seed, 20110402])
        self.rounds: list[Round] = []
        self.pools: dict = {}
        self.references: dict = {}
        self.attempted = 0
        self.failed = 0
        self.details: dict = {}
        self._service: Service | None = None

    # ------------------------------------------------------------------
    # Tracing switches
    # ------------------------------------------------------------------
    def _trace(self, on: bool, phase: str | None = None) -> None:
        if self.tracer is None:
            return
        self.tracer.active = on
        if phase is not None:
            self.tracer.phase = phase

    # ------------------------------------------------------------------
    # Set-up and tuning
    # ------------------------------------------------------------------
    def _tune(self, project: Project, plan: ProgramPlan, traced: bool,
              seed: int | None = None) -> Tuned:
        self._trace(traced, "tune")
        start = time.perf_counter()
        handle = project.tune(plan.preset, **plan.tune_overrides(seed))
        seconds = time.perf_counter() - start
        self._trace(traced, "setup")
        self.attempted += 1
        return Tuned(plan=plan, handle=handle, seconds=seconds,
                     digest=artifact_digest(handle.artifact()),
                     space_digest=project.program.space.digest())

    def _deploy(self, round_: Round, store: ArtifactStore,
                projects: dict) -> None:
        """Deploy every program; tune and store the second version of
        programs that are hot-swapped (not part of ``tune_s``)."""
        for entry in round_.tuned:
            deployment = entry.handle.deploy(store)
            plan = entry.plan
            if plan.swap_seed is None:
                continue
            alternate = self._tune(projects[plan.benchmark], plan,
                                   round_.traced, seed=plan.swap_seed)
            second = alternate.handle.deploy(store, set_latest=False)
            round_.swaps[deployment.program] = (
                (deployment.version, entry.digest),
                (second.version, alternate.digest))

    def _load_service(self, store: ArtifactStore) -> Service:
        policy = ServicePolicy(backend="async:1x1", shard_backend="serial",
                               deadline=self.workload.deadline_s,
                               queue_limit=self.workload.queue_limit)
        names = [_root(plan) for plan in self.workload.programs]
        service = Service.load(store, programs=names, policy=policy)
        self._service = service
        # Warm-up: one request per program and size, at the cheapest
        # bin (loads and compiles everything lazily built).
        warm = []
        for plan in self.workload.programs:
            spec = get_benchmark(plan.benchmark)
            tuned = service.frontdoor.program_for(_root(plan))
            for n in plan.sizes:
                inputs = spec.generate(n, np.random.default_rng(n))
                warm.append(service.request(
                    inputs, n, accuracy=tuned.bins[0],
                    program=_root(plan)))
        service.serve(warm)
        return service

    def _set_up(self, round_: Round) -> None:
        """The round's timed set-up and tunes.

        Everything but the tunes themselves is set-up: compile, tune
        (serving workloads count it as set-up too), deploy, load and
        warm up.  The tuning workload, whose tune is the timed
        operation, also warms the tuner before it.
        """
        traced = round_.traced
        programs = self.workload.programs
        store = ArtifactStore(tempfile.mkdtemp(dir=self.workdir))
        self._trace(traced, "setup")
        start = time.perf_counter()
        projects = {plan.benchmark: Project.from_benchmark(
            plan.benchmark, backend="serial") for plan in programs}
        for project in projects.values():
            project.harness  # built lazily; part of set-up
        if not self.workload.tune_in_setup:
            for plan in programs:
                _warm_tuner(projects[plan.benchmark], plan)
        round_.tuned = [self._tune(projects[plan.benchmark], plan, traced)
                        for plan in programs]
        self._deploy(round_, store, projects)
        round_.service = self._load_service(store)
        elapsed = time.perf_counter() - start
        self._trace(False)
        for project in projects.values():
            project.close()
        tuning = sum(entry.seconds for entry in round_.tuned)
        if not self.workload.tune_in_setup:
            elapsed -= tuning
        round_.setup_s, round_.tune_s = elapsed, tuning

    def _check_frontier(self, round_: Round) -> None:
        """Every tune with the same seed returns the same frontier."""
        first = self.rounds[0].tuned if self.rounds else round_.tuned
        for a, b in zip(first, round_.tuned):
            if _frontier_key(a.handle) != _frontier_key(b.handle) \
                    or a.digest != b.digest:
                raise GateFailure(
                    f"{a.plan.benchmark}: two tunes with the same seed "
                    f"returned different frontiers ({a.digest} vs "
                    f"{b.digest})")

    def _prepare_swaps(self, round_: Round) -> None:
        """Load both stored versions of hot-swapped programs, attached
        to the program the service compiled, and serve the first."""
        door, store = round_.service.frontdoor, round_.service.store
        for name, versions in round_.swaps.items():
            served = door.program_for(name)
            round_.swaps[name] = tuple(
                (store.load_version(name, DEFAULT_TAG, version)
                 .to_tuned(served.program), digest)
                for version, digest in versions)
            door.hot_swap(name, round_.swaps[name][0][0])

    # ------------------------------------------------------------------
    # The frontier on held-out inputs
    # ------------------------------------------------------------------
    def _frontier_pass(self, round_: Round) -> None:
        """Run every frontier bin of every tuned program on
        ``frontier_inputs`` held-out inputs at the largest training
        size."""
        self._trace(round_.traced, "frontier")
        for entry in round_.tuned:
            handle = entry.handle
            spec = get_benchmark(entry.plan.benchmark)
            n = handle.result.sizes[-1]
            for _ in range(self.workload.frontier_inputs):
                problem = spec.generate(int(n), self.rng)
                for target, _, _ in handle.frontier():
                    start = time.perf_counter()
                    result = handle.run(problem, n, bin_target=target,
                                        seed=round_.index + 1)
                    round_.frontier.setdefault(
                        (entry.plan.benchmark, target), []).append(
                        time.perf_counter() - start)
                    self.attempted += 1
                    accuracy = handle.project.program.accuracy_of(
                        result.outputs, problem)
                    if not math.isfinite(accuracy):
                        raise GateFailure(
                            f"{entry.plan.benchmark} bin {target:g}: "
                            f"non-finite accuracy on held-out input")
        self._trace(False)

    # ------------------------------------------------------------------
    # Traffic
    # ------------------------------------------------------------------
    def _make_pools(self) -> None:
        for plan in self.workload.programs:
            if plan.pool is None:
                continue
            spec = get_benchmark(plan.benchmark)
            for n in plan.sizes:
                self.pools[(plan.benchmark, n)] = [
                    spec.generate(n, self.rng) for _ in range(plan.pool)]

    def _make_requests(self, service: Service, slice_name: str,
                       count: int) -> list[Served]:
        """``count`` requests of one slice with exact program,
        accuracy, size and verify shares, in a seeded order."""
        items: list[Served] = []
        plans = self.workload.programs
        for plan, share in zip(plans, _allocate(
                count, [plan.traffic for plan in plans])):
            spec = get_benchmark(plan.benchmark)
            tuned = service.frontdoor.program_for(_root(plan))
            top = tuned.bins[-1]
            targets = []
            mix = plan.mix_for(slice_name)
            for (target, _), k in zip(mix, _allocate(
                    share, [weight for _, weight in mix])):
                targets.extend([target] * k)
            sizes = []
            for n, k in zip(plan.sizes, _allocate(
                    share, plan.size_shares or [1.0] * len(plan.sizes))):
                sizes.extend([n] * k)
            eligible = {i for i, target in enumerate(targets)
                        if target != top and tuned.metric.meets(top, target)}
            checked = set(self.rng.permutation(sorted(eligible))[:round(
                len(eligible) * self.workload.verify_share)].tolist())
            sizes = self.rng.permutation(sizes)
            for index, (target, n) in enumerate(zip(targets, sizes)):
                n = int(n)
                if plan.pool is None:
                    inputs = spec.generate(n, self.rng)
                    key, seed = None, int(self.rng.integers(2 ** 31))
                else:
                    choices = plan.pool
                    if target == top and plan.top_pool is not None:
                        choices = plan.top_pool
                    key = int(self.rng.integers(choices))
                    inputs = dict(self.pools[(plan.benchmark, n)][key])
                    seed = key
                # Callers at (or above) the most accurate bin accept no
                # shedding; the rest may be degraded to any cheaper bin.
                floor = None if index in eligible else float(target)
                request = ServeRequest(
                    program=_root(plan), inputs=inputs, n=float(n),
                    accuracy=float(target), verify=index in checked,
                    seed=seed, floor=floor)
                items.append(Served(request=request, plan=plan,
                                    pool_key=key))
        return self._spread(items)

    def _spread(self, items: list[Served]) -> list[Served]:
        """Order ``items`` so that every (program, accuracy) class is
        spread evenly over the slice: the m items of a class sit one
        m-th of the slice apart, from a random starting point.  Rare,
        expensive requests then neither cluster nor leave gaps by
        chance, which would make tail latency and saturated capacity
        properties of the seed rather than of the program."""
        classes: dict[tuple, list[Served]] = {}
        for item in items:
            classes.setdefault((item.request.program,
                                item.request.accuracy), []).append(item)
        keyed = []
        for members in classes.values():
            order = self.rng.permutation(len(members))
            offset = self.rng.random()
            for slot, index in enumerate(order):
                keyed.append(((slot + offset) / len(members),
                              members[index]))
        keyed.sort(key=lambda pair: pair[0])
        return [item for _, item in keyed]

    def _send(self, round_: Round, slice_: Slice) -> None:
        """Send ``slice_.items`` open-loop at ``slice_.rate`` from this
        thread and wait for every response.

        Latency counts from each request's scheduled send time, so a
        generator or server stall is charged to every request behind
        it.  Halfway through, a hot-swapped program changes version.
        """
        door = round_.service.frontdoor
        items = slice_.items
        half = len(items) // 2
        swap = next(iter(round_.swaps), None)
        futures = []
        self._trace(round_.traced, slice_.name)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(SWITCH_INTERVAL_S)
        try:
            slice_.start = time.perf_counter() + 0.05
            for index, item in enumerate(items):
                item.due = slice_.start + index / slice_.rate
                if index == half and swap is not None:
                    slice_.swap = self._hot_swap(round_, swap)
                delay = item.due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                item.sent = time.perf_counter()
                future = door.submit(item.request)
                future.add_done_callback(functools.partial(_record, item))
                futures.append(future)
            _, pending = concurrent.futures.wait(futures,
                                                 timeout=DRAIN_TIMEOUT)
        finally:
            sys.setswitchinterval(interval)
            self._trace(False)
        if pending:
            raise GateFailure(f"{slice_.name}: {len(pending)} requests "
                              f"unanswered after {DRAIN_TIMEOUT:g}s")
        # Done callbacks run just after a future's waiters wake.
        while any(item.response is None for item in items):
            time.sleep(0.001)
        slice_.end = max(item.done for item in items)
        lags = [item.sent - item.due for item in items]
        slice_.max_lag = max(lags)
        slice_.lag_p95 = percentile(lags, 0.95)
        self.attempted += len(items)

    @staticmethod
    def _hot_swap(round_: Round, name: str) -> tuple:
        """Swap ``name`` to its other stored version with
        ``FrontDoor.hot_swap``."""
        door = round_.service.frontdoor
        current = door.program_for(name)
        first, second = round_.swaps[name]
        before, after = (first, second) if current is first[0] \
            else (second, first)
        start = time.perf_counter()
        door.hot_swap(name, after[0])
        return (name, before, after, start, time.perf_counter())

    # ------------------------------------------------------------------
    # Correctness gate
    # ------------------------------------------------------------------
    def _check_round(self, round_: Round) -> None:
        door = round_.service.frontdoor
        stats = door.stats()
        if stats.submitted != stats.completed + stats.rejected \
                + stats.expired:
            raise GateFailure(f"front-door books do not balance: {stats}")
        round_.errors = stats.errors
        round_.refused = stats.rejected + stats.expired
        round_.escalations = stats.escalations
        round_.fallbacks = stats.fallbacks
        for slice_ in round_.slices:
            for item in slice_.items:
                response = item.response
                if not response.ok:
                    continue
                candidates = self._serving_programs(round_, slice_, item)
                if not any(self._matches(item, tuned, digest)
                           for tuned, digest in candidates):
                    raise GateFailure(
                        f"{slice_.name}: {item.request.program} response "
                        f"at bin {response.bin_target:g} differs "
                        f"from TunedProgram.run on the same inputs")
                if response.degraded == 0:
                    tuned = candidates[0][0]
                    accuracy = tuned.program.accuracy_of(
                        response.outputs, item.request.inputs)
                    item.meets = tuned.metric.meets(accuracy,
                                                    item.request.accuracy)

    @staticmethod
    def _serving_programs(round_: Round, slice_: Slice,
                          item: Served) -> list:
        """(tuned program, artifact digest) pairs that may have served
        ``item``."""
        name = item.request.program
        if slice_.swap is None or slice_.swap[0] != name:
            door = round_.service.frontdoor
            digest = next(entry.digest for entry in round_.tuned
                          if _root(entry.plan) == name)
            return [(door.program_for(name), digest)]
        # A response completed before the swap came from the old
        # program and a request sent after it from the new one; a
        # request queued across the swap may have met either.
        _, before, after, start, end = slice_.swap
        if item.done < start:
            return [before]
        if item.sent > end:
            return [after]
        return [before, after]

    def _matches(self, item: Served, tuned, digest: str) -> bool:
        request, response = item.request, item.response
        # Every round tunes the same artifacts (checked by digest), so
        # a pooled problem's reference output is computed once per run.
        key = None
        if item.pool_key is not None:
            key = (request.program, digest, request.n, item.pool_key,
                   response.bin_target, request.seed)
        reference = self.references.get(key) if key is not None else None
        if reference is None:
            reference = tuned.run(request.inputs, request.n,
                                  bin_target=response.bin_target,
                                  seed=request.seed).outputs
            if key is not None:
                self.references[key] = reference
        float64 = _all_float64(tuned.bin_configs[response.bin_target])
        for name, expected in reference.items():
            got = response.outputs.get(name)
            if isinstance(expected, np.ndarray):
                if not isinstance(got, np.ndarray) \
                        or got.shape != expected.shape:
                    return False
                if float64 or not np.issubdtype(expected.dtype,
                                                np.floating):
                    if not np.array_equal(got, expected):
                        return False
                elif not np.allclose(got, expected, rtol=FLOAT32_RTOL,
                                     atol=FLOAT32_ATOL):
                    return False
            elif got != expected:
                return False
        return True

    def _check_slices(self) -> None:
        """Mark the run invalid when its generator fell behind."""
        interval = 1.0 / self.workload.steady_rps
        for round_ in self.rounds:
            steady, saturation = round_.slices
            late = None
            if steady.lag_p95 > STEADY_LAG_SHARE * interval:
                late = (f"5 % of its sends were more than "
                        f"{steady.lag_p95 * 1e3:.1f} ms late (limit "
                        f"{STEADY_LAG_SHARE * interval * 1e3:.1f} ms)")
            elif steady.max_lag > STEADY_MAX_LAG * interval:
                late = (f"a send was {steady.max_lag * 1e3:.1f} ms late "
                        f"(limit {STEADY_MAX_LAG * interval * 1e3:.1f} ms)")
            elif saturation.max_lag > SATURATION_LAG_SHARE \
                    * self.workload.saturation_s:
                late = (f"a saturation send was "
                        f"{saturation.max_lag * 1e3:.1f} ms late")
            if late is not None:
                raise GateFailure(f"round {round_.index} invalid: the "
                                  f"generator fell behind: {late}")

    # ------------------------------------------------------------------
    # The whole run
    # ------------------------------------------------------------------
    def _run_round(self, index: int) -> None:
        workload = self.workload
        round_ = Round(index=index,
                       traced=self.tracer is not None and index % 2 == 1)
        self._probe(round_)
        self._set_up(round_)
        self._probe(round_)
        self._check_frontier(round_)
        self._prepare_swaps(round_)
        if not self.pools:
            self._make_pools()
        service = round_.service
        round_.slices = (
            Slice("steady", workload.steady_rps, self._make_requests(
                service, "steady",
                round(workload.steady_rps * workload.steady_s))),
            Slice("saturation", workload.saturation_rps,
                  self._make_requests(service, "saturation", round(
                      workload.saturation_rps * workload.saturation_s))))
        self._frontier_pass(round_)
        self._probe(round_)
        for slice_ in round_.slices:
            self._send(round_, slice_)
            self._probe(round_)
            # Outside the clock: check this round, then close its service.
        start = time.perf_counter()
        self._check_round(round_)
        self.details["check_s"] = self.details.get("check_s", 0.0) \
            + time.perf_counter() - start
        self._service = None
        service.close()
        self.rounds.append(round_)

    @staticmethod
    def _probe(round_: Round) -> None:
        round_.probes += [probe_seconds() for _ in range(PROBES_PER_POINT)]

    def execute(self) -> RunResult:
        workload = self.workload
        rounds = workload.rounds(self.seconds)
        steady_count = rounds * round(workload.steady_rps
                                      * workload.steady_s)
        if steady_count < MIN_STEADY_REQUESTS:
            raise GateFailure(
                f"the steady slices would send {steady_count} requests; "
                f"p95 needs >= {MIN_STEADY_REQUESTS} (raise --seconds)")
        for index in range(rounds):
            self._run_round(index)
        self._check_slices()
        metrics = self.metrics(traced=False)
        if metrics["raw.goodput_rps"] >= SATURATED_SHARE \
                * workload.saturation_rps:
            raise GateFailure(
                f"saturation invalid: goodput "
                f"{metrics['raw.goodput_rps']:.1f} req/s of "
                f"{workload.saturation_rps:g} offered; the rate is not "
                f"above capacity")
        self.failed = sum(round_.errors for round_ in self.rounds)
        layer = {f"generator_lag_ms.{name}": 1e3 * max(
            slice_.max_lag for round_ in self.rounds
            for slice_ in round_.slices if slice_.name == name)
            for name in ("steady", "saturation")}
        layer["generator_lag_ms.steady_p95"] = 1e3 * max(
            round_.slices[0].lag_p95 for round_ in self.rounds)
        swaps = [slice_.swap[4] - slice_.swap[3] for round_ in self.rounds
                 for slice_ in round_.slices if slice_.swap is not None]
        layer["store.hot_swap_ms"] = 1e3 * (
            statistics.median(swaps) if swaps else 0.0)
        layer["engine.escalations"] = float(sum(
            round_.escalations for round_ in self.rounds))
        layer["host_slowdown"] = self.slowdown()
        layer["engine.fallbacks"] = float(sum(
            round_.fallbacks for round_ in self.rounds))
        self.details.update({
            "rounds": rounds,
            "refused": sum(round_.refused for round_ in self.rounds),
            "slices": [{slice_.name: {
                "requests": len(slice_.items),
                "wall_s": round(slice_.wall_s, 3),
                "generator_lag_ms": round(slice_.max_lag * 1e3, 3),
                "generator_lag_p95_ms": round(slice_.lag_p95 * 1e3, 3)}
                for slice_ in round_.slices} for round_ in self.rounds],
        })
        return RunResult(metrics=metrics, layer=layer,
                         attempted=self.attempted, failed=self.failed,
                         details=self.details)

    def slowdown(self) -> float:
        """How much slower than its reference speed the host ran: the
        mean, not the median, of the probes, because each CPU switches
        between two speeds and a median picks one of them."""
        return statistics.fmean(probe for round_ in self.rounds
                                for probe in round_.probes) \
            / PROBE_REFERENCE_S

    def metrics(self, traced: bool) -> dict:
        """End-to-end metrics over the rounds with tracing ``traced``:
        timings scaled to the reference speed, and (``raw.*``) not."""
        rounds = [round_ for round_ in self.rounds
                  if round_.traced == traced]

        latencies, ok, frontier = [], [], {}
        good, saturated_s, sent = 0, 0.0, 0
        for round_ in rounds:
            steady, saturation = round_.slices
            latencies += [item.latency for item in steady.items]
            good += sum(1 for item in saturation.items
                        if item.response.ok
                        and item.latency <= self.workload.deadline_s)
            saturated_s += saturation.wall_s
            for slice_ in round_.slices:
                sent += len(slice_.items)
                ok += [item for item in slice_.items if item.response.ok]
            for key, times in round_.frontier.items():
                frontier.setdefault(key, []).extend(times)
        judged = [item for item in ok if item.response.degraded == 0]
        errors = sum(round_.errors for round_ in rounds)
        degraded = len(ok) - len(judged)
        misses = sum(1 for item in judged if not item.meets)
        raw = {
            "setup_s": statistics.median(round_.setup_s
                                         for round_ in rounds),
            "tune_s": min(round_.tune_s for round_ in rounds),
            "frontier_cost": sum(sum(obj for _, _, obj
                                     in entry.handle.frontier())
                                 for entry in self.rounds[0].tuned),
            "frontier_run_ms": 1e3 * sum(
                min(times) for times in frontier.values()),
            "latency_p50_ms": 1e3 * percentile(latencies, 0.50),
            "latency_p95_ms": 1e3 * percentile(latencies, 0.95),
            "goodput_rps": good / saturated_s,
            "error_free_ratio": 1.0 - errors / sent,
            "undegraded_ratio": 1.0 - degraded / max(1, len(ok)),
            "accuracy_hit_ratio": 1.0 - misses / max(1, len(judged)),
            # The raw ratios, reported beside their complements.
            "_error_ratio": errors / sent,
            "_degraded_ratio": degraded / max(1, len(ok)),
            "_accuracy_miss_ratio": misses / max(1, len(judged)),
            "_requests": sent,
            "_steady_requests": len(latencies),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        slowdown = self.slowdown()
        scaled = {name: raw[name] / slowdown for name in TIMINGS}
        scaled["goodput_rps"] = raw["goodput_rps"] * slowdown
        return {**raw, **scaled,
                **{f"raw.{name}": raw[name] for name in TIMINGS}}

    def close(self) -> None:
        if self._service is not None:
            self._service.close()
            self._service = None


@functools.lru_cache(maxsize=None)
def _root_of(benchmark: str) -> str:
    root, _ = get_benchmark(benchmark).build()
    return root.name


def _root(plan: ProgramPlan) -> str:
    return _root_of(plan.benchmark)


def _warm_tuner(project: Project, plan: ProgramPlan) -> None:
    """Build the tuner and run the default configuration once at the
    smallest training size: the warm-up before a timed tune."""
    tuner = project.tuner(plan.preset, **plan.tune_overrides())
    n = tuner.settings.sizes()[0]
    inputs = project.training_inputs(int(n), np.random.default_rng(0))
    project.program.execute(inputs, n, project.program.default_config())


def _record(item: Served, future) -> None:
    item.done = time.perf_counter()
    item.response = future.result()


def _all_float64(config) -> bool:
    """True when no precision entry of ``config`` selects float32."""
    for name, entry in config.to_json().items():
        if name.endswith(".precision") and "float32" in json.dumps(entry):
            return False
    return True
