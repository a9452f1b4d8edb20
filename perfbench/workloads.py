"""The benchmark's workloads: what is tuned, and what traffic is served.

Every workload runs the whole lifecycle the paper promises — tune a
program to a frontier, deploy it, and serve requests that each name an
accuracy — through the public API only (``repro.api.Project`` and
``repro.api.Service``).  A run is a fixed number of rounds, each one
whole lifecycle (see ``lifecycle.py``); the workloads differ in which
half carries the weight:

* ``tune_binpacking`` tunes in the timed part of each round and then
  serves a short slice of the tuned frontier;
* ``serve_*`` tune small problems during each round's set-up and spend
  the rest of the round serving open-loop traffic: a steady slice below
  capacity and a saturation slice above it.

Tuning uses a fixed tuner seed (part of the workload's definition); the
``--seed`` argument draws the held-out frontier inputs and every served
request.  Rates, mixes and latency limits were fixed from measurements
on a 2-CPU container; ``perfbench/README.md`` records why each workload
exists and what each layer metric predicts.
"""

from __future__ import annotations

from dataclasses import dataclass

#: A traced run traces every other round and compares it with the
#: untraced ones, so every run has at least two rounds.
MIN_ROUNDS = 2


@dataclass(frozen=True)
class ProgramPlan:
    """One program a workload tunes and serves."""

    #: Suite benchmark name (``repro.suite.get_benchmark``).
    benchmark: str
    #: Tuner preset and overrides for ``Project.tune``.
    preset: str
    overrides: tuple = ()
    #: Share of the workload's requests sent to this program.
    traffic: float = 1.0
    #: Serving sizes, and their shares of the program's requests
    #: (``None``: equal shares).
    sizes: tuple = ()
    size_shares: tuple | None = None
    #: (requested accuracy, share) pairs; counts are allocated exactly
    #: and each class is spread evenly over a slice.
    mix: tuple = ()
    #: The saturation slice's mix, when it differs from ``mix``.
    saturation_mix: tuple | None = None
    #: Distinct problems per serving size, reused across requests
    #: (each request still gets its own inputs mapping).  ``None``
    #: draws a fresh problem for every request.
    pool: int | None = None
    #: Requests at the most accurate bin draw from only the first
    #: ``top_pool`` problems of the pool: that bin's reference run
    #: dominates the cost of the correctness check.
    top_pool: int | None = None
    #: Tuner seed of a second artifact version, hot-swapped with the
    #: first halfway through each serving slice.  ``None``: no swap.
    swap_seed: int | None = None

    def mix_for(self, slice_name: str) -> tuple:
        if slice_name == "saturation" and self.saturation_mix is not None:
            return self.saturation_mix
        return self.mix

    def tune_overrides(self, seed: int | None = None) -> dict:
        overrides = dict(self.overrides)
        if seed is not None:
            overrides["seed"] = seed
        return overrides


@dataclass(frozen=True)
class Workload:
    """One workload; why each exists is in ``perfbench/README.md`` and
    ``BENCHMARK.json``."""

    programs: tuple
    #: True: programs are tuned during set-up; False: programs[0] is
    #: tuned in the timed part of each round.
    tune_in_setup: bool
    #: Open-loop rates (requests/s) of the two serving slices.
    steady_rps: float
    saturation_rps: float
    #: Latency limit (seconds): goodput counts responses within it,
    #: and it is the front door's request deadline.
    deadline_s: float
    #: Share of requests sent with ``verify=True``, among those whose
    #: target a bin below the most accurate one covers (only they have
    #: a bin to escalate to).
    verify_share: float
    #: Seconds one round takes on the calibration host; a run of
    #: ``--seconds`` makes ``rounds(seconds)`` rounds, so the number of
    #: samples depends on ``--seconds`` and never on the host's speed.
    round_s: float
    #: Scheduled seconds of each round's steady and saturation slices.
    steady_s: float
    saturation_s: float
    #: Held-out inputs per program in each round's frontier pass.
    frontier_inputs: int = 1
    #: The front door's admission bound (``ServicePolicy.queue_limit``,
    #: whose default is 256).
    queue_limit: int = 256

    def rounds(self, seconds: float) -> int:
        return max(MIN_ROUNDS, int(round(seconds / self.round_s)))


WORKLOADS = {
    "tune_binpacking": Workload(
        programs=(ProgramPlan(
            benchmark="binpacking", preset="paper",
            overrides=(("max_input_size", 2048.0),),
            sizes=(512, 2048), size_shares=(0.85, 0.15),
            mix=((1.5, 0.2), (1.3, 0.2), (1.2, 0.2), (1.1, 0.2),
                 (1.01, 0.2)), pool=32),),
        tune_in_setup=False,
        steady_rps=40.0, saturation_rps=800.0, deadline_s=2.0,
        verify_share=0.25,
        round_s=5.0, steady_s=1.0, saturation_s=0.75, frontier_inputs=3),
    "serve_poisson": Workload(
        programs=(ProgramPlan(
            benchmark="poisson", preset="smoke",
            overrides=(("max_input_size", 15.0),),
            sizes=(15,),
            mix=((1.0, 0.5), (3.0, 0.3), (5.0, 0.2)),
            saturation_mix=((1.0, 0.5), (3.0, 0.3), (5.0, 0.18),
                            (7.0, 0.02)),
            pool=64, top_pool=4),),
        tune_in_setup=True,
        steady_rps=20.0, saturation_rps=600.0, deadline_s=4.0,
        verify_share=0.25,
        round_s=10.0, steady_s=3.5, saturation_s=1.5, frontier_inputs=2),
    "serve_mixed": Workload(
        programs=(
            ProgramPlan(benchmark="helmholtz", preset="smoke",
                        overrides=(("max_input_size", 7.0),),
                        traffic=0.25, sizes=(3, 7),
                        mix=((1.0, 0.1), (3.0, 0.1), (5.0, 0.6),
                             (9.0, 0.2))),
            ProgramPlan(benchmark="binpacking", preset="smoke",
                        overrides=(("max_input_size", 512.0),),
                        traffic=0.25, sizes=(128, 512),
                        mix=((1.5, 0.25), (1.3, 0.25), (1.1, 0.25),
                             (1.01, 0.25)), swap_seed=1),
            ProgramPlan(benchmark="clustering", preset="smoke",
                        overrides=(("max_input_size", 256.0),),
                        traffic=0.25, sizes=(64, 256),
                        mix=((0.2, 0.3), (0.5, 0.3), (0.95, 0.3),
                             (0.99, 0.1))),
            ProgramPlan(benchmark="preconditioner", preset="smoke",
                        overrides=(("max_input_size", 256.0),),
                        traffic=0.25, sizes=(64, 256),
                        mix=((0.0, 0.3), (1.0, 0.4), (3.0, 0.3))),
        ),
        tune_in_setup=True,
        steady_rps=25.0, saturation_rps=700.0, deadline_s=2.0,
        verify_share=0.1,
        round_s=10.0, steady_s=3.5, saturation_s=1.2, frontier_inputs=3,
        queue_limit=64),
}
