"""The benchmark's workloads: golden cases, seed-derived passes, digests.

Every workload is a closed loop in one process and one thread: each simulated
step waits on the one before. A workload has

* golden cases: the canonical runs at the default seed 0xACE1, whose digests
  are pinned in GOLDEN below and reproduce the ROADMAP baseline table;
* a pass: cases derived from the ``--seed`` argument that simulate a fixed
  amount of work, so a run's time does not hinge on the seed's outcomes (a
  default training run takes 4.8k to 32k steps depending on its seed; a
  stuck swarm 400 steps instead of ~40). ``train`` runs a fixed number of
  short training runs. Each swarm case type runs seed-derived scenarios until
  it has simulated its quota of steps, and the last scenario's budget is cut
  to fit. The cut depends only on simulated outcomes, so a seed gives the
  same cases on every commit that simulates the same way.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

DEFAULT_SEED = 0xACE1
LFSR_MAX = 0xFFFF

# Digests of the golden cases at the default seed (see digest_training and
# digest_metrics). A change that alters any simulated output changes these.
GOLDEN = {
    "train": {
        "train/0xace1/80ep": "d716c40072ed1311193afe62fdcbc19622f83d2a1e14cd1d208956cb0316dc7a",
    },
    "swarm-apf": {
        "path/10/0xace1": "ae676f9ab463313278f40feb64f7c869857c810d9a9edf77824f475ca7d2e638",
        "path/20/0xace1": "b4768766a92d3704a24441c405b04a68f61e18e00f5e8ac4f649a6ba9ba75ca9",
        "formation/10/0xace1": "6ae6c0ee688441e353df5ed1f13d8a05cc040b266a4920b7866b8a9467a9337f",
        "formation/20/0xace1": "a421942598c23f90fbe1e6b0f06df43ef38ab35bf56f3a8daa04a5d81c398ae5",
    },
    "swarm-grid": {
        "explore/10/0xace1": "ca83f5a4222efc87d6d74f2b19e9d02297078c896917e8deb14c9e6223a9fc23",
        "explore/20/0xace1": "f8401fd6924a675dc5af7736cdb690bf1c68b936371f2f19f63ffe51290c1e36",
        "predprey/2/0xace1": "e17c3a451de029ffca501c2dc6c7d51d0a1455a2c34b2e85b307a056a101760e",
    },
}


@dataclass(frozen=True)
class Outcome:
    """Simulated result of one case, reduced to what the benchmark reports."""

    steps: int         # training iterations, or swarm steps
    actions: int       # agent-steps: training iterations, or WorkloadMetrics.actions
    energy_pj: float
    success: bool      # the case met its own task criterion
    digest: str
    summary: str


@dataclass(frozen=True)
class Case:
    """One simulation run: ``run`` is the timed call, ``reduce`` digests its result."""

    label: str
    run: Callable[[], object]
    reduce: Callable[[object], Outcome]
    # the budget was cut to what the quota had left: an unmet task criterion
    # then says nothing about the task, so the case leaves sim_success_frac
    cut: bool = False


def derived_seed(seed: int, label: str, index: int) -> int:
    """Nonzero 16-bit seed (a valid LFSR state) for the index-th case of a type."""
    h = hashlib.sha256(f"{seed}/{label}/{index}".encode()).digest()
    return int.from_bytes(h[:8], "big") % LFSR_MAX + 1


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digest_training(trace) -> str:
    """Hash of TrainingTrace.rows(), episode_coverage and convergence_episode."""
    rows = repr(list(trace.rows()))
    coverage = repr([int(c) for c in trace.episode_coverage])
    return _sha(f"{rows}|{coverage}|{int(trace.convergence_episode)}")


def digest_metrics(m) -> str:
    """Hash of WorkloadMetrics.row() with numpy scalars made plain Python values."""
    workload, n, bits, steps, actions, energy, success, score = m.row()
    row = (str(workload), int(n), int(bits), int(steps), int(actions), float(energy),
           bool(success), float(score))
    return _sha(repr(row))


class Train:
    """Q-learning explorer: qnav + stochsyn masks, macmodel pricing two arrays a step."""

    name = "train"
    runs = 15     # training runs per pass
    episodes = 2  # episode budget of each run

    def __init__(self):
        from edgesim import qnav

        self.qnav = qnav
        self.arena = qnav.default_arena()

    def _case(self, lfsr_seed: int, cfg) -> Case:
        qnav = self.qnav
        arena = self.arena

        def run():
            # looked up on the module at call time, so the tracer's patch applies
            return qnav.run_training(arena, cfg, lfsr_seed, "tdms")

        def reduce(trace) -> Outcome:
            steps = len(trace.iteration)
            energy = float(trace.energy_pj.sum())
            return Outcome(
                steps=steps, actions=steps,
                energy_pj=energy, success=bool(trace.converged),
                digest=digest_training(trace),
                summary=(f"{steps} steps, {energy / max(steps, 1):.1f} pJ/step, "
                         f"convergence episode {trace.convergence_episode}"),
            )

        return Case(f"train/{lfsr_seed:#06x}/{cfg.episodes}ep", run, reduce)

    def golden(self) -> list[Case]:
        return [self._case(DEFAULT_SEED, self.qnav.TrainConfig())]

    def pass_cases(self, seed: int):
        """`runs` training runs from seed-derived LFSR states, each with the default
        config cut to `episodes` episodes (too few to converge). Every training
        step runs the same code as in a full run; short runs make short cases,
        so the host's speed changes little while one is timed (see
        run.pass_seconds)."""
        cfg = self.qnav.TrainConfig(episodes=self.episodes)
        for index in range(self.runs):
            yield self._case(derived_seed(seed, self.name, index), cfg)


class Swarm:
    """Swarm tasks of swarmlab via run_workload, one case type per (task, n)."""

    def __init__(self, name: str, types: tuple, budget: int | None = None):
        from edgesim import swarmlab

        self.swarmlab = swarmlab
        self.name = name
        self.types = types    # (task, n, swarm steps per pass)
        self.budget = budget  # step budget of one scenario, if below the default
        self._golden = [swarmlab.make_scenario(w, n, seed=DEFAULT_SEED) for w, n, _ in types]

    def _case(self, scn, budget=None, cut: bool = False) -> Case:
        swarmlab = self.swarmlab
        cfg = scn.config

        def run():
            return swarmlab.run_workload(scn, None, budget)

        def reduce(m) -> Outcome:
            return Outcome(
                steps=int(m.steps), actions=int(m.actions),
                energy_pj=float(m.energy_pj), success=bool(m.success),
                digest=digest_metrics(m),
                summary=(f"{m.steps} steps, {m.energy_pj / 1e3:.1f} nJ, "
                         f"success {bool(m.success)}"),
            )

        label = f"{cfg.workload}/{cfg.n_agents}/{cfg.seed:#06x}"
        return Case(label if budget is None else f"{label}/{budget}st", run, reduce, cut)

    def golden(self) -> list[Case]:
        return [self._case(scn) for scn in self._golden]

    def pass_cases(self, seed: int):
        """Per case type, seed-derived scenarios until the type's quota of steps
        is run; the last scenario's step budget is cut to the steps left."""
        swarmlab = self.swarmlab
        for workload, n, quota in self.types:
            label = f"{self.name}/{workload}/{n}"
            full = min(swarmlab.DEFAULT_BUDGETS[workload], self.budget or quota, quota)
            left = quota
            index = 0
            while left > 0:
                scn = swarmlab.make_scenario(workload, n, seed=derived_seed(seed, label, index))
                budget = min(full, left)
                outcome = yield self._case(scn, budget, budget < full)
                left -= outcome.steps if outcome is not None else budget
                index += 1


# swarm-apf: per-pair APF loop, scalar LpuMeter.mul; n=20 runs at 8 bits on the
# 4-pass HD-MS chunk path, n=10 at 5 bits on the single-pass kernel. The cost
# of an n=20 step depends on how many agents are within the APF range, so the
# n=20 types get more steps to average over more scenarios. A scenario's
# budget of 60 steps (successes take a median 32 to 51) keeps a jammed swarm
# from filling a type's quota alone.
# swarm-grid: one scalar LFSR draw per agent-step, 4-element LpuMeter.mul and
# shared-state writes (visited map, Q-table re-quantization); no APF.
WORKLOADS = {
    "train": Train,
    "swarm-apf": lambda: Swarm("swarm-apf", (("path", 10, 100), ("path", 20, 200),
                                             ("formation", 10, 100), ("formation", 20, 200)),
                               budget=60),
    "swarm-grid": lambda: Swarm("swarm-grid", (("explore", 10, 1500), ("explore", 20, 1500),
                                               ("predprey", 2, 1500))),
}
