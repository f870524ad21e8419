"""Mutation audit: check that the tier-1 suite fails on hand-written source mutants.

Each mutant is one exact-match text replacement in one file, plus the reason
it exists. The audit copies ``src``, ``tests``, ``bench`` and ``pyproject.toml``
to a temporary directory, checks that the unmutated copy passes, then applies each
mutant to a fresh copy and runs the suite there (``pytest -x``). A mutant is
killed when the suite fails. Mutants marked equivalent cannot change any
result; they stay on the list with the reason, and their survival is expected.

The kill map, ``tools/mutant_kills.json``, records the test node that killed
each mutant last time. The audit runs that node first (``pytest -x <node>``)
and runs the whole suite only when the node passes or no longer exists, so the
verdicts are those of whole-suite runs: a node that fails is part of the suite.
The recorded nodes must also pass together on the unmutated copy, or the map
is set aside for the run. After each run the audit writes the node that killed
each mutant back to the map; with the map deleted, every mutant runs the whole
suite and the map is written again.

Standard library only; it is not part of the test suite and writes nothing in
the working tree but the kill map. A mutant whose old text does not occur
exactly once in its file stops the audit before any test runs;
``tests/test_mutants.py`` makes the same check in the suite, and the audit
leaves that test out of its own runs.

    python tools/mutants.py            # every mutant
    python tools/mutants.py flee-max   # the named ones
    python tools/mutants.py --list

Exit status: 0 when every non-equivalent mutant is killed, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "bench", "pyproject.toml")
KILLS = ROOT / "tools" / "mutant_kills.json"
# pytest's exit status when a named node is not found or collects no test
NOT_RUN = (4, 5)
SWARM = "src/edgesim/swarmlab.py"
QNAV = "src/edgesim/qnav.py"
STOCHSYN = "src/edgesim/stochsyn.py"
MACMODEL = "src/edgesim/macmodel.py"


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    reason: str
    equivalent: bool = False


MUTANTS = (
    Mutant("flee-max", SWARM,
           "gap = min(abs(cand[0] - p[0]) + abs(cand[1] - p[1]) for p in state.positions)",
           "gap = max(abs(cand[0] - p[0]) + abs(cand[1] - p[1]) for p in state.positions)",
           "the prey flees the nearest predator; min equals max with one predator, so "
           "only the n=3 and n=5 predprey goldens tell them apart"),
    Mutant("catch-reward", SWARM,
           "reward = 5.0 if caught else float(dist - new_dist)",
           "reward = 4.0 if caught else float(dist - new_dist)",
           "the run stops at a catch, so only a later predator in the same step reads "
           "the catch's Q-table write (the n=5 qlearn trajectory golden)"),
    Mutant("predprey-bootstrap-sign", SWARM,
           "[q_max < 0]",
           "[False]",
           "gamma > 0, so the bootstrap product's sign is the next state's largest Q "
           "value's"),
    Mutant("predprey-q-finite", SWARM,
           "            if not math.isfinite(q_max):",
           "            if False:",
           "a NaN Q value failed inside int() naming nothing, and an infinite one "
           "saturated"),
    Mutant("apf-mac-count", SWARM,
           "5 * len(rows)",
           "4 * len(rows)",
           "a pushing pair costs 5 MACs: the 1/d lookup, u*u, the magnitude and the "
           "2-element push"),
    Mutant("apf-nfe-price", SWARM,
           "pair_pj[:, 0] = meter.nfe_pj",
           "pair_pj[:, 0] = meter.energy(0, 0)",
           "apf_force prices each 1/d lookup at the interpolation MAC LpuMeter.nfe "
           "charges"),
    Mutant("lpu-nfe-number", SWARM,
           '        if x.dtype.kind not in "iuf":',
           "        if False:",
           "LpuMeter.nfe(True) looked up 1.0, and nfe(\"x\") failed inside numpy"),
    Mutant("lpu-nfe-finite", SWARM,
           "        if np.isnan(x).any():",
           "        if False:",
           "LpuMeter.nfe(nan) returned nan and charged a MAC"),
    Mutant("apf-attraction-sign", SWARM,
           "k_mag, err_mags, err_c < 0,",
           "k_mag, err_mags, err_c > 0,",
           "k_att > 0, so the attraction's sign is err_c's; err_c <= 0 would be "
           "equivalent, since goal - pos is never -0.0"),
    Mutant("apf-u-range", SWARM,
           "    u_mags = mm.quantize_mags(u, bits, u_range)\n",
           "    u_mags = mm.quantize_mags(u, bits, uu_range)\n",
           "apf_force quantizes each operand once, so u must be quantized against its "
           "own range"),
    Mutant("apf-goal-finite", SWARM,
           "    if np.isnan(err_c).any():",
           "    if False:",
           "a NaN goal or position failed inside the integer cast, naming nothing"),
    Mutant("apf-push-finite", SWARM,
           "    if np.isnan(d).any():",
           "    if False:",
           "a NaN point pushes, and failed inside the integer cast, naming nothing"),
    Mutant("explore-stale-weight-mag", SWARM,
           "            w_mags[a] = mm.quantize_mag(w, bits, EXPLORE_W_RANGE)\n",
           "",
           "the explore step keeps its weights quantized, so an update must re-quantize "
           "the weight it moved"),
    Mutant("explore-stale-weight-sign", SWARM,
           "            w_neg[a] = w < 0\n",
           "",
           "an update that moves a weight across 0 flips the sign of its products"),
    Mutant("explore-weight-finite", SWARM,
           "    if not all(map(math.isfinite, weights)):",
           "    if False:",
           "a NaN explore weight failed inside int() naming nothing, and an infinite one "
           "saturated"),
    Mutant("explore-feature-table-shift", SWARM,
           "mm.quantize_mag(f / EXPLORE_AREA, bits, 1.0) for f in range(EXPLORE_AREA + 1)",
           "mm.quantize_mag(f / EXPLORE_AREA, bits, 1.0) for f in range(1, EXPLORE_AREA + 2)",
           "entry f of the feature table is the magnitude of f unvisited cells"),
    Mutant("lpu-list-operand-one-side", SWARM,
           "            if isinstance(operand, list):",
           "            if isinstance(a, list) and isinstance(b, list):",
           "LpuMeter.mul([True, 0.5], 0.5, 1.0, 1.0) returned [0.516, 0.266] and "
           "charged 2 MACs: list elements were checked only against another list"),
    Mutant("lpu-list-operand-bool", SWARM,
           "if isinstance(v, (bool, np.bool_)) or not isinstance(v, numbers.Real):",
           "if not isinstance(v, numbers.Real):",
           "LpuMeter.mul([True, 0.5], [0.5, 0.5], 1.0, 1.0) multiplied True as 1.0 and "
           "charged 2 MACs"),
    Mutant("predprey-advance-block", SWARM,
           "    state.lfsr = state.lfsr.advance(used)\n    if not state.caught",
           "    state.lfsr = state.lfsr.advance(2 * n)\n    if not state.caught",
           "the predprey step advances the LFSR past the words it used, not past its "
           "whole block"),
    Mutant("explore-advance-block", SWARM,
           "    state.lfsr = state.lfsr.advance(used)\n    return len(positions)",
           "    state.lfsr = state.lfsr.advance(2 * len(positions))\n    return len(positions)",
           "the explore step advances the LFSR past the words it used, not past its "
           "whole block"),
    Mutant("explore-reused-word", SWARM,
           "            a = to_randint(words[used], 4)\n            used += 1\n"
           "        elif max(feats) == 0:",
           "            a = to_randint(words[used - 1], 4)\n            used += 1\n"
           "        elif max(feats) == 0:",
           "an explore agent's random move reads a fresh word, not its epsilon draw's"),
    Mutant("arena-horizon", QNAV,
           "max(arena.width, arena.height) - 2))",
           "max(arena.width, arena.height) - 3))",
           "on the default 12x12 arena both give the cap of 8; the 10x10 training "
           "golden tells them apart"),
    Mutant("run-policy-masks", QNAV,
           "            keep, lfsr = drop_mask(net.w1.shape, drop_p, lfsr)",
           "            _keep, lfsr = drop_mask(net.w1.shape, drop_p, lfsr)",
           "run_policy(stochastic=True) must apply the masks it draws"),
    Mutant("qnetwork-writable", QNAV,
           "        self.w1.setflags(write=False)\n",
           "",
           "a network is immutable: a write into a layer would change what it computes"),
    Mutant("swarm-config-unfrozen", SWARM,
           "@dataclass(frozen=True)\nclass SwarmConfig:",
           "@dataclass\nclass SwarmConfig:",
           "a config changed after construction skips its validation"),
    Mutant("nfe-writable", SWARM,
           "RECIP_BREAKS.flags.writeable = RECIP_VALUES.flags.writeable = False",
           "RECIP_BREAKS.flags.writeable = RECIP_VALUES.flags.writeable = True",
           "the 1/d table is shared by every run, so a write would leak into later runs"),
    Mutant("predprey-score-budget", SWARM,
           "score = float(steps)",
           "score = float(budget)",
           "a predprey run scores the steps to the catch; only unsuccessful runs use "
           "the whole budget"),
    Mutant("step-table-swapped", SWARM,
           '"path": _step_path, "formation": _step_formation,',
           '"path": _step_formation, "formation": _step_path,',
           "each workload steps through its own function in the step table"),
    Mutant("lfsr-int-check", STOCHSYN,
           '            check_int(self.state, "LFSR state")\n',
           "            pass\n",
           "a float or bool LFSR state constructs and fails only inside numpy at the "
           "first draw"),
    Mutant("train-advance-block", QNAV,
           "            slot = (slot + used) % LFSR_PERIOD\n",
           "            slot = (slot + block) % LFSR_PERIOD\n",
           "a training step moves its stream cursor past the words it used, not past "
           "its whole block"),
    Mutant("train-cursor-wrap", QNAV,
           "            slot = (slot + used) % LFSR_PERIOD\n",
           "            slot = (slot + used) % (2 * LFSR_PERIOD)\n",
           "the stream cursor is a slot of one period; past the period's end the words "
           "it reads are still right (the gather wraps them), but the cursor is not the "
           "LFSR's position, and every later block is a gather"),
    Mutant("train-collided-ignored", QNAV,
           "            if collided[pose, action]:",
           "            if False and collided[pose, action]:",
           "a refused move earns the collision penalty from the pose table's flag"),
    Mutant("train-update-mask-reused", QNAV,
           "keep = step_keeps[used:used + mask_words].reshape(shape)",
           "keep = step_keeps[:mask_words].reshape(shape)",
           "the update mask reads its own words' keep flags, after the replay sample's"),
    Mutant("forward-safe-fan-in", QNAV,
           "_SAFE_FAN_IN = mm.ACC_MAX // (DEPTH_MAX * DEPTH_MAX)",
           "_SAFE_FAN_IN = 2 * mm.ACC_MAX // (DEPTH_MAX * DEPTH_MAX)",
           "the forward skips its output-layer accumulator check only for hidden layers "
           "too narrow to overflow"),
    Mutant("qnetwork-finite", QNAV,
           "    if not np.isfinite(a).all():",
           "    if False:",
           "a NaN weight constructed and failed only in the first forward pass, naming "
           "neither layer; it would quantize past DEPTH_MAX"),
    Mutant("train-step-empty-batch", QNAV,
           "    if n == 0:\n",
           "    if False:\n",
           "train_step on an empty batch divided by zero, naming nothing"),
    Mutant("train-step-action-range", QNAV,
           "    if not _ACTIONS.issuperset(actions.tolist()):",
           "    if False and not _ACTIONS.issuperset(actions.tolist()):",
           "train_step took action -1 as the last action's row, and failed on 4 with "
           "IndexError"),
    Mutant("train-step-rewards-finite", QNAV,
           '("rewards", rewards), ("next_states", xn)):',
           '("next_states", xn)):',
           "train_step with a NaN reward made NaN weights, and the error named w1"),
    Mutant("train-step-states-finite", QNAV,
           '(("states", xs), ("rewards", rewards), ("next_states", xn)):',
           '(("rewards", rewards), ("next_states", xn)):',
           "train_step with a NaN state made NaN weights, and the error named w1"),
    Mutant("train-step-batch-types", QNAV,
           "        mm.check_type(value, name, np.ndarray)\n",
           "        pass\n",
           "a list in a train_step batch failed on its first attribute access with "
           "AttributeError, naming nothing"),
    Mutant("train-step-actions-1d", QNAV,
           "    if actions.ndim != 1:",
           "    if False:",
           "train_step with 2-D actions failed in the range check with TypeError: "
           "unhashable type: 'list'"),
    Mutant("train-step-batch-shapes", QNAV,
           "        if value.shape != shape:",
           "        if False:",
           "a batch whose arrays disagree with its actions in length, or states that "
           "are not 3 wide, failed inside numpy, naming no field"),
    Mutant("train-step-terminal-bool", QNAV,
           '    if terminal.dtype.kind != "b":',
           "    if False:",
           "train_step took terminal flags of 0.5 or NaN by truthiness, as terminal"),
    Mutant("qnetwork-real-dtype", QNAV,
           '    if a.dtype.kind not in "iuf":',
           "    if False:",
           "an object w1 constructed and failed inside np.isfinite, naming nothing"),
    Mutant("qnetwork-bool-dtype", QNAV,
           '    if a.dtype.kind not in "iuf":',
           '    if a.dtype.kind not in "biuf":',
           "a bool w1 ran as 0/1 weights"),
    Mutant("train-best-net-alias", QNAV,
           "                best_w = w.copy()\n",
           "                best_w = w\n",
           "trace.net at the strongest window is a snapshot; the loop keeps updating "
           "its weight buffer in place"),
    Mutant("train-stale-quant", QNAV,
           "                update(batch, keep)\n"
           "                _quantize(w, q, m)\n",
           "                update(batch, keep)\n",
           "the forward reads the integer buffers, so every update must re-quantize them"),
    Mutant("qnetwork-horizon", QNAV,
           'mm.check_int(self.horizon, "horizon", 2)',
           'mm.check_int(self.horizon, "horizon", 1)',
           "at a horizon of 1 every proximity reads 0, since a depth is at least 1"),
    Mutant("train-config-real-bool", QNAV,
           "            mm.check_real(getattr(self, name), name, interval)\n",
           "            mm.check_real(float(getattr(self, name)), name, interval)\n",
           "TrainConfig(alpha=True) kept True, which passes every range check as 1"),
    Mutant("train-config-bool", QNAV,
           '        mm.check_type(self.stochastic, "stochastic", (bool, np.bool_))\n',
           "",
           "TrainConfig(stochastic=2) would size a step's LFSR block from a non-bool"),
    Mutant("run-policy-steps", QNAV,
           '    mm.check_int(steps, "steps", 0)\n',
           "",
           "run_policy(steps=-1) silently covered the start cell only"),
    Mutant("swarm-seed-range", SWARM,
           '        if self.workload in ("predprey", "explore"):\n',
           '        if self.workload in ("predprey",):\n',
           "an explore seed outside the LFSR's range failed only at run time"),
    Mutant("swarm-grid-cells", SWARM,
           "and self.grid_size ** 2 < self.n_agents:",
           "and False:",
           "explore at n=20 and extent 3 ran 16 agents on a 4x4 grid and reported 20"),
    Mutant("swarm-grid-cells-full", SWARM,
           "self.grid_size ** 2 < self.n_agents:",
           "self.grid_size ** 2 <= self.n_agents:",
           "a grid with exactly one cell per agent, the prey included, is enough"),
    Mutant("run-workload-budget", SWARM,
           'else mm.check_int(budget, "budget", 0)',
           "else budget",
           "a budget of -1, 2.5 or True ran 0, 3 or 1 steps"),
    Mutant("hdms-split-threshold", MACMODEL,
           'elif model == "hdms" and bits > TDMS_KERNEL_BITS:',
           'elif model == "hdms" and bits >= TDMS_KERNEL_BITS:',
           "a 5-bit HD-MS MAC runs in one pass on the kernel; the cycle count agrees, "
           "so only its kernel passes tell the split apart"),
    Mutant("hdms-kernel-passes", MACMODEL,
           "cycles, passes = _chunk_cycles(x.magnitude, w.magnitude), 4",
           "cycles, passes = _chunk_cycles(x.magnitude, w.magnitude), 1",
           "an HD-MS MAC above 5 bits runs its four chunk partial products in 4 passes"),
    Mutant("chunk-high-shift", MACMODEL,
           "(x_mag >> TDMS_KERNEL_BITS)",
           "(x_mag >> (TDMS_KERNEL_BITS - 1))",
           "the high chunk starts above the 5-bit kernel's low chunk"),
    Mutant("mac-acc-int-check", MACMODEL,
           '    acc = check_int(acc, "accumulator")\n',
           "",
           "a float accumulator returned a float value, and True counted as 1"),
    Mutant("quantize-range-finite", MACMODEL,
           'check_real(value_range, "quantize range", "(0, inf)")',
           'check_real(value_range, "quantize range", "(0, inf]")',
           "an infinite range quantized every real to magnitude 0"),
    Mutant("dequantize-range-finite", MACMODEL,
           'check_real(value_range, "dequantize range", "(0, inf)")',
           'check_real(value_range, "dequantize range", "(0, inf]")',
           "an infinite range dequantized a magnitude to inf"),
    Mutant("swarm-config-finite", SWARM,
           'mm.check_real(getattr(self, name), name, "(0, inf)")',
           'mm.check_real(getattr(self, name), name, "(0, inf]")',
           "SwarmConfig(extent=inf) constructed, and make_scenario failed inside numpy"),
    Mutant("potential-finite", SWARM,
           'mm.check_real(getattr(self, f.name), f.name, "(0, inf)")',
           'mm.check_real(getattr(self, f.name), f.name, "(0, inf]")',
           "PotentialParams(k_att=inf) constructed, and failed only inside LpuMeter.mul"),
    Mutant("operand-sign-int", MACMODEL,
           'if check_int(self.sign, "sign") not in (1, -1):',
           "if self.sign not in (1, -1):",
           "a float or bool sign constructed, and mac returned a float value"),
    Mutant("dequantize-fits", MACMODEL,
           "    op.check_fits(bits)\n",
           "",
           "Operand(300) dequantized at 4 bits to 20 times the range"),
    Mutant("params-finite", MACMODEL,
           'if name.startswith("v_") else "[0, inf)")',
           'if name.startswith("v_") else "[0, inf]")',
           "EnergyParams(e_0=inf) constructed and priced every MAC at inf"),
    Mutant("qnetwork-w1-shape", QNAV,
           "        if self.w1.ndim != 2 or self.w1.shape[1] != len(RAY_OFFSETS):",
           "        if self.w1.ndim != 2:",
           "a (16, 2) first layer constructed and failed inside the forward's matmul"),
    Mutant("qnetwork-w2-shape", QNAV,
           "        if self.w2.shape != (N_ACTIONS, self.w1.shape[0]):",
           "        if self.w2.shape[0] != N_ACTIONS:",
           "an output layer must take one input per hidden unit"),
    Mutant("run-policy-eps", QNAV,
           '"exploration rate eps", "[0, 1]")',
           '"exploration rate eps", "[-inf, inf]")',
           "run_policy(eps=2.0, steps=0) returned 1 without checking eps"),
    Mutant("run-policy-drop-p", QNAV,
           '"drop probability drop_p", "[0, 1)")',
           '"drop probability drop_p", "[-inf, inf]")',
           "run_policy checked drop_p only when stochastic=True, inside drop_mask"),
    Mutant("arena-start-in-grid", QNAV,
           "        if not (0 <= self.start[0] < self.width"
           " and 0 <= self.start[1] < self.height):",
           "        if False:",
           "a 4x4 arena took (9, 9) as its start cell"),
    Mutant("arena-start-int", QNAV,
           '            mm.check_int(coord, "start")\n',
           "            pass\n",
           "Arena(4, 4, walls, (1.5, 1)) constructed, and run_policy failed indexing a "
           "bytearray with a float"),
    Mutant("pose-tables-writable", QNAV,
           "    for table in tables:\n        table.flags.writeable = False\n    return tables",
           "    return tables",
           "every run shares the cached pose tables, so a write would leak into later runs"),
    Mutant("epsilon-greedy-boundary", STOCHSYN,
           "    if to_uniform(int(words[0])) < eps:",
           "    if to_uniform(int(words[0])) <= eps:",
           "a draw explores only below eps: at eps = 0 a word of 0 must take the greedy pick"),
    Mutant("run-policy-eps-bool", QNAV,
           'mm.check_real(eps, "exploration rate eps"',
           'mm.check_real(float(eps), "exploration rate eps"',
           "run_policy(eps=True) ran as eps = 1.0"),
    Mutant("run-policy-drop-p-bool", QNAV,
           'mm.check_real(drop_p, "drop probability drop_p"',
           'mm.check_real(float(drop_p), "drop probability drop_p"',
           "run_policy(drop_p=False) ran as drop_p = 0.0"),
    Mutant("run-policy-stochastic-bool", QNAV,
           '    mm.check_type(stochastic, "stochastic", (bool, np.bool_))\n',
           "",
           "run_policy(stochastic=2) or (stochastic=\"yes\") ran with the masks on"),
    Mutant("keep-mask-p-range", STOCHSYN,
           "    if not 0 <= p < 1:\n",
           "    if False:\n",
           "keep_table at p = NaN or 2.0 dropped every synapse"),
    Mutant("keep-table-threshold", STOCHSYN,
           "keep = stream_table() >= p * _WORD_SCALE",
           "keep = stream_table() > p * _WORD_SCALE",
           "a sample is dropped only below p: one of exactly p * 2^16 draws p and is kept"),
    Mutant("stream-block-wrap", STOCHSYN,
           "    return table[(slot + np.arange(count)) % LFSR_PERIOD]",
           "    return table[(slot + np.arange(count)) % len(table)]",
           "a block past the padded table's end wraps to the start of the period"),
    Mutant("lpu-a-range-bool", SWARM,
           'mm.check_real(a_range, "LPU range", "(0, inf)")',
           'mm.check_real(float(a_range), "LPU range", "(0, inf)")',
           "LpuMeter.mul took a True range as 1.0"),
    Mutant("lpu-b-range-bool", SWARM,
           'mm.check_real(b_range, "LPU range", "(0, inf)")',
           'mm.check_real(float(b_range), "LPU range", "(0, inf)")',
           "LpuMeter.mul took a True range as 1.0"),
    Mutant("lpu-operand-bool", SWARM,
           '        if a.dtype.kind not in "iuf" or b.dtype.kind not in "iuf":',
           "        if False:",
           "LpuMeter.mul(True, 0.5, 1.0, 1.0) multiplied True as 1.0"),
    Mutant("meter-digital-layer-rule", MACMODEL,
           "return np.full(n, w_rows[0].size * self._per_mac)",
           "return np.add.reduce(self._table[x_rows[:, None], w_rows].reshape(n, -1), axis=1)",
           "a digital layer is priced n * e; the summed gather of the constant table "
           "differs by up to 1.6e-16 (the digital training golden)"),
    Mutant("meter-charge-pairwise", MACMODEL,
           "self.energy_pj = float(np.add.accumulate(np.concatenate(([self.energy_pj], "
           "call_pj)))[-1])",
           "self.energy_pj = float(np.concatenate(([self.energy_pj], call_pj)).sum())",
           "charge sums per-call energies left to right, as calls charged one by one "
           "would; ndarray.sum is pairwise"),
    Mutant("energy-table-params-type", MACMODEL,
           'check_type(params, "params", EnergyParams))',
           "params)",
           "a params of another type failed inside the energy formulas with AttributeError"),
    Mutant("check-real-open-low", MACMODEL,
           '(lo <= value if interval[0] == "[" else lo < value)',
           "(lo <= value)",
           'an open low end, as in "(0, 1]", rejects the end itself: TrainConfig(alpha=0.0)'),
    Mutant("check-real-open-high", MACMODEL,
           '(value <= hi if interval[-1] == "]" else value < hi)',
           "(value <= hi)",
           'an open high end, as in "[0, 1)", rejects the end itself: TrainConfig(gamma=1.0)'),
    Mutant("check-real-bool", MACMODEL,
           "if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):",
           "if not isinstance(value, numbers.Real):",
           "a bool is a numbers.Real, so True would pass every range check as 1"),
    Mutant("check-real-non-number", MACMODEL,
           "if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):",
           "if isinstance(value, (bool, np.bool_)):",
           "a str failed comparing itself with a float, naming no field"),
    Mutant("check-int-low", MACMODEL,
           "(lo is not None and value < lo)",
           "(lo is not None and value < lo - 1)",
           "the low bound of check_int is inclusive: run_workload(budget=-1) ran 0 steps"),
    Mutant("check-int-high", MACMODEL,
           "(hi is not None and value > hi)",
           "(hi is not None and value > hi + 1)",
           "the high bound of check_int is inclusive: SwarmConfig(n_agents=21) has no bit width"),
    Mutant("energy-table-cache-first", MACMODEL,
           "\n\ndef energy_table(bits",
           "\n\n@lru_cache(maxsize=32)\ndef energy_table(bits",
           "an unhashable params failed inside the cache with \"unhashable type\", "
           "naming no field"),
    Mutant("swarm-config-potential-type", SWARM,
           '        mm.check_type(self.potential, "potential", PotentialParams)\n',
           "",
           "make_scenario(\"path\", 2, potential={}) constructed, and run_workload raised "
           "AttributeError"),
    Mutant("calibrate-float-first", MACMODEL,
           'float(check_real(r, "anchor ratio", "(0, inf)"))',
           'check_real(float(r), "anchor ratio", "(0, inf)")',
           "calibrate_energy called float() first, so a True ratio ran as 1.0"),
    Mutant("parse-field-names", MACMODEL,
           "    except ValueError:\n        raise ValueError(f\"cannot read",
           "    except KeyError:\n        raise ValueError(f\"cannot read",
           "a file value that does not parse raised int()'s or float()'s error, naming "
           "no field"),
    Mutant("scenario-points-per-agent", SWARM,
           "        if name in arrays and len(arrays[name]) != config.n_agents:",
           "        if False:",
           "a scenario file with fewer slots than agents loaded and failed broadcasting "
           "inside the run"),
    Mutant("arena-size-three", QNAV,
           'mm.check_int(self.width, "width", 3)',
           'mm.check_int(self.width, "width")',
           "a 2-wide arena raised an error naming a boundary cell, not the width"),
    Mutant("scratchpad-capacity-int", QNAV,
           'self.capacity = mm.check_int(capacity, "capacity", 1)',
           "self.capacity = capacity",
           "Scratchpad(True) and Scratchpad(2.5) failed inside numpy"),
    Mutant("lpu-operand-number", SWARM,
           '        if a.dtype.kind not in "iuf" or b.dtype.kind not in "iuf":',
           '        if a.dtype.kind == "b" or b.dtype.kind == "b":',
           "a str operand failed inside np.isfinite, naming no field"),
    Mutant("run-training-seed", QNAV,
           '    lfsr = Lfsr(mm.check_int(seed, "seed", 1, 0xFFFF))\n    net, lfsr = init_network',
           "    lfsr = Lfsr(seed)\n    net, lfsr = init_network",
           "run_training(arena, cfg, 0) raised an error naming the LFSR state, not the seed"),
    Mutant("run-policy-seed", QNAV,
           '    lfsr = Lfsr(mm.check_int(seed, "seed", 1, 0xFFFF))\n    operands, _, next_pose',
           "    lfsr = Lfsr(seed)\n    operands, _, next_pose",
           "run_policy(..., seed=2.0) raised an error naming the LFSR state, not the seed"),
    Mutant("calibrate-fit-overflow", MACMODEL,
           'with np.errstate(over="raise", invalid="raise"):',
           "with np.errstate():",
           "a tiny anchor ratio overflowed inside the fit, and at 5e-324 gave a NaN c_d2"),
    Mutant("run-training-arena-type", QNAV,
           '    mm.check_type(arena, "arena", Arena)\n    mm.check_type(cfg,',
           "    mm.check_type(cfg,",
           "run_training(\"x\", cfg, 1) raised AttributeError, naming nothing"),
    Mutant("run-training-cfg-type", QNAV,
           '    mm.check_type(cfg, "cfg", TrainConfig)\n',
           "",
           "run_training(arena, {}, 1) raised AttributeError, naming nothing"),
    Mutant("run-policy-arena-type", QNAV,
           '    mm.check_type(arena, "arena", Arena)\n    mm.check_type(net,',
           "    mm.check_type(net,",
           "run_policy(\"x\", net, 0.1, 3, 1) raised AttributeError, naming nothing"),
    Mutant("run-policy-net-type", QNAV,
           '    mm.check_type(net, "net", QNetwork)\n',
           "",
           "run_policy(arena, \"x\", 0.1, 3, 1) raised AttributeError, naming nothing"),
    Mutant("run-workload-scn-type", SWARM,
           'mm.check_type(scn, "scn", Scenario).config',
           "scn.config",
           "run_workload(\"x\") raised AttributeError, naming nothing"),
    Mutant("qnetwork-w1-type", QNAV,
           '        mm.check_type(self.w1, "w1", np.ndarray)\n',
           "",
           "QNetwork(w1=<list>, ...) raised AttributeError on .ndim, naming nothing"),
    Mutant("qnetwork-w2-type", QNAV,
           '        mm.check_type(self.w2, "w2", np.ndarray)\n',
           "",
           "QNetwork(w2=<list>, ...) raised AttributeError on .shape, naming nothing"),
    Mutant("activation-table-bound", QNAV,
           "_ACC1_MAX = len(RAY_OFFSETS) * DEPTH_MAX * DEPTH_MAX",
           "_ACC1_MAX = (len(RAY_OFFSETS) - 1) * DEPTH_MAX * DEPTH_MAX",
           "the activation table covers every accumulator a 3-input first layer can "
           "reach, up to 3 * 63 * 63"),
    Mutant("activation-table-offset", QNAV,
           "    acc[_ACC1_MAX + 1:] -= n\n",
           "    acc[_ACC1_MAX:] -= n\n",
           "index a of the activation table holds a's activation, and a negative a "
           "reads from the end: the largest accumulator is not the most negative one"),
    Mutant("rows-pj-across-rows", MACMODEL,
           "return np.add.reduce(self._table[x_rows[:, None], w_rows].reshape(n, -1), axis=1)",
           "return np.add.reduce(self._table[x_rows[:, None], w_rows].reshape(n, -1), axis=0)",
           "each row is one step's layer, so the sum runs along a row, not across rows"),
    Mutant("rows-pj-left-to-right", MACMODEL,
           "return np.add.reduce(self._table[x_rows[:, None], w_rows].reshape(n, -1), axis=1)",
           "return np.add.accumulate(self._table[x_rows[:, None], w_rows].reshape(n, -1), "
           "axis=1)[:, -1]",
           "a row's total must be its pairwise sum, as layer_pj sums it: a left-to-right "
           "sum differs in the last bits (a reduction along the other axis of the "
           "transposed rows is equivalent, since numpy iterates it in memory order)"),
    Mutant("train-pricing-last-row", QNAV,
           "        en_rows.append(price(k))\n        episode_coverage",
           "        en_rows.append(price(k - 1))\n        episode_coverage",
           "an episode prices every one of its steps, the last included"),
    Mutant("train-pricing-full-rows", QNAV,
           "                en_rows.append(price(k))\n",
           "",
           "steps recorded before the rows fill are priced before the rows are reused"),
    Mutant("train-step-actions-dtype", QNAV,
           '    if actions.dtype.kind not in "iu":',
           "    if False:",
           "train_step took a float or bool action past its range check, then failed "
           "inside numpy with IndexError"),
    Mutant("run-policy-checks", QNAV,
           "    mm.Meter(DEPTH_BITS, model, params)  # checks model and params; the run prices nothing\n",
           "",
           "run_policy prices nothing, but must still reject an unknown MAC model or "
           "params that are not EnergyParams"),
    Mutant("update-delta-not-zeroed", QNAV,
           "        d_w2.fill(0.0)\n",
           "",
           "a bound update reuses its delta buffer, so each update must start the "
           "output-layer delta from zero, not from the last batch's rows"),
    Mutant("collision-self-distance", SWARM,
           "np.fill_diagonal(d, np.inf)",
           "np.fill_diagonal(d, 1e9)",
           "equivalent: any self-distance above the collision radius never collides",
           equivalent=True),
)


def _check_unique(root: Path, mutants) -> None:
    for m in mutants:
        count = (root / m.path).read_text().count(m.old)
        if count != 1:
            raise SystemExit(f"{m.name}: old text occurs {count} times in {m.path}, expected 1")


def _copy(dest: Path) -> Path:
    dest.mkdir()
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        else:
            shutil.copy2(src, dest / name)
    return dest


def _run_tests(root: Path, nodes=()) -> tuple[int, str | None]:
    """Run ``pytest -x`` on ``nodes``, or on the whole suite when there are
    none; returns pytest's exit status and the first node it reports failed."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    # the copy has no tools/, and a mutated copy lacks its own old text, so
    # the check that this list applies runs on the working tree only
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "--ignore", "tests/test_mutants.py", *nodes],
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    # short summary lines read "FAILED <node> - <message>" or "ERROR <node> - ..."
    for line in proc.stdout.splitlines():
        word, _, rest = line.partition(" ")
        if word in ("FAILED", "ERROR"):
            return proc.returncode, rest.split(" - ", 1)[0]
    return proc.returncode, None


def _read_kills() -> dict:
    return json.loads(KILLS.read_text()) if KILLS.exists() else {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--list", action="store_true", help="list the mutants and exit")
    args = parser.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in by_name]
    if unknown:
        parser.error(f"unknown mutants {unknown}; expected some of {sorted(by_name)}")
    chosen = [by_name[n] for n in args.names] or list(MUTANTS)
    if args.list:
        for m in chosen:
            print(f"{m.name:28} {m.path}: {m.reason}")
        return 0
    _check_unique(ROOT, chosen)
    recorded = _read_kills()
    kills = {m.name: recorded[m.name] for m in chosen if m.name in recorded}

    survivors = []
    killers = {}
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        base = _copy(Path(tmp) / "base")
        if _run_tests(base)[0] != 0:
            raise SystemExit("the suite fails on the unmutated copy")
        if kills and _run_tests(base, sorted(set(kills.values())))[0] != 0:
            print("the kill map's nodes fail or are missing on the unmutated copy; "
                  "every mutant runs the whole suite", flush=True)
            kills = {}
        for m in chosen:
            work = _copy(Path(tmp) / m.name)
            path = work / m.path
            path.write_text(path.read_text().replace(m.old, m.new))
            t0 = time.perf_counter()
            status, killer = _run_tests(work, [kills[m.name]]) if m.name in kills else (0, None)
            if status == 0 or status in NOT_RUN:
                status, killer = _run_tests(work)
            shutil.rmtree(work)
            if status != 0:
                verdict = "killed"
                if killer is not None:
                    killers[m.name] = killer
            elif m.equivalent:
                verdict = "survived (equivalent)"
            else:
                verdict = "SURVIVED"
                survivors.append(m.name)
            print(f"{verdict:22} {m.name:28} {time.perf_counter() - t0:5.1f} s  "
                  f"{killer if status != 0 else m.reason}", flush=True)
    # the chosen mutants' entries are this run's killers; the others stay
    ran = {m.name for m in chosen}
    updated = {name: node for name, node in recorded.items()
               if name in by_name and name not in ran} | killers
    if updated != recorded:
        KILLS.write_text(json.dumps(updated, indent=1, sort_keys=True) + "\n")
    print(f"{len(chosen)} mutants in {time.perf_counter() - start:.0f} s")
    if survivors:
        print(f"{len(survivors)} non-equivalent mutant(s) survived: {', '.join(survivors)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
