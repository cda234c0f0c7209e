"""Per-layer metrics computed from one traced repetition.

Busy time is the summed duration of a layer's spans; self time
subtracts the time covered by traced calls made inside them.  Counts
marked "count" repeat exactly between repetitions and runs of the same
seed.  Per-step ratios divide by the repetition's training steps and
read zero on a workload that does not train.
"""

from __future__ import annotations

ROWS = ("factored_mdp.interventional_transition", "factored_mdp.projected_transition")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


# name -> (unit, better, exact, value(summary, train_steps))
LAYER_METRICS = {
    "factored_mdp.rows_built": ("count", "lower", True, lambda t, n: sum(t.n(r) for r in ROWS)),
    "factored_mdp.row_s": ("s", "lower", False, lambda t, n: sum(t.busy_s(r) for r in ROWS)),
    "factored_mdp.row_unique_frac": (
        "frac", "higher", True, lambda t, n: _ratio(t.distinct("rows"), sum(t.n(r) for r in ROWS))),
    "factored_mdp.policy_evals": ("count", "lower", True, lambda t, n: t.n("factored_mdp._evaluate_rows")),
    "factored_mdp.policy_eval_s": ("s", "lower", False, lambda t, n: t.busy_s("factored_mdp._evaluate_rows")),
    "tabular.mbfpi_iterations": ("count", "lower", True, lambda t, n: t.counter("tabular.mbfpi_iterations")),
    "tabular.joint_pi_iterations": (
        "count", "lower", True, lambda t, n: t.counter("tabular.joint_pi_iterations")),
    "tabular.block_q_self_s": ("s", "lower", False, lambda t, n: t.self_s("tabular._block_q_tables")),
    "tabular.learn_model_s": ("s", "lower", False, lambda t, n: t.busy_s("tabular.learn_model")),
    "approx.greedy_calls": ("count", "lower", True, lambda t, n: t.n("approx.DecomposedQNet.greedy")),
    "approx.greedy_s": ("s", "lower", False, lambda t, n: t.busy_s("approx.DecomposedQNet.greedy")),
    "approx.trunk_forwards_per_greedy": (
        "count/call", "lower", True,
        lambda t, n: _ratio(
            t.nested("approx.DecomposedQNet.head_values", "approx.DecomposedQNet.greedy"),
            t.n("approx.DecomposedQNet.greedy"),
        )),
    "approx.mlp_forwards": ("count", "lower", True, lambda t, n: t.n("approx.Mlp.forward")),
    "approx.mlp_forward_s": ("s", "lower", False, lambda t, n: t.busy_s("approx.Mlp.forward")),
    "approx.mlp_backward_s": ("s", "lower", False, lambda t, n: t.busy_s("approx.Mlp.backward")),
    "approx.optimizer_steps": ("count", "lower", True, lambda t, n: t.n("approx.Optimizer.step")),
    "approx.optimizer_step_s": ("s", "lower", False, lambda t, n: t.busy_s("approx.Optimizer.step")),
    "approx.target_update_s": ("s", "lower", False, lambda t, n: t.busy_s("approx.target_update")),
    # computed from layer shapes, not measured: 2 * rows * in * out per dense
    # layer of every forward and every backward seen
    "approx.mlp_mflop_per_train_step": (
        "MFLOP/step", "lower", True, lambda t, n: _ratio(t.counter("approx.mlp_mflop"), n)),
    "agents.replay.records_per_train_step": (
        "count/step", "lower", True, lambda t, n: _ratio(t.n("agents.replay.TransitionRecord"), n)),
    "agents.replay.batch_arrays_s": ("s", "lower", False, lambda t, n: t.busy_s("agents.replay.batch_arrays")),
    "agents.models.augment_s": ("s", "lower", False, lambda t, n: t.busy_s("agents.models.augment_batch")),
    "agents.models.sampler_draw_s": (
        "s", "lower", False, lambda t, n: t.self_s("agents.models.sample_projected_next")),
    "agents.dqn.head_td_s": ("s", "lower", False, lambda t, n: t.busy_s("agents.dqn.head_td")),
    "agents.dqn.mixer_td_s": ("s", "lower", False, lambda t, n: t.busy_s("agents.dqn.mixer_td")),
    "agents.dqn.select_action_s": ("s", "lower", False, lambda t, n: t.busy_s("agents.dqn.select_action")),
    "agents.bcq.train_block_s": ("s", "lower", False, lambda t, n: t.busy_s("agents.bcq.train_block")),
    "agents.bcq.train_mixers_s": ("s", "lower", False, lambda t, n: t.busy_s("agents.bcq.train_mixers")),
    "agents.bcq.heads_forward_per_step": (
        "count/step", "lower", True, lambda t, n: _ratio(t.n("agents.bcq.heads_forward"), n)),
    "agents.bcq.extract_policy_s": ("s", "lower", False, lambda t, n: t.busy_s("agents.bcq.extract_policy")),
    "agents.bcq.fallbacks": ("count", "lower", True, lambda t, n: t.counter("agents.bcq.fallbacks")),
    "ope.wis_calls": ("count", "lower", True, lambda t, n: t.n("ope.wis_ess")),
    "ope.wis_s": ("s", "lower", False, lambda t, n: t.busy_s("ope.wis_ess")),
    "ope.clip_count": ("count", "lower", True, lambda t, n: t.counter("ope.clip_count")),
    "envs.env_step_s": ("s", "lower", False, lambda t, n: t.busy_s("envs.env_step")),
    "envs.dataset_s": ("s", "lower", False, lambda t, n: t.busy_s("envs.generate_offline_dataset")),
    "envs.spec_gen_s": (
        "s", "lower", False,
        lambda t, n: t.busy_s("envs.generate_synthetic") + t.busy_s("envs.treatment_spec")),
}

# Computed by the run itself from the traced and untraced wall times.
OVERHEAD = ("trace.overhead_frac", "frac", "lower")


def layer_metrics(summary, train_steps: int) -> dict[str, float]:
    return {name: float(spec[3](summary, train_steps)) for name, spec in LAYER_METRICS.items()}
