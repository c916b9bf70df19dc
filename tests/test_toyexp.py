"""The toy experiment's matched-budget controls: same inputs as `run_trial`, same budget as the guided plan."""

import toyexp


def test_controls_keep_the_guided_budget(tmp_path):
    (tmp_path / "trial").mkdir()
    (tmp_path / "controls").mkdir()
    trial = toyexp.run_trial(0, tmp_path / "trial")
    controls = toyexp.run_controls(0, tmp_path / "controls")
    # The same models and calibration set: run_trial's plans and losses come out again.
    assert controls.plans["guided"] == [trial.plan_a, trial.plan_b]
    assert (controls.losses["guided"], controls.losses["uniform"]) == (trial.guided_loss, trial.uniform_loss)
    for guided, matched, reverse in zip(*(controls.plans[arm] for arm in ("guided", "matched", "reversed"))):
        assert abs(toyexp.parameter_budget(matched) - toyexp.parameter_budget(guided)) <= 1e-12
        assert sorted(reverse.densities.values()) == sorted(guided.densities.values())
        densest = max(guided.densities, key=guided.densities.get)
        assert reverse.densities[densest] == min(guided.densities.values())
