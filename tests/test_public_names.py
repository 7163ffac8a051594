"""The package's public names."""

import lanempc
from lanempc import _core_py, mpc


def test_public_names_resolve_once_and_the_cost_has_one_route():
    names = lanempc.__all__
    assert sorted(set(names)) == sorted(names), "a name listed twice"
    assert [n for n in names if not hasattr(lanempc, n)] == []
    # A control sequence reaches the cost only through the kernels the
    # solver runs (mpc.horizon_objective); the predict-then-score route is
    # gone.
    for module, gone in ((lanempc, ("PredictedTrajectory", "predict",
                                    "cost")),
                         (mpc, ("PredictedTrajectory", "predict", "cost")),
                         (_core_py, ("predict_steps", "trajectory_cost",
                                     "_chain", "_cost_partials"))):
        assert [n for n in gone if hasattr(module, n)] == [], module.__name__
