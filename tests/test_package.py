import ast
import inspect

import swinfer


def test_all_lists_every_name_bound_from_a_submodule():
    """``from swinfer import *`` gives every public name that the package
    imports from its modules, and every name it lists exists."""
    tree = ast.parse(inspect.getsource(swinfer))
    bound = {alias.asname or alias.name
             for node in tree.body
             if isinstance(node, ast.ImportFrom) and node.level == 1
             for alias in node.names}
    public = {name for name in bound if not name.startswith("_")}
    assert public - set(swinfer.__all__) == set()
    assert len(set(swinfer.__all__)) == len(swinfer.__all__)
    for name in swinfer.__all__:
        assert hasattr(swinfer, name), name


def test_public_surface_is_pinned():
    """The exported names, and no trace of the checking code that only the
    tests need: the dual oracles, the one-sample potential variance and a
    second SampleMatrix constructor live in the tests or nowhere."""
    assert swinfer.__all__ == [
        "CellResult", "DegenerateVarianceError", "DirectionSet", "GaussianSpec",
        "InferenceReport", "JAlphaResult", "SampleMatrix", "SimulationPlan",
        "SimulationResult", "SlicedEstimate", "SortedProjection",
        "VarianceComponents", "analyze", "combined_variance",
        "confidence_interval", "effective_rate", "gaussian_quantile_density",
        "gaussian_sw2_meanshift", "j_alpha", "potential_values", "run_plan",
        "sample_directions", "sample_gaussian", "sliced_estimate",
        "sort_projection", "test_statistic", "two_sided_pvalue",
        "uniform_quantile_density", "w_hat_sq", "wasserstein_pp",
    ]
    for module in (swinfer, swinfer.ot1d, swinfer.estimators, swinfer.geometry):
        for name in ("c_conjugate", "duality_gap", "v_hat_sq", "as_sample_matrix"):
            assert not hasattr(module, name), (module.__name__, name)
