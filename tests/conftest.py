import math

import numpy as np
import pytest

from wpconv import model as M


@pytest.fixture(scope="session")
def gaussian_point():
    """Quadratic well, nu = delta_0: the convolution is mu itself."""
    return M.ConvolutionModel(M.quadratic_potential(), M.point_mass())


@pytest.fixture(scope="session")
def gaussian_pair():
    """Quadratic well, nu = (delta_-1 + delta_1)/2."""
    return M.ConvolutionModel(M.quadratic_potential(), M.symmetric_pair(1.0))


@pytest.fixture(scope="session")
def lattice_well():
    """Sub-linear smooth well with the integer-lattice source (p=1, q=1/2)."""
    return M.ConvolutionModel(M.smooth_well_potential(0.5), M.integer_lattice(1.0))


@pytest.fixture(scope="session")
def power_uniform():
    """|x|^0.6 potential with uniform(-1,1) source."""
    return M.ConvolutionModel(M.power_potential(0.6), M.uniform_density(1.0))


@pytest.fixture(scope="session")
def log_uniform():
    """(1+p) log(1+|x|) potential, p=2, with uniform(-1,1) source."""
    return M.ConvolutionModel(M.log_potential(2.0), M.uniform_density(1.0))


@pytest.fixture(scope="session")
def loglog_uniform():
    """log(1+|x|) + 2 loglog(e+|x|) potential with uniform(-1,1) source."""
    return M.ConvolutionModel(M.loglog_potential(2.0), M.uniform_density(1.0))


@pytest.fixture(scope="session")
def well_power_density():
    """Sub-linear smooth well with the continuous power-tail source (p=1)."""
    return M.ConvolutionModel(M.smooth_well_potential(0.5), M.power_tail_density(1.0))


# presets whose rate chains the mu-tail tests replay: (preset, p)
PRESET_RATE_RUNS = {
    "example_3_2_p0.7": ("example_3_2", 0.7),
    "example_3_3": ("example_3_3", None),
    "lemma_3_2": ("lemma_3_2", None),
    "example_3_4": ("example_3_4", None),
}


@pytest.fixture(scope="session")
def preset_rate_run():
    """rate_tables on a preset's default CLI r grid, run once per session:
    key -> (model, r_grid, result, the radii of its one mu-tail call)."""
    from wpconv import presets as P
    from wpconv import rates as R
    runs = {}

    def run(key):
        if key not in runs:
            name, p = PRESET_RATE_RUNS[key]
            model = P.make_model(name, p=p)
            hints = P.rate_grid_hints(name)
            decades = math.log10(hints["r_max"] / hints["r_min"])
            r_grid = np.geomspace(hints["r_min"], hints["r_max"], int(200 * decades) + 1)
            radii = []
            tail = M.measure_tail

            def recording(model, which, t):
                if which == "mu":
                    radii.append(np.array(t, dtype=float))
                return tail(model, which, t)

            M.measure_tail = recording
            try:
                result = R.rate_tables(model, P.default_drift_config(name), r_grid=r_grid)
            finally:
                M.measure_tail = tail
            assert len(radii) == 1
            runs[key] = (model, r_grid, result, radii[0])
        return runs[key]
    return run
