import numpy as np
import pytest

from wpconv import model as M
from wpconv import presets as P
from wpconv.errors import ConfigError


@pytest.mark.parametrize("name", P.PRESETS)
def test_preset_row(name):
    """Each row builds its model at the default p, which lies in the row's
    interval; its case is cor_a exactly when the default source is compact;
    and its comparison model, where it has one, is the lattice's density
    twin: the power-tail density of the lattice's p under the same well."""
    row = P._PRESETS[name]
    lo, hi = row.p_range
    assert lo < row.p < hi and P.validate_preset(name) == row.p
    model = P.make_model(name)
    assert model.name == name
    assert (row.case == "cor_a") == bool(np.isfinite(model.source.support_radius))
    assert P.default_drift_config(name).case == row.case
    comparison = P.comparison_model(name)
    lattice = row.source(row.p, 1.0)["kind"] == "integer_lattice"
    assert (comparison is not None) == (lattice and row.twin is not None)
    if comparison is not None:
        twin = M.power_tail_density(row.p)
        z = np.linspace(-40.0, 40.0, 81)
        assert comparison.source.name == twin.name
        assert comparison.source.density(z).tobytes() == twin.density(z).tobytes()
        assert comparison.potential.v0(np.abs(z)).tobytes() == \
            model.potential.v0(np.abs(z)).tobytes()
    for p in (lo, hi):
        if np.isfinite(p):
            with pytest.raises(ConfigError, match=f"p: {name} requires"):
                P.make_model(name, p=p)
    if row.d1:
        with pytest.raises(ConfigError, match=f"d: {name} is defined for d = 1"):
            P.validate_preset(name, d=2)
