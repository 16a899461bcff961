"""Topology geometry: link budgets, coverage footprints, site ranking."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.topology import (
    BLUETOOTH_LINK_BUDGET,
    WLAN_LINK_BUDGET,
    AccessPointSite,
    LinkBudget,
    Topology,
    grid_deployment,
    linear_deployment,
)
from repro.phy.channel import (
    FreeSpacePathLoss,
    LogDistancePathLoss,
    LogNormalShadowing,
)


class TestLinkBudget:
    def test_quality_ramp_endpoints(self):
        budget = LinkBudget(tx_power_dbm=15.0)
        # SNR = tx - loss + 95; floor 5 dB -> loss 105, ceiling 25 -> loss 85.
        assert budget.quality(105.0) == 0.0
        assert budget.quality(120.0) == 0.0
        assert budget.quality(85.0) == 1.0
        assert budget.quality(40.0) == 1.0

    def test_quality_linear_between(self):
        budget = LinkBudget(tx_power_dbm=15.0)
        assert budget.quality(95.0) == pytest.approx(0.5)

    def test_ceiling_must_exceed_floor(self):
        with pytest.raises(ValueError):
            LinkBudget(tx_power_dbm=10.0, snr_floor_db=10.0, snr_ceiling_db=10.0)


class TestAccessPointSite:
    def test_quality_decreases_with_distance(self):
        site = AccessPointSite("ap", (0.0, 0.0))
        near = site.quality("wlan", (5.0, 0.0))
        far = site.quality("wlan", (50.0, 0.0))
        assert near > far

    def test_unknown_radio_kind_is_zero(self):
        site = AccessPointSite("ap", (0.0, 0.0))
        assert site.quality("gprs", (1.0, 0.0)) == 0.0

    def test_bluetooth_dies_before_wlan(self):
        # The paper's budget gap, per cell: the BT footprint is smaller.
        site = AccessPointSite("ap", (0.0, 0.0))
        bt = site.coverage_radius_m("bluetooth", min_quality=0.05)
        wlan = site.coverage_radius_m("wlan", min_quality=0.05)
        assert bt < wlan

    def test_coverage_radius_brackets_the_quality_threshold(self):
        site = AccessPointSite("ap", (0.0, 0.0))
        radius = site.coverage_radius_m("wlan", min_quality=0.5)
        assert site.quality("wlan", (radius - 0.1, 0.0)) >= 0.5
        assert site.quality("wlan", (radius + 0.1, 0.0)) < 0.5

    def test_cell_quality_is_best_radio(self):
        site = AccessPointSite("ap", (0.0, 0.0))
        xy = (30.0, 0.0)  # outside BT range, inside WLAN
        assert site.cell_quality(xy) == site.quality("wlan", xy)

    def test_validation(self):
        with pytest.raises(ValueError):
            AccessPointSite("", (0.0, 0.0))
        with pytest.raises(ValueError):
            AccessPointSite("ap", (0.0, 0.0), radios={})


class TestTopology:
    def test_duplicate_site_rejected(self):
        topo = Topology([AccessPointSite("ap0", (0.0, 0.0))])
        with pytest.raises(ValueError):
            topo.add_site(AccessPointSite("ap0", (1.0, 0.0)))

    def test_unknown_site_lists_known(self):
        topo = linear_deployment(2)
        with pytest.raises(KeyError, match="ap0"):
            topo.site("nope")

    def test_ranked_sites_orders_by_quality(self):
        topo = linear_deployment(3, spacing_m=50.0)
        ranked = topo.ranked_sites((25.0, 0.0))  # on top of ap0
        assert [site.name for site, _ in ranked] == ["ap0", "ap1", "ap2"]

    def test_equal_quality_breaks_ties_on_name(self):
        topo = linear_deployment(2, spacing_m=50.0)
        midpoint = (50.0, 0.0)
        ranked = topo.ranked_sites(midpoint)
        assert ranked[0][1] == pytest.approx(ranked[1][1])
        assert [site.name for site, _ in ranked] == ["ap0", "ap1"]

    def test_best_site_honours_exclusion(self):
        topo = linear_deployment(2, spacing_m=50.0)
        best = topo.best_site((25.0, 0.0), exclude=("ap0",))
        assert best is not None and best[0].name == "ap1"
        assert topo.best_site((25.0, 0.0), exclude=("ap0", "ap1")) is None

    def test_best_site_rejects_a_bare_string_exclude(self):
        # A str would be read as a substring test: "ap1" in "ap10".
        topo = linear_deployment(12)
        ap1 = topo.site("ap1").xy
        with pytest.raises(TypeError, match="ap10"):
            topo.best_site(ap1, exclude="ap10")
        best = topo.best_site(ap1, exclude=("ap10",))
        assert best is not None and best[0].name == "ap1"

    def test_ranked_sites_lists_uncovered_sites_at_zero_by_name(self):
        topo = linear_deployment(12, spacing_m=50.0)
        ranked = topo.ranked_sites((25.0, 0.0))
        assert [site.name for site, q in ranked if q > 0.0] == ["ap0", "ap1"]
        assert [site.name for site, _ in ranked[2:]] == sorted(
            f"ap{i}" for i in range(2, 12)
        )
        assert all(q == 0.0 for _, q in ranked[2:])

    def test_best_site_far_from_everything_is_first_name_at_zero(self):
        topo = linear_deployment(12, spacing_m=50.0)
        assert [site.name for site in topo][:3] == ["ap0", "ap1", "ap2"]
        site, quality = topo.best_site((0.0, 5_000.0), exclude=("ap0",))
        assert (site.name, quality) == ("ap1", 0.0)

    def test_added_site_joins_later_queries(self):
        topo = linear_deployment(2, spacing_m=50.0)
        far = (1_000.0, 0.0)
        assert topo.best_site(far)[1] == 0.0
        topo.add_site(AccessPointSite("zz", far))
        assert topo.best_site(far)[0].name == "zz"
        assert topo.ranked_sites(far)[0][0].name == "zz"


def _brute_force_ranking(topo, xy):
    """Every site scored by its radios' full link budgets, no shortcuts."""
    scored = []
    for site in topo:
        loss = site.path_loss.loss_db(site.distance_to(xy))
        scored.append(
            (site, max(budget.quality(loss) for budget in site.radios.values()))
        )
    scored.sort(key=lambda pair: (-pair[1], pair[0].name))
    return scored


class _NoInverseLoss:
    """A deterministic user model without ``distance_at_loss_db``."""

    def loss_db(self, distance_m):
        return 38.0 + 28.0 * math.log10(max(distance_m, 1.0))


_budgets = st.builds(
    LinkBudget,
    tx_power_dbm=st.floats(-5.0, 25.0),
    snr_floor_db=st.floats(0.0, 10.0),
    snr_ceiling_db=st.floats(12.0, 30.0),
    noise_floor_dbm=st.floats(-100.0, -85.0),
)
_path_losses = st.one_of(
    st.builds(LogDistancePathLoss, exponent=st.floats(2.0, 4.5)),
    st.builds(FreeSpacePathLoss),
)


@st.composite
def _deployments(draw):
    radios = draw(
        st.dictionaries(st.sampled_from(["wlan", "bluetooth"]), _budgets, min_size=1)
    )
    spacing = draw(st.floats(5.0, 400.0))
    path_loss = draw(_path_losses)
    if draw(st.booleans()):
        topo = grid_deployment(
            draw(st.integers(1, 5)), draw(st.integers(1, 5)),
            spacing_m=spacing, radios=radios, path_loss=path_loss,
        )
    else:
        topo = linear_deployment(
            draw(st.integers(1, 14)), spacing_m=spacing, radios=radios,
            path_loss=path_loss,
        )
    if draw(st.booleans()):
        x = draw(st.floats(-100.0, 600.0))
        topo.add_site(AccessPointSite("custom", (x, x / 3.0), path_loss=_NoInverseLoss()))
    return topo


@st.composite
def _positions(draw, topo):
    bounded = [site for site in topo if site.reach_m < math.inf]
    bucket_m = max((site.reach_m for site in bounded), default=1.0)
    site = draw(st.sampled_from(topo.sites()))
    kind = draw(st.sampled_from(["free", "bucket-edge", "reach-edge", "on-site"]))
    if kind == "free":
        return (draw(st.floats(-3_000.0, 3_000.0)), draw(st.floats(-3_000.0, 3_000.0)))
    if kind == "bucket-edge":
        return (
            draw(st.integers(-6, 12)) * bucket_m,
            draw(st.sampled_from([site.xy[1], draw(st.integers(-6, 12)) * bucket_m])),
        )
    if kind == "reach-edge" and site.reach_m < math.inf:
        angle = draw(st.sampled_from([0.0, math.pi / 4, math.pi / 2, math.pi, 4.0]))
        scale = draw(st.sampled_from([1.0, 1.0 - 1e-7, 1.0 + 1e-12]))
        return (
            site.xy[0] + site.reach_m * scale * math.cos(angle),
            site.xy[1] + site.reach_m * scale * math.sin(angle),
        )
    return site.xy


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_indexed_queries_equal_a_full_scan(data):
    topo = data.draw(_deployments())
    names = topo.site_names()
    for _ in range(4):
        xy = data.draw(_positions(topo))
        expected = _brute_force_ranking(topo, xy)
        assert [(s.name, q) for s, q in topo.ranked_sites(xy)] == [
            (s.name, q) for s, q in expected
        ]
        exclude = data.draw(st.lists(st.sampled_from(names), unique=True))
        remaining = [(s.name, q) for s, q in expected if s.name not in exclude]
        best = topo.best_site(xy, exclude=tuple(exclude))
        got = (best[0].name, best[1]) if best is not None else None
        assert got == (remaining[0] if remaining else None)


@settings(max_examples=200, deadline=None)
@given(
    radios=st.dictionaries(
        st.sampled_from(["wlan", "bluetooth"]), _budgets, min_size=1
    ),
    path_loss=_path_losses,
    xy=st.tuples(st.floats(-1e4, 1e4), st.floats(-1e4, 1e4)),
    angle=st.floats(0.0, 2.0 * math.pi),
)
def test_every_radio_is_silent_from_reach_outwards(radios, path_loss, xy, angle):
    site = AccessPointSite("ap", xy, radios=radios, path_loss=path_loss)
    assert 0.0 < site.reach_m < math.inf
    for scale in (1.0, 1.5, 10.0):
        distance = site.reach_m * scale
        edge = (xy[0] + distance * math.cos(angle), xy[1] + distance * math.sin(angle))
        # site.quality bypasses the reach test cell_quality makes.
        assert all(site.quality(kind, edge) == 0.0 for kind in radios)
        assert site.cell_quality(edge) == 0.0


def test_default_site_reach_brackets_the_wlan_edge():
    site = AccessPointSite("ap", (0.0, 0.0))
    # WLAN: 15 dBm - (-95) - 5 dB floor = 105 dB at 10^((105-40.05)/35) m.
    assert site.reach_m == pytest.approx(71.7, abs=0.1)
    assert site.quality("wlan", (site.reach_m * (1.0 - 1e-5), 0.0)) > 0.0


def test_shadowed_site_is_unbounded_and_draws_once_per_query():
    rng = random.Random(7)
    twin = random.Random(7)
    shadowed = LogNormalShadowing(LogDistancePathLoss(exponent=3.5), 6.0, rng)
    site = AccessPointSite("ap", (0.0, 0.0), path_loss=shadowed)
    assert site.reach_m == math.inf
    for distance in (10.0, 500.0, 5_000.0):
        site.cell_quality((distance, 0.0))
        twin.gauss(0.0, 6.0)
        assert rng.getstate() == twin.getstate()


class TestLinearDeployment:
    def test_sites_centred_in_their_slots(self):
        topo = linear_deployment(4, spacing_m=50.0, y_m=10.0)
        assert [site.xy for site in topo] == [
            (25.0, 10.0), (75.0, 10.0), (125.0, 10.0), (175.0, 10.0),
        ]

    def test_default_budgets_match_module_constants(self):
        (site,) = linear_deployment(1).sites()
        assert site.radios["wlan"] == WLAN_LINK_BUDGET
        assert site.radios["bluetooth"] == BLUETOOTH_LINK_BUDGET

    def test_validation(self):
        with pytest.raises(ValueError):
            linear_deployment(0)
        with pytest.raises(ValueError):
            linear_deployment(2, spacing_m=0.0)


class TestGridDeployment:
    def test_sites_centred_on_a_square_lattice(self):
        topo = grid_deployment(2, 3, spacing_m=100.0)
        assert {site.name: site.xy for site in topo} == {
            "ap0-0": (50.0, 50.0),
            "ap0-1": (150.0, 50.0),
            "ap0-2": (250.0, 50.0),
            "ap1-0": (50.0, 150.0),
            "ap1-1": (150.0, 150.0),
            "ap1-2": (250.0, 150.0),
        }

    def test_row_col_names_are_deterministic_and_sortable(self):
        # Shard partitioning sorts cell names; the ``ap{r}-{c}`` scheme
        # must therefore be stable across calls and prefix-overridable.
        topo = grid_deployment(2, 2, name_prefix="cell")
        assert sorted(site.name for site in topo) == [
            "cell0-0", "cell0-1", "cell1-0", "cell1-1"
        ]

    def test_single_cell_grid_matches_linear_deployment_geometry(self):
        (grid_site,) = grid_deployment(1, 1, spacing_m=60.0).sites()
        (line_site,) = linear_deployment(1, spacing_m=60.0, y_m=30.0).sites()
        assert grid_site.xy == line_site.xy
        assert grid_site.radios["wlan"] == WLAN_LINK_BUDGET
        assert grid_site.radios["bluetooth"] == BLUETOOTH_LINK_BUDGET

    def test_validation(self):
        with pytest.raises(ValueError):
            grid_deployment(0, 3)
        with pytest.raises(ValueError):
            grid_deployment(3, 0)
        with pytest.raises(ValueError):
            grid_deployment(2, 2, spacing_m=-1.0)
