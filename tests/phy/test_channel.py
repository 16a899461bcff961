"""Tests for propagation, BER/PER and the Gilbert–Elliott channel."""

import math
import random

import pytest

from repro.phy import (
    FreeSpacePathLoss,
    GilbertElliottChannel,
    LogDistancePathLoss,
    LogNormalShadowing,
    Modulation,
    ScriptedLinkQuality,
    ber,
    packet_error_rate,
    snr_db_from_link_budget,
)
from repro.phy.channel import db_to_linear, effective_bitrate_bps, linear_to_db


class TestPathLoss:
    def test_free_space_increases_with_distance(self):
        model = FreeSpacePathLoss()
        assert model.loss_db(10.0) > model.loss_db(1.0)

    def test_free_space_inverse_square_slope(self):
        model = FreeSpacePathLoss()
        # 20 dB per decade of distance.
        assert model.loss_db(100.0) - model.loss_db(10.0) == pytest.approx(20.0)

    def test_free_space_known_value_at_2_4ghz(self):
        # Friis at 1 m, 2.4 GHz: ~40 dB.
        assert FreeSpacePathLoss(2.4e9).loss_db(1.0) == pytest.approx(40.05, abs=0.1)

    def test_log_distance_slope_follows_exponent(self):
        model = LogDistancePathLoss(exponent=3.5)
        assert model.loss_db(100.0) - model.loss_db(10.0) == pytest.approx(35.0)

    def test_log_distance_matches_free_space_at_reference(self):
        free = FreeSpacePathLoss()
        model = LogDistancePathLoss(exponent=3.0, reference_distance_m=1.0)
        assert model.loss_db(1.0) == pytest.approx(free.loss_db(1.0))

    def test_log_distance_clamps_below_reference(self):
        model = LogDistancePathLoss(exponent=3.0, reference_distance_m=1.0)
        assert model.loss_db(0.1) == model.loss_db(1.0)

    @pytest.mark.parametrize(
        "model",
        [
            FreeSpacePathLoss(),
            FreeSpacePathLoss(5.0e9),
            LogDistancePathLoss(exponent=3.5),
            LogDistancePathLoss(exponent=2.2, reference_distance_m=4.0),
        ],
    )
    def test_distance_at_loss_inverts_loss(self, model):
        for distance in (0.5, 3.0, 25.0, 71.7, 400.0, 9_000.0):
            if distance < getattr(model, "reference_distance_m", 0.01):
                continue
            loss = model.loss_db(distance)
            assert model.distance_at_loss_db(loss) == pytest.approx(distance, rel=1e-12)

    def test_distance_at_loss_clamps_like_loss(self):
        free = FreeSpacePathLoss()
        assert free.distance_at_loss_db(-500.0) == 0.01
        log = LogDistancePathLoss(exponent=3.0, reference_distance_m=2.0)
        assert log.distance_at_loss_db(log.loss_db(0.5) - 10.0) == 2.0

    def test_distance_at_an_unreachable_loss_is_infinite(self):
        assert FreeSpacePathLoss().distance_at_loss_db(1e5) == math.inf
        assert LogDistancePathLoss(exponent=0.01).distance_at_loss_db(1e3) == math.inf

    def test_shadowing_has_no_inverse(self):
        shadowed = LogNormalShadowing(FreeSpacePathLoss(), 4.0, random.Random(0))
        assert not hasattr(shadowed, "distance_at_loss_db")

    def test_shadowing_is_zero_mean(self):
        base = LogDistancePathLoss(exponent=3.0)
        shadowed = LogNormalShadowing(base, sigma_db=6.0, rng=random.Random(1))
        samples = [shadowed.loss_db(50.0) - base.loss_db(50.0) for _ in range(4000)]
        assert sum(samples) / len(samples) == pytest.approx(0.0, abs=0.3)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            FreeSpacePathLoss(frequency_hz=0.0)
        with pytest.raises(ValueError):
            LogDistancePathLoss(exponent=0.0)
        with pytest.raises(ValueError):
            LogNormalShadowing(FreeSpacePathLoss(), -1.0, random.Random())


class TestBer:
    def test_ber_decreases_with_snr(self):
        for modulation in Modulation:
            low = ber(modulation, 1.0)
            high = ber(modulation, 20.0)
            assert high < low, modulation

    def test_ber_bounded(self):
        for modulation in Modulation:
            for snr in (0.0, 0.1, 1.0, 10.0, 1000.0):
                value = ber(modulation, snr)
                assert 0.0 <= value <= 0.5, (modulation, snr)

    def test_dbpsk_closed_form(self):
        assert ber(Modulation.DBPSK, 2.0) == pytest.approx(0.5 * math.exp(-2.0))

    def test_negative_snr_rejected(self):
        with pytest.raises(ValueError):
            ber(Modulation.DBPSK, -1.0)


class TestPer:
    def test_zero_ber_means_zero_per(self):
        assert packet_error_rate(0.0, 10_000) == 0.0

    def test_zero_length_packet_never_errors(self):
        assert packet_error_rate(0.1, 0) == 0.0

    def test_certain_bit_error_means_certain_packet_error(self):
        assert packet_error_rate(1.0, 8) == 1.0

    def test_matches_direct_formula(self):
        direct = 1.0 - (1.0 - 1e-3) ** 1000
        assert packet_error_rate(1e-3, 1000) == pytest.approx(direct)

    def test_numerically_stable_at_tiny_ber(self):
        per = packet_error_rate(1e-12, 8000)
        assert per == pytest.approx(8e-9, rel=1e-3)

    def test_monotone_in_length(self):
        assert packet_error_rate(1e-4, 2000) > packet_error_rate(1e-4, 1000)

    def test_validation(self):
        with pytest.raises(ValueError):
            packet_error_rate(-0.1, 100)
        with pytest.raises(ValueError):
            packet_error_rate(0.1, -1)


class TestLinkBudget:
    def test_snr_formula(self):
        assert snr_db_from_link_budget(15.0, 80.0, noise_floor_dbm=-95.0) == 30.0

    def test_db_conversions_roundtrip(self):
        assert db_to_linear(linear_to_db(123.0)) == pytest.approx(123.0)
        with pytest.raises(ValueError):
            linear_to_db(0.0)

    def test_effective_bitrate(self):
        assert effective_bitrate_bps(1e6, 0.0) == 1e6
        assert effective_bitrate_bps(1e6, 0.25) == 750_000.0
        with pytest.raises(ValueError):
            effective_bitrate_bps(1e6, 1.5)


class TestGilbertElliott:
    def make(self, **kwargs):
        defaults = dict(
            p_good_to_bad=0.05,
            p_bad_to_good=0.2,
            ber_good=1e-6,
            ber_bad=1e-2,
            slot_s=0.01,
            rng=random.Random(7),
        )
        defaults.update(kwargs)
        return GilbertElliottChannel(**defaults)

    def test_starts_good_by_default(self):
        assert self.make().is_good

    def test_stationary_probability_closed_form(self):
        channel = self.make()
        assert channel.stationary_good_probability() == pytest.approx(0.2 / 0.25)

    def test_stationary_probability_matches_long_run(self):
        channel = self.make()
        good_time = 0.0
        total = 200_000
        step = channel.slot_s
        for i in range(total):
            if channel.advance_to((i + 1) * step):
                good_time += 1
        assert good_time / total == pytest.approx(
            channel.stationary_good_probability(), abs=0.02
        )

    def test_cannot_rewind(self):
        channel = self.make()
        channel.advance_to(1.0)
        with pytest.raises(ValueError):
            channel.advance_to(0.5)

    def test_frozen_channel_never_flips(self):
        channel = self.make(p_good_to_bad=0.0, p_bad_to_good=0.0)
        channel.advance_to(100.0)
        assert channel.is_good
        assert channel.stationary_good_probability() == 1.0

    def test_current_ber_tracks_state(self):
        channel = self.make(p_good_to_bad=1.0, p_bad_to_good=0.0)
        assert channel.current_ber() == 1e-6
        channel.advance_to(channel.slot_s)
        assert not channel.is_good
        assert channel.current_ber() == 1e-2

    def test_packet_survival_probability_in_good_state(self):
        channel = self.make(p_good_to_bad=0.0, ber_good=1e-3)
        survived = sum(channel.packet_survives(100) for _ in range(20000))
        expected = (1.0 - 1e-3) ** 100
        assert survived / 20000 == pytest.approx(expected, abs=0.02)

    def test_expected_burst_lengths(self):
        channel = self.make()
        good, bad = channel.expected_burst_lengths()
        assert good == pytest.approx(20.0)
        assert bad == pytest.approx(5.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            self.make(p_good_to_bad=1.5)
        with pytest.raises(ValueError):
            self.make(ber_bad=2.0)
        with pytest.raises(ValueError):
            self.make(slot_s=0.0)


class TestScriptedLinkQuality:
    def test_holds_value_until_next_point(self):
        link = ScriptedLinkQuality([(0.0, 1.0), (10.0, 0.3), (20.0, 0.9)])
        assert link.quality(0.0) == 1.0
        assert link.quality(9.999) == 1.0
        assert link.quality(10.0) == 0.3
        assert link.quality(15.0) == 0.3
        assert link.quality(25.0) == 0.9

    def test_before_first_point_uses_first_value(self):
        link = ScriptedLinkQuality([(5.0, 0.4)])
        assert link.quality(0.0) == 0.4

    def test_times_accessor(self):
        link = ScriptedLinkQuality([(0.0, 1.0), (7.5, 0.2)])
        assert link.times() == [0.0, 7.5]

    def test_validation(self):
        with pytest.raises(ValueError):
            ScriptedLinkQuality([])
        with pytest.raises(ValueError):
            ScriptedLinkQuality([(1.0, 0.5), (0.5, 0.5)])
        with pytest.raises(ValueError):
            ScriptedLinkQuality([(0.0, 1.5)])


class TestGilbertElliottProperties:
    def test_stationary_distribution_property(self):
        """For random transition probabilities, the long-run good
        fraction matches the closed form p_bg / (p_gb + p_bg)."""
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @settings(max_examples=15, deadline=None)
        @given(
            st.floats(min_value=0.02, max_value=0.5),
            st.floats(min_value=0.02, max_value=0.5),
            st.integers(min_value=0, max_value=2**31),
        )
        def check(p_gb, p_bg, seed):
            channel = GilbertElliottChannel(
                p_good_to_bad=p_gb, p_bad_to_good=p_bg,
                slot_s=1.0, rng=random.Random(seed),
            )
            good = sum(
                channel.advance_to(float(i + 1)) for i in range(30_000)
            )
            expected = p_bg / (p_gb + p_bg)
            assert abs(good / 30_000 - expected) < 0.06

        check()


class TestBerCache:
    """The BER/PER memoization must be invisible: bit-identical on/off."""

    @pytest.fixture(autouse=True)
    def _fresh_cache(self):
        from repro.phy import configure_ber_cache

        configure_ber_cache(True)
        yield
        configure_ber_cache(True)

    def test_cache_on_off_bit_identical(self):
        from repro.phy import configure_ber_cache
        from repro.phy.channel import BER_CACHE_QUANTUM

        # On-grid (multiples of the quantum) and off-grid SNRs alike.
        snrs = [i * BER_CACHE_QUANTUM for i in range(0, 20_000, 37)]
        snrs += [0.123456789, 3.14159, 7.7777777, 1e-9]
        configure_ber_cache(True)
        with_cache = {
            (m, s): ber(m, s) for m in Modulation for s in snrs
        }
        # Repeat queries so the second pass is served from the cache.
        for (m, s), expected in with_cache.items():
            assert ber(m, s) == expected
        configure_ber_cache(False)
        for (m, s), expected in with_cache.items():
            assert ber(m, s) == expected

    def test_on_grid_hits_off_grid_bypasses(self):
        from repro.phy import ber_cache_stats, configure_ber_cache
        from repro.phy.channel import BER_CACHE_QUANTUM

        configure_ber_cache(True)
        on_grid = 5000 * BER_CACHE_QUANTUM
        ber(Modulation.DQPSK, on_grid)
        ber(Modulation.DQPSK, on_grid)
        stats = ber_cache_stats()
        assert (stats["hits"], stats["misses"], stats["size"]) == (1, 1, 1)
        ber(Modulation.DQPSK, on_grid + BER_CACHE_QUANTUM / 3.0)
        assert ber_cache_stats()["size"] == 1  # off-grid never cached

    def test_lru_bound_holds(self):
        from repro.phy import ber_cache_stats, configure_ber_cache
        from repro.phy.channel import BER_CACHE_MAX_ENTRIES, BER_CACHE_QUANTUM

        configure_ber_cache(True)
        for i in range(BER_CACHE_MAX_ENTRIES + 100):
            ber(Modulation.DBPSK, i * BER_CACHE_QUANTUM)
        assert ber_cache_stats()["size"] == BER_CACHE_MAX_ENTRIES

    def test_gilbert_elliott_sequence_identical_cache_on_off(self):
        from repro.phy import configure_ber_cache

        def survival_sequence():
            channel = GilbertElliottChannel(
                p_good_to_bad=0.1,
                p_bad_to_good=0.3,
                ber_good=1e-6,
                ber_bad=5e-3,
                slot_s=0.01,
                rng=random.Random(42),
            )
            return [
                channel.packet_survives(8 * (64 + 128 * (i % 3)), time=i * 0.02)
                for i in range(500)
            ]

        configure_ber_cache(True)
        cached = survival_sequence()
        configure_ber_cache(False)
        uncached = survival_sequence()
        assert cached == uncached
        assert not all(cached)  # the bad state actually bit

    def test_per_memo_distinguishes_ber_and_bits(self):
        channel = GilbertElliottChannel(
            p_good_to_bad=0.0, p_bad_to_good=0.0, ber_good=0.01,
            rng=random.Random(1),
        )
        # Prime the memo at one size, then query another: survival odds
        # must track the fresh computation, not the primed entry.
        survived_small = sum(channel.packet_survives(80) for _ in range(2000))
        survived_large = sum(channel.packet_survives(4000) for _ in range(2000))
        expected_small = (1.0 - packet_error_rate(0.01, 80)) * 2000
        expected_large = (1.0 - packet_error_rate(0.01, 4000)) * 2000
        assert abs(survived_small - expected_small) < 150
        assert abs(survived_large - expected_large) < 150
        assert survived_large < survived_small
