"""Geometry, deployment determinism, and config ingestion."""

import math
from dataclasses import replace

import numpy as np
import pytest

from uavstream.scenario import (ConfigError, Scenario, SystemConfig, UavPlacement,
                                db_to_linear, dbm_per_hz_to_linear, distances,
                                format_config, generate_scenario, hop_dist2, hop_offsets,
                                parse_config_text, table2_config)


class TestSystemConfig:
    def test_table2_values(self):
        cfg = table2_config()
        assert cfg.bandwidth_B == 1e6
        assert cfg.noise_density_N0 == 1e-20
        assert cfg.ref_gain_alpha0 == 1e-6
        assert cfg.height_obs_Ho == 100.0
        assert cfg.height_relay_Hr == 100.0
        assert cfg.height_gbs_Hb == 20.0
        assert cfg.rician_K == 4.0
        assert cfg.outage_target_rho == 0.01
        assert cfg.p_max_obs == 0.1
        assert cfg.p_max_relay == 0.1
        assert cfg.p_max_user == 0.2
        assert cfg.utility_theta == 0.8
        assert cfg.utility_beta == 100.0
        assert cfg.playback_rate_rbar == 1.0
        assert cfg.mu0 == pytest.approx(1e8)

    def test_db_conversions(self):
        assert dbm_per_hz_to_linear(-170.0) == pytest.approx(1e-20, rel=1e-12)
        assert db_to_linear(-60.0) == pytest.approx(1e-6, rel=1e-12)

    @pytest.mark.parametrize("field,value", [
        ("bandwidth_B", 0.0), ("noise_density_N0", -1e-20), ("outage_target_rho", 0.0),
        ("outage_target_rho", 1.0), ("num_users_U", 0), ("rician_K", -1.0),
        ("rician_K", float("nan")), ("rician_K", float("inf")), ("rician_K", 1e9),
        ("p_max_user", 0.0), ("area_side", -5.0), ("network_size_D", 0.0),
        ("rng_seed", -1), ("num_users_U", 1_000_001),
    ])
    def test_invalid_configs_rejected(self, field, value):
        with pytest.raises(ConfigError):
            table2_config(**{field: value})

    def test_degenerate_area_allowed(self):
        cfg = table2_config(num_users_U=1, area_side=0.0)
        sc = generate_scenario(cfg)
        assert np.allclose(sc.agu_pos_wu, 0.0)
        assert np.allclose(sc.gbs_pos_wb, [-2500.0, 0.0])


class TestGenerateScenario:
    def test_deterministic(self):
        cfg = table2_config(rng_seed=42)
        a, b = generate_scenario(cfg), generate_scenario(cfg)
        assert np.array_equal(a.agu_pos_wu, b.agu_pos_wu)
        assert np.array_equal(a.gbs_pos_wb, b.gbs_pos_wb)

    def test_different_seed_different_layout(self):
        a = generate_scenario(table2_config(rng_seed=1))
        b = generate_scenario(table2_config(rng_seed=2))
        assert not np.array_equal(a.agu_pos_wu, b.agu_pos_wu)

    def test_users_inside_square(self):
        sc = generate_scenario(table2_config(rng_seed=9))
        assert np.all(np.abs(sc.agu_pos_wu) <= 250.0)

    def test_law_of_large_numbers_mean(self):
        # 10^4 seeds, U=30: mean coordinate must sit within +-10 m of the origin
        total = np.zeros(2)
        count = 0
        for seed in range(10_000):
            sc = generate_scenario(table2_config(rng_seed=seed))
            total += sc.agu_pos_wu.sum(axis=0)
            count += sc.agu_pos_wu.shape[0]
        mean = total / count
        assert np.all(np.abs(mean) < 10.0)

    def test_scenario_invariants_enforced(self):
        cfg = table2_config(num_users_U=2)
        with pytest.raises(ConfigError):
            Scenario(config=cfg, gbs_pos_wb=[-2500.0, 0.0],
                     agu_pos_wu=[[0.0, 0.0]])          # wrong count
        with pytest.raises(ConfigError):
            Scenario(config=cfg, gbs_pos_wb=[-2500.0, 0.0],
                     agu_pos_wu=[[0.0, 0.0], [400.0, 0.0]])   # outside square
        with pytest.raises(ConfigError):
            Scenario(config=cfg, gbs_pos_wb=[-1000.0, 0.0],
                     agu_pos_wu=[[0.0, 0.0], [10.0, 0.0]])    # GBS mismatch

    @pytest.mark.parametrize("gbs,ok", [
        ([-2500.0 + 0.02, 1e-8], True),     # within 1e-8 + 1e-5 |expected|
        ([-2500.0 + 0.03, 0.0], False), ([-2500.0, 2e-8], False),
        ([float("nan"), 0.0], False), ([-2500.0, float("inf")], False),
    ])
    def test_gbs_position_check(self, gbs, ok):
        # np.allclose's tolerances against the expected (-D, 0); a NaN or an
        # inf is never close.
        cfg = table2_config(num_users_U=1, area_side=0.0)
        assert ok == np.allclose(gbs, [-2500.0, 0.0])
        if ok:
            Scenario(config=cfg, gbs_pos_wb=gbs, agu_pos_wu=[[0.0, 0.0]])
        else:
            with pytest.raises(ConfigError, match="GBS"):
                Scenario(config=cfg, gbs_pos_wb=gbs, agu_pos_wu=[[0.0, 0.0]])


class TestUavPlacement:
    @pytest.mark.parametrize("bad", [
        [float("nan"), 0.0], [0.0, float("nan")], [float("inf"), 0.0], [0.0, -float("inf")],
        [0.0, 0.0, 0.0], [0.0], [[0.0, 0.0]], 0.0,
    ])
    @pytest.mark.parametrize("field", ["q_obs", "q_relay"])
    def test_bad_position_rejected(self, bad, field):
        positions = {"q_obs": [1.0, 2.0], "q_relay": [-3.0, 4.0], field: bad}
        with pytest.raises(ValueError, match="UAV positions"):
            UavPlacement(**positions)

    def test_positions_become_float_arrays(self):
        placement = UavPlacement([1, 2], [3, 4])
        assert placement.q_obs.dtype == placement.q_relay.dtype == np.float64
        assert placement.uavs[1].tolist() == [3.0, 4.0]
        assert UavPlacement([1, 2]).q_relay is None

    @pytest.mark.parametrize("relay", [True, False])
    def test_hop_geometry_matches_its_np_diff_definition(self, relay):
        rng = np.random.default_rng(3)
        for seed in range(40):
            heights = rng.uniform(20.0, 300.0, 3)
            sc = generate_scenario(table2_config(
                num_users_U=2, rng_seed=seed, height_obs_Ho=heights[0],
                height_relay_Hr=heights[1], height_gbs_Hb=heights[2],
                network_size_D=rng.uniform(10.0, 8000.0)))
            cfg = sc.config
            q = rng.uniform(-9000.0, 9000.0, 4)
            placement = UavPlacement(q[:2], q[2:] if relay else None)
            # The definition: differences along the chain of nodes, the
            # observation UAV, the relay (if placed), then the GBS.
            uavs = placement.uavs
            offsets = np.diff(np.array(uavs + (sc.gbs_pos_wb,)), axis=0)
            gaps = np.diff((cfg.height_obs_Ho, cfg.height_relay_Hr)[:len(uavs)]
                           + (cfg.height_gbs_Hb,))
            got_offsets, got_gaps = hop_offsets(sc, placement)
            assert got_offsets.shape == (len(uavs), 2) and got_gaps.shape == (len(uavs),)
            assert np.array_equal(got_offsets, offsets) and np.array_equal(got_gaps, gaps)
            assert np.array_equal(hop_dist2(sc, placement),
                                  gaps ** 2 + np.sum(offsets ** 2, axis=1))


class TestDistances:
    def test_overhead_observation(self):
        cfg = table2_config(num_users_U=1, area_side=0.0)
        sc = generate_scenario(cfg)
        placement = UavPlacement(q_obs=[0.0, 0.0], q_relay=[-1250.0, 0.0])
        d_uo, _, _ = distances(sc, placement, 0)
        assert d_uo == pytest.approx(100.0, rel=1e-15)

    def test_coincident_uavs(self):
        cfg = table2_config(num_users_U=1, area_side=0.0)
        sc = generate_scenario(cfg)
        placement = UavPlacement(q_obs=[5.0, 5.0], q_relay=[5.0, 5.0])
        _, d_or, _ = distances(sc, placement, 0)
        assert d_or == 0.0

    def test_three_four_five_triangle(self):
        # Hb=20, Hr=100 -> vertical leg 80; horizontal 60 -> hypotenuse 100
        cfg = table2_config(num_users_U=1, area_side=0.0)
        sc = generate_scenario(cfg)
        placement = UavPlacement(q_obs=[0.0, 0.0], q_relay=[-2500.0 + 60.0, 0.0])
        _, _, d_rb = distances(sc, placement, 0)
        assert d_rb == pytest.approx(100.0, rel=1e-15)

    def test_one_hop_chain_without_relay(self):
        # Ho=100, Hb=20 -> vertical leg 80; horizontal 60 -> hypotenuse 100
        cfg = table2_config(num_users_U=1, area_side=0.0)
        sc = generate_scenario(cfg)
        placement = UavPlacement(q_obs=[-2500.0 + 60.0, 0.0])
        assert placement.uavs == (placement.q_obs,)
        d_uo, d_ob = distances(sc, placement, 0)
        assert d_ob == pytest.approx(100.0, rel=1e-15)

    def test_height_lower_bounds(self):
        cfg = table2_config(num_users_U=4, rng_seed=3)
        sc = generate_scenario(cfg)
        rng = np.random.default_rng(0)
        for _ in range(50):
            placement = UavPlacement(q_obs=rng.uniform(-3000, 3000, 2),
                                     q_relay=rng.uniform(-3000, 3000, 2))
            for u in range(4):
                d_uo, d_or, d_rb = distances(sc, placement, u)
                assert d_uo >= cfg.height_obs_Ho
                assert d_or >= abs(cfg.height_relay_Hr - cfg.height_obs_Ho)
                assert d_rb >= abs(cfg.height_gbs_Hb - cfg.height_relay_Hr)

    def test_moving_toward_user_shrinks_distance(self):
        cfg = table2_config(num_users_U=1, rng_seed=8)
        sc = generate_scenario(cfg)
        w = sc.agu_pos_wu[0]
        start = np.array([200.0, -180.0])
        prev = np.inf
        for lam in np.linspace(0.0, 1.0, 20):
            q = (1 - lam) * start + lam * w
            d_uo, _, _ = distances(sc, UavPlacement(q, [-1000, 0]), 0)
            assert d_uo <= prev + 1e-12
            prev = d_uo

    def test_bad_user_index(self):
        sc = generate_scenario(table2_config(num_users_U=2))
        with pytest.raises(IndexError):
            distances(sc, UavPlacement([0, 0], [0, 0]), 2)


class TestConfigIO:
    def test_round_trip(self):
        cfg = table2_config(rng_seed=17, num_users_U=12)
        again = parse_config_text(format_config(cfg))
        assert again == cfg

    def test_db_suffixed_keys(self):
        text = format_config(table2_config())
        text = text.replace("noise_density_N0 = 1e-20", "noise_density_N0_dbm = -170")
        text = text.replace("ref_gain_alpha0 = 1e-06", "ref_gain_alpha0_db = -60")
        cfg = parse_config_text(text)
        assert cfg.noise_density_N0 == pytest.approx(1e-20, rel=1e-12)
        assert cfg.ref_gain_alpha0 == pytest.approx(1e-6, rel=1e-12)

    def test_missing_key_rejected(self):
        text = "\n".join(line for line in format_config(table2_config()).splitlines()
                         if not line.startswith("bandwidth_B"))
        with pytest.raises(ConfigError, match="bandwidth_B"):
            parse_config_text(text)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            parse_config_text(format_config(table2_config()) + "mystery_knob = 3\n")

    def test_non_numeric_rejected(self):
        with pytest.raises(ConfigError, match="non-numeric"):
            parse_config_text("bandwidth_B = fast\n")

    @pytest.mark.parametrize("key,value", [
        ("num_users_U", "10.7"), ("max_bcd_iters", "2.9"), ("rng_seed", "0.5"),
        ("num_users_U", "nan"), ("num_users_U", "inf"), ("num_users_U", "-inf"),
    ])
    def test_non_integer_value_of_integer_key_rejected(self, key, value):
        # Truncation would run a different scenario than the file asks for.
        text = format_config(table2_config()) + f"{key} = {value}\n"
        with pytest.raises(ConfigError, match="integer"):
            parse_config_text(text)

    @pytest.mark.parametrize("value", ["nan", "inf", "1e9"])
    def test_non_finite_rician_k_rejected(self, value):
        # 1e9 is finite but above the 60 dB cap.
        text = format_config(table2_config()) + f"rician_K = {value}\n"
        with pytest.raises(ConfigError, match="rician_K"):
            parse_config_text(text)

    def test_huge_user_count_rejected(self):
        # Caught here rather than as an allocation failure in generate_scenario.
        text = format_config(table2_config()) + "num_users_U = 1e30\n"
        with pytest.raises(ConfigError, match="num_users_U"):
            parse_config_text(text)

    def test_with_overrides_revalidates(self):
        with pytest.raises(ConfigError):
            replace(table2_config(), outage_target_rho=2.0)
