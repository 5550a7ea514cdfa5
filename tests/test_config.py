"""OverlayConfig validation: settings that cannot describe a working
overlay are rejected at construction, naming the field."""

from __future__ import annotations

import math

import pytest

from repro.core.config import OverlayConfig


@pytest.mark.parametrize("field, value", [
    ("hello_interval", 0.0),
    ("hello_interval", -0.1),
    ("hello_interval", math.nan),
    ("miss_threshold", 0),
    ("miss_threshold", -3),
    ("recover_threshold", 0),
    ("proc_delay", -0.001),
    ("proc_delay", math.nan),
    ("lsu_refresh", 0.0),
    ("lsu_refresh", -5.0),
    ("lsu_refresh", math.nan),
    ("loss_cost_factor", -1.0),
    ("loss_cost_factor", math.nan),
    ("cost_change_threshold", -0.25),
    ("cost_change_threshold", math.nan),
    ("carrier_loss_switch", -0.1),
    ("carrier_loss_switch", 1.5),
    ("carrier_loss_switch", math.nan),
    ("access_capacity_bps", 0.0),
    ("access_capacity_bps", -1e6),
    ("access_capacity_bps", math.nan),
    ("crypto_sign_delay", -0.001),
    ("crypto_sign_delay", math.nan),
    ("crypto_verify_delay", -0.001),
    ("crypto_verify_delay", math.nan),
    ("loss_alpha", 0.0),
    ("loss_alpha", 1.5),
    ("loss_alpha", -0.1),
    ("loss_alpha", math.nan),
    ("latency_alpha", 0.0),
    ("latency_alpha", 2.0),
    ("columnar_window", -0.001),
    ("dedup_cache", 0),
    ("route_cache_size", 0),
    ("route_cache_size", -1),
    ("forwarding_cache_size", 0),
])
def test_invalid_settings_are_rejected_by_name(field, value):
    with pytest.raises(ValueError, match=rf"OverlayConfig\.{field} must be"):
        OverlayConfig(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("hello_interval", 0.001),
    ("miss_threshold", 1),
    ("recover_threshold", 1),
    ("proc_delay", 0.0),
    ("lsu_refresh", 0.001),
    ("loss_cost_factor", 0.0),
    ("cost_change_threshold", 0.0),
    ("carrier_loss_switch", 0.0),
    ("carrier_loss_switch", 1.0),
    ("access_capacity_bps", None),
    ("access_capacity_bps", 1.0),
    ("crypto_sign_delay", 0.0),
    ("crypto_verify_delay", 0.0),
    ("loss_alpha", 1.0),
    ("latency_alpha", 1.0),
    ("latency_alpha", 1e-6),
    ("columnar_window", 0.0),
    ("dedup_cache", 1),
    ("route_cache_size", 1),
    ("forwarding_cache_size", 1),
])
def test_boundary_settings_are_accepted(field, value):
    assert getattr(OverlayConfig(**{field: value}), field) == value


def test_defaults_are_valid():
    OverlayConfig()
