"""Tests for the default and customized HMC address mappings."""

import pytest

from repro.hmc.address import CustomAddressMapping, DefaultAddressMapping
from repro.hmc.config import HMCConfig


@pytest.fixture
def config():
    return HMCConfig()


def test_default_mapping_spreads_consecutive_subpages_across_vaults(config):
    mapping = DefaultAddressMapping(config)
    addresses = [i * config.max_block_bytes for i in range(config.num_vaults)]
    vaults = [mapping.map(a).vault for a in addresses]
    assert len(set(vaults)) == config.num_vaults


def test_default_mapping_not_snippet_local(config):
    assert not DefaultAddressMapping(config).keeps_snippet_local()


def test_custom_mapping_keeps_consecutive_data_in_one_vault(config):
    mapping = CustomAddressMapping(config)
    addresses = [i * 16 for i in range(4096)]  # 64 KB of consecutive blocks
    assert len({mapping.map(a).vault for a in addresses}) == 1


def test_custom_mapping_is_snippet_local(config):
    assert CustomAddressMapping(config).keeps_snippet_local()


def test_custom_mapping_spreads_consecutive_subpages_across_banks(config):
    mapping = CustomAddressMapping(config)
    addresses = [i * 16 for i in range(config.banks_per_vault)]
    banks = {mapping.map(a, request_bytes=16).bank for a in addresses}
    assert len(banks) == config.banks_per_vault


def test_custom_mapping_keeps_large_requests_in_one_bank(config):
    mapping = CustomAddressMapping(config)
    # A 64-byte request spans 4 consecutive blocks: with the dynamic sub-page
    # size they must land in the same bank.
    addresses = [base + offset for base in (0,) for offset in (0, 16, 32, 48)]
    banks = {mapping.map(a, request_bytes=64).bank for a in addresses}
    assert len(banks) == 1


def test_custom_mapping_different_requests_use_different_banks(config):
    mapping = CustomAddressMapping(config)
    first = mapping.map(0, request_bytes=64).bank
    second = mapping.map(64, request_bytes=64).bank
    assert first != second


def test_default_conflict_factor_grows_with_requesters(config):
    mapping = DefaultAddressMapping(config)
    assert mapping.bank_conflict_factor(16) > mapping.bank_conflict_factor(2)
    assert mapping.bank_conflict_factor(16) >= 4.0


def test_custom_conflict_factor_small(config):
    mapping = CustomAddressMapping(config)
    assert mapping.bank_conflict_factor(16) < 2.0


def test_custom_conflict_factor_grows_past_bank_count(config):
    mapping = CustomAddressMapping(config)
    assert mapping.bank_conflict_factor(64) > mapping.bank_conflict_factor(16)


def test_conflict_factor_rejects_invalid_requesters(config):
    with pytest.raises(ValueError):
        DefaultAddressMapping(config).bank_conflict_factor(0)
    with pytest.raises(ValueError):
        CustomAddressMapping(config).bank_conflict_factor(0)


def test_mapping_rejects_negative_address(config):
    with pytest.raises(ValueError):
        CustomAddressMapping(config).map(-16)


def test_subpage_blocks_power_of_two(config):
    mapping = CustomAddressMapping(config)
    assert mapping.subpage_blocks(16) == 1
    assert mapping.subpage_blocks(48) == 4
    assert mapping.subpage_blocks(256) == 16
    # Capped at the MAX block size.
    assert mapping.subpage_blocks(10_000) == config.max_block_bytes // config.block_bytes


def test_mapped_fields_within_ranges(config):
    mapping = CustomAddressMapping(config)
    for address in range(0, 1 << 16, 16):
        mapped = mapping.map(address)
        assert 0 <= mapped.vault < config.num_vaults
        assert 0 <= mapped.bank < config.banks_per_vault
        assert mapped.subpage >= 0
        assert mapped.block_offset >= 0


def test_default_mapping_fields_within_ranges(config):
    mapping = DefaultAddressMapping(config)
    for address in range(0, 1 << 16, 256):
        mapped = mapping.map(address)
        assert 0 <= mapped.vault < config.num_vaults
        assert 0 <= mapped.bank < config.banks_per_vault
