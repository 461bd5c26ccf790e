"""HMC memory address mapping schemes (Sec. 5.3.1).

The HMC access granularity is a 16-byte *block*; a *sub-page* ("MAX block")
groups several consecutive blocks inside one bank.  The default HMC Gen3
mapping spreads consecutive sub-pages across vaults first and banks second
(sequential interleaving), which maximizes link bandwidth for a host but is
exactly wrong for PIM-CapsNet:

* the inter-vault design wants all data of one workload snippet resident in
  the snippet's own vault (otherwise every PE access crosses the crossbar);
* the intra-vault design wants the *concurrent* requests of the 16 PEs to
  land in *different* banks (otherwise they serialize on a single bank).

The customized mapping therefore (a) moves the vault ID to the highest field
of the block address so consecutive data stays inside one vault, and (b)
spreads consecutive blocks across the banks of that vault while keeping each
PE's own consecutive blocks in one bank by sizing the sub-page dynamically
from indicator bits (the low 4 ignored bits of the address).

Both mappings are implemented bit-exactly so tests can verify the layout,
and both expose a :meth:`AddressMapping.bank_conflict_factor` summarizing
how badly concurrent PE requests collide, which the vault timing model uses
(one factor per element for an int64 array of requester counts).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.elementwise import any_true, choose, maximum, minimum
from repro.hmc.config import HMCConfig


@dataclass(frozen=True)
class MappedAddress:
    """Result of translating a physical byte address.

    Attributes:
        vault: vault index.
        bank: bank index inside the vault.
        subpage: sub-page index inside the bank.
        block_offset: block index inside the sub-page.
    """

    vault: int
    bank: int
    subpage: int
    block_offset: int


class AddressMapping:
    """Base class of the address mapping schemes."""

    def __init__(self, config: HMCConfig) -> None:
        self.config = config

    # -- interface -------------------------------------------------------------

    def map(self, address: int, request_bytes: int = 16) -> MappedAddress:  # pragma: no cover
        raise NotImplementedError

    def bank_conflict_factor(self, concurrent_requesters: int) -> float:  # pragma: no cover
        raise NotImplementedError

    def keeps_snippet_local(self) -> bool:  # pragma: no cover
        raise NotImplementedError

    # -- shared helpers ----------------------------------------------------------

    def _block_index(self, address: int) -> int:
        if address < 0:
            raise ValueError("address must be non-negative")
        return address // self.config.block_bytes

    def subpage_blocks(self, request_bytes: int) -> int:
        """Number of 16-byte blocks in the sub-page serving ``request_bytes``.

        The customized mapping sizes the sub-page to the request (16 B to the
        MAX block size); the default mapping always uses the MAX block.
        """
        blocks = max(1, -(-request_bytes // self.config.block_bytes))
        max_blocks = self.config.max_block_bytes // self.config.block_bytes
        # Round up to the next power of two, capped at the MAX block.
        size = 1
        while size < blocks and size < max_blocks:
            size *= 2
        return size


class DefaultAddressMapping(AddressMapping):
    """HMC Gen3 default mapping: sub-pages interleave across vaults, then banks.

    Block address fields from low to high: block-in-subpage, vault ID,
    bank ID, sub-page ID (Fig. 13a).
    """

    def map(self, address: int, request_bytes: int = 16) -> MappedAddress:
        cfg = self.config
        block = self._block_index(address)
        blocks_per_subpage = cfg.max_block_bytes // cfg.block_bytes
        block_offset = block % blocks_per_subpage
        rest = block // blocks_per_subpage
        vault = rest % cfg.num_vaults
        rest //= cfg.num_vaults
        bank = rest % cfg.banks_per_vault
        subpage = rest // cfg.banks_per_vault
        return MappedAddress(vault=vault, bank=bank, subpage=subpage, block_offset=block_offset)

    def keeps_snippet_local(self) -> bool:
        """Consecutive data spreads over all vaults, so snippets are NOT local."""
        return False

    def bank_conflict_factor(self, concurrent_requesters: int) -> float:
        """Serialization factor of concurrent PE requests.

        With the default mapping the consecutive blocks a snippet touches sit
        in the *same* bank position of every vault, so once data is forced
        into a single vault (as the inter-vault design requires) the
        concurrent requests of the PEs pile onto a small subset of the banks
        and largely serialize: on average roughly half of the requesters
        collide per scheduling window, so the factor grows with the requester
        count (capped by the bank count).
        """
        if any_true(concurrent_requesters < 1):
            raise ValueError("concurrent_requesters must be positive")
        return maximum(1.0, minimum(concurrent_requesters, self.config.banks_per_vault) / 2.0)


class CustomAddressMapping(AddressMapping):
    """The paper's customized mapping (Fig. 13b).

    The vault ID occupies the highest block-address field so consecutive data
    stays inside one vault; inside the vault consecutive *sub-pages* spread
    across banks, and the sub-page size adapts to the request size (via the
    indicator bits) so the consecutive blocks requested by a single PE stay
    within one bank.
    """

    #: Residual conflict factor: even with the custom mapping a few concurrent
    #: requests occasionally land in the same bank (row-buffer and refresh
    #: interference), so service is slightly slower than perfectly parallel.
    RESIDUAL_CONFLICT = 1.1

    def map(self, address: int, request_bytes: int = 16) -> MappedAddress:
        cfg = self.config
        block = self._block_index(address)
        blocks_per_subpage = self.subpage_blocks(request_bytes)
        block_offset = block % blocks_per_subpage
        rest = block // blocks_per_subpage
        bank = rest % cfg.banks_per_vault
        rest //= cfg.banks_per_vault
        subpages_per_bank = max(
            1,
            cfg.bytes_per_vault // (cfg.banks_per_vault * blocks_per_subpage * cfg.block_bytes),
        )
        subpage = rest % subpages_per_bank
        vault = (rest // subpages_per_bank) % cfg.num_vaults
        return MappedAddress(vault=vault, bank=bank, subpage=subpage, block_offset=block_offset)

    def keeps_snippet_local(self) -> bool:
        """Consecutive data stays within one vault."""
        return True

    def bank_conflict_factor(self, concurrent_requesters: int) -> float:
        """Concurrent PE requests spread over the banks; only residual conflicts remain."""
        if any_true(concurrent_requesters < 1):
            raise ValueError("concurrent_requesters must be positive")
        banks = self.config.banks_per_vault
        # More requesters than banks: the excess necessarily serializes.
        return choose(
            concurrent_requesters <= banks,
            self.RESIDUAL_CONFLICT,
            self.RESIDUAL_CONFLICT * concurrent_requesters / banks,
        )
