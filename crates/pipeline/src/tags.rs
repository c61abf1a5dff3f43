//! Message-tag encoding: `(CPI sequence number, port)` → tag.
//!
//! A stage may exchange several logical streams per CPI (e.g. the Doppler
//! task sends filtered data to both beamformers *and* both weight tasks);
//! ports keep them apart, the CPI number keeps iterations apart. The top
//! bit stays clear — it belongs to the collectives.

use stap_comm::Tag;

/// Bits reserved for the port.
const PORT_BITS: u32 = 6;
/// Bits for the CPI counter (wraps; in-flight window is tiny).
const CPI_BITS: u32 = 31 - PORT_BITS;
const CPI_MASK: u64 = (1u64 << CPI_BITS) - 1;

/// Maximum port value (exclusive).
pub const MAX_PORT: u8 = 1 << PORT_BITS;

/// Encodes a (CPI, port) pair into a user tag.
///
/// # Panics
/// Panics when `port >= MAX_PORT`.
pub fn tag_for(cpi: u64, port: u8) -> Tag {
    assert!(port < MAX_PORT, "port {port} out of range");
    (((port as u32) << CPI_BITS) | ((cpi & CPI_MASK) as u32)) & 0x7FFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_are_injective_over_cpi_and_port() {
        let mut seen = std::collections::HashSet::new();
        for cpi in [0u64, 1, 1000, CPI_MASK] {
            for port in [0u8, 1, 5, MAX_PORT - 1] {
                assert!(seen.insert(tag_for(cpi, port)), "cpi {cpi} port {port} collides");
            }
        }
    }

    #[test]
    fn distinct_ports_distinct_tags() {
        assert_ne!(tag_for(3, 0), tag_for(3, 1));
        assert_ne!(tag_for(3, 0), tag_for(4, 0));
    }

    #[test]
    fn top_bit_clear() {
        assert_eq!(tag_for(u64::MAX, MAX_PORT - 1) & 0x8000_0000, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_port_rejected() {
        tag_for(0, MAX_PORT);
    }
}
