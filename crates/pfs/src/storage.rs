//! Physical storage: per-server stripe-unit block maps.
//!
//! Every I/O server owns the stripe units assigned to it by the layout;
//! bytes written to a file are genuinely scattered across these maps, and a
//! read reassembles them — so layout bugs corrupt data and get caught by
//! tests, rather than hiding behind a flat buffer.

use parking_lot::Mutex;
use std::collections::HashMap;

/// Identifies a file within the file system.
pub type FileId = u64;

/// One I/O server's block store: (file, stripe-unit number) → unit bytes.
#[derive(Debug, Default)]
pub struct StripeServer {
    blocks: Mutex<HashMap<(FileId, u64), Vec<u8>>>,
    stripe_unit: usize,
}

impl StripeServer {
    /// Creates a server for units of `stripe_unit` bytes.
    pub fn new(stripe_unit: usize) -> Self {
        Self { blocks: Mutex::new(HashMap::new()), stripe_unit }
    }

    /// Writes `data` into stripe unit `unit` of `file` at `offset_in_unit`,
    /// allocating (zero-filled) the unit on first touch.
    pub fn write(&self, file: FileId, unit: u64, offset_in_unit: usize, data: &[u8]) {
        assert!(
            offset_in_unit + data.len() <= self.stripe_unit,
            "write crosses a stripe unit boundary"
        );
        let mut blocks = self.blocks.lock();
        let block = blocks.entry((file, unit)).or_insert_with(|| vec![0u8; self.stripe_unit]);
        block[offset_in_unit..offset_in_unit + data.len()].copy_from_slice(data);
    }

    /// Reads `len` bytes from stripe unit `unit` at `offset_in_unit` into
    /// `out`. Unwritten units read as zeros (sparse-file semantics).
    pub fn read(&self, file: FileId, unit: u64, offset_in_unit: usize, out: &mut [u8]) {
        assert!(
            offset_in_unit + out.len() <= self.stripe_unit,
            "read crosses a stripe unit boundary"
        );
        let blocks = self.blocks.lock();
        match blocks.get(&(file, unit)) {
            Some(block) => out.copy_from_slice(&block[offset_in_unit..offset_in_unit + out.len()]),
            None => out.fill(0),
        }
    }

    /// Number of stripe units this server holds (across all files).
    pub fn unit_count(&self) -> usize {
        self.blocks.lock().len()
    }

    /// Drops all units belonging to `file`.
    pub fn remove_file(&self, file: FileId) {
        self.blocks.lock().retain(|&(f, _), _| f != file);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read_round_trips() {
        let s = StripeServer::new(16);
        s.write(1, 0, 4, &[9, 9, 9]);
        let mut out = [0u8; 3];
        s.read(1, 0, 4, &mut out);
        assert_eq!(out, [9, 9, 9]);
    }

    #[test]
    fn unwritten_units_read_zero() {
        let s = StripeServer::new(8);
        let mut out = [7u8; 8];
        s.read(3, 42, 0, &mut out);
        assert_eq!(out, [0u8; 8]);
    }

    #[test]
    fn files_are_isolated() {
        let s = StripeServer::new(8);
        s.write(1, 0, 0, &[1; 8]);
        s.write(2, 0, 0, &[2; 8]);
        let mut out = [0u8; 8];
        s.read(1, 0, 0, &mut out);
        assert_eq!(out, [1; 8]);
        s.remove_file(1);
        assert_eq!(s.unit_count(), 1);
        s.read(1, 0, 0, &mut out);
        assert_eq!(out, [0; 8]);
    }

    #[test]
    #[should_panic(expected = "boundary")]
    fn cross_boundary_write_rejected() {
        let s = StripeServer::new(8);
        s.write(1, 0, 6, &[0; 4]);
    }

    #[test]
    fn concurrent_writers_do_not_lose_data() {
        use std::sync::Arc;
        let s = Arc::new(StripeServer::new(64));
        let mut handles = Vec::new();
        for t in 0..8u8 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for u in 0..16u64 {
                    s.write(t as u64, u, 0, &[t; 64]);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut out = [0u8; 64];
        for t in 0..8u8 {
            s.read(t as u64, 7, 0, &mut out);
            assert_eq!(out, [t; 64]);
        }
    }
}
