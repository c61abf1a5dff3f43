//! CPI data cubes: the 3-D complex arrays flowing through the pipeline.
//!
//! A raw CPI cube is `pulses × channels × ranges` of complex32 samples; the
//! Doppler filter turns it into a [`DopplerCube`] indexed by
//! `stagger × bin × channel × range`. Byte-level serialization matches the
//! on-disk layout the parallel file system stripes (little-endian interleaved
//! re/im f32 pairs, pulse-major), so reading a cube is exactly the 16 MiB
//! the paper's I/O task pulls per CPI.

use stap_math::C32;
use std::ops::Range;

/// Dimensions of a raw CPI cube.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CubeDims {
    /// Number of pulses (PRIs) per CPI.
    pub pulses: usize,
    /// Number of receive channels (array elements or subarrays).
    pub channels: usize,
    /// Number of range gates.
    pub ranges: usize,
}

impl CubeDims {
    /// Convenience constructor.
    pub const fn new(pulses: usize, channels: usize, ranges: usize) -> Self {
        Self { pulses, channels, ranges }
    }

    /// The paper's calibrated default: 128 × 32 × 512 complex32 = 16 MiB.
    pub const fn paper_default() -> Self {
        Self::new(128, 32, 512)
    }

    /// Total number of complex samples.
    pub const fn elems(&self) -> usize {
        self.pulses * self.channels * self.ranges
    }

    /// Serialized size in bytes (8 bytes per complex32 sample).
    pub const fn bytes(&self) -> usize {
        self.elems() * 8
    }
}

/// A raw CPI data cube, pulse-major: `data[((p·C)+c)·R + r]`.
#[derive(Debug, Clone, PartialEq)]
pub struct DataCube {
    dims: CubeDims,
    data: Vec<C32>,
}

impl DataCube {
    /// Zero-filled cube.
    pub fn zeros(dims: CubeDims) -> Self {
        Self { dims, data: vec![C32::zero(); dims.elems()] }
    }

    /// Wraps existing sample data.
    ///
    /// # Panics
    /// Panics when `data.len() != dims.elems()`.
    pub fn from_data(dims: CubeDims, data: Vec<C32>) -> Self {
        assert_eq!(data.len(), dims.elems(), "cube data length mismatch");
        Self { dims, data }
    }

    /// Cube dimensions.
    #[inline]
    pub fn dims(&self) -> CubeDims {
        self.dims
    }

    /// Sample at (pulse, channel, range).
    #[inline]
    pub fn get(&self, p: usize, c: usize, r: usize) -> C32 {
        self.data[(p * self.dims.channels + c) * self.dims.ranges + r]
    }

    /// Mutable sample at (pulse, channel, range).
    #[inline]
    pub fn get_mut(&mut self, p: usize, c: usize, r: usize) -> &mut C32 {
        &mut self.data[(p * self.dims.channels + c) * self.dims.ranges + r]
    }

    /// Flat sample storage.
    #[inline]
    pub fn as_slice(&self) -> &[C32] {
        &self.data
    }

    /// Mutable flat sample storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [C32] {
        &mut self.data
    }

    /// Serializes to the on-disk layout: little-endian interleaved f32
    /// re/im pairs, in storage order.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.dims.bytes());
        for z in &self.data {
            out.extend_from_slice(&z.re.to_le_bytes());
            out.extend_from_slice(&z.im.to_le_bytes());
        }
        out
    }

    /// Deserializes from the on-disk layout.
    ///
    /// # Panics
    /// Panics when `bytes.len() != dims.bytes()`.
    pub fn from_bytes(dims: CubeDims, bytes: &[u8]) -> Self {
        assert_eq!(bytes.len(), dims.bytes(), "cube byte length mismatch");
        let mut data = Vec::with_capacity(dims.elems());
        for chunk in bytes.chunks_exact(8) {
            let re = f32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
            let im = f32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
            data.push(C32::new(re, im));
        }
        Self::from_data(dims, data)
    }

    /// Serializes to the *on-disk* layout used by the parallel file system:
    /// range-major (`[(r·C + c)·P + p]`), little-endian interleaved f32
    /// pairs. Range-major order makes each node's exclusive range slab a
    /// single contiguous byte extent — "all nodes allocated to the first
    /// task read exclusive portions of each file with proper offsets".
    pub fn to_range_major_bytes(&self) -> Vec<u8> {
        let d = self.dims;
        let mut out = Vec::with_capacity(d.bytes());
        for r in 0..d.ranges {
            for c in 0..d.channels {
                for p in 0..d.pulses {
                    let z = self.get(p, c, r);
                    out.extend_from_slice(&z.re.to_le_bytes());
                    out.extend_from_slice(&z.im.to_le_bytes());
                }
            }
        }
        out
    }

    /// Byte offset of range gate `r` in the range-major disk layout.
    pub fn range_major_offset(dims: CubeDims, r: usize) -> u64 {
        (r * dims.channels * dims.pulses * 8) as u64
    }

    /// Parses a contiguous range-major byte extent covering gates
    /// `[r0, r1)` into a slab cube (dims `pulses × channels × (r1-r0)`).
    ///
    /// # Panics
    /// Panics when the byte length does not match the slab size.
    pub fn slab_from_range_major_bytes(
        dims: CubeDims,
        r0: usize,
        r1: usize,
        bytes: &[u8],
    ) -> DataCube {
        let slab_dims = CubeDims::new(dims.pulses, dims.channels, r1 - r0);
        assert_eq!(bytes.len(), slab_dims.bytes(), "slab byte length mismatch");
        let mut out = DataCube::zeros(slab_dims);
        let mut it = bytes.chunks_exact(8);
        for rr in 0..r1 - r0 {
            for c in 0..dims.channels {
                for p in 0..dims.pulses {
                    let chunk = it.next().expect("length checked above");
                    let re = f32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
                    let im = f32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
                    *out.get_mut(p, c, rr) = C32::new(re, im);
                }
            }
        }
        out
    }

    /// Extracts the sub-cube covering range gates `[r0, r1)` (all pulses and
    /// channels) — the unit of work distributed to a Doppler-filter node.
    pub fn range_slab(&self, r0: usize, r1: usize) -> DataCube {
        assert!(r0 <= r1 && r1 <= self.dims.ranges, "invalid range slab {r0}..{r1}");
        let dims = CubeDims::new(self.dims.pulses, self.dims.channels, r1 - r0);
        let mut out = DataCube::zeros(dims);
        for p in 0..self.dims.pulses {
            for c in 0..self.dims.channels {
                for (rr, r) in (r0..r1).enumerate() {
                    *out.get_mut(p, c, rr) = self.get(p, c, r);
                }
            }
        }
        out
    }
}

/// A Doppler-filtered cube: `staggers × bins × channels × ranges`.
///
/// The easy path has one stagger; the hard (PRI-staggered) path has two.
#[derive(Debug, Clone, PartialEq)]
pub struct DopplerCube {
    staggers: usize,
    bins: usize,
    channels: usize,
    ranges: usize,
    data: Vec<C32>,
}

impl DopplerCube {
    /// Zero-filled Doppler cube.
    pub fn zeros(staggers: usize, bins: usize, channels: usize, ranges: usize) -> Self {
        Self {
            staggers,
            bins,
            channels,
            ranges,
            data: vec![C32::zero(); staggers * bins * channels * ranges],
        }
    }

    /// Wraps existing samples in `[stagger][bin][channel][range]` order.
    ///
    /// # Panics
    /// Panics when `data.len()` is not the product of the four extents.
    pub fn from_data(
        staggers: usize,
        bins: usize,
        channels: usize,
        ranges: usize,
        data: Vec<C32>,
    ) -> Self {
        assert_eq!(data.len(), staggers * bins * channels * ranges, "cube data length mismatch");
        Self { staggers, bins, channels, ranges, data }
    }

    /// Number of staggered segments (1 = easy, 2 = hard).
    #[inline]
    pub fn staggers(&self) -> usize {
        self.staggers
    }

    /// Number of Doppler bins.
    #[inline]
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// Number of channels.
    #[inline]
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Number of range gates.
    #[inline]
    pub fn ranges(&self) -> usize {
        self.ranges
    }

    #[inline]
    fn idx(&self, s: usize, b: usize, c: usize, r: usize) -> usize {
        ((s * self.bins + b) * self.channels + c) * self.ranges + r
    }

    /// Sample at (stagger, bin, channel, range).
    #[inline]
    pub fn get(&self, s: usize, b: usize, c: usize, r: usize) -> C32 {
        self.data[self.idx(s, b, c, r)]
    }

    /// Mutable sample at (stagger, bin, channel, range).
    #[inline]
    pub fn get_mut(&mut self, s: usize, b: usize, c: usize, r: usize) -> &mut C32 {
        let i = self.idx(s, b, c, r);
        &mut self.data[i]
    }

    /// Flat storage.
    #[inline]
    pub fn as_slice(&self) -> &[C32] {
        &self.data
    }

    /// Mutable flat storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [C32] {
        &mut self.data
    }

    /// The contiguous range-gate row at (stagger, bin, channel) — the unit
    /// the blocked kernels stream through.
    #[inline]
    pub fn row(&self, s: usize, b: usize, c: usize) -> &[C32] {
        let start = self.idx(s, b, c, 0);
        &self.data[start..start + self.ranges]
    }

    /// Mutable contiguous range-gate row at (stagger, bin, channel).
    #[inline]
    pub fn row_mut(&mut self, s: usize, b: usize, c: usize) -> &mut [C32] {
        let start = self.idx(s, b, c, 0);
        &mut self.data[start..start + self.ranges]
    }

    /// Degrees of freedom per snapshot (`staggers × channels`): a
    /// (bin, range) snapshot is the channel samples of every stagger
    /// concatenated, DoF `s·channels + c`.
    #[inline]
    pub fn dof(&self) -> usize {
        self.staggers * self.channels
    }

    /// Copies every row of `rows` into one contiguous cube — the stitch the
    /// adaptive kernels no longer need, kept as their differential oracle.
    pub fn from_rows<V: DopplerRows + ?Sized>(rows: &V) -> Self {
        let (staggers, bins, channels) = (rows.staggers(), rows.bins(), rows.channels());
        let mut data = Vec::with_capacity(staggers * bins * channels * rows.ranges());
        for s in 0..staggers {
            for b in 0..bins {
                for c in 0..channels {
                    for p in 0..rows.pieces() {
                        data.extend_from_slice(rows.piece_row(p, s, b, c));
                    }
                }
            }
        }
        Self::from_data(staggers, bins, channels, rows.ranges(), data)
    }
}

/// Read access to Doppler-filtered `(stagger, bin, channel)` range rows
/// whose range axis is split into gate pieces — what the adaptive kernels
/// (covariance, weights, beamforming) read through.
///
/// Every row is split at the same gates: piece `p` covers the absolute
/// gates [`DopplerRows::piece_gates`], the pieces ascend and tile
/// `[0, ranges)`. A [`DopplerCube`] is the one-piece case; a
/// [`GateTiles`] reads the received slabs of several senders where they
/// lie, without stitching them into a cube first.
pub trait DopplerRows {
    /// Number of staggered segments (1 = easy, 2 = hard).
    fn staggers(&self) -> usize;
    /// Number of Doppler bins.
    fn bins(&self) -> usize;
    /// Number of channels.
    fn channels(&self) -> usize;
    /// Number of range gates.
    fn ranges(&self) -> usize;
    /// Number of gate pieces.
    fn pieces(&self) -> usize;
    /// The absolute gates piece `p` covers.
    fn piece_gates(&self, p: usize) -> Range<usize>;
    /// Row `(s, b, c)` restricted to piece `p`'s gates.
    fn piece_row(&self, p: usize, s: usize, b: usize, c: usize) -> &[C32];

    /// Degrees of freedom per snapshot (`staggers × channels`).
    fn dof(&self) -> usize {
        self.staggers() * self.channels()
    }
}

impl DopplerRows for DopplerCube {
    fn staggers(&self) -> usize {
        self.staggers
    }

    fn bins(&self) -> usize {
        self.bins
    }

    fn channels(&self) -> usize {
        self.channels
    }

    fn ranges(&self) -> usize {
        self.ranges
    }

    fn pieces(&self) -> usize {
        1
    }

    fn piece_gates(&self, _p: usize) -> Range<usize> {
        0..self.ranges
    }

    #[inline]
    fn piece_row(&self, _p: usize, s: usize, b: usize, c: usize) -> &[C32] {
        self.row(s, b, c)
    }
}

/// One gate piece of a [`GateTiles`] view: some gates of every row, read
/// from a buffer of `row_len`-sample rows where they lie.
#[derive(Debug, Clone)]
pub struct GatePiece<'a> {
    /// The rows, back to back.
    pub data: &'a [C32],
    /// Samples per stored row.
    pub row_len: usize,
    /// Stored row of `(stagger 0, view bin b, channel 0)`, per view bin.
    pub bin_rows: Vec<usize>,
    /// Stored rows between the staggers of one bin.
    pub stagger_rows: usize,
    /// The samples of each stored row this piece reads.
    pub local: Range<usize>,
}

/// A read-only [`DopplerRows`] view over gate pieces that lie in other
/// buffers: piece `p` holds the next `local.len()` gates after piece
/// `p - 1`'s.
#[derive(Debug, Clone)]
pub struct GateTiles<'a> {
    staggers: usize,
    bins: usize,
    channels: usize,
    /// `starts[p]..starts[p + 1]` are piece `p`'s absolute gates.
    starts: Vec<usize>,
    pieces: Vec<GatePiece<'a>>,
}

impl<'a> GateTiles<'a> {
    /// The view over `pieces`, in gate order.
    ///
    /// # Panics
    /// Panics when a piece maps a different number of bins, or addresses
    /// a sample outside its buffer.
    pub fn new(staggers: usize, bins: usize, channels: usize, pieces: Vec<GatePiece<'a>>) -> Self {
        let mut starts = Vec::with_capacity(pieces.len() + 1);
        starts.push(0);
        for piece in &pieces {
            assert_eq!(piece.bin_rows.len(), bins, "piece maps {} bins", piece.bin_rows.len());
            assert!(piece.local.start <= piece.local.end && piece.local.end <= piece.row_len);
            let last_row = piece
                .bin_rows
                .iter()
                .max()
                .map_or(0, |&r| r + staggers.saturating_sub(1) * piece.stagger_rows + channels);
            assert!(last_row * piece.row_len <= piece.data.len(), "piece rows overrun its buffer");
            starts.push(starts[starts.len() - 1] + piece.local.len());
        }
        Self { staggers, bins, channels, starts, pieces }
    }
}

impl DopplerRows for GateTiles<'_> {
    fn staggers(&self) -> usize {
        self.staggers
    }

    fn bins(&self) -> usize {
        self.bins
    }

    fn channels(&self) -> usize {
        self.channels
    }

    fn ranges(&self) -> usize {
        self.starts[self.pieces.len()]
    }

    fn pieces(&self) -> usize {
        self.pieces.len()
    }

    fn piece_gates(&self, p: usize) -> Range<usize> {
        self.starts[p]..self.starts[p + 1]
    }

    #[inline]
    fn piece_row(&self, p: usize, s: usize, b: usize, c: usize) -> &[C32] {
        let piece = &self.pieces[p];
        let row = piece.bin_rows[b] + s * piece.stagger_rows + c;
        &piece.data[row * piece.row_len..][piece.local.clone()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_16_mib() {
        let d = CubeDims::paper_default();
        assert_eq!(d.bytes(), 16 * 1024 * 1024);
    }

    #[test]
    fn indexing_round_trip() {
        let dims = CubeDims::new(3, 2, 4);
        let mut cube = DataCube::zeros(dims);
        *cube.get_mut(2, 1, 3) = C32::new(1.0, -1.0);
        assert_eq!(cube.get(2, 1, 3), C32::new(1.0, -1.0));
        assert_eq!(cube.get(0, 0, 0), C32::zero());
    }

    #[test]
    fn bytes_round_trip() {
        let dims = CubeDims::new(2, 3, 5);
        let mut cube = DataCube::zeros(dims);
        for (i, z) in cube.as_mut_slice().iter_mut().enumerate() {
            *z = C32::new(i as f32, -(i as f32) * 0.5);
        }
        let bytes = cube.to_bytes();
        assert_eq!(bytes.len(), dims.bytes());
        let back = DataCube::from_bytes(dims, &bytes);
        assert_eq!(back, cube);
    }

    #[test]
    fn range_slab_extracts_interval() {
        let dims = CubeDims::new(2, 2, 8);
        let mut cube = DataCube::zeros(dims);
        for r in 0..8 {
            *cube.get_mut(1, 0, r) = C32::new(r as f32, 0.0);
        }
        let slab = cube.range_slab(2, 5);
        assert_eq!(slab.dims(), CubeDims::new(2, 2, 3));
        assert_eq!(slab.get(1, 0, 0), C32::new(2.0, 0.0));
        assert_eq!(slab.get(1, 0, 2), C32::new(4.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "byte length mismatch")]
    fn from_bytes_rejects_wrong_length() {
        DataCube::from_bytes(CubeDims::new(1, 1, 2), &[0u8; 8]);
    }

    #[test]
    fn range_major_slab_round_trip() {
        let dims = CubeDims::new(3, 2, 6);
        let mut cube = DataCube::zeros(dims);
        for (i, z) in cube.as_mut_slice().iter_mut().enumerate() {
            *z = C32::new(i as f32, -(i as f32));
        }
        let disk = cube.to_range_major_bytes();
        assert_eq!(disk.len(), dims.bytes());
        // Whole cube back via one slab.
        let back = DataCube::slab_from_range_major_bytes(dims, 0, 6, &disk);
        for p in 0..3 {
            for c in 0..2 {
                for r in 0..6 {
                    assert_eq!(back.get(p, c, r), cube.get(p, c, r));
                }
            }
        }
        // A middle slab equals the corresponding range_slab.
        let off = DataCube::range_major_offset(dims, 2) as usize;
        let end = DataCube::range_major_offset(dims, 5) as usize;
        let slab = DataCube::slab_from_range_major_bytes(dims, 2, 5, &disk[off..end]);
        assert_eq!(slab, cube.range_slab(2, 5));
    }

    #[test]
    fn range_major_offsets_are_contiguous() {
        let dims = CubeDims::new(4, 3, 10);
        let per_gate = (dims.channels * dims.pulses * 8) as u64;
        for r in 0..10 {
            assert_eq!(DataCube::range_major_offset(dims, r), r as u64 * per_gate);
        }
    }
}
