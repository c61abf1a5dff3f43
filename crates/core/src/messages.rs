//! Inter-stage message payloads of the real pipeline.
//!
//! Stages exchange typed values through `stap-comm`; these are the payload
//! types with their (re)assembly logic. The bin-slab type carries
//! Doppler-filtered data for a set of bins over one node's range interval;
//! receivers read the slabs of every sender where they lie, through one
//! full-range view of their own bins ([`bin_view`]). The row-batch type
//! carries beamformed (bin, beam) range rows between the tail tasks.
//!
//! Every payload's sample/byte storage is a [`PoolVec`] (frozen into a
//! [`SharedSlab`] where one buffer fans out to many receivers) so the data
//! plane can recycle slabs through a [`SlabPool`] arena across CPIs
//! (zero-copy mode); `copy_comm` constructs detached (plain-allocation)
//! buffers instead.

use stap_comm::{PoolVec, SharedSlab, SlabPool};
use stap_kernels::cube::{DopplerCube, GatePiece, GateTiles};
use stap_math::C32;

/// A dropped CPI, flowing through the pipeline in place of real data.
///
/// Under [`crate::config::FailurePolicy::SkipCpi`], a node whose CPI read
/// keeps failing gives the CPI up and ships a gap instead; every
/// downstream stage that receives a gap for a CPI forwards a gap on all of
/// its own output edges (its sends are stage-wide, so consumers observe a
/// consistent drop), and the sink records it. No receive ever goes
/// unmatched: each producer emits exactly one message — data or gap — per
/// consumer per CPI.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gap {
    /// The dropped CPI's sequence number.
    pub cpi: u64,
    /// Name of the stage that originated the drop.
    pub origin: String,
    /// The final read error that exhausted the retry budget.
    pub reason: String,
}

/// An inter-stage message that is either real data or a gap bubble.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload<T> {
    /// A normal CPI's payload.
    Data(T),
    /// This CPI was dropped upstream.
    Gap(Gap),
}

/// Doppler-filtered samples for `bins` over ranges `[r0, r1)`.
///
/// Layout: `data[((bin_idx · staggers + s) · channels + c) · (r1-r0) + r]`.
///
/// The samples are a frozen [`SharedSlab`]: a Doppler node filters all
/// easy (or hard) bins into one buffer and fans it out by refcount
/// ([`BinSlab::share`]); each receiver picks the bins it owns in
/// [`bin_view`]. `Clone` is the deep copy the `copy_comm` oracle
/// plane makes at its send boundary.
#[derive(Debug)]
pub struct BinSlab {
    /// The absolute Doppler bin numbers carried (in order).
    pub bins: Vec<usize>,
    /// Stagger count (1 easy, 2 hard).
    pub staggers: usize,
    /// Channel count.
    pub channels: usize,
    /// First range gate (inclusive).
    pub r0: usize,
    /// Last range gate (exclusive).
    pub r1: usize,
    /// Samples.
    pub data: SharedSlab<C32>,
}

impl Clone for BinSlab {
    /// Deep copy: fresh sample storage (from the same pool, or detached).
    fn clone(&self) -> Self {
        Self { data: self.data.deep_clone(), ..self.share() }
    }
}

impl BinSlab {
    /// Extracts a slab from a Doppler cube covering ranges `[r0, r1)` of the
    /// cube's local range axis, relabeled as absolute gates. The sample
    /// buffer is detached (plain allocation).
    ///
    /// `cube` holds this node's range interval starting at absolute gate
    /// `cube_r0`; the slab covers the cube's *entire* local range extent.
    pub fn from_cube(cube: &DopplerCube, bins: &[usize], cube_r0: usize) -> Self {
        let n = cube.ranges();
        let mut data = Vec::with_capacity(bins.len() * cube.staggers() * cube.channels() * n);
        for &b in bins {
            for s in 0..cube.staggers() {
                for c in 0..cube.channels() {
                    // Rows are contiguous in range: one streaming copy each.
                    data.extend_from_slice(cube.row(s, b, c));
                }
            }
        }
        Self {
            bins: bins.to_vec(),
            staggers: cube.staggers(),
            channels: cube.channels(),
            r0: cube_r0,
            r1: cube_r0 + n,
            data: PoolVec::detached(data).freeze(),
        }
    }

    /// Another handle on the same samples (a refcount, not a copy); the
    /// buffer recycles when the last handle drops.
    pub fn share(&self) -> Self {
        Self { bins: self.bins.clone(), data: self.data.clone(), ..*self }
    }

    /// The `r1 - r0` samples of (carried bin `bin_idx`, stagger, channel).
    pub fn row(&self, bin_idx: usize, s: usize, c: usize) -> &[C32] {
        let n = self.r1 - self.r0;
        &self.data[((bin_idx * self.staggers + s) * self.channels + c) * n..][..n]
    }

    /// Sample lookup.
    pub fn get(&self, bin_idx: usize, s: usize, c: usize, abs_r: usize) -> C32 {
        self.row(bin_idx, s, c)[abs_r - self.r0]
    }
}

/// Why a set of slabs does not form a full-range view of the requested bins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AssemblyError {
    /// No slabs were provided at all.
    NoSlabs,
    /// A slab's stagger count disagrees with the first slab's.
    StaggerMismatch {
        /// Stagger count of the first slab.
        expected: usize,
        /// Stagger count of the offending slab.
        found: usize,
    },
    /// A slab's channel count disagrees with the first slab's.
    ChannelMismatch {
        /// Channel count of the first slab.
        expected: usize,
        /// Channel count of the offending slab.
        found: usize,
    },
    /// A slab does not carry one of the requested bins.
    MissingBin(usize),
    /// The slabs leave a range gate uncovered.
    RangeGap {
        /// First absolute gate with no covering slab.
        gate: usize,
    },
}

impl std::fmt::Display for AssemblyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AssemblyError::NoSlabs => write!(f, "no slabs to assemble"),
            AssemblyError::StaggerMismatch { expected, found } => {
                write!(f, "stagger mismatch across slabs: expected {expected}, found {found}")
            }
            AssemblyError::ChannelMismatch { expected, found } => {
                write!(f, "channel mismatch across slabs: expected {expected}, found {found}")
            }
            AssemblyError::MissingBin(b) => write!(f, "slab missing bin {b}"),
            AssemblyError::RangeGap { gate } => {
                write!(f, "slabs do not tile the range axis: gate {gate} uncovered")
            }
        }
    }
}

impl std::error::Error for AssemblyError {}

/// Reads the slabs where they lie as a [`GateTiles`] view over exactly
/// `bins` and the whole range axis `[0, ranges)` — what the weight and
/// beamforming nodes compute on.
///
/// The view's bin axis is *compacted*: view bin `i` is `bins[i]`. Where
/// slabs overlap, the one that starts first supplies the shared gates.
///
/// # Errors
/// Returns an [`AssemblyError`] when the slabs are inconsistent, miss a
/// requested bin, or do not cover every gate of the range axis.
pub fn bin_view<'a>(
    bins: &[usize],
    ranges: usize,
    slabs: &'a [BinSlab],
) -> Result<GateTiles<'a>, AssemblyError> {
    let first = slabs.first().ok_or(AssemblyError::NoSlabs)?;
    let (staggers, channels) = (first.staggers, first.channels);
    // Per slab, the row of (stagger 0, channel 0) of each requested bin
    // among the bins it carries.
    let mut parts = Vec::with_capacity(slabs.len());
    for slab in slabs {
        if slab.staggers != staggers {
            return Err(AssemblyError::StaggerMismatch {
                expected: staggers,
                found: slab.staggers,
            });
        }
        if slab.channels != channels {
            return Err(AssemblyError::ChannelMismatch {
                expected: channels,
                found: slab.channels,
            });
        }
        let row = |&b| {
            let at = slab.bins.iter().position(|&x| x == b).ok_or(AssemblyError::MissingBin(b));
            at.map(|i| i * staggers * channels)
        };
        parts.push((slab, bins.iter().map(row).collect::<Result<Vec<usize>, _>>()?));
    }
    // Walk the slabs in gate order: each contributes the gates nothing
    // before it covered, and together they must reach `ranges`.
    parts.sort_by_key(|(slab, _)| slab.r0);
    let mut pieces = Vec::with_capacity(parts.len());
    let mut gate = 0;
    for (slab, bin_rows) in parts {
        if slab.r0 > gate || gate >= ranges {
            break;
        }
        if slab.r1 > gate {
            pieces.push(GatePiece {
                data: &slab.data,
                row_len: slab.r1 - slab.r0,
                bin_rows,
                stagger_rows: channels,
                local: gate - slab.r0..slab.r1.min(ranges) - slab.r0,
            });
            gate = slab.r1;
        }
    }
    if gate < ranges {
        return Err(AssemblyError::RangeGap { gate });
    }
    Ok(GateTiles::new(staggers, bins.len(), channels, pieces))
}

/// Stitches the slabs into one full-range [`DopplerCube`] covering exactly
/// `bins`: [`bin_view`]'s rows, copied. No stage stitches any more; this is
/// the differential oracle for the kernels that read the view in place.
///
/// # Errors
/// As [`bin_view`].
pub fn assemble_bins(
    bins: &[usize],
    ranges: usize,
    slabs: &[BinSlab],
) -> Result<DopplerCube, AssemblyError> {
    bin_view(bins, ranges, slabs).map(|view| DopplerCube::from_rows(&view))
}

/// Raw on-disk bytes for range gates `[r0, r1)` — what the separate read
/// task ships to the Doppler nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawSlab {
    /// First absolute range gate covered (inclusive).
    pub r0: usize,
    /// Last absolute range gate covered (exclusive).
    pub r1: usize,
    /// Range-major bytes (`(r1-r0)·channels·pulses·8`).
    pub bytes: PoolVec<u8>,
}

/// Beamformed range rows for a set of (bin, beam) pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct RowBatch {
    /// The (absolute bin, beam) identity of each row.
    pub rows: Vec<(usize, usize)>,
    /// Range gates per row.
    pub ranges: usize,
    /// `data[row · ranges + r]`.
    pub data: PoolVec<C32>,
}

impl RowBatch {
    /// An empty batch over a detached buffer.
    pub fn new(ranges: usize) -> Self {
        Self { rows: Vec::new(), ranges, data: PoolVec::detached(Vec::new()) }
    }

    /// An empty batch whose sample buffer comes from `pool` with room for
    /// `capacity_rows` rows — the zero-copy path's constructor. A batch of
    /// no rows takes no buffer.
    pub fn pooled(ranges: usize, capacity_rows: usize, pool: &SlabPool<C32>) -> Self {
        if capacity_rows == 0 {
            return Self::new(ranges);
        }
        Self {
            rows: Vec::with_capacity(capacity_rows),
            ranges,
            data: pool.take(capacity_rows * ranges),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics when the row length differs from `ranges`, and in debug
    /// builds when a pooled buffer would have to grow: it would park in a
    /// larger size class, and the next take of its own class would
    /// allocate.
    pub fn push(&mut self, bin: usize, beam: usize, row: &[C32]) {
        assert_eq!(row.len(), self.ranges, "row length mismatch");
        self.check_room(row.len());
        self.rows.push((bin, beam));
        self.data.extend_from_slice(row);
    }

    fn check_room(&self, samples: usize) {
        debug_assert!(
            !self.data.is_pooled() || self.data.len() + samples <= self.data.capacity(),
            "a pooled row batch of {} samples cannot take {samples} more",
            self.data.capacity()
        );
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows are present.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Borrow of the `i`-th row.
    pub fn row(&self, i: usize) -> &[C32] {
        &self.data[i * self.ranges..(i + 1) * self.ranges]
    }

    /// Mutable borrow of the `i`-th row.
    pub fn row_mut(&mut self, i: usize) -> &mut [C32] {
        &mut self.data[i * self.ranges..(i + 1) * self.ranges]
    }

    /// Merges another batch into this one (the other's buffer recycles to
    /// its pool on return).
    pub fn extend(&mut self, other: RowBatch) {
        assert_eq!(self.ranges, other.ranges, "range extent mismatch");
        self.check_room(other.data.len());
        self.rows.extend(other.rows);
        self.data.extend_from_slice(&other.data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cube(staggers: usize, bins: usize, channels: usize, ranges: usize) -> DopplerCube {
        let mut dc = DopplerCube::zeros(staggers, bins, channels, ranges);
        for s in 0..staggers {
            for b in 0..bins {
                for c in 0..channels {
                    for r in 0..ranges {
                        *dc.get_mut(s, b, c, r) =
                            C32::new((s * 1000 + b * 100 + c * 10 + r) as f32, 0.0);
                    }
                }
            }
        }
        dc
    }

    #[test]
    fn slab_round_trips_through_assembly() {
        // A node computed bins over local ranges [0,3) at absolute r0=2.
        let cube = tiny_cube(2, 4, 3, 3);
        let slab_a = BinSlab::from_cube(&cube, &[1, 3], 2);
        assert_eq!(slab_a.get(0, 1, 2, 4), cube.get(1, 1, 2, 2));

        // Another node covers absolute [0,2) and [5,6) missing → use two
        // slabs tiling [0,6).
        let cube_b = tiny_cube(2, 4, 3, 2);
        let slab_b = BinSlab::from_cube(&cube_b, &[1, 3], 0);
        let cube_c = tiny_cube(2, 4, 3, 1);
        let slab_c = BinSlab::from_cube(&cube_c, &[1, 3], 5);
        let full = assemble_bins(&[1, 3], 6, &[slab_a, slab_b, slab_c]).expect("tiled");
        assert_eq!(full.bins(), 2);
        assert_eq!(full.ranges(), 6);
        // Absolute gate 3 came from slab_a local r=1 of bin 3 (index 1).
        assert_eq!(full.get(1, 1, 0, 3), cube.get(1, 3, 0, 1));
        // Absolute gate 1 came from slab_b.
        assert_eq!(full.get(0, 0, 2, 1), cube_b.get(0, 1, 2, 1));
    }

    #[test]
    fn receivers_pick_their_bins_from_one_shared_slab() {
        // One sender buffer carrying bins 1, 3, 5 fans out by refcount; each
        // receiver assembles only the bins it owns, in its own order.
        let cube = tiny_cube(2, 6, 2, 4);
        let slab = BinSlab::from_cube(&cube, &[1, 3, 5], 0);
        let shared = slab.share();
        assert_eq!(shared.data.as_ptr(), slab.data.as_ptr(), "share() must not copy");
        let copied = slab.clone();
        assert_ne!(copied.data.as_ptr(), slab.data.as_ptr(), "clone() is the deep copy");
        for (mine, from) in [(vec![5, 1], shared), (vec![3], copied)] {
            let full = assemble_bins(&mine, 4, &[from]).expect("tiled");
            for (i, &b) in mine.iter().enumerate() {
                for s in 0..2 {
                    for c in 0..2 {
                        assert_eq!(full.row(s, i, c), cube.row(s, b, c));
                    }
                }
            }
        }
    }

    #[test]
    fn overlapping_slabs_still_cover_every_gate_once() {
        let cube = tiny_cube(1, 2, 1, 6);
        let bytes = cube.row(0, 1, 0).to_vec();
        let part = |r0: usize, r1: usize| {
            let mut dc = DopplerCube::zeros(1, 2, 1, r1 - r0);
            dc.row_mut(0, 1, 0).copy_from_slice(&bytes[r0..r1]);
            BinSlab::from_cube(&dc, &[1], r0)
        };
        let full = assemble_bins(&[1], 6, &[part(3, 6), part(0, 4), part(2, 3)]).expect("tiled");
        assert_eq!(full.row(0, 0, 0), &bytes[..]);
    }

    #[test]
    fn assembly_detects_gaps() {
        let cube = tiny_cube(1, 2, 1, 2);
        let slab = BinSlab::from_cube(&cube, &[0], 0);
        let err = assemble_bins(&[0], 4, &[slab]).unwrap_err();
        assert_eq!(err, AssemblyError::RangeGap { gate: 2 });
        assert!(format!("{err}").contains("do not tile"));
    }

    #[test]
    fn assembly_detects_missing_bin() {
        let cube = tiny_cube(1, 2, 1, 2);
        let slab = BinSlab::from_cube(&cube, &[0], 0);
        let err = assemble_bins(&[1], 2, &[slab]).unwrap_err();
        assert_eq!(err, AssemblyError::MissingBin(1));
        assert!(format!("{err}").contains("missing bin 1"));
    }

    #[test]
    fn assembly_rejects_empty_and_mismatched_slabs() {
        assert_eq!(assemble_bins(&[0], 2, &[]).unwrap_err(), AssemblyError::NoSlabs);
        let a = BinSlab::from_cube(&tiny_cube(1, 2, 1, 2), &[0], 0);
        let b = BinSlab::from_cube(&tiny_cube(2, 2, 1, 2), &[0], 0);
        assert_eq!(
            assemble_bins(&[0], 2, &[a.clone(), b]).unwrap_err(),
            AssemblyError::StaggerMismatch { expected: 1, found: 2 }
        );
        let c = BinSlab::from_cube(&tiny_cube(1, 2, 3, 2), &[0], 0);
        assert_eq!(
            assemble_bins(&[0], 2, &[a, c]).unwrap_err(),
            AssemblyError::ChannelMismatch { expected: 1, found: 3 }
        );
    }

    #[test]
    fn row_batch_accumulates_rows() {
        let mut b = RowBatch::new(3);
        b.push(4, 0, &[C32::one(); 3]);
        b.push(7, 1, &[C32::i(); 3]);
        assert_eq!(b.len(), 2);
        assert_eq!(b.rows[1], (7, 1));
        assert_eq!(b.row(1)[0], C32::i());
        let mut c = RowBatch::new(3);
        c.push(9, 0, &[C32::zero(); 3]);
        b.extend(c);
        assert_eq!(b.len(), 3);
        assert_eq!(b.rows[2], (9, 0));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "cannot take")]
    fn a_pooled_batch_never_grows() {
        let pool = SlabPool::new();
        let mut b = RowBatch::pooled(16, 1, &pool);
        b.push(0, 0, &[C32::one(); 16]);
        b.push(0, 1, &[C32::one(); 16]);
    }

    #[test]
    #[should_panic(expected = "row length")]
    fn row_length_checked() {
        RowBatch::new(4).push(0, 0, &[C32::zero(); 3]);
    }
}
