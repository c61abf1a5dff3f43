//! Per-task workloads (FLOPs) and inter-task message volumes (bytes),
//! derived analytically from the CPI cube geometry.
//!
//! The formulas mirror the arithmetic `stap-kernels` actually performs, so
//! the virtual-time experiments and the real executor agree on relative
//! task weights. Complex operation costs: one complex multiply-accumulate
//! counts 8 real FLOPs; an `n`-point complex FFT counts `5·n·log2 n`.

/// The tasks of the STAP pipeline, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TaskId {
    /// Parallel file read (a task of its own only in the separate-I/O
    /// design).
    Read,
    /// Task 0/1: Doppler filter processing (includes both the full-CPI easy
    /// filtering and the two staggered hard filterings).
    Doppler,
    /// Easy weight computation (temporal dependency).
    EasyWeight,
    /// Hard weight computation (temporal dependency).
    HardWeight,
    /// Easy beamforming.
    EasyBeamform,
    /// Hard beamforming.
    HardBeamform,
    /// Pulse compression.
    PulseCompression,
    /// CFAR processing.
    Cfar,
}

impl TaskId {
    /// The seven compute tasks in pipeline order (no Read).
    pub const SEVEN: [TaskId; 7] = [
        TaskId::Doppler,
        TaskId::EasyWeight,
        TaskId::HardWeight,
        TaskId::EasyBeamform,
        TaskId::HardBeamform,
        TaskId::PulseCompression,
        TaskId::Cfar,
    ];

    /// True for the weight tasks, which consume the *previous* CPI's data
    /// ("temporal data dependency") and therefore do not contribute to
    /// latency (paper Eq. 2).
    pub fn is_temporal(self) -> bool {
        matches!(self, TaskId::EasyWeight | TaskId::HardWeight)
    }

    /// Short label used in the experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            TaskId::Read => "parallel read",
            TaskId::Doppler => "Doppler filter",
            TaskId::EasyWeight => "easy weight",
            TaskId::HardWeight => "hard weight",
            TaskId::EasyBeamform => "easy BF",
            TaskId::HardBeamform => "hard BF",
            TaskId::PulseCompression => "pulse compr",
            TaskId::Cfar => "CFAR",
        }
    }
}

/// Geometry and algorithm parameters that determine the workloads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShapeParams {
    /// Pulses per CPI.
    pub pulses: usize,
    /// Receive channels.
    pub channels: usize,
    /// Range gates.
    pub ranges: usize,
    /// Fraction of Doppler bins classified hard.
    pub hard_fraction: f64,
    /// Beams formed per bin.
    pub beams: usize,
    /// Covariance training range-gate stride.
    pub training_stride: usize,
    /// Pulse-compression waveform length in range samples.
    pub waveform_len: usize,
}

impl ShapeParams {
    /// The paper's calibrated default: a 128×32×512 complex32 cube
    /// (16 MiB), half the bins hard, 2 beams.
    pub fn paper_default() -> Self {
        Self {
            pulses: 128,
            channels: 32,
            ranges: 512,
            hard_fraction: 0.5,
            beams: 2,
            training_stride: 4,
            waveform_len: 16,
        }
    }

    /// FFT length (bins) for the Doppler dimension.
    pub fn nbins(&self) -> usize {
        self.pulses.next_power_of_two()
    }

    /// Number of hard bins.
    pub fn hard_bins(&self) -> usize {
        (self.hard_fraction * self.nbins() as f64).round() as usize
    }

    /// Number of easy bins.
    pub fn easy_bins(&self) -> usize {
        self.nbins() - self.hard_bins()
    }

    /// Easy degrees of freedom (spatial only).
    pub fn dof_easy(&self) -> usize {
        self.channels
    }

    /// Hard degrees of freedom (two staggers).
    pub fn dof_hard(&self) -> usize {
        2 * self.channels
    }

    /// Training snapshots per covariance estimate.
    pub fn training_count(&self) -> usize {
        self.ranges.div_ceil(self.training_stride)
    }

    /// Raw CPI cube size in bytes (complex32 = 8 bytes).
    pub fn cube_bytes(&self) -> usize {
        self.pulses * self.channels * self.ranges * 8
    }
}

/// Per-task FLOPs and per-edge message bytes for one CPI.
#[derive(Debug, Clone)]
pub struct StapWorkload {
    /// Shape it was derived from.
    pub shape: ShapeParams,
    flops: [f64; 8],
}

fn fft_flops(n: usize) -> f64 {
    5.0 * n as f64 * (n as f64).log2()
}

impl StapWorkload {
    /// Derives all workloads from the shape.
    pub fn derive(shape: ShapeParams) -> Self {
        let nb = shape.nbins();
        let (eb, hb) = (shape.easy_bins(), shape.hard_bins());
        let (de, dh) = (shape.dof_easy() as f64, shape.dof_hard() as f64);
        let k = shape.training_count() as f64;
        let cr = (shape.channels * shape.ranges) as f64;
        let beams = shape.beams as f64;

        // Doppler: per (channel, range) one full-length windowed FFT (easy
        // path) plus two staggered segment FFTs (hard path); window = 6
        // flops per point.
        let w_dop = cr * (3.0 * fft_flops(nb) + 3.0 * 6.0 * shape.pulses as f64);

        // Weights: covariance accumulation (8·dof² per snapshot) + Cholesky
        // (8/3·dof³) + per-beam solve (2 triangular solves ≈ 8·dof² each).
        let w_ew =
            eb as f64 * (8.0 * de * de * k + 8.0 / 3.0 * de.powi(3) + beams * 16.0 * de * de);
        let w_hw =
            hb as f64 * (8.0 * dh * dh * k + 8.0 / 3.0 * dh.powi(3) + beams * 16.0 * dh * dh);

        // Beamforming: one dof-length dot product per (bin, range, beam).
        let w_ebf = eb as f64 * shape.ranges as f64 * beams * 8.0 * de;
        let w_hbf = hb as f64 * shape.ranges as f64 * beams * 8.0 * dh;

        // Pulse compression: per (bin, beam) row, forward+inverse FFT of the
        // padded length plus the spectrum multiply.
        let lr = (shape.ranges + shape.waveform_len - 1).next_power_of_two();
        let w_pc = nb as f64 * beams * (2.0 * fft_flops(lr) + 8.0 * lr as f64);

        // CFAR: per cell, two training-window means with guard handling,
        // threshold scaling, compare, plus post-detection clustering and
        // report assembly — ≈200 flops per cell (this mirrors the real
        // `stap-kernels` CA/GO/SO implementation, which rescans both
        // windows per cell rather than using a rolling sum).
        let w_cf = nb as f64 * beams * shape.ranges as f64 * 200.0;

        let mut flops = [0.0f64; 8];
        flops[Self::idx(TaskId::Read)] = 0.0;
        flops[Self::idx(TaskId::Doppler)] = w_dop;
        flops[Self::idx(TaskId::EasyWeight)] = w_ew;
        flops[Self::idx(TaskId::HardWeight)] = w_hw;
        flops[Self::idx(TaskId::EasyBeamform)] = w_ebf;
        flops[Self::idx(TaskId::HardBeamform)] = w_hbf;
        flops[Self::idx(TaskId::PulseCompression)] = w_pc;
        flops[Self::idx(TaskId::Cfar)] = w_cf;
        Self { shape, flops }
    }

    fn idx(t: TaskId) -> usize {
        match t {
            TaskId::Read => 0,
            TaskId::Doppler => 1,
            TaskId::EasyWeight => 2,
            TaskId::HardWeight => 3,
            TaskId::EasyBeamform => 4,
            TaskId::HardBeamform => 5,
            TaskId::PulseCompression => 6,
            TaskId::Cfar => 7,
        }
    }

    /// FLOPs of one task per CPI.
    pub fn flops(&self, t: TaskId) -> f64 {
        self.flops[Self::idx(t)]
    }

    /// Total FLOPs per CPI over the seven compute tasks.
    pub fn total_flops(&self) -> f64 {
        TaskId::SEVEN.iter().map(|&t| self.flops(t)).sum()
    }

    /// Bytes a task receives per CPI from its spatial predecessor.
    pub fn input_bytes(&self, t: TaskId) -> usize {
        let s = &self.shape;
        let nb = s.nbins();
        let per_bin_ch_rg = s.channels * s.ranges * 8;
        match t {
            TaskId::Read => 0,
            // The raw cube off disk.
            TaskId::Doppler => s.cube_bytes(),
            // Doppler output for their bins (weights read the previous CPI).
            TaskId::EasyWeight | TaskId::EasyBeamform => s.easy_bins() * per_bin_ch_rg,
            TaskId::HardWeight | TaskId::HardBeamform => s.hard_bins() * 2 * per_bin_ch_rg,
            // Beamformed rows for every bin.
            TaskId::PulseCompression | TaskId::Cfar => nb * s.beams * s.ranges * 8,
        }
    }

    /// Bytes a task sends per CPI to its spatial successor.
    pub fn output_bytes(&self, t: TaskId) -> usize {
        let s = &self.shape;
        match t {
            TaskId::Read => s.cube_bytes(),
            TaskId::Doppler => {
                // To easy BF + hard BF (and the same again to the weight
                // tasks for the next CPI).
                2 * (self.input_bytes(TaskId::EasyBeamform)
                    + self.input_bytes(TaskId::HardBeamform))
            }
            // Weight vectors: dof per (bin, beam).
            TaskId::EasyWeight => s.easy_bins() * s.beams * s.dof_easy() * 8,
            TaskId::HardWeight => s.hard_bins() * s.beams * s.dof_hard() * 8,
            TaskId::EasyBeamform => s.easy_bins() * s.beams * s.ranges * 8,
            TaskId::HardBeamform => s.hard_bins() * s.beams * s.ranges * 8,
            TaskId::PulseCompression => self.input_bytes(TaskId::Cfar),
            // Detection reports: small, call it 4 KiB.
            TaskId::Cfar => 4096,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_cube_is_16_mib() {
        let s = ShapeParams::paper_default();
        assert_eq!(s.cube_bytes(), 16 * 1024 * 1024);
        assert_eq!(s.nbins(), 128);
        assert_eq!(s.hard_bins(), 64);
        assert_eq!(s.easy_bins(), 64);
        assert_eq!(s.dof_hard(), 64);
        assert_eq!(s.training_count(), 128);
    }

    #[test]
    fn hard_tasks_outweigh_easy_tasks() {
        let w = StapWorkload::derive(ShapeParams::paper_default());
        assert!(w.flops(TaskId::HardWeight) > 2.0 * w.flops(TaskId::EasyWeight));
        assert!(w.flops(TaskId::HardBeamform) > w.flops(TaskId::EasyBeamform));
    }

    #[test]
    fn hard_weight_is_the_largest_task() {
        // Matches the paper's tables: the hard weight task gets the most
        // nodes.
        let w = StapWorkload::derive(ShapeParams::paper_default());
        for t in TaskId::SEVEN {
            assert!(w.flops(TaskId::HardWeight) >= w.flops(t), "{t:?}");
        }
    }

    #[test]
    fn total_flops_is_sum_of_tasks() {
        let w = StapWorkload::derive(ShapeParams::paper_default());
        let sum: f64 = TaskId::SEVEN.iter().map(|&t| w.flops(t)).sum();
        assert_eq!(w.total_flops(), sum);
        assert!(w.total_flops() > 0.0);
    }

    #[test]
    fn message_volumes_are_consistent() {
        let w = StapWorkload::derive(ShapeParams::paper_default());
        // PC receives what both beamformers send.
        assert_eq!(
            w.input_bytes(TaskId::PulseCompression),
            w.output_bytes(TaskId::EasyBeamform) + w.output_bytes(TaskId::HardBeamform)
        );
        // Doppler receives the raw cube that Read sends.
        assert_eq!(w.input_bytes(TaskId::Doppler), w.output_bytes(TaskId::Read));
        // CFAR passes through PC's volume.
        assert_eq!(w.input_bytes(TaskId::Cfar), w.output_bytes(TaskId::PulseCompression));
    }

    #[test]
    fn temporal_flags() {
        assert!(TaskId::EasyWeight.is_temporal());
        assert!(TaskId::HardWeight.is_temporal());
        assert!(!TaskId::Doppler.is_temporal());
        assert!(!TaskId::Cfar.is_temporal());
    }

    #[test]
    fn workload_scales_with_geometry() {
        let small =
            StapWorkload::derive(ShapeParams { ranges: 256, ..ShapeParams::paper_default() });
        let big = StapWorkload::derive(ShapeParams::paper_default());
        assert!(big.flops(TaskId::Doppler) > 1.9 * small.flops(TaskId::Doppler));
        assert!(big.flops(TaskId::EasyBeamform) > 1.9 * small.flops(TaskId::EasyBeamform));
    }

    #[test]
    fn labels_are_table_ready() {
        assert_eq!(TaskId::Doppler.label(), "Doppler filter");
        assert_eq!(TaskId::PulseCompression.label(), "pulse compr");
    }
}
