//! Configuration of a real-mode STAP pipeline run.

use crate::{IoStrategy, TailStructure};
use stap_ingest::{BackpressurePolicy, CpiRing};
use stap_kernels::cfar::CfarConfig;
use stap_kernels::cube::CubeDims;
use stap_kernels::doppler::DopplerConfig;
use stap_kernels::weights::{BeamSet, WeightMethod};
use stap_kernels::KernelPath;
use stap_model::tasktable::{task_slots, TaskSlot};
use stap_model::workload::TaskId;
use stap_pfs::{FaultPlan, FsConfig};
use stap_radar::{Motion, Scene};
use stap_store::CubeAccess;
use std::sync::Arc;
use std::time::Duration;

/// Retry budget for transient read failures: up to `attempts` re-reads
/// after the first failure, pausing `backoff · 2^attempt` between tries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Re-read attempts after the first failure (0 = fail immediately).
    pub attempts: u32,
    /// Base pause before the first retry; doubles each further retry.
    pub backoff: Duration,
}

impl RetryPolicy {
    /// No retries at all.
    pub fn none() -> Self {
        Self { attempts: 0, backoff: Duration::ZERO }
    }

    /// A budget of `attempts` retries starting at `backoff`.
    pub fn new(attempts: u32, backoff: Duration) -> Self {
        Self { attempts, backoff }
    }

    /// Pause before retry number `attempt` (0-based): exponential backoff,
    /// `backoff · 2^attempt` with the doubling capped at `2^6`.
    pub fn backoff_for(&self, attempt: u32) -> Duration {
        self.backoff.saturating_mul(Self::backoff_factor(attempt))
    }

    /// Base pauses before retry `attempt`: `2^attempt`, capped at `2^6` so
    /// pathological budgets stay bounded.
    fn backoff_factor(attempt: u32) -> u32 {
        1 << attempt.min(6)
    }
}

/// What a stage does when a CPI read keeps failing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailurePolicy {
    /// Tear the run down on the first failure (the strict default).
    #[default]
    Abort,
    /// Retry transient failures within the budget, then abort.
    Retry(RetryPolicy),
    /// Retry within the budget, then drop the CPI and propagate a gap
    /// bubble through the pipeline — degraded mode. More than
    /// `max_consecutive` back-to-back drops on one node still aborts.
    SkipCpi {
        /// Retry budget tried before giving a CPI up.
        retry: RetryPolicy,
        /// Largest tolerated run of consecutive dropped CPIs per node.
        max_consecutive: u32,
    },
}

/// What the read path does after attempt `n` of a read failed with a
/// retryable fault ([`FailurePolicy::after_failure`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AfterFailure {
    /// Pause this long, then make attempt `n + 1`.
    Retry(Duration),
    /// Out of retries under `SkipCpi`: drop the CPI as a gap bubble.
    Drop,
    /// Out of retries otherwise: end the run.
    Abort,
}

impl FailurePolicy {
    /// What follows the failure of read attempt `attempt` (0-based): a
    /// retry after its backoff while the budget lasts, then a drop under
    /// `SkipCpi` and an abort under the other policies.
    pub fn after_failure(&self, attempt: u32) -> AfterFailure {
        let (retry, exhausted) = match self {
            FailurePolicy::Abort => return AfterFailure::Abort,
            FailurePolicy::Retry(retry) => (retry, AfterFailure::Abort),
            FailurePolicy::SkipCpi { retry, .. } => (retry, AfterFailure::Drop),
        };
        if attempt < retry.attempts {
            AfterFailure::Retry(retry.backoff_for(attempt))
        } else {
            exhausted
        }
    }

    /// True when a run of `run` consecutive dropped CPIs on one node ends
    /// the run: more than `SkipCpi`'s `max_consecutive`.
    pub fn drop_run_ends(&self, run: u32) -> bool {
        matches!(self, FailurePolicy::SkipCpi { max_consecutive, .. } if run > *max_consecutive)
    }

    /// Parses the CLI grammar: `abort`, `retry:ATTEMPTS:BACKOFF_MS`, or
    /// `skip:ATTEMPTS:BACKOFF_MS:MAX_CONSECUTIVE`.
    ///
    /// # Errors
    /// Returns a message describing the malformed spec.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let parts: Vec<&str> = spec.split(':').collect();
        let int = |s: &str, what: &str| -> Result<u64, String> {
            s.parse::<u64>().map_err(|_| format!("bad {what} '{s}' in failure policy '{spec}'"))
        };
        match parts.as_slice() {
            ["abort"] => Ok(FailurePolicy::Abort),
            ["retry", a, ms] => Ok(FailurePolicy::Retry(RetryPolicy::new(
                int(a, "attempt count")? as u32,
                Duration::from_millis(int(ms, "backoff")?),
            ))),
            ["skip", a, ms, mc] => Ok(FailurePolicy::SkipCpi {
                retry: RetryPolicy::new(
                    int(a, "attempt count")? as u32,
                    Duration::from_millis(int(ms, "backoff")?),
                ),
                max_consecutive: int(mc, "consecutive budget")? as u32,
            }),
            _ => Err(format!(
                "bad failure policy '{spec}' (expected abort, retry:N:MS, or skip:N:MS:MAX)"
            )),
        }
    }
}

/// How a streamed run stages and paces its CPI cubes.
#[derive(Debug, Clone)]
pub struct StreamSettings {
    /// Staging-ring depth in cubes.
    pub depth: usize,
    /// What a push does when the ring is full.
    pub policy: BackpressurePolicy,
    /// Frontend delivery rate in cubes/second (0 = unpaced).
    pub rate: f64,
    /// Surface producer lag as transient read failures (exercises the
    /// `FailurePolicy` retry/skip machinery on stream stalls).
    pub strict_lag: bool,
    /// An externally owned staging ring to consume instead of spawning a
    /// run-local frontend (the benchmark attaches its own ring here; the
    /// attaching owner produces into and closes the ring).
    pub attach: Option<Arc<CpiRing>>,
}

impl Default for StreamSettings {
    fn default() -> Self {
        Self {
            depth: 4,
            policy: BackpressurePolicy::Block,
            rate: 0.0,
            strict_lag: false,
            attach: None,
        }
    }
}

/// Settings compare by value; an attached ring compares by identity.
impl PartialEq for StreamSettings {
    fn eq(&self, other: &Self) -> bool {
        let same_ring = match (&self.attach, &other.attach) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        };
        (self.depth, self.policy, self.rate, self.strict_lag)
            == (other.depth, other.policy, other.rate, other.strict_lag)
            && same_ring
    }
}

/// Where the pipeline front gets its CPI cubes.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum SourceSpec {
    /// Round-robin staging files on the parallel file system (the
    /// paper's design).
    #[default]
    File,
    /// The in-memory staging tier: a radar frontend pushes cubes into a
    /// bounded ring the pipeline pulls from.
    Stream(StreamSettings),
}

impl SourceSpec {
    /// Staging-ring depth this source occupies (`0` for file-fed).
    pub fn staging_depth(&self) -> usize {
        match self {
            SourceSpec::File => 0,
            SourceSpec::Stream(s) => s.depth,
        }
    }

    /// Parses the CLI grammar: `file`, `stream`, or
    /// `stream:depth=N,policy=block|drop-oldest|reject,rate=R,strict-lag`
    /// (options comma-separated, any subset).
    ///
    /// # Errors
    /// Returns a message describing the malformed spec.
    pub fn parse(spec: &str) -> Result<Self, String> {
        if spec == "file" {
            return Ok(SourceSpec::File);
        }
        if spec == "stream" {
            return Ok(SourceSpec::Stream(StreamSettings::default()));
        }
        let Some(rest) = spec.strip_prefix("stream:") else {
            return Err(format!("--source must be file|stream[:opts], got '{spec}'"));
        };
        let mut s = StreamSettings::default();
        for token in rest.split(',').filter(|t| !t.is_empty()) {
            match token.split_once('=') {
                Some(("depth", v)) => {
                    s.depth =
                        v.parse().map_err(|_| format!("bad stream depth '{v}' in '{spec}'"))?;
                    if s.depth == 0 {
                        return Err("stream depth must be at least 1".into());
                    }
                }
                Some(("policy", v)) => s.policy = BackpressurePolicy::parse(v)?,
                Some(("rate", v)) => {
                    let r: f64 =
                        v.parse().map_err(|_| format!("bad stream rate '{v}' in '{spec}'"))?;
                    if !(r >= 0.0 && r.is_finite()) {
                        return Err("stream rate must be a non-negative number".into());
                    }
                    s.rate = r;
                }
                None if token == "strict-lag" => s.strict_lag = true,
                _ => {
                    return Err(format!(
                        "unknown stream option '{token}' (expected depth=N, \
                         policy=block|drop-oldest|reject, rate=R, strict-lag)"
                    ))
                }
            }
        }
        Ok(SourceSpec::Stream(s))
    }
}

/// Stage watchdog settings: each stage must finish every CPI within
/// `factor ×` its predicted per-CPI time, never less than `floor`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WatchdogPolicy {
    /// Multiple of the predicted per-stage CPI time allowed per iteration.
    pub factor: f64,
    /// Minimum deadline regardless of prediction (absorbs scheduling
    /// noise and injected slow-read latency on small shapes).
    pub floor: Duration,
}

impl Default for WatchdogPolicy {
    fn default() -> Self {
        Self { factor: 100.0, floor: Duration::from_secs(5) }
    }
}

/// Node counts for the real executor (threads). These are deliberately
/// small — the paper-scale 25/100-node runs happen in virtual time; the
/// real run proves correctness and phase structure on a workstation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeCounts {
    /// Separate I/O task nodes (ignored when I/O is embedded).
    pub read: usize,
    /// Doppler filter nodes.
    pub doppler: usize,
    /// Easy weight nodes.
    pub easy_weight: usize,
    /// Hard weight nodes.
    pub hard_weight: usize,
    /// Easy beamforming nodes.
    pub easy_bf: usize,
    /// Hard beamforming nodes.
    pub hard_bf: usize,
    /// Pulse compression nodes.
    pub pulse: usize,
    /// CFAR nodes.
    pub cfar: usize,
}

impl Default for NodeCounts {
    fn default() -> Self {
        Self {
            read: 2,
            doppler: 2,
            easy_weight: 1,
            hard_weight: 2,
            easy_bf: 1,
            hard_bf: 2,
            pulse: 2,
            cfar: 1,
        }
    }
}

impl NodeCounts {
    /// Nodes of one task — the only place a task maps to a node count.
    pub fn of(&self, task: TaskId) -> usize {
        match task {
            TaskId::Read => self.read,
            TaskId::Doppler => self.doppler,
            TaskId::EasyWeight => self.easy_weight,
            TaskId::HardWeight => self.hard_weight,
            TaskId::EasyBeamform => self.easy_bf,
            TaskId::HardBeamform => self.hard_bf,
            TaskId::PulseCompression => self.pulse,
            TaskId::Cfar => self.cfar,
        }
    }

    /// Nodes of one pipeline stage: the sum over the tasks it runs (a
    /// combined tail runs on the PC and CFAR nodes together).
    pub(crate) fn of_slot(&self, slot: &TaskSlot) -> usize {
        slot.members().map(|t| self.of(t)).sum()
    }

    /// Total threads a run will use under the given strategy/tail.
    pub fn total(&self, io: IoStrategy, tail: TailStructure) -> usize {
        task_slots(io, tail).iter().map(|slot| self.of_slot(slot)).sum()
    }
}

/// Full configuration of a real pipeline run.
#[derive(Debug, Clone, PartialEq)]
pub struct StapConfig {
    /// CPI cube geometry.
    pub dims: CubeDims,
    /// Radar scenario generating the input cubes.
    pub scene: Scene,
    /// Scene kinematics between CPIs (target/jammer motion). Plays out
    /// across the `fanout` staged cubes identically for file staging and
    /// the stream frontend; set `fanout = cpis` to give every CPI its own
    /// cube of a maneuvering scenario.
    pub motion: Motion,
    /// Doppler filter settings (window, stagger, bin classification).
    pub doppler: DopplerConfig,
    /// Beam set (look directions).
    pub beams: BeamSet,
    /// Adaptive weight algorithm (MVDR or eigencanceler).
    pub weight_method: WeightMethod,
    /// CFAR detector settings.
    pub cfar: CfarConfig,
    /// Pulse-compression waveform length (range samples).
    pub waveform_len: usize,
    /// File system to stage CPI files on.
    pub fs: FsConfig,
    /// Number of round-robin CPI files ("a total of four data sets stored
    /// as four files").
    pub fanout: usize,
    /// Where the pipeline front gets its CPI cubes (staging files or the
    /// streaming staging tier).
    pub source: SourceSpec,
    /// I/O design under test.
    pub io: IoStrategy,
    /// How demand reads materialize their cube slabs: fully resident
    /// (the default) or out-of-core through footprint-bounded chunks
    /// (`--access ooc:ROWS`). Out-of-core runs route through the
    /// `stap-store` tier even under plain embedded/separate I/O.
    pub access: CubeAccess,
    /// Tail structure under test.
    pub tail: TailStructure,
    /// Node counts.
    pub nodes: NodeCounts,
    /// CPIs to push through.
    pub cpis: u64,
    /// Leading CPIs excluded from steady-state metrics.
    pub warmup: u64,
    /// RNG seed for the radar scene.
    pub seed: u64,
    /// When set, the final task writes each CPI's detection report back to
    /// the parallel file system (`report_<cpi>.dat`) — the output side of
    /// the I/O story.
    pub record_reports: bool,
    /// Response to failing CPI reads (abort, retry, or degrade by
    /// dropping CPIs).
    pub failure_policy: FailurePolicy,
    /// Deterministic fault schedule installed on the file system before
    /// the run (None = fault-free).
    pub fault_plan: Option<FaultPlan>,
    /// Stage watchdog deadlines (None = no watchdog, today's behavior).
    pub watchdog: Option<WatchdogPolicy>,
    /// When set, the run captures its internal detection-quality products
    /// (angle-Doppler power surfaces, published weight sets) in a
    /// [`crate::stages::QualityTap`] the verification layer reads back.
    /// Off by default: the tap clones every weight set.
    pub quality_tap: bool,
    /// Which kernel implementations the compute stages run: the fast path,
    /// or the bit-identical scalar reference that differential tests and
    /// the benchmark's oracle run compare against.
    pub kernel_path: KernelPath,
    /// The oracle's data plane: when set, stages allocate fresh (unpooled)
    /// message buffers and deep-copy every payload at the send boundary
    /// instead of passing slab ownership.
    pub copy_comm: bool,
}

impl Default for StapConfig {
    fn default() -> Self {
        Self {
            // Small enough to run on a workstation in seconds while still
            // exercising every code path (staggered bins, training, CFAR).
            dims: CubeDims::new(32, 8, 128),
            scene: Scene::benchmark_small(),
            motion: Motion::default(),
            doppler: DopplerConfig::default(),
            beams: BeamSet::default(),
            weight_method: WeightMethod::Mvdr,
            cfar: CfarConfig::default(),
            waveform_len: 8,
            fs: FsConfig::paragon_pfs(16),
            fanout: 4,
            source: SourceSpec::File,
            io: IoStrategy::Embedded,
            access: CubeAccess::Resident,
            tail: TailStructure::Split,
            nodes: NodeCounts::default(),
            cpis: 6,
            warmup: 2,
            seed: 7,
            record_reports: false,
            failure_policy: FailurePolicy::default(),
            fault_plan: None,
            watchdog: None,
            quality_tap: false,
            kernel_path: KernelPath::Fast,
            copy_comm: false,
        }
    }
}

impl StapConfig {
    /// File name of the `slot`-th round-robin CPI file.
    pub fn file_name(slot: usize) -> String {
        format!("cpi_{slot}.dat")
    }

    /// The same run configuration with the CPI files restriped — the
    /// real-mode counterpart of the planner's stripe-factor axis.
    pub fn with_stripe(mut self, stripe: stap_pfs::StripeConfig) -> Self {
        self.fs = self.fs.with_stripe(stripe);
        self
    }

    /// The same run configuration with reads paced at `scale ×` their
    /// modeled service time, so the phase tables of a real (wall-clock)
    /// run reproduce the paper's I/O-bound shapes at laptop speed.
    pub fn with_read_pacing(mut self, scale: f64) -> Self {
        self.fs = self.fs.with_read_pacing(scale);
        self
    }

    /// Number of Doppler bins the pipeline will produce.
    pub fn nbins(&self) -> usize {
        self.dims.pulses.next_power_of_two()
    }

    /// Whether file reads go through the `stap-store` tier: a `cached:MB`
    /// strategy, or out-of-core access under any strategy.
    pub fn routes_through_store(&self) -> bool {
        self.io.uses_store_tier() || self.access != CubeAccess::Resident
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_count_read_task_only_when_separate() {
        let n = NodeCounts::default();
        let embedded = n.total(IoStrategy::Embedded, TailStructure::Split);
        let separate = n.total(IoStrategy::SeparateTask, TailStructure::Split);
        assert_eq!(separate, embedded + n.read);
    }

    #[test]
    fn default_config_is_consistent() {
        let c = StapConfig::default();
        assert_eq!(c.nbins(), 32);
        assert!(c.cpis > c.warmup);
        assert_eq!(StapConfig::file_name(2), "cpi_2.dat");
    }

    #[test]
    fn failure_policy_grammar_round_trips() {
        assert_eq!(FailurePolicy::parse("abort").unwrap(), FailurePolicy::Abort);
        assert_eq!(
            FailurePolicy::parse("retry:3:20").unwrap(),
            FailurePolicy::Retry(RetryPolicy::new(3, Duration::from_millis(20)))
        );
        assert_eq!(
            FailurePolicy::parse("skip:2:5:4").unwrap(),
            FailurePolicy::SkipCpi {
                retry: RetryPolicy::new(2, Duration::from_millis(5)),
                max_consecutive: 4,
            }
        );
        assert!(FailurePolicy::parse("retry:3").unwrap_err().contains("bad failure policy"));
        assert!(FailurePolicy::parse("retry:x:5").unwrap_err().contains("attempt count"));
    }

    #[test]
    fn retry_backoff_doubles_and_saturates() {
        let r = RetryPolicy::new(4, Duration::from_millis(10));
        assert_eq!(r.backoff_for(0), Duration::from_millis(10));
        assert_eq!(r.backoff_for(1), Duration::from_millis(20));
        assert_eq!(r.backoff_for(3), Duration::from_millis(80));
        // The doubling caps: huge attempt numbers stay finite.
        assert_eq!(r.backoff_for(40), Duration::from_millis(10 * 64));
        assert_eq!(RetryPolicy::none().backoff_for(5), Duration::ZERO);
    }

    #[test]
    fn the_policy_decides_what_follows_a_failure() {
        let abort = FailurePolicy::Abort;
        assert_eq!(abort.after_failure(0), AfterFailure::Abort);
        assert!(!abort.drop_run_ends(u32::MAX));
        let retry = FailurePolicy::Retry(RetryPolicy::new(2, Duration::from_millis(10)));
        assert_eq!(retry.after_failure(0), AfterFailure::Retry(Duration::from_millis(10)));
        assert_eq!(retry.after_failure(1), AfterFailure::Retry(Duration::from_millis(20)));
        assert_eq!(retry.after_failure(2), AfterFailure::Abort);
        assert!(!retry.drop_run_ends(u32::MAX));
        let skip = FailurePolicy::SkipCpi {
            retry: RetryPolicy::new(1, Duration::ZERO),
            max_consecutive: 2,
        };
        assert_eq!(skip.after_failure(0), AfterFailure::Retry(Duration::ZERO));
        assert_eq!(skip.after_failure(1), AfterFailure::Drop);
        assert!(!skip.drop_run_ends(2));
        assert!(skip.drop_run_ends(3));
    }

    #[test]
    fn source_spec_grammar_round_trips() {
        assert!(matches!(SourceSpec::parse("file").unwrap(), SourceSpec::File));
        assert_eq!(SourceSpec::default(), SourceSpec::File);
        assert_eq!(SourceSpec::File.staging_depth(), 0);
        assert_eq!(SourceSpec::parse("stream").unwrap().staging_depth(), 4);
        let SourceSpec::Stream(s) = SourceSpec::parse("stream").unwrap() else {
            panic!("expected stream")
        };
        assert_eq!(s.depth, 4);
        assert_eq!(s.policy, BackpressurePolicy::Block);
        let spec = "stream:depth=8,policy=drop-oldest,rate=2.5,strict-lag";
        let SourceSpec::Stream(s) = SourceSpec::parse(spec).unwrap() else {
            panic!("expected stream")
        };
        assert_eq!(s.depth, 8);
        assert_eq!(s.policy, BackpressurePolicy::DropOldest);
        assert_eq!(s.rate, 2.5);
        assert!(s.strict_lag);
        assert!(SourceSpec::parse("tape").unwrap_err().contains("file|stream"));
        assert!(SourceSpec::parse("stream:depth=0").unwrap_err().contains("at least 1"));
        assert!(SourceSpec::parse("stream:policy=lossy").unwrap_err().contains("block|"));
        assert!(SourceSpec::parse("stream:rate=-1").unwrap_err().contains("non-negative"));
        assert!(SourceSpec::parse("stream:frob=1").unwrap_err().contains("unknown stream option"));
    }

    #[test]
    fn restriping_a_run_config_changes_only_the_fs() {
        let c = StapConfig::default();
        let sf = c.fs.stripe().factor;
        let r = c.clone().with_stripe(stap_pfs::StripeConfig::new(c.fs.stripe_unit, sf * 4));
        assert_eq!(r.fs.stripe().factor, sf * 4);
        assert_eq!(r.dims, c.dims);
        assert_eq!(r.nodes, c.nodes);
    }
}
