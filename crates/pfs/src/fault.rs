//! Seeded, deterministic fault injection — the dm-flakey analogue grown
//! into a schedule.
//!
//! A [`FaultPlan`] is a reproducible description of every transient fault a
//! run will see: per-file and per-stripe-server outages over CPI windows,
//! attempt-transient faults (the first `k` attempts of a read fail, then it
//! recovers — an outage shorter than a retry budget), probabilistically
//! flaky reads, and slow-read latency spikes (straggler stripes). Every
//! decision is a pure function of `(seed, file, cpi, attempt)`, so a
//! recorded seed replays the exact same fault schedule.
//!
//! The plan is consulted only by the CPI-addressed read path
//! ([`crate::file::FileHandle::read_at_cpi`]); plain `read_at` calls (file
//! staging, diagnostics) bypass it, like a fault injector keyed on the
//! application's I/O identifiers rather than raw offsets.

use std::time::Duration;

/// Half-open CPI interval `[from, until)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultWindow {
    /// First CPI affected.
    pub from: u64,
    /// First CPI no longer affected (`u64::MAX` = never recovers).
    pub until: u64,
}

impl FaultWindow {
    /// The window `[from, until)`.
    ///
    /// # Panics
    /// Panics when `from >= until` (an empty window is always a spec bug).
    pub fn new(from: u64, until: u64) -> Self {
        assert!(from < until, "fault window [{from}, {until}) is empty");
        Self { from, until }
    }

    /// A window covering every CPI.
    pub fn always() -> Self {
        Self { from: 0, until: u64::MAX }
    }

    /// True when `cpi` falls inside the window.
    pub fn contains(&self, cpi: u64) -> bool {
        self.from <= cpi && cpi < self.until
    }
}

/// One injected fault.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// Every read of `file` fails during the window, regardless of retries
    /// (the disk path is down for those CPIs).
    FileUnavailable {
        /// Target file name.
        file: String,
        /// Affected CPIs.
        window: FaultWindow,
    },
    /// Reads whose stripe mapping touches server `server` fail during the
    /// window — a stripe-store outage; files striped around it survive.
    ServerUnavailable {
        /// Stripe-server index (0-based).
        server: usize,
        /// Affected CPIs.
        window: FaultWindow,
    },
    /// The first `fail_attempts` attempts of each read of `file` during the
    /// window fail, then the read succeeds — a transient outage shorter
    /// than a sufficiently large retry budget.
    Transient {
        /// Target file name.
        file: String,
        /// Failing attempts per read before recovery.
        fail_attempts: u32,
        /// Affected CPIs.
        window: FaultWindow,
    },
    /// Each attempt to read `file` fails independently with probability
    /// `p`, deterministically derived from `(seed, file, cpi, attempt)`.
    Flaky {
        /// Target file name.
        file: String,
        /// Per-attempt failure probability in `[0, 1]`.
        p: f64,
        /// Affected CPIs.
        window: FaultWindow,
    },
    /// Reads of `file` during the window complete but take an extra
    /// `delay` — a straggler stripe, visible to stage watchdogs.
    SlowRead {
        /// Target file name.
        file: String,
        /// Added latency per read.
        delay: Duration,
        /// Affected CPIs.
        window: FaultWindow,
    },
    /// Fleet-level: stripe server `server` is *permanently* lost from CPI
    /// `from` onward. Unlike [`Fault::ServerUnavailable`] this never
    /// recovers and the decision is terminal ([`ReadDecision::Lost`]) —
    /// retries are futile; only failover to a degraded layout helps.
    ServerLoss {
        /// Stripe-server index (0-based).
        server: usize,
        /// First CPI at which the server is gone.
        from: u64,
    },
    /// Fleet-level: the compute node hosting the reader crashes mid-CPI
    /// during the window. Every read issued in the window fails terminally
    /// ([`ReadDecision::Lost`]) — the pipeline instance on that node is
    /// dead; recovery means replica promotion or checkpoint restart.
    NodeCrash {
        /// Crashed node index (0-based).
        node: usize,
        /// CPIs during which the node is down.
        window: FaultWindow,
    },
}

impl Fault {
    fn window(&self) -> FaultWindow {
        match self {
            Fault::FileUnavailable { window, .. }
            | Fault::ServerUnavailable { window, .. }
            | Fault::Transient { window, .. }
            | Fault::Flaky { window, .. }
            | Fault::SlowRead { window, .. }
            | Fault::NodeCrash { window, .. } => *window,
            Fault::ServerLoss { from, .. } => FaultWindow { from: *from, until: u64::MAX },
        }
    }
}

/// Which piece of fleet infrastructure a terminal read decision lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LostUnit {
    /// A stripe server of the shared store.
    Server(usize),
    /// A compute node of the pool.
    Node(usize),
}

/// What the plan decided for one read attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadDecision {
    /// The read proceeds, after the given injected extra latency.
    Proceed {
        /// Straggler delay to serve first (zero when no slow-read fault
        /// matched).
        delay: Duration,
    },
    /// The read fails; `detail` names the injected cause.
    Fail {
        /// Root-cause description (fault kind and window).
        detail: String,
    },
    /// The read fails *permanently*: fleet infrastructure is gone and no
    /// retry can clear it. Maps to [`crate::PfsError::ServerLost`] /
    /// [`crate::PfsError::NodeLost`].
    Lost {
        /// What was lost.
        unit: LostUnit,
    },
}

/// A reproducible, seeded fault schedule.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    seed: u64,
    faults: Vec<Fault>,
}

/// FNV-1a, the same mixing the proptest shim uses for test names.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// splitmix64 finalizer: decorrelates the combined key bits.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// An empty plan with the given seed (faults added via [`Self::with`]).
    pub fn new(seed: u64) -> Self {
        Self { seed, faults: Vec::new() }
    }

    /// The recorded seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The scheduled faults.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// True when no fault is scheduled.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Adds a fault (builder style).
    pub fn with(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }

    /// Deterministic Bernoulli draw for a flaky fault.
    fn flaky_hit(&self, p: f64, file: &str, cpi: u64, attempt: u32) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        let key =
            mix(self.seed ^ fnv1a(file.as_bytes()) ^ cpi.rotate_left(17) ^ (attempt as u64) << 1);
        (key >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < p
    }

    /// Decides the fate of read `attempt` (0-based) of `file` for `cpi`,
    /// whose stripe mapping touches `servers`.
    pub fn read_decision(
        &self,
        file: &str,
        cpi: u64,
        attempt: u32,
        servers: &[usize],
    ) -> ReadDecision {
        let mut delay = Duration::ZERO;
        for fault in &self.faults {
            if !fault.window().contains(cpi) {
                continue;
            }
            match fault {
                Fault::FileUnavailable { file: f, window } => {
                    if f == file {
                        return ReadDecision::Fail {
                            detail: format!(
                                "file unavailable for CPIs [{}, {})",
                                window.from, window.until
                            ),
                        };
                    }
                }
                Fault::ServerUnavailable { server, window } => {
                    if servers.contains(server) {
                        return ReadDecision::Fail {
                            detail: format!(
                                "stripe server {server} unavailable for CPIs [{}, {})",
                                window.from, window.until
                            ),
                        };
                    }
                }
                Fault::Transient { file: f, fail_attempts, .. } => {
                    if f == file && attempt < *fail_attempts {
                        return ReadDecision::Fail {
                            detail: format!(
                                "transient fault (attempt {} of {} failing)",
                                attempt + 1,
                                fail_attempts
                            ),
                        };
                    }
                }
                Fault::Flaky { file: f, p, .. } => {
                    if f == file && self.flaky_hit(*p, file, cpi, attempt) {
                        return ReadDecision::Fail {
                            detail: format!("flaky read (p = {p}, seed {})", self.seed),
                        };
                    }
                }
                Fault::SlowRead { file: f, delay: d, .. } => {
                    if f == file {
                        delay += *d;
                    }
                }
                Fault::ServerLoss { server, .. } => {
                    if servers.contains(server) {
                        return ReadDecision::Lost { unit: LostUnit::Server(*server) };
                    }
                }
                Fault::NodeCrash { node, .. } => {
                    return ReadDecision::Lost { unit: LostUnit::Node(*node) };
                }
            }
        }
        ReadDecision::Proceed { delay }
    }

    /// Parses a comma-separated fault spec (the `--fault-plan` grammar):
    ///
    /// * `file:NAME@A..B` — `NAME` unavailable for CPIs `[A, B)` (either
    ///   bound may be omitted: `@..B`, `@A..`, `@..`).
    /// * `server:IDX@A..B` — stripe server `IDX` down for the window.
    /// * `transient:NAME:K@A..B` — first `K` attempts of each read fail.
    /// * `flaky:NAME:P@A..B` — each attempt fails with probability `P`.
    /// * `slow:NAME:MS@A..B` — reads take an extra `MS` milliseconds.
    /// * `server-loss:IDX@T` — stripe server `IDX` permanently lost from
    ///   CPI `T` onward (terminal, not retryable).
    /// * `node:IDX@A..B` — compute node `IDX` crashes for CPIs `[A, B)`;
    ///   reads issued in the window fail terminally.
    pub fn parse(spec: &str, seed: u64) -> Result<Self, String> {
        let mut plan = FaultPlan::new(seed);
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            plan.faults.push(parse_fault(part)?);
        }
        if plan.is_empty() {
            return Err(format!("fault plan '{spec}' contains no faults"));
        }
        Ok(plan)
    }
}

fn parse_window(s: &str) -> Result<FaultWindow, String> {
    let (from, until) =
        s.split_once("..").ok_or_else(|| format!("window '{s}' must look like A..B"))?;
    let lo = if from.is_empty() {
        0
    } else {
        from.parse::<u64>().map_err(|_| format!("bad window start '{from}'"))?
    };
    let hi = if until.is_empty() {
        u64::MAX
    } else {
        until.parse::<u64>().map_err(|_| format!("bad window end '{until}'"))?
    };
    if lo >= hi {
        return Err(format!("window '{s}' is empty"));
    }
    Ok(FaultWindow { from: lo, until: hi })
}

/// Splits `kind:rest[@window]`, defaulting the window to "always".
fn split_spec(part: &str) -> (&str, FaultWindow, Result<(), String>) {
    match part.split_once('@') {
        Some((head, w)) => match parse_window(w) {
            Ok(win) => (head, win, Ok(())),
            Err(e) => (head, FaultWindow::always(), Err(e)),
        },
        None => (part, FaultWindow::always(), Ok(())),
    }
}

fn parse_fault(part: &str) -> Result<Fault, String> {
    // `server-loss:IDX@T` takes a single onset CPI, not an A..B window, so
    // it is handled before the generic window split.
    if let Some(rest) = part.strip_prefix("server-loss:") {
        let (idx, from) = match rest.split_once('@') {
            Some((idx, t)) => {
                let t = t.strip_suffix("..").unwrap_or(t);
                let from =
                    t.parse::<u64>().map_err(|_| format!("bad server-loss onset CPI '{t}'"))?;
                (idx, from)
            }
            None => (rest, 0),
        };
        let server = idx.parse::<usize>().map_err(|_| format!("bad server index '{idx}'"))?;
        return Ok(Fault::ServerLoss { server, from });
    }
    let (head, window, wres) = split_spec(part);
    wres?;
    let (kind, rest) =
        head.split_once(':').ok_or_else(|| format!("fault '{part}' must look like kind:..."))?;
    match kind {
        "file" => Ok(Fault::FileUnavailable { file: rest.to_string(), window }),
        "server" => {
            let idx = rest.parse::<usize>().map_err(|_| format!("bad server index '{rest}'"))?;
            Ok(Fault::ServerUnavailable { server: idx, window })
        }
        "transient" => {
            let (file, k) = rest
                .rsplit_once(':')
                .ok_or_else(|| format!("transient fault '{part}' needs NAME:K"))?;
            let fail_attempts = k.parse::<u32>().map_err(|_| format!("bad attempt count '{k}'"))?;
            Ok(Fault::Transient { file: file.to_string(), fail_attempts, window })
        }
        "flaky" => {
            let (file, p) = rest
                .rsplit_once(':')
                .ok_or_else(|| format!("flaky fault '{part}' needs NAME:P"))?;
            let p = p.parse::<f64>().map_err(|_| format!("bad probability '{p}'"))?;
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("probability {p} outside [0, 1]"));
            }
            Ok(Fault::Flaky { file: file.to_string(), p, window })
        }
        "slow" => {
            let (file, ms) = rest
                .rsplit_once(':')
                .ok_or_else(|| format!("slow fault '{part}' needs NAME:MS"))?;
            let ms = ms.parse::<u64>().map_err(|_| format!("bad delay '{ms}' (ms)"))?;
            Ok(Fault::SlowRead { file: file.to_string(), delay: Duration::from_millis(ms), window })
        }
        "node" => {
            let idx = rest.parse::<usize>().map_err(|_| format!("bad node index '{rest}'"))?;
            Ok(Fault::NodeCrash { node: idx, window })
        }
        other => Err(format!(
            "unknown fault kind '{other}' (expected file|server|transient|flaky|slow|server-loss|node)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fail(d: &ReadDecision) -> bool {
        matches!(d, ReadDecision::Fail { .. })
    }

    #[test]
    fn file_outage_respects_window() {
        let plan = FaultPlan::new(1)
            .with(Fault::FileUnavailable { file: "a".into(), window: FaultWindow::new(3, 5) });
        assert!(!fail(&plan.read_decision("a", 2, 0, &[])));
        assert!(fail(&plan.read_decision("a", 3, 0, &[])));
        assert!(fail(&plan.read_decision("a", 4, 7, &[])), "retries cannot clear a file outage");
        assert!(!fail(&plan.read_decision("a", 5, 0, &[])));
        assert!(!fail(&plan.read_decision("b", 4, 0, &[])), "other files unaffected");
    }

    #[test]
    fn server_outage_hits_only_mapped_reads() {
        let plan = FaultPlan::new(1)
            .with(Fault::ServerUnavailable { server: 2, window: FaultWindow::always() });
        assert!(fail(&plan.read_decision("x", 0, 0, &[0, 1, 2])));
        assert!(!fail(&plan.read_decision("x", 0, 0, &[0, 1, 3])));
    }

    #[test]
    fn transient_fault_clears_after_k_attempts() {
        let plan = FaultPlan::new(1).with(Fault::Transient {
            file: "a".into(),
            fail_attempts: 2,
            window: FaultWindow::always(),
        });
        assert!(fail(&plan.read_decision("a", 0, 0, &[])));
        assert!(fail(&plan.read_decision("a", 0, 1, &[])));
        assert!(!fail(&plan.read_decision("a", 0, 2, &[])));
    }

    #[test]
    fn flaky_is_deterministic_and_roughly_calibrated() {
        let plan = FaultPlan::new(42).with(Fault::Flaky {
            file: "a".into(),
            p: 0.3,
            window: FaultWindow::always(),
        });
        let hits: Vec<bool> =
            (0..2000u64).map(|cpi| fail(&plan.read_decision("a", cpi, 0, &[]))).collect();
        let replay: Vec<bool> =
            (0..2000u64).map(|cpi| fail(&plan.read_decision("a", cpi, 0, &[]))).collect();
        assert_eq!(hits, replay, "same seed must replay identically");
        let rate = hits.iter().filter(|&&h| h).count() as f64 / hits.len() as f64;
        assert!((rate - 0.3).abs() < 0.05, "empirical rate {rate}");
        let other = FaultPlan::new(43).with(Fault::Flaky {
            file: "a".into(),
            p: 0.3,
            window: FaultWindow::always(),
        });
        let differs = (0..2000u64)
            .any(|cpi| fail(&other.read_decision("a", cpi, 0, &[])) != hits[cpi as usize]);
        assert!(differs, "different seeds must differ somewhere");
    }

    #[test]
    fn slow_reads_accumulate_delay() {
        let plan = FaultPlan::new(1)
            .with(Fault::SlowRead {
                file: "a".into(),
                delay: Duration::from_millis(5),
                window: FaultWindow::always(),
            })
            .with(Fault::SlowRead {
                file: "a".into(),
                delay: Duration::from_millis(7),
                window: FaultWindow::new(1, 2),
            });
        match plan.read_decision("a", 0, 0, &[]) {
            ReadDecision::Proceed { delay } => assert_eq!(delay, Duration::from_millis(5)),
            other => panic!("unexpected {other:?}"),
        }
        match plan.read_decision("a", 1, 0, &[]) {
            ReadDecision::Proceed { delay } => assert_eq!(delay, Duration::from_millis(12)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn spec_round_trip() {
        let plan = FaultPlan::parse(
            "file:cpi_1.dat@3..5, server:2@..4, transient:cpi_0.dat:2@.., flaky:x:0.25@1.., slow:y:15@..",
            9,
        )
        .unwrap();
        assert_eq!(plan.faults().len(), 5);
        assert_eq!(plan.seed(), 9);
        assert_eq!(
            plan.faults()[0],
            Fault::FileUnavailable { file: "cpi_1.dat".into(), window: FaultWindow::new(3, 5) }
        );
        assert_eq!(
            plan.faults()[4],
            Fault::SlowRead {
                file: "y".into(),
                delay: Duration::from_millis(15),
                window: FaultWindow::always()
            }
        );
    }

    #[test]
    fn server_loss_is_permanent_and_terminal() {
        let plan = FaultPlan::new(1).with(Fault::ServerLoss { server: 2, from: 3 });
        assert!(!fail(&plan.read_decision("x", 2, 0, &[0, 1, 2])), "before onset");
        assert_eq!(
            plan.read_decision("x", 3, 0, &[0, 1, 2]),
            ReadDecision::Lost { unit: LostUnit::Server(2) }
        );
        assert_eq!(
            plan.read_decision("x", 999, 9, &[2]),
            ReadDecision::Lost { unit: LostUnit::Server(2) },
            "never recovers, regardless of retries"
        );
        assert!(!fail(&plan.read_decision("x", 5, 0, &[0, 1, 3])), "other servers unaffected");
    }

    #[test]
    fn node_crash_kills_reads_in_its_window() {
        let plan =
            FaultPlan::new(1).with(Fault::NodeCrash { node: 7, window: FaultWindow::new(2, 4) });
        assert!(!fail(&plan.read_decision("a", 1, 0, &[])));
        assert_eq!(
            plan.read_decision("a", 2, 0, &[]),
            ReadDecision::Lost { unit: LostUnit::Node(7) }
        );
        assert_eq!(
            plan.read_decision("b", 3, 5, &[]),
            ReadDecision::Lost { unit: LostUnit::Node(7) },
            "any file, any attempt: the reader node is dead"
        );
        assert!(!fail(&plan.read_decision("a", 4, 0, &[])), "window closed (node replaced)");
    }

    #[test]
    fn fleet_specs_parse() {
        let plan = FaultPlan::parse("server-loss:3@2, node:1@0..2", 5).unwrap();
        assert_eq!(plan.faults()[0], Fault::ServerLoss { server: 3, from: 2 });
        assert_eq!(plan.faults()[1], Fault::NodeCrash { node: 1, window: FaultWindow::new(0, 2) });
        // Onset defaults to CPI 0; a trailing `..` is tolerated.
        assert_eq!(
            FaultPlan::parse("server-loss:0", 0).unwrap().faults()[0],
            Fault::ServerLoss { server: 0, from: 0 }
        );
        assert_eq!(
            FaultPlan::parse("server-loss:0@4..", 0).unwrap().faults()[0],
            Fault::ServerLoss { server: 0, from: 4 }
        );
        assert!(FaultPlan::parse("server-loss:x@1", 0).unwrap_err().contains("server index"));
        assert!(FaultPlan::parse("server-loss:0@soon", 0).unwrap_err().contains("onset"));
        assert!(FaultPlan::parse("node:x@0..2", 0).unwrap_err().contains("node index"));
    }

    #[test]
    fn spec_errors_are_specific() {
        assert!(FaultPlan::parse("", 0).unwrap_err().contains("no faults"));
        assert!(FaultPlan::parse("bogus:x", 0).unwrap_err().contains("unknown fault kind"));
        assert!(FaultPlan::parse("file:a@5..3", 0).unwrap_err().contains("empty"));
        assert!(FaultPlan::parse("flaky:a:1.5", 0).unwrap_err().contains("[0, 1]"));
        assert!(FaultPlan::parse("server:x", 0).unwrap_err().contains("server index"));
        assert!(FaultPlan::parse("slow:a:soon", 0).unwrap_err().contains("delay"));
    }
}
