//! Elastic mission arrivals: stochastic processes generating workload
//! scripts, so `ppstap serve` can be driven by an *arrival model* instead
//! of a hand-written script.
//!
//! Three processes cover the usual open-loop workload shapes:
//!
//! - [`ArrivalSpec::Poisson`] — memoryless arrivals at a constant rate,
//!   the M/G/k baseline.
//! - [`ArrivalSpec::Bursty`] — a two-state modulated Poisson process
//!   (MMPP-2): the rate alternates between a low and a high state with
//!   exponential dwell times, producing arrival bursts.
//! - [`ArrivalSpec::Diurnal`] — a sinusoidally-modulated rate (thinning),
//!   the daily load curve compressed to `period` seconds.
//!
//! Generation is fully deterministic from the seed (a splitmix64 stream),
//! so a generated workload replays bit-identically in the executor, the
//! simulator, and across sessions — the property the serve-conformance
//! suite relies on.

use crate::mission::MissionSpec;
use crate::script::{ScriptAction, ScriptEvent, WorkloadScript};
use stap_pfs::fault::splitmix64;

/// An arrival process over a bounded horizon.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalSpec {
    /// Constant-rate memoryless arrivals, `rate` missions/s.
    Poisson {
        /// Mean arrivals per second.
        rate: f64,
    },
    /// Two-state modulated Poisson (MMPP-2): the process dwells in a
    /// low-rate and a high-rate state alternately, each dwell drawn
    /// exponentially with mean `dwell` seconds.
    Bursty {
        /// Arrival rate in the quiet state, missions/s.
        lo: f64,
        /// Arrival rate in the burst state, missions/s.
        hi: f64,
        /// Mean dwell in each state, seconds.
        dwell: f64,
    },
    /// Sinusoidal rate `mean * (1 + 0.8 sin(2πt/period))` via thinning: a
    /// compressed diurnal load curve.
    Diurnal {
        /// Mean arrivals per second over a full period.
        mean: f64,
        /// Seconds per load cycle.
        period: f64,
    },
}

impl ArrivalSpec {
    /// Parses `poisson:RATE`, `bursty:LO:HI:DWELL`, or
    /// `diurnal:MEAN:PERIOD`.
    pub fn parse(s: &str) -> Result<Self, String> {
        let bad = || {
            format!(
                "--arrivals must be poisson:RATE, bursty:LO:HI:DWELL, or \
                 diurnal:MEAN:PERIOD, got '{s}'"
            )
        };
        let mut parts = s.split(':');
        let kind = parts.next().unwrap_or("");
        let nums: Vec<f64> = parts.map(str::parse).collect::<Result<_, _>>().map_err(|_| bad())?;
        let pos = |x: f64| x > 0.0 && x.is_finite();
        match (kind, nums.as_slice()) {
            ("poisson", [rate]) if pos(*rate) => Ok(ArrivalSpec::Poisson { rate: *rate }),
            ("bursty", [lo, hi, dwell]) if pos(*lo) && pos(*hi) && pos(*dwell) => {
                Ok(ArrivalSpec::Bursty { lo: *lo, hi: *hi, dwell: *dwell })
            }
            ("diurnal", [mean, period]) if pos(*mean) && pos(*period) => {
                Ok(ArrivalSpec::Diurnal { mean: *mean, period: *period })
            }
            _ => Err(bad()),
        }
    }

    /// Short label for tables and logs.
    pub fn label(&self) -> String {
        match self {
            ArrivalSpec::Poisson { rate } => format!("poisson:{rate}"),
            ArrivalSpec::Bursty { lo, hi, dwell } => format!("bursty:{lo}:{hi}:{dwell}"),
            ArrivalSpec::Diurnal { mean, period } => format!("diurnal:{mean}:{period}"),
        }
    }

    /// The thinning envelope: the largest momentary rate the process can
    /// reach (candidates are drawn at this rate and thinned down).
    fn peak_rate(&self) -> f64 {
        match self {
            ArrivalSpec::Poisson { rate } => *rate,
            ArrivalSpec::Bursty { hi, lo, .. } => hi.max(*lo),
            ArrivalSpec::Diurnal { mean, .. } => mean * 1.8,
        }
    }
}

/// Deterministic stream of [`splitmix64`] draws over a counter stepped by
/// the golden-ratio increment.
#[derive(Debug, Clone)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        let z = splitmix64(self.0);
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z
    }

    /// Uniform draw in `(0, 1]` — never zero, so `ln` is finite.
    fn uniform(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }

    /// Exponential draw with the given rate.
    fn exponential(&mut self, rate: f64) -> f64 {
        -self.uniform().ln() / rate
    }
}

/// Generates the workload a process produces over `duration` seconds:
/// every arrival becomes a `submit` of a mission cloned from `template`
/// (name replaced by `a0000`, `a0001`, …; priority varied 0–3; every
/// fourth mission carries the template's SLA if set, or a 120 s bound
/// otherwise, so SLA hit-rate is always graded on elastic fleets).
pub fn generate_script(
    spec: &ArrivalSpec,
    duration: f64,
    seed: u64,
    template: &MissionSpec,
) -> WorkloadScript {
    let mut rng = SplitMix64(seed ^ 0x5157_4150_5354_4152);
    let peak = spec.peak_rate();
    let mut events = Vec::new();
    let mut t = 0.0f64;
    // MMPP-2 state: start quiet, with a full exponential dwell ahead.
    let (mut bursty_hi, mut switch_at) = match spec {
        ArrivalSpec::Bursty { dwell, .. } => (false, rng.exponential(1.0 / dwell)),
        _ => (false, f64::INFINITY),
    };
    let mut n = 0usize;
    while n < MAX_GENERATED {
        // Candidate arrivals at the peak rate, thinned to the momentary
        // rate — exact for Poisson (accept always) and correct for the
        // modulated processes.
        t += rng.exponential(peak);
        if t >= duration {
            break;
        }
        while t >= switch_at {
            bursty_hi = !bursty_hi;
            let ArrivalSpec::Bursty { dwell, .. } = spec else { unreachable!("guarded above") };
            switch_at += rng.exponential(1.0 / dwell);
        }
        let momentary = match spec {
            ArrivalSpec::Poisson { rate } => *rate,
            ArrivalSpec::Bursty { lo, hi, .. } => {
                if bursty_hi {
                    *hi
                } else {
                    *lo
                }
            }
            ArrivalSpec::Diurnal { mean, period } => {
                mean * (1.0 + 0.8 * (std::f64::consts::TAU * t / period).sin())
            }
        };
        if rng.uniform() > momentary / peak {
            continue;
        }
        let mut m = template.clone();
        m.name = format!("a{n:04}");
        m.priority = (rng.next_u64() % 4) as u8;
        if n % 4 == 3 {
            m.max_latency = template.max_latency.or(Some(120.0));
        } else {
            m.max_latency = None;
        }
        events.push(ScriptEvent { at: t, action: ScriptAction::Submit(m) });
        n += 1;
    }
    WorkloadScript { events }
}

/// Backstop on generated submissions: a mistyped rate times a long
/// horizon should produce a refusable script, not an unbounded one.
const MAX_GENERATED: usize = 100_000;

#[cfg(test)]
mod tests {
    use super::*;

    fn count(spec: &ArrivalSpec, duration: f64, seed: u64) -> usize {
        generate_script(spec, duration, seed, &MissionSpec::new("t")).submissions()
    }

    #[test]
    fn parse_grammar_round_trips() {
        assert_eq!(ArrivalSpec::parse("poisson:2").unwrap(), ArrivalSpec::Poisson { rate: 2.0 });
        assert_eq!(
            ArrivalSpec::parse("bursty:0.5:8:10").unwrap(),
            ArrivalSpec::Bursty { lo: 0.5, hi: 8.0, dwell: 10.0 }
        );
        assert_eq!(
            ArrivalSpec::parse("diurnal:2:60").unwrap(),
            ArrivalSpec::Diurnal { mean: 2.0, period: 60.0 }
        );
        for bad in ["poisson", "poisson:-1", "poisson:x", "bursty:1:2", "flat:3", ""] {
            assert!(ArrivalSpec::parse(bad).is_err(), "{bad} must not parse");
        }
        let spec = ArrivalSpec::parse("bursty:0.5:8:10").unwrap();
        assert_eq!(ArrivalSpec::parse(&spec.label()).unwrap(), spec);
    }

    #[test]
    fn same_seed_replays_bit_identically() {
        let spec = ArrivalSpec::Poisson { rate: 5.0 };
        let a = generate_script(&spec, 20.0, 42, &MissionSpec::new("t"));
        let b = generate_script(&spec, 20.0, 42, &MissionSpec::new("t"));
        assert_eq!(a, b);
        let c = generate_script(&spec, 20.0, 43, &MissionSpec::new("t"));
        assert_ne!(a, c, "a different seed draws a different workload");
    }

    #[test]
    fn poisson_count_tracks_rate_times_horizon() {
        // 5/s over 100 s ≈ 500 arrivals; 4 sigma ≈ 90.
        let n = count(&ArrivalSpec::Poisson { rate: 5.0 }, 100.0, 7) as f64;
        assert!((n - 500.0).abs() < 90.0, "got {n}");
    }

    #[test]
    fn bursty_outruns_its_quiet_rate_and_diurnal_tracks_its_mean() {
        let n = count(&ArrivalSpec::Bursty { lo: 0.2, hi: 20.0, dwell: 5.0 }, 100.0, 7);
        assert!(n > 50, "bursts must dominate the quiet floor, got {n}");
        let d = count(&ArrivalSpec::Diurnal { mean: 5.0, period: 25.0 }, 100.0, 7) as f64;
        assert!((d - 500.0).abs() < 120.0, "got {d}");
    }

    #[test]
    fn generated_missions_are_valid_scripted_submissions() {
        let s =
            generate_script(&ArrivalSpec::Poisson { rate: 3.0 }, 10.0, 1, &MissionSpec::new("t"));
        assert!(s.submissions() > 0);
        let mut names = Vec::new();
        let mut graded = 0;
        for e in &s.events {
            let ScriptAction::Submit(m) = &e.action else { panic!("arrivals only submit") };
            assert!(e.at >= 0.0 && e.at < 10.0);
            assert!(m.priority < 4);
            names.push(m.name.clone());
            graded += usize::from(m.max_latency.is_some());
        }
        let mut unique = names.clone();
        unique.dedup();
        assert_eq!(names, unique, "names are unique in submission order");
        if s.submissions() >= 4 {
            assert!(graded > 0, "every fourth mission carries an SLA");
        }
        // Events already sorted: a round-trip through parse-like sorting is
        // a no-op.
        let sorted = {
            let mut e = s.events.clone();
            e.sort_by(|a, b| a.at.total_cmp(&b.at));
            e
        };
        assert_eq!(s.events, sorted);
    }
}
