//! Simple statistics collectors for simulation outputs.

/// Running tally of scalar observations.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    count: u64,
    sum: f64,
}

impl Tally {
    /// An empty tally.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn record(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_of_known_values() {
        let mut t = Tally::new();
        for v in [1.0, 2.0, 3.0, 4.0] {
            t.record(v);
        }
        assert_eq!(t.sum(), 10.0);
        assert_eq!(t.mean(), 2.5);
    }

    #[test]
    fn empty_tally_is_safe() {
        let t = Tally::new();
        assert_eq!(t.mean(), 0.0);
    }
}
