//! Handshake and metastability-risk accounting at inter-domain clock
//! boundaries.
//!
//! In a GALS mesh each directed link crosses a clock boundary: the
//! producer domain's delivered edges arrive at the consumer after the
//! boundary CDN delay, and the *skew* between the advertised producer
//! period and the consumer's own period is what the synchronizer at the
//! boundary has to absorb. Two figures of merit matter:
//!
//! * **handshake violations** — periods where the skew exceeds the
//!   boundary's tolerance (the synchronizer's guaranteed capture window),
//!   each one a chance for a handshake to be missed outright;
//! * **metastability risk** — even inside the window, the closer the skew
//!   comes to the tolerance the smaller the settling slack, and the
//!   probability that a flip-flop resolves late decays exponentially in
//!   that slack (the classic `exp(−slack/τ_s)` model). The monitor
//!   integrates this per sample and reports the mean.
//!
//! A [`BoundaryMonitor`] watches one directed link, fed one skew sample
//! per delivered period, and additionally implements the mesh's
//! **quarantine** policy: a run of consecutive violations long enough to
//! rule out a transient marks the link quarantined (FATAL+-style
//! containment — the consumer stops listening to a boundary it can no
//! longer synchronize with).

use serde::{Deserialize, Serialize};

/// Probability-like metastability risk of one boundary crossing.
///
/// `slack` is the remaining settling margin (stages): the boundary
/// tolerance minus the observed skew magnitude. `window` is the
/// synchronizer's resolution time constant `τ_s` in the same units. Risk
/// follows the standard exponential settling model `exp(−slack/τ_s)`,
/// saturating at 1 when the slack is gone (or negative — the crossing is
/// already a violation).
pub fn metastability_risk(slack: f64, window: f64) -> f64 {
    if !slack.is_finite() || slack <= 0.0 {
        return 1.0;
    }
    let window = if window > 0.0 {
        window
    } else {
        f64::MIN_POSITIVE
    };
    (-slack / window).exp()
}

/// Per-link boundary statistics (see [`BoundaryMonitor`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoundaryReport {
    /// Skew samples observed (one per delivered period).
    pub samples: usize,
    /// Samples whose skew magnitude exceeded the tolerance (or was
    /// non-finite) — handshake violations.
    pub violations: usize,
    /// Largest finite skew magnitude observed (0 with no samples).
    pub worst_skew: f64,
    /// Smallest settling slack observed, clamped below at 0.
    pub min_slack: f64,
    /// Mean metastability risk across the samples (0 with no samples).
    pub mean_metastability_risk: f64,
    /// Period at which the quarantine policy tripped, if it did.
    pub quarantined_at: Option<u64>,
}

/// Watches one directed inter-domain link, one skew sample per period.
#[derive(Debug, Clone)]
pub struct BoundaryMonitor {
    tolerance: f64,
    window: f64,
    quarantine_after: usize,
    samples: usize,
    violations: usize,
    consecutive: usize,
    worst_skew: f64,
    min_slack: f64,
    risk_sum: f64,
    /// Memo of the last `metastability_risk` evaluation: the slack's bits
    /// and the risk it gave. A locked boundary repeats its slack almost
    /// every period, so `exp` runs only when the slack changes.
    memo_slack: u64,
    memo_risk: f64,
    quarantined_at: Option<u64>,
}

impl BoundaryMonitor {
    /// A monitor with capture `tolerance` (stages), synchronizer
    /// resolution `window` `τ_s` (stages), quarantining after
    /// `quarantine_after` consecutive violations (`0` disables the
    /// policy).
    pub fn new(tolerance: f64, window: f64, quarantine_after: usize) -> Self {
        BoundaryMonitor {
            tolerance,
            window,
            quarantine_after,
            samples: 0,
            violations: 0,
            consecutive: 0,
            worst_skew: 0.0,
            min_slack: f64::INFINITY,
            risk_sum: 0.0,
            // Seeded with a real evaluation, so the memo is never stale.
            memo_slack: f64::NAN.to_bits(),
            memo_risk: metastability_risk(f64::NAN, window),
            quarantined_at: None,
        }
    }

    /// Feed the skew observed at period `n`. Returns `true` when the
    /// sample is a handshake violation. Samples after quarantine are
    /// ignored (the consumer no longer listens).
    pub fn observe(&mut self, n: u64, skew: f64) -> bool {
        if self.quarantined_at.is_some() {
            return false;
        }
        self.samples += 1;
        let magnitude = skew.abs();
        let violation = !magnitude.is_finite() || magnitude > self.tolerance;
        let slack = if magnitude.is_finite() {
            if magnitude > self.worst_skew {
                self.worst_skew = magnitude;
            }
            (self.tolerance - magnitude).max(0.0)
        } else {
            0.0
        };
        if slack < self.min_slack {
            self.min_slack = slack;
        }
        if slack.to_bits() != self.memo_slack {
            self.memo_slack = slack.to_bits();
            self.memo_risk = metastability_risk(slack, self.window);
        }
        self.risk_sum += self.memo_risk;
        if violation {
            self.violations += 1;
            self.consecutive += 1;
            if self.quarantine_after > 0 && self.consecutive >= self.quarantine_after {
                self.quarantined_at = Some(n);
            }
        } else {
            self.consecutive = 0;
        }
        violation
    }

    /// Whether the quarantine policy has tripped.
    pub fn quarantined(&self) -> bool {
        self.quarantined_at.is_some()
    }

    /// The accumulated statistics. Every field is finite for any input.
    pub fn report(&self) -> BoundaryReport {
        BoundaryReport {
            samples: self.samples,
            violations: self.violations,
            worst_skew: self.worst_skew,
            min_slack: if self.min_slack.is_finite() {
                self.min_slack
            } else {
                0.0
            },
            mean_metastability_risk: if self.samples > 0 {
                self.risk_sum / self.samples as f64
            } else {
                0.0
            },
            quarantined_at: self.quarantined_at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn risk_model_is_monotone_and_saturates() {
        assert_eq!(metastability_risk(0.0, 1.0), 1.0);
        assert_eq!(metastability_risk(-3.0, 1.0), 1.0);
        assert_eq!(metastability_risk(f64::NAN, 1.0), 1.0);
        let near = metastability_risk(0.5, 1.0);
        let far = metastability_risk(5.0, 1.0);
        assert!(near > far, "risk must fall with slack: {near} vs {far}");
        assert!(far > 0.0 && near < 1.0);
    }

    #[test]
    fn quiet_boundary_reports_low_risk_and_no_quarantine() {
        let mut mon = BoundaryMonitor::new(4.0, 1.0, 3);
        for n in 0..100u64 {
            assert!(!mon.observe(n, 0.25));
        }
        let r = mon.report();
        assert_eq!(r.samples, 100);
        assert_eq!(r.violations, 0);
        assert_eq!(r.worst_skew, 0.25);
        assert_eq!(r.min_slack, 3.75);
        assert!(r.mean_metastability_risk < 0.05);
        assert_eq!(r.quarantined_at, None);
    }

    #[test]
    fn consecutive_violations_trip_quarantine_and_freeze_the_monitor() {
        let mut mon = BoundaryMonitor::new(2.0, 1.0, 3);
        // two violations, then a clean sample: the run resets
        assert!(mon.observe(0, 5.0));
        assert!(mon.observe(1, -5.0));
        assert!(!mon.observe(2, 0.0));
        assert!(!mon.quarantined());
        // three in a row trips it at the third period
        for n in 3..6u64 {
            mon.observe(n, 9.0);
        }
        assert_eq!(mon.report().quarantined_at, Some(5));
        // further samples are ignored
        let before = mon.report();
        assert!(!mon.observe(6, 100.0));
        assert_eq!(mon.report(), before);
    }

    #[test]
    fn non_finite_skew_is_a_full_risk_violation() {
        let mut mon = BoundaryMonitor::new(2.0, 1.0, 0);
        assert!(mon.observe(0, f64::NAN));
        assert!(mon.observe(1, f64::INFINITY));
        let r = mon.report();
        assert_eq!(r.violations, 2);
        assert_eq!(r.min_slack, 0.0);
        assert_eq!(r.mean_metastability_risk, 1.0);
        assert_eq!(r.quarantined_at, None, "quarantine_after = 0 disables");
        assert!(r.worst_skew.is_finite());
    }

    #[test]
    fn empty_monitor_is_all_zero() {
        let r = BoundaryMonitor::new(2.0, 1.0, 3).report();
        assert_eq!(r.samples, 0);
        assert_eq!(r.mean_metastability_risk, 0.0);
        assert_eq!(r.min_slack, 0.0);
        assert_eq!(r.quarantined_at, None);
    }

    /// The memoised risk changes no bit: a naive monitor that evaluates
    /// `metastability_risk` on every sample reports the same sums, over
    /// repeated, changing, zero, negative-zero and non-finite skews and
    /// through the quarantine freeze.
    #[test]
    fn memoised_risk_matches_a_naive_per_sample_sum_bitwise() {
        let (tolerance, window) = (4.0, 1.5);
        let mut skews = vec![0.25, 0.25, 0.25, -0.25, 1.0, 1.0, 4.0, -4.0, 0.0, -0.0];
        skews.extend([f64::NAN, 0.5, f64::INFINITY, f64::NEG_INFINITY, 0.5, 3.999]);
        for k in 0..200 {
            skews.push(f64::from(k % 7) * 0.375 - 1.0);
        }
        skews.extend([9.0, 9.0, 9.0, 0.25, -9.0, 0.0]);
        for quarantine_after in [0, 3] {
            let mut mon = BoundaryMonitor::new(tolerance, window, quarantine_after);
            let (mut samples, mut risk_sum) = (0usize, 0.0f64);
            for (n, &skew) in skews.iter().enumerate() {
                let frozen = mon.quarantined();
                mon.observe(n as u64, skew);
                if !frozen {
                    samples += 1;
                    let m = skew.abs();
                    let slack = if m.is_finite() {
                        (tolerance - m).max(0.0)
                    } else {
                        0.0
                    };
                    risk_sum += metastability_risk(slack, window);
                }
                let r = mon.report();
                assert_eq!(r.samples, samples);
                assert_eq!(
                    r.mean_metastability_risk.to_bits(),
                    (risk_sum / samples as f64).to_bits(),
                    "sample {n} (quarantine after {quarantine_after})"
                );
            }
            assert_eq!(mon.quarantined(), quarantine_after > 0);
        }
    }
}
