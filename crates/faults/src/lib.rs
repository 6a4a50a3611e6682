//! `clock-faults` — deterministic fault models for adaptive clock loops.
//!
//! The paper's adversary is *smooth* PVTA variation; a deployed adaptive
//! clock also has to ride through *discrete* faults: TDC sensors that stick,
//! drop out or spike, single-event upsets (SEUs) in the controller state or
//! the latched `l_RO` control word, glitched clock edges, and hard ring-
//! oscillator stage failures. This crate defines those fault classes and an
//! injection-schedule API the simulation engines consume.
//!
//! Two properties shape the design:
//!
//! * **Determinism** — a [`FaultSchedule`] is plain data. Randomized
//!   schedules ([`FaultSchedule::random`]) are a pure function of
//!   `(seed, class, rate, horizon)` built on splitmix64 streams, the same
//!   idiom the engines use for jitter and TDC noise, so every chaos run is
//!   bit-reproducible and cacheable.
//! * **Addressability** — [`FaultSchedule::canonical_id`] gives a stable
//!   textual encoding of the whole schedule, which result caches hash so a
//!   faulted run can never collide with a clean one (or with a different
//!   schedule).
//!
//! The crate is dependency-free and engine-agnostic: it answers point
//! queries ("what strikes sensor 2 at period 417?") and leaves the physics
//! of applying a fault to the engines (`adaptive_clock`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Where and how a fault strikes. All magnitudes are in stage units (one
/// unit = one nominal gate delay), matching the engines' signal convention.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// TDC sensor `sensor` outputs the constant `value` instead of a real
    /// reading for the event's duration (a latched comparator, a frozen
    /// counter).
    TdcStuckAt {
        /// Index of the affected sensor replica.
        sensor: usize,
        /// The stuck reading, in stages.
        value: f64,
    },
    /// TDC sensor `sensor` produces no valid sample for the event's
    /// duration. Unhardened hardware keeps consuming the stale register;
    /// hardened controllers can see the missing valid flag.
    TdcDropout {
        /// Index of the affected sensor replica.
        sensor: usize,
    },
    /// TDC sensor `sensor` reads `offset` stages off for the event's
    /// duration (a metastability spike, a coupling transient).
    TdcOutlier {
        /// Index of the affected sensor replica.
        sensor: usize,
        /// Reading offset in stages (negative = reads dangerously short).
        offset: f64,
    },
    /// Single-event upset: flip bit `bit` of the controller's most recent
    /// state word at the event period. Instantaneous (`duration` ignored).
    SeuControlState {
        /// Bit index into the modeled state register (taken modulo
        /// [`SEU_BIT_SPAN`]).
        bit: u32,
    },
    /// Single-event upset: flip bit `bit` of the latched `l_RO` control
    /// word at the event period. Instantaneous (`duration` ignored).
    SeuLroWord {
        /// Bit index into the modeled `l_RO` register (taken modulo
        /// [`SEU_BIT_SPAN`]).
        bit: u32,
    },
    /// A glitched clock edge: the delivered period measured at the event
    /// period arrives `stages` stages short (a real timing hazard, not a
    /// sensor artifact — every sensor sees it).
    ClockGlitch {
        /// How many stages the delivered period shrinks by.
        stages: f64,
    },
    /// `stages` ring-oscillator stages fail permanently from the event
    /// period on: every period generated afterwards is that much shorter
    /// until the control loop re-lengthens the ring.
    RoStageFailure {
        /// Number of stages lost (cumulative across events).
        stages: f64,
    },
}

/// SEU bit indices are taken modulo this span, bounding the modeled
/// register width so an upset produces a large-but-finite excursion the
/// integer kernels can absorb without overflow.
pub const SEU_BIT_SPAN: u32 = 37;

impl FaultKind {
    /// The fault class this kind belongs to.
    pub fn class(&self) -> FaultClass {
        match self {
            FaultKind::TdcStuckAt { .. } => FaultClass::TdcStuckAt,
            FaultKind::TdcDropout { .. } => FaultClass::TdcDropout,
            FaultKind::TdcOutlier { .. } => FaultClass::TdcOutlier,
            FaultKind::SeuControlState { .. } => FaultClass::SeuControlState,
            FaultKind::SeuLroWord { .. } => FaultClass::SeuLroWord,
            FaultKind::ClockGlitch { .. } => FaultClass::ClockGlitch,
            FaultKind::RoStageFailure { .. } => FaultClass::RoStageFailure,
        }
    }

    /// Canonical textual encoding (stable across releases — cache keys
    /// depend on it).
    fn canonical(&self) -> String {
        match self {
            FaultKind::TdcStuckAt { sensor, value } => format!("stuck(s{sensor},{value:.6})"),
            FaultKind::TdcDropout { sensor } => format!("drop(s{sensor})"),
            FaultKind::TdcOutlier { sensor, offset } => format!("outlier(s{sensor},{offset:.6})"),
            FaultKind::SeuControlState { bit } => format!("seu-ctl(b{bit})"),
            FaultKind::SeuLroWord { bit } => format!("seu-lro(b{bit})"),
            FaultKind::ClockGlitch { stages } => format!("glitch({stages:.6})"),
            FaultKind::RoStageFailure { stages } => format!("ro-fail({stages:.6})"),
        }
    }
}

/// The seven fault classes, as swept by the chaos experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// TDC reading sticks at a constant.
    TdcStuckAt,
    /// TDC produces no valid samples.
    TdcDropout,
    /// TDC reading spikes off by an offset.
    TdcOutlier,
    /// Bit flip in the controller state register.
    SeuControlState,
    /// Bit flip in the latched `l_RO` word.
    SeuLroWord,
    /// A delivered clock edge arrives short.
    ClockGlitch,
    /// Ring-oscillator stages fail permanently.
    RoStageFailure,
}

impl FaultClass {
    /// Every class, in taxonomy order.
    pub const ALL: [FaultClass; 7] = [
        FaultClass::TdcStuckAt,
        FaultClass::TdcDropout,
        FaultClass::TdcOutlier,
        FaultClass::SeuControlState,
        FaultClass::SeuLroWord,
        FaultClass::ClockGlitch,
        FaultClass::RoStageFailure,
    ];

    /// Stable kebab-case label (table rows, cache keys).
    pub fn label(&self) -> &'static str {
        match self {
            FaultClass::TdcStuckAt => "tdc-stuck-at",
            FaultClass::TdcDropout => "tdc-dropout",
            FaultClass::TdcOutlier => "tdc-outlier",
            FaultClass::SeuControlState => "seu-ctl-state",
            FaultClass::SeuLroWord => "seu-lro-word",
            FaultClass::ClockGlitch => "clock-glitch",
            FaultClass::RoStageFailure => "ro-stage-fail",
        }
    }
}

/// One scheduled fault: a kind striking at period `at` for `duration`
/// periods (SEUs are instantaneous; RO stage failures are permanent — both
/// ignore `duration`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// First period index the fault is active.
    pub at: u64,
    /// Number of periods the fault stays active (minimum 1).
    pub duration: u64,
    /// What strikes.
    pub kind: FaultKind,
}

impl FaultEvent {
    /// Whether this event is active at period `n`.
    fn active_at(&self, n: u64) -> bool {
        match self.kind {
            // permanent from `at` on
            FaultKind::RoStageFailure { .. } => n >= self.at,
            // instantaneous
            FaultKind::SeuControlState { .. } | FaultKind::SeuLroWord { .. } => n == self.at,
            _ => n >= self.at && n - self.at < self.duration.max(1),
        }
    }
}

/// What a sensor replica experiences at one period (the engine-facing
/// reduction of the TDC fault kinds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SensorFault {
    /// Reading replaced by the stuck value.
    StuckAt(f64),
    /// No valid sample this period.
    Dropout,
    /// Reading offset by the given number of stages.
    Outlier(f64),
}

/// A deterministic injection schedule: plain data, queried per period.
///
/// Engines hold one schedule per simulated lane and ask, each period `n`,
/// which faults apply. An empty schedule answers every query with "nothing"
/// and engines keep their exact fault-free arithmetic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSchedule {
    sensors: usize,
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// An empty schedule over `sensors` TDC replicas (`sensors` is the
    /// number of measurement copies the engine models; single-sensor
    /// engines pass 1).
    pub fn new(sensors: usize) -> Self {
        FaultSchedule {
            sensors: sensors.max(1),
            events: Vec::new(),
        }
    }

    /// Append an event; returns `self` for chaining. Events may be pushed
    /// in any order.
    #[must_use]
    pub fn with(mut self, event: FaultEvent) -> Self {
        self.push(event);
        self
    }

    /// Append an event.
    pub fn push(&mut self, event: FaultEvent) {
        self.events.push(event);
    }

    /// Number of sensor replicas the schedule targets.
    pub fn sensors(&self) -> usize {
        self.sensors
    }

    /// The scheduled events, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether no faults are scheduled at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The first TDC fault hitting `sensor` at period `n`, if any.
    pub fn sensor_fault(&self, n: u64, sensor: usize) -> Option<SensorFault> {
        self.events.iter().find_map(|e| {
            if !e.active_at(n) {
                return None;
            }
            match e.kind {
                FaultKind::TdcStuckAt { sensor: s, value } if s == sensor => {
                    Some(SensorFault::StuckAt(value))
                }
                FaultKind::TdcDropout { sensor: s } if s == sensor => Some(SensorFault::Dropout),
                FaultKind::TdcOutlier { sensor: s, offset } if s == sensor => {
                    Some(SensorFault::Outlier(offset))
                }
                _ => None,
            }
        })
    }

    /// Whether any TDC-class event targets any sensor anywhere in the
    /// schedule (lets engines skip the per-sensor loop entirely).
    pub fn has_sensor_faults(&self) -> bool {
        self.events.iter().any(|e| {
            matches!(
                e.kind,
                FaultKind::TdcStuckAt { .. }
                    | FaultKind::TdcDropout { .. }
                    | FaultKind::TdcOutlier { .. }
            )
        })
    }

    /// Bits to flip in the controller state register at period `n`.
    pub fn seu_control_bits(&self, n: u64) -> impl Iterator<Item = u32> + '_ {
        self.events.iter().filter_map(move |e| match e.kind {
            FaultKind::SeuControlState { bit } if e.active_at(n) => Some(bit % SEU_BIT_SPAN),
            _ => None,
        })
    }

    /// Bits to flip in the latched `l_RO` word at period `n`.
    pub fn seu_lro_bits(&self, n: u64) -> impl Iterator<Item = u32> + '_ {
        self.events.iter().filter_map(move |e| match e.kind {
            FaultKind::SeuLroWord { bit } if e.active_at(n) => Some(bit % SEU_BIT_SPAN),
            _ => None,
        })
    }

    /// Total delivered-edge shrink (stages) from clock glitches active at
    /// period `n`.
    pub fn glitch(&self, n: u64) -> f64 {
        self.events
            .iter()
            .filter(|e| e.active_at(n))
            .map(|e| match e.kind {
                FaultKind::ClockGlitch { stages } => stages,
                _ => 0.0,
            })
            .sum()
    }

    /// Cumulative RO stages lost to permanent failures by generation
    /// period `n`.
    pub fn ro_stage_loss(&self, n: u64) -> f64 {
        self.events
            .iter()
            .filter(|e| e.active_at(n))
            .map(|e| match e.kind {
                FaultKind::RoStageFailure { stages } => stages,
                _ => 0.0,
            })
            .sum()
    }

    /// Number of events whose first active period is `n` (drives the
    /// `faults.injected` telemetry counter).
    pub fn injected_at(&self, n: u64) -> u64 {
        self.events.iter().filter(|e| e.at == n).count() as u64
    }

    /// Total events scheduled.
    pub fn injected_total(&self) -> u64 {
        self.events.len() as u64
    }

    /// Events whose first active period falls inside `[0, horizon)` — the
    /// injections a run of that many periods actually experiences.
    pub fn injected_before(&self, horizon: u64) -> u64 {
        self.events.iter().filter(|e| e.at < horizon).count() as u64
    }

    /// A stable, collision-safe textual encoding of the whole schedule.
    /// Result caches hash this alongside the run configuration, so faulted
    /// runs are addressed apart from clean ones and from each other. An
    /// empty schedule encodes as `"clean"`.
    pub fn canonical_id(&self) -> String {
        if self.events.is_empty() {
            return "clean".to_owned();
        }
        let mut parts: Vec<String> = self
            .events
            .iter()
            .map(|e| format!("{}+{}:{}", e.at, e.duration, e.kind.canonical()))
            .collect();
        // Insertion order must not matter: two schedules with the same
        // events are the same schedule.
        parts.sort_unstable();
        format!("s{};{}", self.sensors, parts.join(";"))
    }

    /// A seed-reproducible random schedule of one fault class.
    ///
    /// Injection times follow a thinned Bernoulli process of about
    /// `rate_per_kperiod` events per 1000 periods with a class-dependent
    /// refractory spacing (so recovery windows never overlap and re-lock
    /// accounting stays unambiguous). Every parameter draw comes from a
    /// splitmix64 stream keyed by `seed`, making the schedule a pure
    /// function of its arguments.
    pub fn random(
        seed: u64,
        class: FaultClass,
        rate_per_kperiod: f64,
        horizon: u64,
        sensors: usize,
    ) -> Self {
        let sensors = sensors.max(1);
        let mut schedule = FaultSchedule::new(sensors);
        if rate_per_kperiod <= 0.0 || horizon == 0 {
            return schedule;
        }
        let mut rng = SplitMix64::new(seed ^ 0xFA01_7000 ^ (class.label().len() as u64) << 32);
        // hash the label bytes in, so classes with equal label length differ
        for b in class.label().bytes() {
            rng.mix(b as u64);
        }
        let threshold = (rate_per_kperiod / 1000.0).min(1.0);
        // refractory spacing: long enough for the loop to re-lock between
        // events of the class
        let spacing: u64 = match class {
            FaultClass::SeuControlState | FaultClass::SeuLroWord => 400,
            FaultClass::ClockGlitch => 64,
            FaultClass::RoStageFailure => 1500,
            _ => 350,
        };
        let mut n = spacing.min(64); // never strike before the loop settles
        let mut ro_loss_budget = 16.0f64;
        while n < horizon {
            if rng.f64() < threshold {
                let sensor = (rng.next() % sensors as u64) as usize;
                let (kind, duration) = match class {
                    FaultClass::TdcStuckAt => (
                        FaultKind::TdcStuckAt {
                            sensor,
                            // stuck dangerously low: 8–32 stages under any
                            // plausible reading
                            value: -(8.0 + (rng.next() % 25) as f64),
                        },
                        50 + rng.next() % 150,
                    ),
                    FaultClass::TdcDropout => {
                        (FaultKind::TdcDropout { sensor }, 50 + rng.next() % 250)
                    }
                    FaultClass::TdcOutlier => (
                        FaultKind::TdcOutlier {
                            sensor,
                            offset: -(8.0 + (rng.next() % 17) as f64),
                        },
                        1 + rng.next() % 3,
                    ),
                    // SEU campaigns mix uniform strikes with worst-case
                    // *armed-bit* strikes: flipping a bit that is set at the
                    // paper's operating point (c = 64 → `l_RO` word bit 6;
                    // filter state c·2^kexp = 512 → bit 9) upsets the value
                    // *downwards*, the direction that eats safety margin.
                    // The first strike of a schedule is always armed, so any
                    // non-empty schedule exercises the dangerous polarity.
                    FaultClass::SeuControlState => (
                        FaultKind::SeuControlState {
                            bit: if schedule.events.is_empty() || rng.next().is_multiple_of(3) {
                                9
                            } else {
                                10 + (rng.next() % 21) as u32
                            },
                        },
                        1,
                    ),
                    FaultClass::SeuLroWord => (
                        FaultKind::SeuLroWord {
                            bit: if schedule.events.is_empty() || rng.next().is_multiple_of(3) {
                                6
                            } else {
                                3 + (rng.next() % 18) as u32
                            },
                        },
                        1,
                    ),
                    FaultClass::ClockGlitch => (
                        FaultKind::ClockGlitch {
                            stages: 6.0 + (rng.next() % 11) as f64,
                        },
                        1,
                    ),
                    FaultClass::RoStageFailure => {
                        let stages = (4.0 + (rng.next() % 7) as f64).min(ro_loss_budget);
                        if stages <= 0.0 {
                            n += spacing;
                            continue;
                        }
                        ro_loss_budget -= stages;
                        (FaultKind::RoStageFailure { stages }, 1)
                    }
                };
                schedule.push(FaultEvent {
                    at: n,
                    duration,
                    kind,
                });
                n += spacing + duration;
            } else {
                n += 1;
            }
        }
        schedule
    }
}

/// A splitmix64 generator — the workspace's standard reproducible stream.
#[derive(Debug, Clone)]
struct SplitMix64 {
    x: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64 { x: seed }
    }

    fn mix(&mut self, v: u64) {
        self.x ^= v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn next(&mut self) -> u64 {
        self.x = self.x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_schedule_answers_nothing() {
        let s = FaultSchedule::new(3);
        assert!(s.is_empty());
        assert_eq!(s.sensors(), 3);
        assert_eq!(s.sensor_fault(10, 0), None);
        assert_eq!(s.seu_control_bits(10).count(), 0);
        assert_eq!(s.seu_lro_bits(10).count(), 0);
        assert_eq!(s.glitch(10), 0.0);
        assert_eq!(s.ro_stage_loss(10), 0.0);
        assert_eq!(s.injected_at(10), 0);
        assert_eq!(s.canonical_id(), "clean");
    }

    #[test]
    fn activation_windows_per_kind() {
        let s = FaultSchedule::new(2)
            .with(FaultEvent {
                at: 10,
                duration: 5,
                kind: FaultKind::TdcDropout { sensor: 1 },
            })
            .with(FaultEvent {
                at: 20,
                duration: 99, // ignored: instantaneous
                kind: FaultKind::SeuLroWord { bit: 4 },
            })
            .with(FaultEvent {
                at: 30,
                duration: 1, // ignored: permanent
                kind: FaultKind::RoStageFailure { stages: 3.0 },
            });
        // dropout window [10, 15)
        assert_eq!(s.sensor_fault(9, 1), None);
        assert_eq!(s.sensor_fault(10, 1), Some(SensorFault::Dropout));
        assert_eq!(s.sensor_fault(14, 1), Some(SensorFault::Dropout));
        assert_eq!(s.sensor_fault(15, 1), None);
        assert_eq!(s.sensor_fault(12, 0), None, "other sensor untouched");
        // SEU exactly at 20
        assert_eq!(s.seu_lro_bits(19).count(), 0);
        assert_eq!(s.seu_lro_bits(20).collect::<Vec<_>>(), vec![4]);
        assert_eq!(s.seu_lro_bits(21).count(), 0);
        // stage failure permanent from 30
        assert_eq!(s.ro_stage_loss(29), 0.0);
        assert_eq!(s.ro_stage_loss(30), 3.0);
        assert_eq!(s.ro_stage_loss(1_000_000), 3.0);
        assert_eq!(s.injected_total(), 3);
        assert_eq!(s.injected_at(20), 1);
    }

    #[test]
    fn glitches_sum_and_stuck_beats_later_events() {
        let s = FaultSchedule::new(1)
            .with(FaultEvent {
                at: 5,
                duration: 2,
                kind: FaultKind::ClockGlitch { stages: 7.0 },
            })
            .with(FaultEvent {
                at: 6,
                duration: 1,
                kind: FaultKind::ClockGlitch { stages: 4.0 },
            });
        assert_eq!(s.glitch(5), 7.0);
        assert_eq!(s.glitch(6), 11.0);
        assert_eq!(s.glitch(7), 0.0);
    }

    #[test]
    fn canonical_id_is_order_independent_and_distinct() {
        let a = FaultEvent {
            at: 3,
            duration: 2,
            kind: FaultKind::TdcOutlier {
                sensor: 0,
                offset: -9.0,
            },
        };
        let b = FaultEvent {
            at: 40,
            duration: 1,
            kind: FaultKind::SeuControlState { bit: 12 },
        };
        let ab = FaultSchedule::new(2).with(a).with(b);
        let ba = FaultSchedule::new(2).with(b).with(a);
        assert_eq!(ab.canonical_id(), ba.canonical_id());
        let other = FaultSchedule::new(2).with(a);
        assert_ne!(ab.canonical_id(), other.canonical_id());
        assert_ne!(ab.canonical_id(), "clean");
    }

    #[test]
    fn random_schedules_are_reproducible_and_seed_sensitive() {
        for class in FaultClass::ALL {
            let a = FaultSchedule::random(7, class, 4.0, 12_000, 3);
            let b = FaultSchedule::random(7, class, 4.0, 12_000, 3);
            assert_eq!(a, b, "{}: same seed must reproduce", class.label());
            assert!(
                !a.is_empty(),
                "{}: rate 4/kperiod must inject",
                class.label()
            );
            let c = FaultSchedule::random(8, class, 4.0, 12_000, 3);
            assert_ne!(
                a.canonical_id(),
                c.canonical_id(),
                "{}: different seed must differ",
                class.label()
            );
            for e in a.events() {
                assert!(e.at < 12_000);
                assert_eq!(e.kind.class(), class);
            }
        }
    }

    #[test]
    fn random_ro_failures_respect_the_loss_budget() {
        let s = FaultSchedule::random(3, FaultClass::RoStageFailure, 50.0, 200_000, 1);
        assert!(s.ro_stage_loss(200_000) <= 16.0, "cumulative loss capped");
    }

    #[test]
    fn random_events_respect_refractory_spacing() {
        let s = FaultSchedule::random(11, FaultClass::SeuLroWord, 20.0, 50_000, 1);
        let mut ats: Vec<u64> = s.events().iter().map(|e| e.at).collect();
        ats.sort_unstable();
        for w in ats.windows(2) {
            assert!(
                w[1] - w[0] >= 400,
                "spacing violated: {} then {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn seu_bits_are_bounded() {
        let s = FaultSchedule::new(1).with(FaultEvent {
            at: 0,
            duration: 1,
            kind: FaultKind::SeuControlState { bit: 1000 },
        });
        let bits: Vec<u32> = s.seu_control_bits(0).collect();
        assert_eq!(bits, vec![1000 % SEU_BIT_SPAN]);
    }
}
