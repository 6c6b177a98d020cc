//! The benchmark's own statistics: percentiles under the "ten samples
//! beyond" rule, per-batch lateness attribution, failure counting and the
//! result line.

use std::fmt::Write as _;

/// A percentile is only reported when at least this many samples lie
/// beyond it; otherwise the highest percentile that has them is reported.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of quantile `q` among `n` samples. The epsilon
/// keeps `0.99 * 1000` at rank 990 despite binary rounding.
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// A percentile read from raw samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The quantile actually reported: the one asked for, or lower when
    /// the sample is too small to support it.
    pub q: f64,
    pub value: f64,
    pub samples: usize,
    /// Blocks whose percentiles were combined (1: all samples at once).
    pub blocks: usize,
}

/// The value at quantile `q` when at least [`MIN_BEYOND`] samples lie
/// beyond it; otherwise the value at the highest rank that leaves
/// [`MIN_BEYOND`] beyond (reported with its own, lower `q`). `None` when
/// there are no more than [`MIN_BEYOND`] samples at all.
pub fn percentile(samples: &[f64], q: f64) -> Option<Percentile> {
    let n = samples.len();
    if n <= MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let wanted = rank(q, n);
    let r = if n - wanted >= MIN_BEYOND {
        wanted
    } else {
        n - MIN_BEYOND
    };
    let q = if r == wanted { q } else { r as f64 / n as f64 };
    Some(Percentile {
        q,
        value: sorted[r - 1],
        samples: n,
        blocks: 1,
    })
}

/// The smallest sample count for which [`percentile`] reports `q` itself.
pub fn samples_needed(q: f64) -> usize {
    (MIN_BEYOND + 1..)
        .find(|&n| n - rank(q, n) >= MIN_BEYOND)
        .expect("a finite count exists for every q < 1")
}

/// At most this many blocks in [`block_percentile`].
pub const MAX_BLOCKS: usize = 16;

/// `n` indices split into `k` consecutive, near-equal ranges.
fn blocks(n: usize, k: usize) -> impl Iterator<Item = std::ops::Range<usize>> {
    (0..k).map(move |i| i * n / k..(i + 1) * n / k)
}

/// [`percentile`] of `samples` (in arrival order) cut into as many
/// consecutive blocks as keep [`samples_needed`] in each, at most
/// [`MAX_BLOCKS`], reported as the median over the blocks. A burst of
/// host interference shorter than half the run then moves the result
/// little, while a change that slows every operation moves every block.
pub fn block_percentile(samples: &[f64], q: f64) -> Option<Percentile> {
    let k = (samples.len() / samples_needed(q)).clamp(1, MAX_BLOCKS);
    if k == 1 {
        return percentile(samples, q);
    }
    let per_block: Vec<f64> = blocks(samples.len(), k)
        .map(|r| {
            percentile(&samples[r], q)
                .expect("each block has enough samples")
                .value
        })
        .collect();
    Some(Percentile {
        q,
        value: median(&per_block).expect("k > 1 blocks"),
        samples: samples.len(),
        blocks: k,
    })
}

/// Median of a few values (set-up times, per-round ratios); `None` when
/// empty. Even counts take the mean of the two middle values.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    })
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Operations attempted and failed. Errors, sheds and failed
/// correctness checks all count as failures; nothing is dropped.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure descriptions, for the report.
    pub notes: Vec<String>,
}

const MAX_NOTES: usize = 20;

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, what: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.notes.len() < MAX_NOTES {
            self.notes.push(what);
        }
    }

    /// Count one check; returns `cond`.
    pub fn check(&mut self, cond: bool, what: impl FnOnce() -> String) -> bool {
        if cond {
            self.ok();
        } else {
            self.fail(what());
        }
        cond
    }

    /// Count one operation's result; returns its value when it succeeded.
    pub fn op<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        match r {
            Ok(v) => {
                self.ok();
                Some(v)
            }
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for n in other.notes {
            if self.notes.len() < MAX_NOTES {
                self.notes.push(n);
            }
        }
    }

    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// One `pump_one_batch` call on a microsecond timeline. `due_us` is the
/// due time of the oldest transition the batch could fire (read from the
/// scheduler just before the call).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BatchObs {
    pub due_us: u64,
    pub start_us: u64,
    pub end_us: u64,
    pub fired: u64,
    pub deferred: u64,
    /// Σ `commit.ack` recorded while the batch ran (traced runs only).
    pub ack_us: u64,
}

impl BatchObs {
    /// Due → durable return: what the paper's timeliness promise is about.
    pub fn lateness_us(&self) -> u64 {
        self.end_us.saturating_sub(self.due_us)
    }

    /// Due → call start: the pump's own wake-up delay (or, in a drained
    /// backlog, the wait behind earlier batches).
    pub fn wakeup_lag_us(&self) -> u64 {
        self.start_us.saturating_sub(self.due_us)
    }

    /// Call start → durable return: time inside the engine.
    pub fn engine_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// Lateness of every batch that made at least one transition durable,
/// split into wake-up lag and engine time. Batches that fired nothing
/// (every transition deferred) count only towards the deferred share.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct BatchSummary {
    pub batches: usize,
    pub fired: u64,
    /// Transitions of each timed batch, aligned with `engine_us`.
    pub fired_each: Vec<f64>,
    pub deferred: u64,
    pub lateness_us: Vec<f64>,
    pub wakeup_lag_us: Vec<f64>,
    pub engine_us: Vec<f64>,
    pub ack_us: u64,
}

impl BatchSummary {
    pub fn of(batches: &[BatchObs]) -> BatchSummary {
        let mut s = BatchSummary::default();
        for b in batches {
            s.fired += b.fired;
            s.deferred += b.deferred;
            if b.fired == 0 {
                continue;
            }
            s.batches += 1;
            s.fired_each.push(b.fired as f64);
            s.lateness_us.push(b.lateness_us() as f64);
            s.wakeup_lag_us.push(b.wakeup_lag_us() as f64);
            s.engine_us.push(b.engine_us() as f64);
            s.ack_us += b.ack_us;
        }
        s
    }

    pub fn engine_total_us(&self) -> f64 {
        self.engine_us.iter().sum()
    }

    /// Transitions made durable per second of pump time, as the median
    /// over batches: the pump's typical speed. Stalls behind a checkpoint
    /// show in the lateness tail instead of swinging this rate.
    pub fn per_s(&self) -> f64 {
        let rates: Vec<f64> = self
            .fired_each
            .iter()
            .zip(&self.engine_us)
            .filter(|(_, us)| **us > 0.0)
            .map(|(fired, us)| fired * 1e6 / us)
            .collect();
        median(&rates).unwrap_or(0.0)
    }

    pub fn deferred_share(&self) -> f64 {
        let all = self.fired + self.deferred;
        if all == 0 {
            0.0
        } else {
            self.deferred as f64 / all as f64
        }
    }
}

/// One named metric of the result line.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The result line: one JSON object, printed last on standard output.
pub fn result_json(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.attempted, tally.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // JSON has no NaN or infinity: a non-finite value is reported as
        // 0 and the run is marked incorrect by the caller.
        let v = if m.value.is_finite() { m.value } else { 0.0 };
        write!(
            out,
            "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            m.name, m.unit
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_reports_the_asked_quantile_when_ten_samples_lie_beyond() {
        let p = percentile(&ramp(1000), 0.99).unwrap();
        assert_eq!(p.q, 0.99);
        assert_eq!(p.value, 990.0);
        assert_eq!(p.samples, 1000);
        let p = percentile(&ramp(200), 0.95).unwrap();
        assert_eq!((p.q, p.value), (0.95, 190.0));
    }

    #[test]
    fn percentile_falls_back_to_the_highest_supported_quantile() {
        // 999 samples: rank 990 would leave only 9 beyond.
        let p = percentile(&ramp(999), 0.99).unwrap();
        assert_eq!(p.value, 989.0);
        assert!((p.q - 989.0 / 999.0).abs() < 1e-12);
        let p = percentile(&ramp(100), 0.95).unwrap();
        assert_eq!(p.value, 90.0);
        assert!(percentile(&ramp(10), 0.5).is_none());
        assert!(percentile(&[], 0.5).is_none());
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v = ramp(500);
        v.reverse();
        assert_eq!(percentile(&v, 0.5).unwrap().value, 250.0);
    }

    #[test]
    fn samples_needed_matches_the_rule() {
        assert_eq!(samples_needed(0.99), 1000);
        assert_eq!(samples_needed(0.95), 200);
        assert_eq!(samples_needed(0.5), 20);
        for q in [0.5, 0.95, 0.99] {
            let n = samples_needed(q);
            assert_eq!(percentile(&ramp(n), q).unwrap().q, q);
            assert_ne!(percentile(&ramp(n - 1), q).unwrap().q, q);
        }
    }

    #[test]
    fn block_percentile_is_the_median_of_per_block_percentiles() {
        // 40 samples: two blocks of 20 support p50 each.
        let mut v = ramp(20);
        v.extend(ramp(20).iter().map(|x| x + 100.0));
        let p = block_percentile(&v, 0.5).unwrap();
        assert_eq!((p.q, p.value, p.samples, p.blocks), (0.5, 60.0, 40, 2));
        // Too few for two blocks: the plain percentile with its fallback.
        assert_eq!(
            block_percentile(&ramp(999), 0.99),
            percentile(&ramp(999), 0.99)
        );
    }

    #[test]
    fn block_percentile_shrugs_off_a_short_burst() {
        // Steady 100 µs with one block-sized burst at 10 ms.
        let mut v = vec![100.0; 15 * 20];
        v.extend(vec![10_000.0; 20]);
        assert_eq!(block_percentile(&v, 0.5).unwrap().value, 100.0);
        assert_eq!(percentile(&v, 0.99).unwrap().value, 10_000.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn batch_lateness_splits_into_wakeup_lag_and_engine_time() {
        let b = BatchObs {
            due_us: 1_000,
            start_us: 1_300,
            end_us: 2_000,
            fired: 4,
            deferred: 0,
            ack_us: 500,
        };
        assert_eq!(b.lateness_us(), 1_000);
        assert_eq!(b.wakeup_lag_us(), 300);
        assert_eq!(b.engine_us(), 700);
        assert_eq!(b.wakeup_lag_us() + b.engine_us(), b.lateness_us());
        // A call that starts before the due time is never negative late.
        let early = BatchObs {
            due_us: 5_000,
            start_us: 4_000,
            end_us: 4_500,
            ..b
        };
        assert_eq!(early.lateness_us(), 0);
        assert_eq!(early.wakeup_lag_us(), 0);
    }

    #[test]
    fn batch_summary_counts_deferrals_but_times_only_durable_batches() {
        let fired = BatchObs {
            due_us: 0,
            start_us: 100,
            end_us: 1_100,
            fired: 10,
            deferred: 2,
            ack_us: 600,
        };
        let all_deferred = BatchObs {
            due_us: 0,
            start_us: 2_000,
            end_us: 2_050,
            fired: 0,
            deferred: 8,
            ack_us: 0,
        };
        let s = BatchSummary::of(&[fired, all_deferred]);
        assert_eq!(s.batches, 1);
        assert_eq!(s.lateness_us, vec![1_100.0]);
        assert_eq!(s.wakeup_lag_us, vec![100.0]);
        assert_eq!(s.engine_us, vec![1_000.0]);
        assert_eq!((s.fired, s.deferred), (10, 10));
        assert_eq!(s.deferred_share(), 0.5);
        assert_eq!(s.per_s(), 10_000.0);
        let slow = BatchObs {
            start_us: 0,
            end_us: 100_000,
            ..fired
        };
        // One batch stalled 100 ms does not move the median rate.
        assert_eq!(BatchSummary::of(&[fired, fired, slow]).per_s(), 10_000.0);
        assert_eq!(s.ack_us, 600);
    }

    #[test]
    fn tally_counts_errors_and_failed_checks_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.op("insert", Ok::<_, String>(1)), Some(1));
        assert_eq!(t.op::<i32, _>("insert", Err("server busy")), None);
        assert!(t.check(true, || unreachable!()));
        assert!(!t.check(false, || "point-id returned 0 rows".into()));
        assert_eq!((t.attempted, t.failed), (4, 2));
        assert_eq!(t.error_rate(), 0.5);
        assert_eq!(t.notes.len(), 2);
        assert!(t.notes[0].contains("server busy"));

        let mut other = Tally::default();
        other.ok();
        t.merge(other);
        assert_eq!((t.attempted, t.failed), (5, 2));
        assert_eq!(Tally::default().error_rate(), 0.0);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut t = Tally::default();
        t.ok();
        let line = result_json(
            true,
            &t,
            &[
                Metric {
                    name: "setup_s",
                    value: 0.8125,
                    unit: "s",
                },
                Metric {
                    name: "space_amp",
                    value: f64::NAN,
                    unit: "B/B",
                },
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8125, \"unit\": \"s\"}, \
             \"space_amp\": {\"value\": 0, \"unit\": \"B/B\"}}}"
        );
    }
}
