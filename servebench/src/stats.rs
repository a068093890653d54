//! Percentiles, open-loop latency accounting, seeded randomness and
//! content hashes: the harness arithmetic, kept free of I/O so the
//! self-tests at the bottom can pin it.

/// Nearest-rank quantile of an ascending slice (`p` in `[0, 1]`): the
/// smallest value with at least `p * n` samples at or below it. An empty
/// slice yields `NaN`, so a missing sample can never read as a fast one.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample (`NaN` when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// One request as the open-loop generator saw it, in nanoseconds since
/// the phase started: when it was due, when it actually left, and when
/// its reply arrived (`None`: never answered).
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub due: u64,
    pub sent: u64,
    pub done: Option<u64>,
}

/// Latency accounting that does not forgive stalls. Every request is
/// timed from its *scheduled* send time, so a stall that delays the
/// generator or the server charges every request queued behind it
/// (no coordinated omission). A failed or missing reply counts as
/// slower than any limit.
#[derive(Debug, Default)]
pub struct Recorder {
    latencies_us: Vec<f64>,
    late_us: Vec<f64>,
}

impl Recorder {
    /// Record one request; `ok` is false for a BUSY/TIMEOUT/ERR reply.
    pub fn record(&mut self, t: Timing, ok: bool) {
        self.late_us.push(t.sent.saturating_sub(t.due) as f64 / 1e3);
        self.latencies_us.push(match t.done {
            Some(done) if ok => done.saturating_sub(t.due) as f64 / 1e3,
            _ => f64::INFINITY,
        });
    }

    pub fn len(&self) -> usize {
        self.latencies_us.len()
    }

    /// Latency quantile in microseconds (`INFINITY` if a failure lands
    /// on it).
    pub fn latency_us(&self, p: f64) -> f64 {
        let mut v = self.latencies_us.clone();
        v.sort_by(f64::total_cmp);
        quantile(&v, p)
    }

    /// The median over consecutive windows of `window` requests (in
    /// record order; a short tail joins the last window) of each
    /// window's latency quantile. A host-wide stall spoils the windows
    /// it hits rather than the whole run's tail.
    pub fn windowed_latency_us(&self, p: f64, window: usize) -> f64 {
        windowed(&self.latencies_us, p, window)
    }

    /// [`Recorder::windowed_latency_us`] for generator lateness.
    pub fn windowed_late_us(&self, p: f64, window: usize) -> f64 {
        windowed(&self.late_us, p, window)
    }
}

fn windowed(values: &[f64], p: f64, window: usize) -> f64 {
    let n = (values.len() / window.max(1)).max(1);
    let per: Vec<f64> = (0..n)
        .map(|k| {
            let end = if k + 1 == n {
                values.len()
            } else {
                (k + 1) * window
            };
            let mut w = values[k * window..end].to_vec();
            w.sort_by(f64::total_cmp);
            quantile(&w, p)
        })
        .collect();
    median(&per)
}

/// Seeded SplitMix64: small, fast, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5EB1_CE6A_17D0_0D5E)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf(s) over ranks `0..n`: rank `k` has weight `1 / (k + 1)^s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|k| {
                acc += 1.0 / ((k + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn draw(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// FNV-1a 64-bit: the content hash the pinned inputs are checked
/// against (an identity check for bytes, not a security boundary).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01B3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        assert!(quantile(&[], 0.5).is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn failures_and_missing_replies_rank_above_every_latency() {
        let mut r = Recorder::default();
        for i in 0..98u64 {
            let t = Timing {
                due: i * 1000,
                sent: i * 1000,
                done: Some(i * 1000 + 50_000),
            };
            r.record(t, true);
        }
        r.record(
            Timing {
                due: 0,
                sent: 0,
                done: Some(10),
            },
            false,
        );
        r.record(
            Timing {
                due: 0,
                sent: 0,
                done: None,
            },
            true,
        );
        assert_eq!(r.latency_us(0.5), 50.0);
        assert_eq!(r.latency_us(0.99), f64::INFINITY);
    }

    /// A single-server FIFO queue with 100 µs service that stalls for
    /// 100 ms at t = 500 ms, offered one request per millisecond.
    fn fifo_done(arrivals: &[u64]) -> Vec<u64> {
        let (service, stall_at, stall) = (100_000, 500_000_000, 100_000_000);
        let mut free = 0u64;
        arrivals
            .iter()
            .map(|&a| {
                let mut start = free.max(a);
                if start >= stall_at && start < stall_at + stall {
                    start = stall_at + stall;
                }
                free = start + service;
                free
            })
            .collect()
    }

    #[test]
    fn open_loop_charges_a_stall_to_every_request_behind_it() {
        let due: Vec<u64> = (0..1000u64).map(|i| i * 1_000_000).collect();
        // Open loop: the generator keeps its schedule through the stall.
        let mut open = Recorder::default();
        for (&d, done) in due.iter().zip(fifo_done(&due)) {
            open.record(
                Timing {
                    due: d,
                    sent: d,
                    done: Some(done),
                },
                true,
            );
        }
        // About 100 requests queue behind the stall: p99 sees it.
        assert!(
            open.latency_us(0.99) > 50_000.0,
            "{}",
            open.latency_us(0.99)
        );
        assert!(open.latency_us(0.5) < 1_000.0);
        assert_eq!(open.windowed_late_us(0.99, 1000), 0.0);

        // A closed-loop client waits out the stall and then resumes its
        // schedule-free pace: only one request observes the stall, so
        // timing from the send would report a clean p99.
        let mut closed = Recorder::default();
        let mut now = 0u64;
        for _ in 0..1000 {
            let done = fifo_done(&[now])[0].max(now + 100_000);
            closed.record(
                Timing {
                    due: now,
                    sent: now,
                    done: Some(done),
                },
                true,
            );
            now = done.max(now + 1_000_000);
        }
        assert!(closed.latency_us(0.99) < 1_000.0);
    }

    #[test]
    fn lateness_measures_generator_lag_against_its_schedule() {
        let mut r = Recorder::default();
        for i in 0..100u64 {
            let lag = if i >= 90 { 5_000_000 } else { 20_000 };
            r.record(
                Timing {
                    due: i,
                    sent: i + lag,
                    done: Some(i + lag + 1),
                },
                true,
            );
        }
        assert_eq!(r.windowed_late_us(0.5, 1000), 20.0);
        assert_eq!(r.windowed_late_us(0.99, 1000), 5_000.0);
    }

    #[test]
    fn windowed_quantile_shrugs_off_one_stalled_window() {
        let mut r = Recorder::default();
        for i in 0..5000u64 {
            // Window 2 of 5 stalls: every request in it takes 50 ms.
            let lat = if (2000..3000).contains(&i) {
                50_000_000
            } else {
                100_000 + (i % 100) * 1000
            };
            r.record(
                Timing {
                    due: 0,
                    sent: 0,
                    done: Some(lat),
                },
                true,
            );
        }
        assert_eq!(r.windowed_latency_us(0.99, 1000), 198.0);
        assert_eq!(r.latency_us(0.99), 50_000.0);
        // Fewer samples than a window: one window, the plain quantile.
        let mut short = Recorder::default();
        for i in 0..10u64 {
            short.record(
                Timing {
                    due: 0,
                    sent: 0,
                    done: Some(i * 1000),
                },
                true,
            );
        }
        assert_eq!(short.windowed_latency_us(0.5, 1000), short.latency_us(0.5));
    }

    #[test]
    fn zipf_is_skewed_and_seeded() {
        let z = Zipf::new(1000, 1.0);
        let (mut a, mut b) = (Rng::new(7), Rng::new(7));
        let draws: Vec<usize> = (0..20_000).map(|_| z.draw(&mut a)).collect();
        assert!(draws.iter().all(|&d| d < 1000));
        assert_eq!(
            draws,
            (0..20_000).map(|_| z.draw(&mut b)).collect::<Vec<_>>()
        );
        let top = draws.iter().filter(|&&d| d == 0).count() as f64 / 20_000.0;
        // 1 / H(1000) ~ 0.134.
        assert!((0.11..0.16).contains(&top), "{top}");
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xAF63_DC4C_8601_EC8C);
    }
}
