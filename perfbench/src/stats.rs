//! Percentiles, the tail-percentile sample rule, Graph500 edge counting and
//! the capacity-ladder rule — the arithmetic every workload reports through.

use sparse_substrate::CscMatrix;

/// Nearest-rank percentile of an ascending slice: the `ceil(q·n)`-th
/// smallest sample (1-based, clamped to `[1, n]`). `NaN` when empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Samples sorted ascending (NaN-free input assumed).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Arithmetic mean (`0` when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Samples a nearest-rank percentile leaves beyond it.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The sample rule for a reported tail: a percentile is only quoted when at
/// least ten samples lie beyond it.
pub fn tail_supported(n: usize, q: f64) -> bool {
    n > 0 && samples_beyond(n, q) >= 10
}

/// Graph500 traversed-edge count of one search: the degree sum of every
/// reached vertex, halved because the symmetric adjacency stores each
/// undirected edge twice.
pub fn traversed_edges(a: &CscMatrix<f64>, levels: &[Option<usize>]) -> u64 {
    let degree_sum: usize =
        levels.iter().enumerate().filter(|(_, l)| l.is_some()).map(|(v, _)| a.column_nnz(v)).sum();
    degree_sum as u64 / 2
}

/// Frontier column nnz summed over a vertex set: the multiplications one
/// SpMSpV (or one BFS, over all its frontiers) performs.
pub fn column_flops(a: &CscMatrix<f64>, vertices: impl IntoIterator<Item = usize>) -> u64 {
    vertices.into_iter().map(|v| a.column_nnz(v) as u64).sum()
}

/// One rung of the serving capacity ladder.
#[derive(Debug, Clone)]
pub struct Rung {
    /// Offered Poisson rate (requests per second).
    pub rate: f64,
    /// Latency of every request from its due time, in send order (ms).
    pub latencies_ms: Vec<f64>,
    /// Requests that failed, were shed, timed out or answered wrongly.
    pub failed: u64,
}

impl Rung {
    /// Nearest-rank p99 of the rung's latencies.
    pub fn p99(&self) -> f64 {
        percentile(&sorted(&self.latencies_ms), 0.99)
    }

    /// Whether the queue grew during the rung: the mean latency of its last
    /// quarter exceeds that of its first quarter by more than half the
    /// limit. A queue that only keeps pace shows a flat sequence.
    pub fn backlog_grew(&self, limit_ms: f64) -> bool {
        let n = self.latencies_ms.len();
        if n < 4 {
            return false;
        }
        let first = mean(&self.latencies_ms[..n / 4]);
        let last = mean(&self.latencies_ms[n - n / 4..]);
        last - first > limit_ms / 2.0
    }

    /// The rung meets the limit: nothing failed, p99 within the limit, and
    /// no growing backlog.
    pub fn passes(&self, limit_ms: f64) -> bool {
        self.failed == 0
            && !self.latencies_ms.is_empty()
            && self.p99() <= limit_ms
            && !self.backlog_grew(limit_ms)
    }
}

/// Capacity: the highest passing rate of a climbing ladder before its first
/// failing rate (`None` when the first rate already fails). A failed rung
/// followed by a rung at the same rate is a retry: the rate fails only if
/// the retry fails too.
pub fn capacity(ladder: &[Rung], limit_ms: f64) -> Option<f64> {
    let mut best = None;
    for (i, rung) in ladder.iter().enumerate() {
        if rung.passes(limit_ms) {
            best = Some(rung.rate);
        } else if ladder.get(i + 1).is_none_or(|next| next.rate != rung.rate) {
            break;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse_substrate::gen::grid2d;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 0.5), 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert!(tail_supported(100, 0.9));
        assert!(!tail_supported(99, 0.9));
        assert!(tail_supported(1000, 0.99));
        assert!(!tail_supported(999, 0.99));
        assert!(!tail_supported(0, 0.5));
        assert!(tail_supported(20, 0.5));
    }

    #[test]
    fn teps_count_on_a_grid() {
        // A 40×40 grid has 40·39 horizontal + 39·40 vertical edges, and BFS
        // from any vertex reaches all 1600 vertices.
        let a = grid2d(40, 40);
        let all: Vec<Option<usize>> = vec![Some(0); 1600];
        assert_eq!(traversed_edges(&a, &all), 2 * 40 * 39);
        let none: Vec<Option<usize>> = vec![None; 1600];
        assert_eq!(traversed_edges(&a, &none), 0);
        assert_eq!(column_flops(&a, 0..1600), 4 * 40 * 39);
    }

    fn rung(rate: f64, latencies_ms: Vec<f64>) -> Rung {
        Rung { rate, latencies_ms, failed: 0 }
    }

    #[test]
    fn capacity_is_the_last_rung_before_the_first_failure() {
        let limit = 5.0;
        let flat = |rate, ms| rung(rate, vec![ms; 400]);
        // Growing backlog: latency climbs steadily through the rung while
        // p99 still meets the limit.
        let ramp = rung(1300.0, (0..400).map(|i| 0.5 + 4.0 * f64::from(i) / 400.0).collect());
        assert!(ramp.p99() <= limit);
        assert!(ramp.backlog_grew(limit));
        let mut tail = vec![1.0; 400];
        tail[100..110].fill(9.0); // 10 of 400 over the limit: p99 misses it
        let ladder = vec![
            flat(1000.0, 1.0),
            flat(1100.0, 1.5),
            flat(1200.0, 2.0),
            ramp,
            flat(1400.0, 1.0), // never reached: the ladder stopped at 1300
        ];
        assert_eq!(capacity(&ladder, limit), Some(1200.0));
        assert!(!rung(900.0, tail).passes(limit));
        assert_eq!(capacity(&[flat(500.0, 9.0)], limit), None);
        let mut failed = flat(500.0, 1.0);
        failed.failed = 1;
        assert_eq!(capacity(&[flat(400.0, 1.0), failed.clone()], limit), Some(400.0));
        // A failed rung retried at the same rate: a passing retry keeps the
        // ladder climbing, a failing one ends it.
        let retried = [flat(400.0, 1.0), failed.clone(), flat(500.0, 1.0), flat(525.0, 1.0)];
        assert_eq!(capacity(&retried, limit), Some(525.0));
        let twice = [flat(400.0, 1.0), failed.clone(), failed, flat(600.0, 1.0)];
        assert_eq!(capacity(&twice, limit), Some(400.0));
    }
}
