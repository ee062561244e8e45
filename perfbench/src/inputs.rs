//! Seeded input generation. Everything a workload feeds the program — the
//! graph, source lists, request sets, shared masks and the arrival
//! schedule — is built here from `--seed` before any clock starts.

use std::sync::Arc;

use sparse_substrate::gen::{rmat, triangular_mesh, RmatParams};
use sparse_substrate::{CscMatrix, MaskBits, SparseVec};

/// splitmix64: a tiny, well-mixed generator, so the inputs depend on the
/// seed alone and not on any library's RNG.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named input stream of `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407))
    }

    /// The next 64 random bits.
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

    /// Exponential with mean 1 (unit Poisson inter-arrival gap).
    pub fn exp1(&mut self) -> f64 {
        -(1.0 - self.unit()).ln()
    }
}

/// The ljournal-2008 stand-in of the dataset suite (R-MAT, Graph500 skew,
/// edge factor 14) at `scale`, drawn from `seed`.
pub fn scalefree_graph(scale: u32, seed: u64) -> CscMatrix<f64> {
    rmat(scale, 14, RmatParams::graph500(), seed)
}

/// The hugetric-00020 stand-in: a `side × side` triangular mesh. The mesh
/// is the same for every seed; the seed picks the sources.
pub fn mesh_graph(side: usize) -> CscMatrix<f64> {
    triangular_mesh(side, side)
}

/// `count` seeded sources drawn from the vertices of degree ≥ 1.
pub fn sources(a: &CscMatrix<f64>, count: usize, rng: &mut Rng) -> Vec<usize> {
    let candidates: Vec<usize> = (0..a.ncols()).filter(|&v| a.column_nnz(v) > 0).collect();
    assert!(!candidates.is_empty(), "the graph has no edges");
    (0..count).map(|_| candidates[rng.below(candidates.len())]).collect()
}

/// The `count` highest-degree vertices (lowest index first among ties):
/// warm-up sources that do the same work for every seed.
pub fn top_degree(a: &CscMatrix<f64>, count: usize) -> Vec<usize> {
    let mut by_degree: Vec<usize> = (0..a.ncols()).collect();
    by_degree.sort_by_key(|&v| (std::cmp::Reverse(a.column_nnz(v)), v));
    by_degree.truncate(count);
    by_degree
}

/// One pre-generated serving request.
#[derive(Debug, Clone)]
pub struct ServeRequest {
    /// The frontier sent (cloned into each request).
    pub frontier: SparseVec<f64>,
    /// Whether it carries the shared complement mask.
    pub masked: bool,
    /// Frontier column nnz: the multiplications it asks for.
    pub flops: u64,
}

/// The serving request mix over `a`:
///
/// * frontier nnz uniform in 16–64, with one request in 16 drawn
///   log-uniformly from 64–1024 (the heavy tail);
/// * half the requests draw their vertices from a hot set of 256, so fused
///   lanes share columns; the rest from every vertex of degree ≥ 1. Hot
///   vertices have at most 4× the mean degree: a hub in a set this small
///   would set the cost of half the traffic, and differently per seed;
/// * one third carry the one shared `Arc` complement mask, which hides a
///   seeded half of the rows;
/// * values are small integers, so sums are exact in any order and the
///   oracle comparison can be bit-exact.
pub fn serve_requests(
    a: &CscMatrix<f64>,
    count: usize,
    rng: &mut Rng,
) -> (Vec<ServeRequest>, Arc<MaskBits>) {
    let n = a.ncols();
    let candidates: Vec<usize> = (0..n).filter(|&v| a.column_nnz(v) > 0).collect();
    let cap = 4.0 * a.nnz() as f64 / n as f64;
    let ordinary: Vec<usize> =
        candidates.iter().copied().filter(|&v| a.column_nnz(v) as f64 <= cap).collect();
    let hot: Vec<usize> =
        (0..256.min(ordinary.len())).map(|_| ordinary[rng.below(ordinary.len())]).collect();
    let shared: Arc<MaskBits> =
        Arc::new(MaskBits::from_indices(a.nrows(), (0..a.nrows()).filter(|_| rng.below(2) == 0)));
    let requests = (0..count)
        .map(|i| {
            let nnz = if rng.below(16) == 0 {
                (64.0 * 16f64.powf(rng.unit())) as usize
            } else {
                16 + rng.below(49)
            };
            let pool = if rng.below(2) == 0 { &hot } else { &candidates };
            let mut picked: Vec<usize> =
                (0..nnz.min(pool.len())).map(|_| pool[rng.below(pool.len())]).collect();
            picked.sort_unstable();
            picked.dedup();
            let flops = crate::stats::column_flops(a, picked.iter().copied());
            let pairs = picked.into_iter().map(|v| (v, (1 + rng.below(8)) as f64)).collect();
            let frontier = SparseVec::from_pairs(n, pairs).expect("deduplicated in-range indices");
            ServeRequest { frontier, masked: i % 3 == 0, flops }
        })
        .collect();
    (requests, shared)
}

/// `count` unit-mean exponential gaps: the Poisson schedule, scaled by the
/// offered rate when it is sent.
pub fn unit_gaps(count: usize, rng: &mut Rng) -> Vec<f64> {
    (0..count).map(|_| rng.exp1()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = scalefree_graph(8, 3);
        assert_eq!(a.fingerprint(), scalefree_graph(8, 3).fingerprint());
        let s1 = sources(&a, 32, &mut Rng::new(9, 1));
        assert_eq!(s1, sources(&a, 32, &mut Rng::new(9, 1)));
        assert_ne!(s1, sources(&a, 32, &mut Rng::new(10, 1)));
        assert!(s1.iter().all(|&v| a.column_nnz(v) > 0));
        let (r1, _) = serve_requests(&a, 20, &mut Rng::new(9, 2));
        let (r2, _) = serve_requests(&a, 20, &mut Rng::new(9, 2));
        assert!(r1.iter().zip(&r2).all(|(x, y)| x.frontier.same_entries(&y.frontier)));
        assert_eq!(r1.iter().filter(|r| r.masked).count(), 7);
    }
}
