//! Output checks, run off the clock: Graph500-style BFS tree validation.

use sparse_substrate::CscMatrix;

/// Graph500-style validation of one BFS tree over a symmetric adjacency:
///
/// * the source is its own parent at level 0;
/// * every other reached vertex has a parent one level up, adjacent to it;
/// * every edge spans at most one level, so no reached vertex has an
///   unreached neighbour (every reachable vertex was reached).
pub fn validate_bfs_tree(
    a: &CscMatrix<f64>,
    source: usize,
    parents: &[Option<usize>],
    levels: &[Option<usize>],
) -> Result<(), String> {
    let n = a.ncols();
    if parents.len() != n || levels.len() != n {
        return Err(format!("result covers {} / {} of {n} vertices", parents.len(), levels.len()));
    }
    if parents[source] != Some(source) || levels[source] != Some(0) {
        return Err(format!("source {source} is not its own root at level 0"));
    }
    for v in 0..n {
        match (parents[v], levels[v]) {
            (None, None) => {}
            (Some(p), Some(l)) if v != source => {
                if levels.get(p).copied().flatten().map(|lp| lp + 1) != Some(l) {
                    return Err(format!("vertex {v} at level {l} has parent {p} not one level up"));
                }
                if a.column(p).0.binary_search(&v).is_err() {
                    return Err(format!("vertex {v}'s parent {p} is not adjacent to it"));
                }
            }
            (Some(_), Some(_)) => {}
            _ => return Err(format!("vertex {v} has a parent xor a level")),
        }
        if let Some(l) = levels[v] {
            for &u in a.column(v).0 {
                match levels[u] {
                    None => {
                        return Err(format!("vertex {u} is adjacent to reached {v} but unreached"))
                    }
                    Some(lu) if lu.abs_diff(l) > 1 => {
                        return Err(format!("edge {v}-{u} spans levels {l} and {lu}"))
                    }
                    Some(_) => {}
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse_substrate::gen::grid2d;
    use spmspv::{AlgorithmKind, SpMSpVOptions};

    #[test]
    fn accepts_a_real_search_and_rejects_corruptions() {
        let a = grid2d(12, 12);
        let r = spmspv_graphs::bfs(&a, 5, AlgorithmKind::Bucket, SpMSpVOptions::with_threads(1));
        validate_bfs_tree(&a, 5, &r.parents, &r.levels).expect("a real BFS tree validates");

        let mut skipped = r.levels.clone();
        skipped[100] = skipped[100].map(|l| l + 2);
        assert!(validate_bfs_tree(&a, 5, &r.parents, &skipped).is_err());

        let (mut parents, mut levels) = (r.parents.clone(), r.levels.clone());
        parents[143] = None;
        levels[143] = None;
        assert!(validate_bfs_tree(&a, 5, &parents, &levels).is_err(), "unreached neighbour");

        let mut far = r.parents.clone();
        far[143] = Some(0); // a vertex at the right level would still not be adjacent
        assert!(validate_bfs_tree(&a, 5, &far, &r.levels).is_err());
    }
}
