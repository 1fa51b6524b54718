//! The benchmark's correctness checks. Each takes the program's output and
//! the benchmark's own reference data and returns `Err` with a reason when
//! the output is wrong; the tests at the bottom feed every check a planted
//! wrong answer.

use nsg_core::Neighbor;

/// Largest relative difference allowed between a distance the program
/// returns and the benchmark's scalar recomputation. The program's SIMD
/// kernels sum in a different order, which moves the last few bits.
pub const DIST_REL_TOL: f64 = 1e-4;

/// Collects failed checks; the run is correct when none failed.
#[derive(Default)]
pub struct Checker {
    failures: usize,
}

impl Checker {
    pub fn check(&mut self, what: &str, outcome: Result<(), String>) {
        if let Err(reason) = outcome {
            // The first few reasons are enough to diagnose; the count says
            // how widespread the fault is.
            if self.failures < 10 {
                eprintln!("check failed: {what}: {reason}");
            }
            self.failures += 1;
        }
    }

    pub fn failures(&self) -> usize {
        self.failures
    }
}

/// `k` results with unique ids below `id_limit`, sorted by distance.
pub fn result_list(results: &[Neighbor], k: usize, id_limit: usize) -> Result<(), String> {
    if results.len() != k {
        return Err(format!("{} results, expected {k}", results.len()));
    }
    for (i, nb) in results.iter().enumerate() {
        if nb.id as usize >= id_limit {
            return Err(format!("id {} out of range (limit {id_limit})", nb.id));
        }
        if results[..i].iter().any(|prev| prev.id == nb.id) {
            return Err(format!("duplicate id {}", nb.id));
        }
        if i > 0 && results[i - 1].dist > nb.dist {
            return Err(format!(
                "not sorted at position {i}: {} > {}",
                results[i - 1].dist,
                nb.dist
            ));
        }
    }
    Ok(())
}

/// Every returned distance equals the benchmark's own recomputation from
/// the query and the row the id names, within [`DIST_REL_TOL`]. `row` gives
/// `None` for an id that names no row.
pub fn distances<'a>(
    results: &[Neighbor],
    query: &[f32],
    row: impl Fn(u32) -> Option<&'a [f32]>,
) -> Result<(), String> {
    for nb in results {
        let Some(row) = row(nb.id) else {
            return Err(format!("id {} names no row", nb.id));
        };
        let want = crate::data::scalar_l2(query, row) as f64;
        let got = nb.dist as f64;
        if (got - want).abs() > DIST_REL_TOL * want.abs() + 1e-6 {
            return Err(format!("id {}: distance {got}, recomputed {want}", nb.id));
        }
    }
    Ok(())
}

/// No returned id is marked deleted.
pub fn none_deleted(results: &[Neighbor], deleted: &[bool]) -> Result<(), String> {
    match results
        .iter()
        .find(|nb| deleted.get(nb.id as usize).copied().unwrap_or(false))
    {
        Some(nb) => Err(format!("deleted id {} returned", nb.id)),
        None => Ok(()),
    }
}

/// Two answers are identical: same ids in the same order, bit-equal
/// distances.
pub fn same_answer(got: &[Neighbor], want: &[Neighbor]) -> Result<(), String> {
    let same = got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(a, b)| a.id == b.id && a.dist.to_bits() == b.dist.to_bits());
    if same {
        Ok(())
    } else {
        Err(format!(
            "answer {:?} differs from {:?}",
            ids(got),
            ids(want)
        ))
    }
}

/// Every node of an `n`-node graph is reachable from `root`, by the
/// benchmark's own breadth-first search.
pub fn reachable<'a>(
    n: usize,
    root: u32,
    neighbors: impl Fn(u32) -> &'a [u32],
) -> Result<(), String> {
    if n == 0 {
        return Ok(());
    }
    if root as usize >= n {
        return Err(format!("root {root} out of range"));
    }
    let mut seen = vec![false; n];
    let mut queue = std::collections::VecDeque::from([root]);
    seen[root as usize] = true;
    let mut count = 1;
    while let Some(v) = queue.pop_front() {
        for &u in neighbors(v) {
            let Some(slot) = seen.get_mut(u as usize) else {
                return Err(format!("edge {v} -> {u} leaves the graph"));
            };
            if !*slot {
                *slot = true;
                count += 1;
                queue.push_back(u);
            }
        }
    }
    if count == n {
        Ok(())
    } else {
        Err(format!(
            "{} of {n} nodes unreachable from {root}",
            n - count
        ))
    }
}

/// A measured quality figure meets its floor.
pub fn at_least(value: f64, floor: f64) -> Result<(), String> {
    if value >= floor {
        Ok(())
    } else {
        Err(format!("{value:.4} below the floor {floor}"))
    }
}

/// Two counts agree.
pub fn equal(got: usize, want: usize) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{got}, expected {want}"))
    }
}

fn ids(results: &[Neighbor]) -> Vec<u32> {
    results.iter().map(|nb| nb.id).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nb(id: u32, dist: f32) -> Neighbor {
        Neighbor::new(id, dist)
    }

    #[test]
    fn result_list_rejects_planted_faults() {
        let good = [nb(3, 0.5), nb(1, 1.0), nb(7, 1.0)];
        assert!(result_list(&good, 3, 8).is_ok());
        assert!(
            result_list(&[nb(3, 1.0), nb(1, 0.5), nb(7, 2.0)], 3, 8).is_err(),
            "unsorted"
        );
        assert!(
            result_list(&[nb(3, 0.5), nb(3, 0.5), nb(7, 2.0)], 3, 8).is_err(),
            "duplicate id"
        );
        assert!(
            result_list(&[nb(3, 0.5), nb(1, 1.0), nb(8, 2.0)], 3, 8).is_err(),
            "id out of range"
        );
        assert!(result_list(&good[..2], 3, 8).is_err(), "too few results");
    }

    #[test]
    fn distances_rejects_a_wrong_distance() {
        let rows: Vec<Vec<f32>> = vec![vec![0.0, 0.0], vec![3.0, 4.0]];
        let query = [0.0f32, 0.0];
        let row = |id: u32| rows.get(id as usize).map(Vec::as_slice);
        assert!(distances(&[nb(0, 0.0), nb(1, 25.0)], &query, row).is_ok());
        assert!(
            distances(&[nb(0, 0.0), nb(1, 25.0 * (1.0 + 1e-6))], &query, row).is_ok(),
            "rounding"
        );
        assert!(
            distances(&[nb(0, 0.0), nb(1, 24.9)], &query, row).is_err(),
            "wrong distance"
        );
        assert!(
            distances(&[nb(1, 0.0)], &query, row).is_err(),
            "distance of another row"
        );
        assert!(
            distances(&[nb(2, 0.0)], &query, row).is_err(),
            "id out of range"
        );
    }

    #[test]
    fn none_deleted_rejects_a_deleted_id() {
        let deleted = [false, true, false];
        assert!(none_deleted(&[nb(0, 0.1), nb(2, 0.2)], &deleted).is_ok());
        assert!(none_deleted(&[nb(0, 0.1), nb(1, 0.2)], &deleted).is_err());
    }

    #[test]
    fn same_answer_rejects_any_difference() {
        let a = [nb(0, 0.1), nb(2, 0.2)];
        assert!(same_answer(&a, &a).is_ok());
        assert!(same_answer(&a, &[nb(2, 0.2), nb(0, 0.1)]).is_err(), "order");
        let next_up = f32::from_bits(0.2f32.to_bits() + 1);
        assert!(
            same_answer(&a, &[nb(0, 0.1), nb(2, next_up)]).is_err(),
            "distance bits"
        );
        assert!(same_answer(&a, &a[..1]).is_err(), "length");
    }

    #[test]
    fn reachable_rejects_an_unreachable_node() {
        let graph: Vec<Vec<u32>> = vec![vec![1], vec![2], vec![0], vec![0]];
        let adj = |v: u32| graph[v as usize].as_slice();
        assert!(reachable(4, 3, adj).is_ok());
        assert!(reachable(4, 0, adj).is_err(), "node 3 has no in-edge");
        let broken: Vec<Vec<u32>> = vec![vec![5]];
        assert!(
            reachable(1, 0, |v| broken[v as usize].as_slice()).is_err(),
            "edge out of range"
        );
    }

    #[test]
    fn floors_and_counts() {
        assert!(at_least(0.95, 0.95).is_ok());
        assert!(at_least(0.949, 0.95).is_err());
        assert!(equal(4750, 4750).is_ok());
        assert!(equal(4751, 4750).is_err());
    }
}
