//! The benchmark's own inputs and reference answers.
//!
//! Everything here is independent of the program under test: the generator
//! does not use `nsg_vectors::synthetic`, and the exact neighbours come from
//! a plain scalar loop, not `exact_knn` or the SIMD kernels. A change to the
//! program can therefore never change the inputs or the answers it is
//! checked against.

/// Dimension of every vector.
pub const DIM: usize = 128;
/// Dimension of the random subspace the points concentrate on.
pub const SUBSPACE: usize = 32;
/// Standard deviation of the isotropic noise added to every coordinate.
pub const NOISE: f32 = 0.05;
/// Neighbours per query in every recall figure.
pub const K: usize = 10;

/// SplitMix64: a small, fully specified generator, so the same seed gives
/// the same inputs on every platform and toolchain.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.uniform() * n as f64) as usize % n
    }

    /// Standard normal (Box-Muller; one draw per call keeps it simple).
    pub fn normal(&mut self) -> f64 {
        let u1 = self.uniform().max(f64::MIN_POSITIVE);
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Exponential with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.uniform()).ln()
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// Row-major `n × DIM` points drawn from one seeded distribution: a standard
/// Gaussian on a random `SUBSPACE`-dimensional subspace plus isotropic noise.
/// Unlike clustered data, every point has close neighbours in every
/// direction of the subspace, so the kNN graph is connected.
pub struct Points {
    pub rows: Vec<f32>,
}

impl Points {
    pub fn len(&self) -> usize {
        self.rows.len() / DIM
    }

    pub fn get(&self, i: usize) -> &[f32] {
        &self.rows[i * DIM..(i + 1) * DIM]
    }

    /// Row `i`, or `None` past the end.
    pub fn row(&self, i: usize) -> Option<&[f32]> {
        self.rows.get(i * DIM..(i + 1) * DIM)
    }
}

/// Draws `n` points; the basis of the subspace is part of the seed's draw,
/// so corpus, inserts and queries must come from one call.
pub fn generate(seed: u64, n: usize) -> Points {
    let mut rng = Rng::new(seed);
    // Basis vectors with N(0, 1/DIM) entries: each has norm ≈ 1.
    let scale = 1.0 / (DIM as f64).sqrt();
    let basis: Vec<f64> = (0..SUBSPACE * DIM).map(|_| rng.normal() * scale).collect();
    let mut rows = Vec::with_capacity(n * DIM);
    let mut z = [0f64; SUBSPACE];
    for _ in 0..n {
        for zj in z.iter_mut() {
            *zj = rng.normal();
        }
        for d in 0..DIM {
            let mut x = 0f64;
            for (j, zj) in z.iter().enumerate() {
                x += zj * basis[j * DIM + d];
            }
            rows.push((x + rng.normal() * NOISE as f64) as f32);
        }
    }
    Points { rows }
}

/// Squared Euclidean distance, one coordinate at a time in index order.
/// Floating-point addition is not associative, so the compiler keeps this
/// loop scalar: it shares no code and no rounding order with the kernels
/// under test.
pub fn scalar_l2(a: &[f32], b: &[f32]) -> f32 {
    let mut sum = 0f32;
    for i in 0..a.len() {
        let t = a[i] - b[i];
        sum += t * t;
    }
    sum
}

/// The exact `k` nearest rows of `rows` (those with `live[i]`) to `query`,
/// as `(distance, row)` sorted by distance then row.
pub fn exact_top_k(
    rows: &Points,
    live: Option<&[bool]>,
    query: &[f32],
    k: usize,
) -> Vec<(f32, u32)> {
    let mut best: Vec<(f32, u32)> = Vec::with_capacity(k + 1);
    for i in 0..rows.len() {
        if live.is_some_and(|l| !l[i]) {
            continue;
        }
        let d = scalar_l2(query, rows.get(i));
        if best.len() == k && d >= best[k - 1].0 {
            continue;
        }
        let pos = best.partition_point(|&(bd, bi)| bd < d || (bd == d && bi < i as u32));
        best.insert(pos, (d, i as u32));
        best.truncate(k);
    }
    best
}

/// Exact top-`K` ids for every query, as `queries.len() × K` row ids.
pub fn ground_truth(rows: &Points, live: Option<&[bool]>, queries: &Points) -> Vec<u32> {
    let mut out = Vec::with_capacity(queries.len() * K);
    for q in 0..queries.len() {
        out.extend(
            exact_top_k(rows, live, queries.get(q), K)
                .into_iter()
                .map(|(_, id)| id),
        );
    }
    out
}

/// Recall@K of `found` against the exact ids `truth` (both id slices).
pub fn recall(found: &[u32], truth: &[u32]) -> usize {
    found.iter().filter(|id| truth.contains(id)).count()
}
