//! Property-based tests for the streaming accumulators behind the fleet
//! aggregation layer: mergeable Welford cells, one-pass (clustered) OLS,
//! and the bounded quantile sketch.
//!
//! The core contract is that `merge` is associative and order-insensitive
//! up to floating-point noise: folding a dataset through any partition
//! into chunks, merged in any order, must agree with the batch estimator
//! to ≤1e-9 relative error.

use dessim::rng::SimRng;
use expstats::ols::{DesignBuilder, Ols};
use expstats::quantiles::quantile_sorted;
use expstats::{mean, variance, ClusterOlsAccum, CovEstimator, OlsAccum, WelfordCell};
use proptest::prelude::*;
use unbiased::quantiles::QuantileSketch;

const TOL: f64 = 1e-9;

fn rel_close(a: f64, b: f64) -> bool {
    (a - b).abs() <= TOL * a.abs().max(b.abs()).max(1e-300)
}

/// Split `xs` into chunks at pseudo-random cut points derived from
/// `seed`, then merge the per-chunk accumulators in a pseudo-random
/// order (fold direction alternates so both `a.merge(b)` orderings and
/// associations get exercised).
fn partition(n: usize, seed: u64) -> Vec<std::ops::Range<usize>> {
    let mut rng = SimRng::new(seed);
    let mut cuts = vec![0, n];
    for _ in 0..(n / 3).min(7) {
        cuts.push((rng.uniform01() * n as f64) as usize);
    }
    cuts.sort_unstable();
    cuts.dedup();
    cuts.windows(2).map(|w| w[0]..w[1]).collect()
}

fn shuffled<T>(mut items: Vec<T>, seed: u64) -> Vec<T> {
    let mut rng = SimRng::new(seed ^ 0xD1B5);
    for i in (1..items.len()).rev() {
        let j = (rng.uniform01() * (i + 1) as f64) as usize;
        items.swap(i, j.min(i));
    }
    items
}

fn lognormal_sample(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = SimRng::new(seed);
    (0..n).map(|_| rng.lognormal(1.0, 0.8)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Welford cells merged over an arbitrary partition (in shuffled
    /// order) agree with the batch mean/variance.
    #[test]
    fn welford_partition_merge_matches_batch(seed in 0u64..10_000, n in 4usize..200) {
        let xs = lognormal_sample(n, seed);
        let cells: Vec<WelfordCell> = partition(n, seed ^ 0xA5)
            .into_iter()
            .map(|r| {
                let mut c = WelfordCell::new();
                xs[r].iter().for_each(|&v| c.push(v));
                c
            })
            .collect();
        let mut merged = WelfordCell::new();
        for c in shuffled(cells, seed) {
            merged.merge(&c);
        }
        prop_assert_eq!(merged.n as usize, n);
        prop_assert!(rel_close(merged.mean, mean(&xs)));
        prop_assert!(rel_close(merged.variance(), variance(&xs)));
    }

    /// One-pass OLS over a random partition agrees with the batch QR-free
    /// `Ols::fit` on coefficients and spherical standard errors.
    #[test]
    fn ols_accum_partition_merge_matches_batch(seed in 0u64..10_000, n in 12usize..150) {
        let mut rng = SimRng::new(seed);
        let xs: Vec<f64> = (0..n).map(|_| rng.uniform(-3.0, 3.0)).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| 2.0 + 0.7 * x + rng.normal(0.0, 0.5)).collect();

        let accums: Vec<OlsAccum> = partition(n, seed ^ 0x77)
            .into_iter()
            .map(|r| {
                let mut a = OlsAccum::new(2);
                for i in r {
                    a.push(&[1.0, xs[i]], ys[i]);
                }
                a
            })
            .collect();
        let mut merged = OlsAccum::new(2);
        for a in shuffled(accums, seed) {
            merged.merge(&a);
        }
        let streaming = merged.solve().unwrap();

        let design = DesignBuilder::new()
            .intercept(n).unwrap()
            .column(&xs).unwrap()
            .build().unwrap();
        let batch = Ols::fit(design, &ys).unwrap();
        let batch_se = batch.std_errors(CovEstimator::Classic).unwrap();
        let stream_se = streaming.std_errors();
        for j in 0..2 {
            prop_assert!(rel_close(streaming.coef[j], batch.coef[j]),
                "coef[{}]: {} vs {}", j, streaming.coef[j], batch.coef[j]);
            prop_assert!(rel_close(stream_se[j], batch_se[j]),
                "se[{}]: {} vs {}", j, stream_se[j], batch_se[j]);
        }
    }

    /// Clustered OLS accumulators merged over a random partition agree
    /// with the batch CRV1 standard errors, regardless of how cluster
    /// members are scattered across chunks.
    #[test]
    fn cluster_ols_partition_merge_matches_batch(seed in 0u64..10_000, g in 3usize..12) {
        let mut rng = SimRng::new(seed);
        let per = 6 + (seed % 5) as usize;
        let n = g * per;
        let mut xs = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        let mut clusters = Vec::with_capacity(n);
        for c in 0..g {
            let shock = rng.normal(0.0, 1.0);
            for _ in 0..per {
                let x = rng.uniform(-2.0, 2.0);
                xs.push(x);
                ys.push(1.0 + 0.5 * x + shock + rng.normal(0.0, 0.3));
                clusters.push(c);
            }
        }

        let accums: Vec<ClusterOlsAccum> = partition(n, seed ^ 0x3C)
            .into_iter()
            .map(|r| {
                let mut a = ClusterOlsAccum::new(2);
                for i in r {
                    a.push(clusters[i], &[1.0, xs[i]], ys[i]);
                }
                a
            })
            .collect();
        let mut merged = ClusterOlsAccum::new(2);
        for a in shuffled(accums, seed) {
            merged.merge(&a);
        }
        let streaming = merged.fit().unwrap();

        let design = DesignBuilder::new()
            .intercept(n).unwrap()
            .column(&xs).unwrap()
            .build().unwrap();
        let batch = Ols::fit(design, &ys).unwrap();
        let batch_se = batch.std_errors_clustered(&clusters).unwrap();
        prop_assert_eq!(streaming.g, g);
        for (j, &se) in batch_se.iter().enumerate() {
            prop_assert!(rel_close(streaming.coef[j], batch.coef[j]),
                "coef[{}]: {} vs {}", j, streaming.coef[j], batch.coef[j]);
            prop_assert!(rel_close(streaming.std_errors[j], se),
                "crv1 se[{}]: {} vs {}", j, streaming.std_errors[j], se);
        }
    }

    /// A sketch with capacity ≥ n is exact: any partition/merge order
    /// reproduces `quantile_sorted` bit-for-bit at every probed q.
    #[test]
    fn sketch_exact_when_capacity_suffices(seed in 0u64..10_000, n in 1usize..300) {
        let xs = lognormal_sample(n, seed);
        let sketches: Vec<QuantileSketch> = partition(n, seed ^ 0x9E)
            .into_iter()
            .map(|r| {
                let mut s = QuantileSketch::new(512);
                for i in r {
                    s.insert(i as u64, xs[i]);
                }
                s
            })
            .collect();
        let mut merged = QuantileSketch::new(512);
        for s in shuffled(sketches, seed) {
            merged.merge(&s);
        }
        prop_assert!(merged.is_exact());
        let mut sorted = xs.clone();
        sorted.sort_by(f64::total_cmp);
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            prop_assert_eq!(
                merged.quantile(q).unwrap().to_bits(),
                quantile_sorted(&sorted, q).to_bits()
            );
        }
    }

    /// A bounded sketch (cap ≪ n) lands q50/q99 close to the exact
    /// lognormal sample quantiles: the estimate must fall inside a
    /// slightly widened band of nearby exact quantiles.
    #[test]
    fn sketch_tracks_lognormal_quantiles(seed in 0u64..2_000) {
        let n = 4000;
        let xs = lognormal_sample(n, seed);
        let mut sketch = QuantileSketch::new(1024);
        for (i, &v) in xs.iter().enumerate() {
            sketch.insert(i as u64, v);
        }
        prop_assert!(!sketch.is_exact());
        prop_assert_eq!(sketch.total(), n as u64);
        let mut sorted = xs.clone();
        sorted.sort_by(f64::total_cmp);
        // A cap-1024 uniform subsample of n=4000 estimates the rank of
        // q within a few percent; check the estimate sits between
        // exact quantiles a rank-band away.
        for (q, band) in [(0.5, 0.06), (0.99, 0.009)] {
            let est = sketch.quantile(q).unwrap();
            let lo = quantile_sorted(&sorted, (q - band).max(0.0));
            let hi = quantile_sorted(&sorted, (q + band).min(1.0));
            prop_assert!(
                est >= lo && est <= hi,
                "q{}: estimate {} outside exact band [{}, {}]", q, est, lo, hi
            );
        }
    }
}
