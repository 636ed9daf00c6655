//! Property tests for the streamsim water-filling reference
//! (`max_min_share`): capacity conservation, per-session demand caps,
//! non-negativity and full service when uncongested. The production
//! allocator (`FluidLink::allocate_ordered`, under `LinkSim`'s
//! peak-sorted order) is checked bit-for-bit against this reference by
//! the unit tests in `streamsim::link`.

use dessim::SimRng;
use proptest::prelude::*;
use streamsim::link::max_min_share;

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Water-filling invariants: capacity conservation, per-session
    /// demand caps, non-negativity, and full service when uncongested.
    #[test]
    fn water_filling_invariants(seed in 0u64..1_000_000, n in 0usize..60) {
        let mut rng = SimRng::new(seed);
        let capacity = rng.uniform(10.0, 300.0);
        let demands: Vec<f64> = (0..n).map(|_| rng.uniform(0.0, 30.0)).collect();
        let shares = max_min_share(&demands, capacity);
        prop_assert_eq!(shares.len(), demands.len());
        let served: f64 = shares.iter().sum();
        let total: f64 = demands.iter().sum();
        prop_assert!(served <= capacity + 1e-9, "served {served} > capacity {capacity}");
        for (s, d) in shares.iter().zip(&demands) {
            prop_assert!(*s >= 0.0, "negative share {s}");
            prop_assert!(*s <= *d + 1e-12, "share {s} above demand {d}");
        }
        if total <= capacity {
            // Uncongested: everyone gets exactly their demand.
            prop_assert_eq!(bits(&shares), bits(&demands));
        } else {
            // Congested: the link is fully utilized.
            prop_assert!((served - capacity).abs() < 1e-6 * capacity.max(1.0),
                "congested but served {served} != capacity {capacity}");
        }
    }
}
