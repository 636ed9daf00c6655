//! Seeded random-number streams for simulation components.
//!
//! Each component forks its own [`SimRng`] from a root seed, so
//! adding/removing a component never shifts the random draws any other
//! component sees — a prerequisite for meaningful A/B comparisons between
//! simulation runs.

/// A deterministic random stream.
///
/// Wraps a fast non-cryptographic generator (xoshiro256++, seeded via
/// SplitMix64 — self-contained so the workspace builds offline) and
/// layers on the distributions the simulators need (exponential,
/// normal, Pareto — implemented here rather than pulling in
/// `rand_distr`).
#[derive(Debug, Clone)]
pub struct SimRng {
    state: [u64; 4],
}

/// Ziggurat layer count (indexed by 8 random bits).
const ZIG_LAYERS: usize = 256;
/// Right edge of the rightmost rectangular layer.
const ZIG_R: f64 = 3.654_152_885_361_009;
/// Common area of every layer (the bottom layer's area includes the
/// tail beyond `ZIG_R`).
const ZIG_V: f64 = 0.004_928_673_233_974_658;

/// Precomputed ziggurat tables for the standard normal: `x[i]` is the
/// right edge of layer `i` (descending; `x[0] = V/f(R)` is the bottom
/// layer's pseudo-edge, `x[1] = R`, `x[256] = 0`), `f[i] = exp(-x[i]²/2)`.
struct ZigTables {
    x: [f64; ZIG_LAYERS + 1],
    f: [f64; ZIG_LAYERS + 1],
}

/// Tables are built once at first use (exp/ln are not const-evaluable);
/// afterwards each draw pays one atomic load to fetch the reference.
fn zig_tables() -> &'static ZigTables {
    use std::sync::OnceLock;
    static TABLES: OnceLock<ZigTables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let pdf = |x: f64| (-0.5 * x * x).exp();
        let mut x = [0.0; ZIG_LAYERS + 1];
        let mut f = [0.0; ZIG_LAYERS + 1];
        x[0] = ZIG_V / pdf(ZIG_R);
        x[1] = ZIG_R;
        // Each layer has area V: x[i] · (f(x[i+1]) − f(x[i])) = V, solved
        // downward from the outermost edge.
        for i in 2..ZIG_LAYERS {
            let prev = x[i - 1];
            x[i] = (-2.0 * (ZIG_V / prev + pdf(prev)).ln()).sqrt();
        }
        x[ZIG_LAYERS] = 0.0;
        for i in 0..=ZIG_LAYERS {
            f[i] = pdf(x[i]);
        }
        ZigTables { x, f }
    })
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Create a stream from a 64-bit seed.
    pub fn new(seed: u64) -> SimRng {
        // Expand the seed through SplitMix64, per the xoshiro authors'
        // recommendation; guarantees a non-zero state.
        let mut s = seed;
        SimRng {
            state: [
                splitmix64(&mut s),
                splitmix64(&mut s),
                splitmix64(&mut s),
                splitmix64(&mut s),
            ],
        }
    }

    /// Fork an independent child stream (reproducibly derived from this
    /// stream's state).
    pub fn fork(&mut self) -> SimRng {
        SimRng::new(self.next_u64())
    }

    /// Uniform float in `[0, 1)` (53 random mantissa bits).
    #[inline]
    pub fn uniform01(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform float in `[lo, hi)`.
    #[inline]
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi, "uniform: lo must not exceed hi");
        lo + (hi - lo) * self.uniform01()
    }

    /// Uniform integer in `[0, bound)` (Lemire's multiply-shift; the
    /// ~2^-64 modulo bias is irrelevant at simulation scales).
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "below: bound must be positive");
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Bernoulli draw with success probability `p` (clamped to `[0,1]`).
    #[inline]
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.uniform01() < p.clamp(0.0, 1.0)
    }

    /// Exponential with the given rate (mean `1/rate`).
    #[inline]
    pub fn exponential(&mut self, rate: f64) -> f64 {
        debug_assert!(rate > 0.0, "exponential: rate must be positive");
        // Inverse transform; 1-U avoids ln(0).
        -(1.0 - self.uniform01()).ln() / rate
    }

    /// Standard normal via the ziggurat method (Marsaglia–Tsang, 256
    /// layers): ~99% of draws cost one `next_u64`, two table loads, a
    /// multiply and a compare — no transcendentals. This is the
    /// simulator's dominant sampler (per-chunk throughput noise), so the
    /// log/sqrt/cos of Box–Muller were a measurable fraction of the
    /// streaming hot loop. [`SimRng::standard_normal_boxmuller`] is the
    /// retained reference implementation; `tests/sampler_properties.rs`
    /// proves distributional agreement (moments, tail mass, KS).
    #[inline]
    pub fn standard_normal(&mut self) -> f64 {
        let tables = zig_tables();
        loop {
            let bits = self.next_u64();
            // 8 bits pick the layer, 53 bits make a signed uniform in
            // [-1, 1); the three bits in between stay unused so the two
            // are independent.
            let i = (bits & 0xFF) as usize;
            let u = (bits >> 11) as f64 * (1.0 / (1u64 << 52) as f64) - 1.0;
            let x = u * tables.x[i];
            if x.abs() < tables.x[i + 1] {
                return x; // wholly inside layer i: accept (~99%)
            }
            if i == 0 {
                return self.normal_tail(u < 0.0);
            }
            // Wedge between the inscribed and circumscribed rectangles:
            // draw y uniform over the layer's density span and accept
            // where it falls under the true density. Note the edges: x
            // descends with the layer index, so `f[i]` is the *lower*
            // density edge and `f[i+1]` the upper.
            let f_lower = tables.f[i];
            let f_upper = tables.f[i + 1];
            if f_upper + (f_lower - f_upper) * self.uniform01() < (-0.5 * x * x).exp() {
                return x;
            }
        }
    }

    /// Marsaglia's exact tail sampler for `|x| > ZIG_R` (the layer-0
    /// overflow case of the ziggurat; ~0.03% of draws).
    #[cold]
    fn normal_tail(&mut self, negative: bool) -> f64 {
        loop {
            // 1-U keeps the logs finite: uniform01 is [0,1).
            let x = (1.0 - self.uniform01()).ln() / ZIG_R; // <= 0
            let y = (1.0 - self.uniform01()).ln(); // <= 0
            if -2.0 * y >= x * x {
                return if negative { x - ZIG_R } else { ZIG_R - x };
            }
        }
    }

    /// Standard normal via the Box–Muller transform — the reference
    /// implementation the ziggurat sampler is property-tested against.
    /// Costs a log, a sqrt and a cosine per draw; prefer
    /// [`SimRng::standard_normal`] in hot paths.
    #[inline]
    pub fn standard_normal_boxmuller(&mut self) -> f64 {
        let u1: f64 = 1.0 - self.uniform01(); // (0,1]
        let u2: f64 = self.uniform01();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Normal with the given mean and standard deviation.
    #[inline]
    pub fn normal(&mut self, mean: f64, sd: f64) -> f64 {
        debug_assert!(sd >= 0.0, "normal: sd must be non-negative");
        mean + sd * self.standard_normal()
    }

    /// Log-normal: `exp(N(mu, sigma))` (parameters on the log scale).
    #[inline]
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Raw 64-bit draw (xoshiro256++ step).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SimRng::new(123);
        let mut b = SimRng::new(123);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn forks_do_not_collide() {
        let mut root = SimRng::new(1);
        let mut c1 = root.fork();
        let mut c2 = root.fork();
        let same = (0..64).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let mut r = SimRng::new(7);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| r.exponential(2.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn normal_moments() {
        let mut r = SimRng::new(9);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal(3.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.03, "mean {mean}");
        assert!((var - 4.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn ziggurat_tables_well_formed() {
        let t = zig_tables();
        // Edges descend strictly from x[0] > R down to 0.
        assert!(t.x[0] > t.x[1]);
        assert_eq!(t.x[1], ZIG_R);
        assert_eq!(t.x[ZIG_LAYERS], 0.0);
        for w in t.x.windows(2) {
            assert!(w[0] > w[1], "edges must descend: {} vs {}", w[0], w[1]);
        }
        // Every rectangular layer i >= 1 has area V.
        for i in 1..ZIG_LAYERS {
            let area = t.x[i] * (t.f[i + 1] - t.f[i]);
            assert!((area - ZIG_V).abs() < 1e-12, "layer {i} area {area}");
        }
        // The bottom layer's rectangle-plus-tail also has area V:
        // x[0]·f(R) = R·f(R) + tail, by construction of x[0].
        assert!((t.x[0] * t.f[1] - ZIG_V).abs() < 1e-15);
    }

    #[test]
    fn ziggurat_moments_match_reference() {
        // Same moments as Box–Muller from independent streams (the
        // full distributional property suite lives in
        // tests/sampler_properties.rs).
        let n = 400_000;
        let mut zig = SimRng::new(21);
        let mut bm = SimRng::new(22);
        let stats = |xs: &[f64]| {
            let mean = xs.iter().sum::<f64>() / xs.len() as f64;
            let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
            (mean, var)
        };
        let zs: Vec<f64> = (0..n).map(|_| zig.standard_normal()).collect();
        let bs: Vec<f64> = (0..n).map(|_| bm.standard_normal_boxmuller()).collect();
        let (zm, zv) = stats(&zs);
        let (bm_mean, bv) = stats(&bs);
        assert!(zm.abs() < 0.01, "ziggurat mean {zm}");
        assert!((zv - 1.0).abs() < 0.02, "ziggurat var {zv}");
        assert!((zm - bm_mean).abs() < 0.02);
        assert!((zv - bv).abs() < 0.04);
    }

    #[test]
    fn ziggurat_tail_mass() {
        // P(|Z| > 3.6541...) ≈ 2.58e-4: the tail path must fire and
        // produce values beyond R on both sides.
        let mut r = SimRng::new(23);
        let n = 2_000_000;
        let mut beyond_pos = 0usize;
        let mut beyond_neg = 0usize;
        for _ in 0..n {
            let z = r.standard_normal();
            if z > ZIG_R {
                beyond_pos += 1;
            } else if z < -ZIG_R {
                beyond_neg += 1;
            }
        }
        let frac = (beyond_pos + beyond_neg) as f64 / n as f64;
        assert!(
            (1e-4..6e-4).contains(&frac),
            "tail mass {frac} (pos {beyond_pos}, neg {beyond_neg})"
        );
        assert!(beyond_pos > 0 && beyond_neg > 0);
    }

    #[test]
    fn ziggurat_deterministic_per_seed() {
        let mut a = SimRng::new(31);
        let mut b = SimRng::new(31);
        for _ in 0..10_000 {
            assert_eq!(a.standard_normal().to_bits(), b.standard_normal().to_bits());
        }
    }

    #[test]
    fn bernoulli_frequency() {
        let mut r = SimRng::new(11);
        let n = 100_000;
        let hits = (0..n).filter(|_| r.bernoulli(0.3)).count();
        let frac = hits as f64 / n as f64;
        assert!((frac - 0.3).abs() < 0.01, "frac {frac}");
    }

    #[test]
    fn uniform_bounds() {
        let mut r = SimRng::new(17);
        for _ in 0..10_000 {
            let x = r.uniform(-2.0, 5.0);
            assert!((-2.0..5.0).contains(&x));
        }
        for _ in 0..1000 {
            assert!(r.below(7) < 7);
        }
    }
}
