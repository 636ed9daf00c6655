//! Probability distributions needed for interval estimation: the standard
//! normal and Student's t.
//!
//! Implemented from standard numerical recipes:
//! * normal CDF via a high-accuracy `erfc` rational approximation,
//! * normal quantile via Acklam's algorithm refined with one Halley step,
//! * `ln Γ` via the Lanczos approximation,
//! * regularized incomplete beta via Lentz's continued fraction,
//! * Student-t CDF from the incomplete beta, quantile via Newton iteration.
//!
//! All functions are pure and allocation-free.

/// Complementary error function, W. J. Cody's rational approximations
/// (netlib CALERF), accurate to full double precision.
fn erfc(x: f64) -> f64 {
    let y = x.abs();
    if y <= 0.46875 {
        return 1.0 - erf_small(x);
    }
    let res = if y <= 4.0 { erfc_mid(y) } else { erfc_large(y) };
    if x >= 0.0 {
        res
    } else {
        2.0 - res
    }
}

/// erf on |x| <= 0.46875.
fn erf_small(x: f64) -> f64 {
    const A: [f64; 5] = [
        3.161_123_743_870_565_6e0,
        1.138_641_541_510_501_6e2,
        3.774_852_376_853_02e2,
        3.209_377_589_138_469_4e3,
        1.857_777_061_846_031_5e-1,
    ];
    const B: [f64; 4] = [
        2.360_129_095_234_412_1e1,
        2.440_246_379_344_441_7e2,
        1.282_616_526_077_372_3e3,
        2.844_236_833_439_171e3,
    ];
    let z = x * x;
    let mut xnum = A[4] * z;
    let mut xden = z;
    for i in 0..3 {
        xnum = (xnum + A[i]) * z;
        xden = (xden + B[i]) * z;
    }
    x * (xnum + A[3]) / (xden + B[3])
}

/// erfc on 0.46875 < y <= 4.
fn erfc_mid(y: f64) -> f64 {
    const C: [f64; 9] = [
        5.641_884_969_886_701e-1,
        8.883_149_794_388_375,
        6.611_919_063_714_163e1,
        2.986_351_381_974_001e2,
        8.819_522_212_417_69e2,
        1.712_047_612_634_070_6e3,
        2.051_078_377_826_071_5e3,
        1.230_339_354_797_997_2e3,
        2.153_115_354_744_038_5e-8,
    ];
    const D: [f64; 8] = [
        1.574_492_611_070_983_5e1,
        1.176_939_508_913_125e2,
        5.371_811_018_620_099e2,
        1.621_389_574_566_690_2e3,
        3.290_799_235_733_459_6e3,
        4.362_619_090_143_247e3,
        3.439_367_674_143_721_6e3,
        1.230_339_354_803_749_4e3,
    ];
    let mut xnum = C[8] * y;
    let mut xden = y;
    for i in 0..7 {
        xnum = (xnum + C[i]) * y;
        xden = (xden + D[i]) * y;
    }
    let result = (xnum + C[7]) / (xden + D[7]);
    scaled_exp(y) * result
}

/// erfc on y > 4.
fn erfc_large(y: f64) -> f64 {
    const P: [f64; 6] = [
        3.053_266_349_612_323_4e-1,
        3.603_448_999_498_044_4e-1,
        1.257_817_261_112_292_5e-1,
        1.608_378_514_874_228e-2,
        6.587_491_615_298_378e-4,
        1.631_538_713_730_209_8e-2,
    ];
    const Q: [f64; 5] = [
        2.568_520_192_289_822,
        1.872_952_849_923_460_4e0,
        5.279_051_029_514_284e-1,
        6.051_834_131_244_132e-2,
        2.335_204_976_268_691_8e-3,
    ];
    if y >= 26.543 {
        return 0.0; // underflows to zero in f64
    }
    const INV_SQRT_PI: f64 = 0.564_189_583_547_756_3;
    let z = 1.0 / (y * y);
    let mut xnum = P[5] * z;
    let mut xden = z;
    for i in 0..4 {
        xnum = (xnum + P[i]) * z;
        xden = (xden + Q[i]) * z;
    }
    let result = z * (xnum + P[4]) / (xden + Q[4]);
    scaled_exp(y) * (INV_SQRT_PI - result) / y
}

/// Compute `exp(-y²)` with Cody's split to preserve precision for large y.
fn scaled_exp(y: f64) -> f64 {
    let ysq = (y * 16.0).trunc() / 16.0;
    let del = (y - ysq) * (y + ysq);
    (-ysq * ysq).exp() * (-del).exp()
}

/// Standard normal cumulative distribution function.
pub fn norm_cdf(x: f64) -> f64 {
    0.5 * erfc(-x * std::f64::consts::FRAC_1_SQRT_2)
}

/// Standard normal quantile function (inverse CDF).
///
/// Peter Acklam's rational approximation (relative error < 1.15e-9),
/// followed by one Halley refinement step against [`norm_cdf`], giving
/// near machine precision over `(0, 1)`.
///
/// # Panics
/// Panics if `p` is outside `(0, 1)`.
pub fn norm_ppf(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "norm_ppf requires p in (0,1), got {p}");

    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.024_25;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One Halley step: x <- x - f/(f' - f*f''/(2 f')) with f = cdf - p.
    let e = norm_cdf(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (x * x / 2.0).exp();
    x - u / (1.0 + x * u / 2.0)
}

/// Natural log of the gamma function (Lanczos approximation, g=7, n=9).
pub(crate) fn ln_gamma(x: f64) -> f64 {
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + 7.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Regularized incomplete beta function `I_x(a, b)` via Lentz's continued
/// fraction (converges for all `0 <= x <= 1`, `a, b > 0`).
pub fn inc_beta(a: f64, b: f64, x: f64) -> f64 {
    assert!(a > 0.0 && b > 0.0, "inc_beta requires positive parameters");
    assert!((0.0..=1.0).contains(&x), "inc_beta requires x in [0,1]");
    if x == 0.0 {
        return 0.0;
    }
    if x == 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let front = ln_front.exp();
    // Evaluate the continued fraction on whichever side converges faster;
    // both branches are computed directly (no recursion) so boundary cases
    // like a = b, x = 0.5 cannot ping-pong.
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_cf(a, b, x) / a
    } else {
        1.0 - front * beta_cf(b, a, 1.0 - x) / b
    }
}

/// Continued fraction for the incomplete beta (modified Lentz).
fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 300;
    const EPS: f64 = 3.0e-15;
    const FPMIN: f64 = 1.0e-300;

    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < FPMIN {
        d = FPMIN;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// Student-t cumulative distribution function with `df` degrees of freedom.
pub fn t_cdf(t: f64, df: f64) -> f64 {
    assert!(df > 0.0, "t_cdf requires positive degrees of freedom");
    if t.is_infinite() {
        return if t > 0.0 { 1.0 } else { 0.0 };
    }
    let x = df / (df + t * t);
    let p = 0.5 * inc_beta(0.5 * df, 0.5, x);
    if t >= 0.0 {
        1.0 - p
    } else {
        p
    }
}

/// Student-t quantile function (inverse CDF).
///
/// Starts from the normal quantile and polishes with Newton iterations on
/// [`t_cdf`]; falls back to bisection if Newton leaves the bracket.
///
/// # Panics
/// Panics if `p` is outside `(0, 1)` or `df <= 0`.
pub fn t_ppf(p: f64, df: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "t_ppf requires p in (0,1), got {p}");
    assert!(df > 0.0, "t_ppf requires positive degrees of freedom");
    // Large df: t is effectively normal.
    if df > 1e8 {
        return norm_ppf(p);
    }
    let mut x = norm_ppf(p);
    // Cornish-Fisher style expansion gives a better start for small df.
    let g1 = (x.powi(3) + x) / 4.0;
    let g2 = (5.0 * x.powi(5) + 16.0 * x.powi(3) + 3.0 * x) / 96.0;
    x += g1 / df + g2 / (df * df);

    // Newton polish with a bisection safety bracket.
    let (mut lo, mut hi) = (-1e10_f64, 1e10_f64);
    for _ in 0..60 {
        let f = t_cdf(x, df) - p;
        if f.abs() < 1e-14 {
            break;
        }
        if f > 0.0 {
            hi = hi.min(x);
        } else {
            lo = lo.max(x);
        }
        // t pdf at x:
        let pdf = ((ln_gamma((df + 1.0) / 2.0) - ln_gamma(df / 2.0)).exp()
            / (df * std::f64::consts::PI).sqrt())
            * (1.0 + x * x / df).powf(-(df + 1.0) / 2.0);
        let step = f / pdf.max(1e-300);
        let next = x - step;
        x = if next > lo && next < hi {
            next
        } else {
            0.5 * (lo + hi)
        };
    }
    x
}

/// Two-sided critical value for a `level` confidence interval from the
/// t distribution: `t_{1 - alpha/2, df}` where `alpha = 1 - level`.
pub fn t_critical(level: f64, df: f64) -> f64 {
    assert!(
        level > 0.0 && level < 1.0,
        "confidence level must be in (0,1)"
    );
    t_ppf(1.0 - (1.0 - level) / 2.0, df)
}

/// Regularized upper incomplete gamma function `Q(a, x) = 1 - P(a, x)`,
/// where `P(a, x) = γ(a, x) / Γ(a)`.
///
/// Series expansion of `P` for `x < a + 1`, Lentz continued fraction for
/// `Q` otherwise (the same split Numerical Recipes uses; each converges
/// fast on its side), so extreme upper-tail p-values don't cancel to
/// zero.
///
/// # Panics
/// Panics if `a <= 0` or `x < 0`.
pub(crate) fn gamma_q(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "gamma_q requires a > 0, got {a}");
    assert!(x >= 0.0, "gamma_q requires x >= 0, got {x}");
    if x == 0.0 {
        return 1.0;
    }
    if x < a + 1.0 {
        1.0 - gamma_p_series(a, x)
    } else {
        gamma_q_cf(a, x)
    }
}

/// Series representation of `P(a, x)`, accurate for `x < a + 1`.
fn gamma_p_series(a: f64, x: f64) -> f64 {
    const EPS: f64 = 1e-15;
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut del = sum;
    for _ in 0..500 {
        ap += 1.0;
        del *= x / ap;
        sum += del;
        if del.abs() < sum.abs() * EPS {
            break;
        }
    }
    sum * (a * x.ln() - x - ln_gamma(a)).exp()
}

/// Lentz continued fraction for `Q(a, x)`, accurate for `x >= a + 1`.
fn gamma_q_cf(a: f64, x: f64) -> f64 {
    const EPS: f64 = 1e-15;
    const TINY: f64 = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / TINY;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..500 {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < TINY {
            d = TINY;
        }
        c = b + an / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    (a * x.ln() - x - ln_gamma(a)).exp() * h
}

/// Chi-square survival function `1 - CDF` with `df` degrees of freedom,
/// `Q(df/2, x/2)`, computed on the tail side directly — this is the
/// p-value of a chi-square test statistic, accurate deep into the tail
/// where `1.0 - CDF` would round to zero.
pub(crate) fn chi2_sf(x: f64, df: f64) -> f64 {
    assert!(df > 0.0, "chi2_sf requires positive degrees of freedom");
    if x <= 0.0 {
        return 1.0;
    }
    gamma_q(0.5 * df, 0.5 * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norm_cdf_known_values() {
        assert!((norm_cdf(0.0) - 0.5).abs() < 1e-9);
        assert!((norm_cdf(1.96) - 0.975_002_1).abs() < 1e-5);
        assert!((norm_cdf(-1.96) - 0.024_997_9).abs() < 1e-5);
        assert!((norm_cdf(3.0) - 0.998_650_1).abs() < 1e-5);
    }

    #[test]
    fn norm_ppf_round_trips() {
        for &p in &[0.001, 0.01, 0.025, 0.1, 0.5, 0.9, 0.975, 0.99, 0.999] {
            let x = norm_ppf(p);
            assert!((norm_cdf(x) - p).abs() < 1e-8, "p={p} x={x}");
        }
    }

    #[test]
    fn norm_ppf_known_values() {
        assert!((norm_ppf(0.975) - 1.959_964).abs() < 1e-5);
        assert!(norm_ppf(0.5).abs() < 1e-9);
        assert!((norm_ppf(0.995) - 2.575_829).abs() < 1e-5);
    }

    #[test]
    fn ln_gamma_known_values() {
        // Γ(1)=1, Γ(2)=1, Γ(5)=24, Γ(0.5)=sqrt(pi)
        assert!(ln_gamma(1.0).abs() < 1e-10);
        assert!(ln_gamma(2.0).abs() < 1e-10);
        assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-10);
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-10);
    }

    #[test]
    fn inc_beta_symmetry_and_bounds() {
        assert_eq!(inc_beta(2.0, 3.0, 0.0), 0.0);
        assert_eq!(inc_beta(2.0, 3.0, 1.0), 1.0);
        // I_x(a,b) = 1 - I_{1-x}(b,a)
        let v = inc_beta(2.5, 1.5, 0.3);
        let w = 1.0 - inc_beta(1.5, 2.5, 0.7);
        assert!((v - w).abs() < 1e-12);
    }

    #[test]
    fn inc_beta_uniform_case() {
        // I_x(1,1) = x.
        for &x in &[0.1, 0.25, 0.5, 0.9] {
            assert!((inc_beta(1.0, 1.0, x) - x).abs() < 1e-12);
        }
    }

    #[test]
    fn t_cdf_symmetry() {
        for &df in &[1.0, 2.0, 5.0, 30.0] {
            for &t in &[0.5, 1.0, 2.5] {
                let a = t_cdf(t, df);
                let b = t_cdf(-t, df);
                assert!((a + b - 1.0).abs() < 1e-12, "df={df} t={t}");
            }
        }
        assert!((t_cdf(0.0, 7.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn t_cdf_cauchy_case() {
        // df=1 is Cauchy: CDF(t) = 1/2 + atan(t)/pi.
        for &t in &[-2.0_f64, -0.5, 0.7, 3.0] {
            let expect = 0.5 + t.atan() / std::f64::consts::PI;
            assert!((t_cdf(t, 1.0) - expect).abs() < 1e-10, "t={t}");
        }
    }

    #[test]
    fn t_critical_known_values() {
        // Classic t-table values.
        assert!((t_critical(0.95, 10.0) - 2.228_14).abs() < 1e-4);
        assert!((t_critical(0.95, 22.0) - 2.073_87).abs() < 1e-4);
        assert!((t_critical(0.99, 5.0) - 4.032_14).abs() < 1e-4);
        // Converges to the normal as df grows.
        assert!((t_critical(0.95, 1e7) - 1.959_96).abs() < 1e-3);
    }

    #[test]
    fn t_ppf_round_trips() {
        for &df in &[1.0, 3.0, 10.0, 100.0] {
            for &p in &[0.01, 0.1, 0.5, 0.9, 0.99] {
                let x = t_ppf(p, df);
                assert!((t_cdf(x, df) - p).abs() < 1e-9, "df={df} p={p}");
            }
        }
    }

    #[test]
    fn gamma_q_known_values() {
        // Q(1, x) = e^{-x} (exponential survival), on both sides of the
        // series/continued-fraction split at x = a + 1.
        for &x in &[0.1, 0.5, 1.0, 3.0, 10.0] {
            assert!((gamma_q(1.0, x) - (-x).exp()).abs() < 1e-12, "x={x}");
        }
        // Q(1/2, x) = erfc(sqrt(x)): Q(0.5, 0.5) with known value
        // (scipy gammaincc(0.5, 0.5) = 0.317310...; the normal mass
        // outside one sigma).
        assert!((gamma_q(0.5, 0.5) - 0.317_310_507_862_914).abs() < 1e-10);
        assert_eq!(gamma_q(2.0, 0.0), 1.0);
        // Monotone in x.
        assert!(gamma_q(3.0, 2.0) > gamma_q(3.0, 2.5));
    }

    #[test]
    fn chi2_known_values() {
        // chi2_sf(x, 2) = e^{-x/2}.
        for &x in &[0.5, 1.0, 5.0, 12.0] {
            assert!((chi2_sf(x, 2.0) - (-x / 2.0).exp()).abs() < 1e-12);
        }
        // Classic table: P(chi2 > 3.841) = 0.05 at df=1,
        // P(chi2 > 6.635) = 0.01 at df=1, P(chi2 > 18.307) = 0.05 at
        // df=10.
        assert!((chi2_sf(3.841_458_820_694_124, 1.0) - 0.05).abs() < 1e-9);
        assert!((chi2_sf(6.634_896_601_021_213, 1.0) - 0.01).abs() < 1e-9);
        assert!((chi2_sf(18.307_038_053_275_146, 10.0) - 0.05).abs() < 1e-9);
        // Deep tail stays positive and ordered instead of rounding to 0.
        let far = chi2_sf(300.0, 1.0);
        assert!(far > 0.0 && far < 1e-60);
        assert!(chi2_sf(310.0, 1.0) < far);
        // Degenerate statistic.
        assert_eq!(chi2_sf(0.0, 5.0), 1.0);
        assert_eq!(chi2_sf(-1.0, 5.0), 1.0);
    }
}
