//! The fluid bottleneck link: max–min bandwidth sharing, a standing
//! queue that inflates RTT, and loss when demand exceeds capacity.
//!
//! This is the deliberately coarse counterpart of `netsim`'s packet
//! model: at 100 Gb/s and millions of sessions, per-packet simulation is
//! not feasible or necessary. What must be preserved — and is — is the
//! *coupling*: every session's RTT and loss depend on the aggregate
//! offered load, so changing some sessions' bitrates changes everyone's
//! network conditions (congestion interference).

/// Fluid link state.
#[derive(Debug, Clone)]
pub struct FluidLink {
    /// Capacity in bits/second.
    capacity_bps: f64,
    /// Base RTT in seconds.
    base_rtt_s: f64,
    /// Queue capacity expressed in seconds of draining at capacity.
    queue_capacity_s: f64,
    /// Current queue depth in "seconds of capacity".
    queue_s: f64,
    /// Current loss fraction (recomputed each tick from overload).
    loss: f64,
    /// Utilization in the last tick.
    utilization: f64,
}

impl FluidLink {
    /// New, initially idle link.
    pub fn new(capacity_bps: f64, base_rtt_s: f64, queue_capacity_s: f64) -> FluidLink {
        FluidLink {
            capacity_bps,
            base_rtt_s,
            queue_capacity_s,
            queue_s: 0.0,
            loss: 0.0,
            utilization: 0.0,
        }
    }

    /// Capacity in bits/second.
    pub(crate) fn capacity_bps(&self) -> f64 {
        self.capacity_bps
    }

    /// Current RTT (base plus standing-queue delay), seconds.
    pub(crate) fn rtt_s(&self) -> f64 {
        self.base_rtt_s + self.queue_s
    }

    /// Current loss fraction from overload.
    pub(crate) fn loss(&self) -> f64 {
        self.loss
    }

    /// Utilization of the previous tick (0–1).
    pub(crate) fn utilization(&self) -> f64 {
        self.utilization
    }

    /// Whether a standing queue is present (operational congestion).
    #[cfg(test)]
    fn congested(&self) -> bool {
        self.queue_s > 0.25 * self.queue_capacity_s
    }

    /// Current queue depth (seconds of draining at capacity).
    pub(crate) fn queue_depth_s(&self) -> f64 {
        self.queue_s
    }

    /// Aggregate demand below which one tick of this link is *exactly*
    /// the identity allocation, bitwise — the invariant the hybrid
    /// event engine's decoupled spans rest on. When the queue is empty
    /// (`queue_depth_s() == 0.0`) and total demand stays at or below
    /// this bound:
    ///
    /// - water-filling serves every session exactly its demand (each
    ///   ascending-order demand is below the running fair share, with
    ///   the 1e-6 relative margin dominating the f64 summation error of
    ///   any realistic population), and its `total`/`served`
    ///   accumulators — the same adds in the same order — are equal
    ///   bitwise;
    /// - hence `overload == 0.0` exactly, the queue update adds `0.0`,
    ///   subtracts a non-negative slack term and clamps at `0.0`, so
    ///   the queue stays exactly empty;
    /// - hence `loss == 0.0` and `rtt_s() == base + 0.0 == base`,
    ///   bitwise (IEEE-754: `x + 0.0 == x` for finite `x`).
    ///
    /// The factors a session multiplies by — `1 - loss == 1.0` and the
    /// share itself — are therefore bit-identical to a tick where the
    /// session was allocated alone, which is what lets the event engine
    /// replay sessions independently between allocation-changing events.
    pub(crate) fn decoupled_fit_bound_bps(&self) -> f64 {
        self.capacity_bps * (1.0 - 1e-6)
    }

    /// Allocate bandwidth for one tick into a caller-provided buffer.
    ///
    /// `demands` are per-session desired rates (bits/s); `out` receives
    /// the per-session allocation under max–min fairness with demand
    /// caps. Queue and loss states advance as a side effect.
    ///
    /// `order` lists the sessions to water-fill, ascending by demand;
    /// sessions *not* listed must have zero demand and receive a zero
    /// share (water-filling zeros is a no-op, so callers with on-off
    /// traffic can list only the active sessions). `LinkSim` builds
    /// that order from the arena's peak order, filtered to the active
    /// sessions, so a tick sorts nothing and allocates nothing.
    pub(crate) fn allocate_ordered(
        &mut self,
        demands: &[f64],
        order: &[usize],
        dt_s: f64,
        out: &mut Vec<f64>,
    ) {
        debug_check_demands(demands);
        debug_assert!(
            order.windows(2).all(|w| demands[w[0]] <= demands[w[1]]),
            "order must sort demands ascending"
        );
        debug_assert!(
            {
                let mut listed = vec![false; demands.len()];
                order.iter().for_each(|&i| listed[i] = true);
                demands
                    .iter()
                    .zip(&listed)
                    .all(|(&d, &in_order)| in_order || d == 0.0)
            },
            "sessions omitted from order must have zero demand"
        );
        let (total, served) = water_fill(demands, order, self.capacity_bps, out);
        self.utilization = served / self.capacity_bps;

        // Queue dynamics: unserved demand accumulates (TCP keeps pushing),
        // bounded by the buffer; slack drains it.
        let overload_bps = total - served;
        self.queue_s += overload_bps / self.capacity_bps * dt_s;
        let slack_bps = self.capacity_bps - served;
        self.queue_s -= slack_bps / self.capacity_bps * dt_s;
        self.queue_s = self.queue_s.clamp(0.0, self.queue_capacity_s);

        // Loss: only once the buffer is (nearly) full does the excess
        // demand turn into drops, shed proportionally.
        self.loss = if total > 0.0 && self.queue_s >= 0.95 * self.queue_capacity_s {
            (overload_bps / total).clamp(0.0, 0.5)
        } else {
            0.0
        };
    }
}

/// Demands must be finite and non-negative; checked at the API boundary
/// in debug builds so NaNs fail fast instead of silently mis-sorting.
#[inline]
fn debug_check_demands(demands: &[f64]) {
    debug_assert!(
        demands.iter().all(|d| d.is_finite() && *d >= 0.0),
        "demands must be finite and non-negative"
    );
}

/// Water-filling kernel: visit the sessions listed in `order` (ascending
/// by demand; unlisted sessions must demand zero and get zero); sessions
/// demanding less than the running fair share keep their demand, the
/// remainder is split evenly among the rest. Returns `(total demand,
/// total served)`, accumulated in visit order, so callers need no extra
/// reduction passes.
fn water_fill(demands: &[f64], order: &[usize], capacity: f64, out: &mut Vec<f64>) -> (f64, f64) {
    out.clear();
    out.resize(demands.len(), 0.0);
    let k = order.len();
    let mut remaining = capacity;
    let mut total = 0.0;
    let mut served = 0.0;
    for (rank, &i) in order.iter().enumerate() {
        let d = demands[i];
        let fair = remaining / (k - rank) as f64;
        if d <= fair {
            out[i] = d;
            remaining -= d;
            total += d;
            served += d;
        } else {
            // Everyone remaining demands more than the fair share.
            for &j in &order[rank..] {
                out[j] = fair;
                total += demands[j];
                served += fair;
            }
            break;
        }
    }
    (total, served)
}

/// Max–min fair shares with per-session demand caps: sessions demanding
/// less than the fair share keep their demand; the remainder is split among
/// the rest (water-filling).
///
/// This is the allocating reference implementation; the hot path
/// (`FluidLink::allocate_ordered`, under `LinkSim`'s ordering) is
/// tested to be bit-identical to it.
pub fn max_min_share(demands: &[f64], capacity: f64) -> Vec<f64> {
    debug_check_demands(demands);
    let mut order: Vec<usize> = (0..demands.len()).collect();
    order.sort_by(|&a, &b| demands[a].total_cmp(&demands[b]));
    let mut shares = Vec::with_capacity(demands.len());
    water_fill(demands, &order, capacity, &mut shares);
    shares
}

#[cfg(test)]
mod tests {
    use super::*;
    use dessim::SimRng;

    /// One tick through `allocate_ordered` with every session listed in
    /// ascending demand order.
    fn allocate(link: &mut FluidLink, demands: &[f64], dt_s: f64) -> Vec<f64> {
        let mut order: Vec<usize> = (0..demands.len()).collect();
        order.sort_by(|&a, &b| demands[a].total_cmp(&demands[b]));
        let mut shares = Vec::new();
        link.allocate_ordered(demands, &order, dt_s, &mut shares);
        shares
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn max_min_satisfies_small_demands_first() {
        let shares = max_min_share(&[1.0, 10.0, 10.0], 12.0);
        assert!((shares[0] - 1.0).abs() < 1e-12);
        assert!((shares[1] - 5.5).abs() < 1e-12);
        assert!((shares[2] - 5.5).abs() < 1e-12);
    }

    #[test]
    fn max_min_uncongested_gives_demands() {
        let shares = max_min_share(&[1.0, 2.0, 3.0], 100.0);
        assert_eq!(shares, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn max_min_conserves_capacity() {
        let demands = [5.0, 9.0, 2.0, 14.0, 7.0];
        let shares = max_min_share(&demands, 20.0);
        let total: f64 = shares.iter().sum();
        assert!(total <= 20.0 + 1e-9);
        assert!(shares.iter().zip(&demands).all(|(s, d)| s <= d));
    }

    #[test]
    fn queue_builds_under_overload_and_drains_after() {
        let mut link = FluidLink::new(100.0, 0.02, 0.05);
        // Overload: demand 150 vs capacity 100.
        for _ in 0..100 {
            allocate(&mut link, &[150.0], 1.0);
        }
        assert!(link.rtt_s() > 0.06, "rtt {}", link.rtt_s());
        assert!(link.loss() > 0.0, "loss {}", link.loss());
        assert!(link.congested());
        // Light load drains the queue and clears loss.
        for _ in 0..100 {
            allocate(&mut link, &[10.0], 1.0);
        }
        assert!((link.rtt_s() - 0.02).abs() < 1e-9);
        assert_eq!(link.loss(), 0.0);
        assert!(!link.congested());
    }

    #[test]
    fn loss_proportional_to_overload() {
        let mut link = FluidLink::new(100.0, 0.02, 0.01);
        for _ in 0..50 {
            allocate(&mut link, &[200.0], 1.0);
        }
        // Overload 100 of 200 demanded => ~50% shed, clamped at 0.5.
        assert!((link.loss() - 0.5).abs() < 1e-9);
        let mut mild = FluidLink::new(100.0, 0.02, 0.01);
        for _ in 0..50 {
            allocate(&mut mild, &[120.0, 5.0], 1.0);
        }
        assert!(
            mild.loss() > 0.0 && mild.loss() < 0.25,
            "loss {}",
            mild.loss()
        );
    }

    #[test]
    fn utilization_tracks_service() {
        let mut link = FluidLink::new(100.0, 0.02, 0.05);
        allocate(&mut link, &[30.0, 20.0], 1.0);
        assert!((link.utilization() - 0.5).abs() < 1e-12);
        allocate(&mut link, &[300.0], 1.0);
        assert!((link.utilization() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_demands_ok() {
        let mut link = FluidLink::new(100.0, 0.02, 0.05);
        let shares = allocate(&mut link, &[], 1.0);
        assert!(shares.is_empty());
        assert_eq!(link.utilization(), 0.0);
    }

    #[test]
    fn allocate_ordered_accepts_active_subset() {
        // Idle (zero-demand) sessions may be omitted from the order —
        // the LinkSim hot path lists only active sessions. Shares must
        // be bit-identical to the full reference either way.
        let demands = [0.0, 7.0, 0.0, 3.0, 9.0, 0.0];
        let order = [3usize, 1, 4]; // actives ascending
        let mut link = FluidLink::new(12.0, 0.02, 0.05);
        let mut out = Vec::new();
        link.allocate_ordered(&demands, &order, 1.0, &mut out);
        let reference = max_min_share(&demands, 12.0);
        assert_eq!(bits(&out), bits(&reference));
        assert_eq!(out[0], 0.0);
        assert_eq!(out[3], 3.0);
    }

    /// `allocate_ordered` under `LinkSim`'s ordering — sessions kept in
    /// a peak-sorted permutation (binary insertion on arrival, removal
    /// on exit, order-preserving remap on compaction), filtered each
    /// tick to the sessions with non-zero demand — is bit-identical to
    /// the `max_min_share` reference under random arrivals, exits and
    /// idle toggles.
    #[test]
    fn allocate_ordered_under_peak_order_matches_reference() {
        let mut congested_ticks = 0usize;
        for seed in 0..64u64 {
            let mut rng = SimRng::new(seed);
            let capacity = rng.uniform(10.0, 300.0);
            let max_peak = rng.uniform(1.0, 40.0);
            let mut link = FluidLink::new(capacity, 0.02, 0.05);
            let (mut peaks, mut demands, mut dead) = (Vec::new(), Vec::new(), Vec::new());
            let mut by_peak: Vec<usize> = Vec::new();
            let (mut order, mut out) = (Vec::new(), Vec::new());
            for _ in 0..200 {
                match rng.below(3) {
                    0 => {
                        // Arrival: a new session demanding its peak.
                        let peak = rng.uniform(0.0, max_peak);
                        let pos = by_peak.partition_point(|&j| peaks[j] <= peak);
                        by_peak.insert(pos, peaks.len());
                        peaks.push(peak);
                        demands.push(peak);
                        dead.push(false);
                    }
                    1 if !by_peak.is_empty() => {
                        // Exit: tombstone with zero demand.
                        let i = by_peak[rng.below(by_peak.len() as u64) as usize];
                        dead[i] = true;
                        demands[i] = 0.0;
                        by_peak.retain(|&j| j != i);
                    }
                    _ if !by_peak.is_empty() => {
                        // Idle toggle: a full buffer asks for nothing.
                        let i = by_peak[rng.below(by_peak.len() as u64) as usize];
                        demands[i] = if demands[i] == 0.0 { peaks[i] } else { 0.0 };
                    }
                    _ => {}
                }
                if dead.iter().filter(|&&d| d).count() >= 8 {
                    // Compaction: drop tombstones, remap the order.
                    let mut remap = vec![usize::MAX; peaks.len()];
                    let mut next = 0;
                    for (i, &d) in dead.iter().enumerate() {
                        if !d {
                            remap[i] = next;
                            next += 1;
                        }
                    }
                    let keep = |v: &[f64]| -> Vec<f64> {
                        v.iter()
                            .zip(&dead)
                            .filter(|(_, &d)| !d)
                            .map(|(&x, _)| x)
                            .collect()
                    };
                    peaks = keep(&peaks);
                    demands = keep(&demands);
                    dead = vec![false; peaks.len()];
                    by_peak.iter_mut().for_each(|o| *o = remap[*o]);
                }
                order.clear();
                order.extend(by_peak.iter().copied().filter(|&i| demands[i] != 0.0));
                link.allocate_ordered(&demands, &order, 1.0, &mut out);
                let reference = max_min_share(&demands, capacity);
                assert_eq!(
                    bits(&out),
                    bits(&reference),
                    "seed {seed}, demands {demands:?}"
                );
                congested_ticks += usize::from(demands.iter().sum::<f64>() > capacity);
            }
        }
        // Water-filling that never caps anyone would test nothing.
        assert!(congested_ticks > 500, "congested ticks: {congested_ticks}");
    }
}
