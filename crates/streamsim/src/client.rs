//! The video client: startup, playback-buffer dynamics, ABR decisions,
//! rebuffers, cancellation, and per-session metric accumulation.

use crate::abr::{perceptual_quality, Ladder};
use crate::config::StreamConfig;
use crate::session::{LinkId, SessionRecord};
use dessim::SimRng;

/// Client lifecycle phase.
///
/// Crate-visible so [`crate::arena::ClientArena`] can store it as a
/// one-byte column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Filling the initial buffer; playback has not begun.
    Startup,
    /// Playing (and, while the buffer has room, downloading).
    Playing,
    /// Buffer empty: stalled, refilling.
    Rebuffering,
}

/// One active video session.
///
/// This scalar struct is the **reference implementation**: the
/// production engine runs the struct-of-arrays [`crate::arena::ClientArena`],
/// which is property-tested to produce bit-identical session records to
/// stepping a `Client` directly. Fields are crate-visible so the arena
/// can decompose an admitted client into its columns.
#[derive(Debug, Clone)]
pub struct Client {
    pub(crate) link: LinkId,
    pub(crate) day: usize,
    pub(crate) hour: usize,
    pub(crate) weekend: bool,
    pub(crate) arrival_s: f64,
    pub(crate) treated: bool,

    pub(crate) phase: Phase,
    pub(crate) bitrate: f64,
    pub(crate) buffer_s: f64,
    pub(crate) watched_s: f64,
    pub(crate) watch_target_s: f64,
    pub(crate) patience_s: f64,

    /// Per-session access-line limit (bits/s).
    pub(crate) access_bps: f64,
    /// EWMA throughput estimate for ABR.
    pub(crate) throughput_est: f64,
    /// Per-chunk multiplicative noise on achievable throughput.
    pub(crate) chunk_noise: f64,
    /// Video seconds downloaded within the current chunk.
    pub(crate) chunk_progress_s: f64,

    // Accumulators.
    pub(crate) bytes: f64,
    pub(crate) retx_bytes: f64,
    /// Ticks lived so far; the volume-independent retransmission term is
    /// `fixed_retx_bytes_per_s · dt · ticks`, applied once at session
    /// end instead of accumulating float adds every tick.
    pub(crate) ticks_alive: u64,
    pub(crate) active_dl_s: f64,
    pub(crate) min_rtt_s: f64,
    pub(crate) play_delay_s: f64,
    pub(crate) rebuffer_count: u32,
    pub(crate) switches: u32,
    pub(crate) bitrate_time_product: f64,
    pub(crate) quality_time_product: f64,
    /// Playing ticks since the last bitrate change; the bitrate/quality
    /// time products fold one multiply per *segment* (bitrate changes
    /// only at chunk boundaries) instead of two per tick.
    pub(crate) seg_play_ticks: u64,

    pub(crate) noise_sigma: f64,
    pub(crate) dip_prob: f64,
    pub(crate) rng: SimRng,
}

/// A new session's leading draws, in [`Client::new`]'s order: watch
/// target, patience, then the last-mile access line — lognormal around
/// the configured median, clamped to the transport ceiling, which makes
/// it the session's peak demand. The event engine prices an arriving
/// session's peak from a clone of its stream through this same function
/// before the client exists (`initial_share_bps` feeds only the
/// non-random throughput estimate, so the peak does not depend on it).
pub(crate) fn draw_session_head(
    cfg: &StreamConfig,
    ladder: &Ladder,
    rng: &mut SimRng,
) -> (f64, f64, f64) {
    let watch_target_s = rng.exponential(1.0 / cfg.mean_watch_s).max(60.0);
    let patience_s = 5.0 + rng.exponential(1.0 / cfg.mean_patience_s);
    let access_bps = (cfg.access_median_bps * rng.lognormal(0.0, cfg.access_sigma))
        .clamp(ladder.min_rate() * 1.5, cfg.session_max_bps);
    (watch_target_s, patience_s, access_bps)
}

/// What a client wants from the link this tick.
pub struct Demand {
    /// Desired download rate in bits/s (0 when idle).
    pub rate_bps: f64,
}

impl Client {
    /// Admit a new session at time `now_s`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        cfg: &StreamConfig,
        ladder: &Ladder,
        link: LinkId,
        day: usize,
        hour: usize,
        weekend: bool,
        now_s: f64,
        treated: bool,
        initial_share_bps: f64,
        mut rng: SimRng,
    ) -> Client {
        let (watch_target_s, patience_s, access_bps) = draw_session_head(cfg, ladder, &mut rng);
        // Noise is mean-one lognormal so volatility does not shift the
        // mean throughput.
        let sigma = cfg.throughput_noise_sigma;
        let draw_noise = |r: &mut SimRng| r.lognormal(-0.5 * sigma * sigma, sigma);
        // Initial estimate: the observable per-session share bounded by
        // the access line, degraded by a first noise draw.
        let noise = draw_noise(&mut rng);
        let throughput_est = (initial_share_bps.min(access_bps) * noise).max(ladder.min_rate());
        let cap = if treated { Some(cfg.cap_bps) } else { None };
        let bitrate = ladder.select(throughput_est, cfg.abr_safety, cap);
        let chunk_noise = draw_noise(&mut rng);
        Client {
            link,
            day,
            hour,
            weekend,
            arrival_s: now_s,
            treated,
            phase: Phase::Startup,
            bitrate,
            buffer_s: 0.0,
            watched_s: 0.0,
            watch_target_s,
            patience_s,
            access_bps,
            throughput_est,
            chunk_noise,
            chunk_progress_s: 0.0,
            bytes: 0.0,
            retx_bytes: 0.0,
            ticks_alive: 0,
            active_dl_s: 0.0,
            min_rtt_s: f64::INFINITY,
            play_delay_s: f64::NAN,
            rebuffer_count: 0,
            switches: 0,
            bitrate_time_product: 0.0,
            quality_time_product: 0.0,
            seg_play_ticks: 0,
            noise_sigma: sigma,
            dip_prob: (cfg.dip_prob * cfg.rebuffer_bias).min(0.5),
            rng,
        }
    }

    /// Desired download rate for this tick (bounded by the access line).
    ///
    /// Note the demand is *two-valued* over a session's lifetime: the
    /// constant access-capped rate while downloading, or zero while
    /// idling on a full playback buffer. `LinkSim` relies on this to
    /// maintain its demand-sorted allocation order without sorting.
    #[inline]
    pub fn demand(&self, cfg: &StreamConfig) -> Demand {
        let rate = match self.phase {
            Phase::Startup | Phase::Rebuffering => self.access_bps,
            Phase::Playing => {
                if self.buffer_s < cfg.max_buffer_s {
                    self.access_bps
                } else {
                    0.0 // buffer full: idle (on-off traffic)
                }
            }
        };
        Demand {
            rate_bps: rate.min(cfg.session_max_bps),
        }
    }

    /// Advance one tick given the allocated rate and current link state.
    /// Returns a finished [`SessionRecord`] when the session ends.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn step(
        &mut self,
        cfg: &StreamConfig,
        ladder: &Ladder,
        allocated_bps: f64,
        rtt_s: f64,
        loss: f64,
        now_s: f64,
        dt_s: f64,
    ) -> Option<SessionRecord> {
        let downloading = match self.phase {
            Phase::Startup | Phase::Rebuffering => true,
            Phase::Playing => self.buffer_s < cfg.max_buffer_s,
        };

        // Effective goodput: allocation degraded by per-chunk last-mile
        // noise (mean-one lognormal) and overload loss. Only computed
        // while downloading — idle sessions skip the whole block.
        let mut rate = 0.0;
        if downloading {
            rate = allocated_bps.min(self.access_bps) * self.chunk_noise * (1.0 - loss);
            if rate > 0.0 {
                let payload_bytes = rate * dt_s / 8.0;
                self.bytes += payload_bytes;
                // Retransmissions: volume-proportional (path loss floor +
                // damped overload loss) plus a volume-independent term.
                self.retx_bytes += payload_bytes * (cfg.loss_floor + loss * cfg.loss_to_retx);
                self.active_dl_s += dt_s;
                let video_s = rate * dt_s / self.bitrate;
                self.buffer_s += video_s;
                self.chunk_progress_s += video_s;
            }
        }
        self.ticks_alive += 1;
        self.min_rtt_s = self.min_rtt_s.min(rtt_s);

        // ABR decision at chunk boundaries.
        if self.chunk_progress_s >= cfg.chunk_s {
            self.chunk_progress_s = 0.0;
            if rate > 0.0 {
                self.throughput_est = 0.8 * self.throughput_est + 0.2 * rate;
            }
            let s = self.noise_sigma;
            // Single ziggurat draw: cheaper than half a banked
            // Box–Muller pair, and no spare state to carry. `fast_exp`
            // because this redraw fires tens of millions of times per
            // five-day run (the arena hot path computes the identical
            // expression, so equivalence is preserved).
            let z = self.rng.standard_normal();
            self.chunk_noise = dessim::fast_exp(-0.5 * s * s + s * z);
            // Rare difficulty dips: a transient collapse that can drain
            // the buffer (rebuffer driver independent of link congestion).
            if self.rng.bernoulli(self.dip_prob) {
                self.chunk_noise *= 0.12;
            }
            let cap = if self.treated {
                Some(cfg.cap_bps)
            } else {
                None
            };
            let next = ladder.select(self.throughput_est, cfg.abr_safety, cap);
            if next != self.bitrate {
                if self.phase != Phase::Startup && (next - self.bitrate).abs() > 1.0 {
                    self.switches += 1;
                }
                self.fold_products(dt_s);
                self.bitrate = next;
            }
        }

        match self.phase {
            Phase::Startup => {
                if self.buffer_s >= cfg.startup_buffer_s {
                    self.phase = Phase::Playing;
                    // Startup cost: fill time plus connection setup RTTs.
                    self.play_delay_s = (now_s - self.arrival_s) + 3.0 * rtt_s;
                } else if now_s - self.arrival_s > self.patience_s {
                    return Some(self.finish(cfg, dt_s, now_s, true));
                }
            }
            Phase::Playing => {
                self.watched_s += dt_s;
                self.buffer_s -= dt_s;
                self.seg_play_ticks += 1;
                if self.buffer_s <= 0.0 {
                    self.buffer_s = 0.0;
                    self.phase = Phase::Rebuffering;
                    self.rebuffer_count += 1;
                }
                if self.watched_s >= self.watch_target_s {
                    return Some(self.finish(cfg, dt_s, now_s, false));
                }
            }
            Phase::Rebuffering => {
                if self.buffer_s >= cfg.resume_buffer_s {
                    self.phase = Phase::Playing;
                }
            }
        }
        None
    }

    /// Fold the current constant-bitrate segment into the time-weighted
    /// products. Must run before `bitrate` changes and at session end.
    #[inline]
    fn fold_products(&mut self, dt_s: f64) {
        if self.seg_play_ticks > 0 {
            let t = self.seg_play_ticks as f64 * dt_s;
            self.bitrate_time_product += self.bitrate * t;
            self.quality_time_product += perceptual_quality(self.bitrate) * t;
            self.seg_play_ticks = 0;
        }
    }

    fn finish(
        &mut self,
        cfg: &StreamConfig,
        dt_s: f64,
        now_s: f64,
        cancelled: bool,
    ) -> SessionRecord {
        // Volume-independent retransmissions (connection upkeep, tail
        // losses), accrued once over the session's lifetime.
        self.retx_bytes += cfg.fixed_retx_bytes_per_s * dt_s * self.ticks_alive as f64;
        self.fold_products(dt_s);
        // Play time == watched seconds (playback advances exactly while
        // playing), so no separate accumulator is needed.
        let play = self.watched_s.max(1e-9);
        SessionRecord {
            link: self.link,
            day: self.day,
            hour: self.hour,
            weekend: self.weekend,
            arrival_s: self.arrival_s,
            treated: self.treated,
            throughput_bps: if self.active_dl_s > 0.0 {
                self.bytes * 8.0 / self.active_dl_s
            } else {
                0.0
            },
            min_rtt_s: if self.min_rtt_s.is_finite() {
                self.min_rtt_s
            } else {
                f64::NAN
            },
            play_delay_s: self.play_delay_s,
            bitrate_bps: if cancelled {
                f64::NAN
            } else {
                self.bitrate_time_product / play
            },
            quality: if cancelled {
                f64::NAN
            } else {
                self.quality_time_product / play
            },
            rebuffer_count: self.rebuffer_count,
            rebuffered: self.rebuffer_count > 0,
            cancelled,
            bytes: self.bytes,
            retx_bytes: self.retx_bytes,
            switches: self.switches,
            duration_s: now_s - self.arrival_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> StreamConfig {
        // Generous, low-variance access lines so client-logic tests are
        // not confounded by last-mile draws.
        StreamConfig {
            access_median_bps: 20e6,
            access_sigma: 0.05,
            ..Default::default()
        }
    }

    fn make_client(treated: bool, share: f64, seed: u64) -> (Client, Ladder) {
        let c = cfg();
        let ladder = Ladder::new(c.ladder_bps.clone());
        let client = Client::new(
            &c,
            &ladder,
            LinkId::One,
            0,
            20,
            false,
            0.0,
            treated,
            share,
            SimRng::new(seed),
        );
        (client, ladder)
    }

    /// Run a client to completion with a fixed allocation.
    fn run_to_completion(
        mut client: Client,
        ladder: &Ladder,
        alloc: f64,
        rtt: f64,
        loss: f64,
    ) -> SessionRecord {
        let c = cfg();
        let mut t = 0.0;
        for _ in 0..200_000 {
            t += 1.0;
            if let Some(rec) = client.step(&c, ladder, alloc, rtt, loss, t, 1.0) {
                return rec;
            }
        }
        panic!("session never finished");
    }

    #[test]
    fn healthy_session_plays_without_rebuffers() {
        let (client, ladder) = make_client(false, 20e6, 1);
        let rec = run_to_completion(client, &ladder, 20e6, 0.02, 0.0);
        assert!(!rec.cancelled);
        assert!(!rec.rebuffered, "rebuffers {}", rec.rebuffer_count);
        assert!(rec.play_delay_s < 12.0, "delay {}", rec.play_delay_s);
        assert!(rec.bitrate_bps >= 3_000e3, "bitrate {}", rec.bitrate_bps);
        assert!(rec.bytes > 0.0);
    }

    #[test]
    fn capped_session_limits_bitrate() {
        let (client, ladder) = make_client(true, 20e6, 2);
        let rec = run_to_completion(client, &ladder, 20e6, 0.02, 0.0);
        assert!(rec.treated);
        assert!(
            rec.bitrate_bps <= 1_750e3 + 1.0,
            "bitrate {}",
            rec.bitrate_bps
        );
        // Capped sessions pull fewer bytes.
        let (un, ladder2) = make_client(false, 20e6, 2);
        let rec_un = run_to_completion(un, &ladder2, 20e6, 0.02, 0.0);
        assert!(rec.bytes < rec_un.bytes * 0.8);
    }

    #[test]
    fn starved_session_rebuffers() {
        // Allocation below the lowest rung forces stalls.
        let (client, ladder) = make_client(false, 200e3, 3);
        let rec = run_to_completion(client, &ladder, 150e3, 0.05, 0.0);
        assert!(rec.cancelled || rec.rebuffered, "{rec:?}");
    }

    #[test]
    fn tiny_allocation_cancels_start() {
        let (client, ladder) = make_client(false, 100e3, 4);
        let rec = run_to_completion(client, &ladder, 10e3, 0.05, 0.0);
        assert!(rec.cancelled);
        assert!(rec.play_delay_s.is_nan());
    }

    #[test]
    fn min_rtt_tracks_smallest_seen() {
        let c = cfg();
        let (mut client, ladder) = make_client(false, 20e6, 5);
        let mut t = 0.0;
        for i in 0..100 {
            t += 1.0;
            let rtt = if i < 50 { 0.045 } else { 0.025 };
            if client.step(&c, &ladder, 20e6, rtt, 0.0, t, 1.0).is_some() {
                break;
            }
        }
        assert!((client.min_rtt_s - 0.025).abs() < 1e-12);
    }

    #[test]
    fn loss_generates_retransmissions() {
        let (client, ladder) = make_client(false, 20e6, 6);
        let rec = run_to_completion(client, &ladder, 20e6, 0.02, 0.05);
        // 5% overload loss plus floor: retx fraction near 5%.
        assert!(rec.retx_fraction() > 0.005, "{}", rec.retx_fraction());
        let (client2, ladder2) = make_client(false, 20e6, 6);
        let clean = run_to_completion(client2, &ladder2, 20e6, 0.02, 0.0);
        assert!(clean.retx_fraction() < rec.retx_fraction());
    }

    #[test]
    fn fixed_retx_dominates_when_volume_is_tiny() {
        // The volume-independent term makes % retransmitted rise when a
        // session downloads little — the Figure 9 off-peak mechanism.
        let (capped, ladder) = make_client(true, 20e6, 7);
        let rec_capped = run_to_completion(capped, &ladder, 20e6, 0.02, 0.0);
        let (full, ladder2) = make_client(false, 20e6, 7);
        let rec_full = run_to_completion(full, &ladder2, 20e6, 0.02, 0.0);
        assert!(
            rec_capped.retx_fraction() > rec_full.retx_fraction(),
            "capped {} vs full {}",
            rec_capped.retx_fraction(),
            rec_full.retx_fraction()
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let (c1, l1) = make_client(false, 10e6, 42);
        let (c2, l2) = make_client(false, 10e6, 42);
        let r1 = run_to_completion(c1, &l1, 10e6, 0.02, 0.0);
        let r2 = run_to_completion(c2, &l2, 10e6, 0.02, 0.0);
        assert_eq!(r1.bytes, r2.bytes);
        assert_eq!(r1.bitrate_bps, r2.bitrate_bps);
    }
}
