//! The simulation drivers: one link ([`LinkSim`]) and the paired-link
//! world ([`PairedSim`]) of §4.

use crate::abr::Ladder;
use crate::arena::{ClientArena, SpanArrival};
use crate::client::Client;
use crate::config::StreamConfig;
use crate::demand::DiurnalDemand;
use crate::engine::{ArrivalSource, EngineBackend};
use crate::link::FluidLink;
use crate::scenario::AllocationSchedule;
use crate::session::{LinkId, SessionRecord};
use dessim::SimRng;

/// Hourly aggregate of link state, measured in-network.
///
/// Figures and estimators read session records, not these. The event
/// engine reproduces them to ≤1e-9 relative rather than bitwise (see
/// [`crate::engine`]).
#[derive(Debug, Clone, Copy)]
pub struct HourlyLinkStats {
    /// Simulation day.
    pub day: usize,
    /// Local hour.
    pub hour: usize,
    /// Mean utilization over the hour.
    pub utilization: f64,
    /// Mean RTT over the hour, seconds.
    pub rtt_s: f64,
    /// Mean concurrent active sessions.
    pub concurrent: f64,
    /// Mean loss fraction.
    pub loss: f64,
}

/// One streaming link plus its active session population.
///
/// The tick pipeline is allocation-free in steady state: the session
/// population lives in a struct-of-arrays [`ClientArena`] (hot fields as
/// contiguous columns, cold identity in a side table), all the `Vec`s
/// below are persistent scratch buffers, and the demand-sorted
/// permutation the water-filling allocator consumes is built without a
/// sort. The key structural fact (see [`Client::demand`]) is that a
/// session's demand is *two-valued*: its access-capped rate — constant
/// for the session's lifetime — or zero while it idles on a full
/// buffer. So the arena keeps its live slots sorted by that static peak
/// demand ([`ClientArena::peak_order`]), and each tick a single filter
/// pass over that order — keeping the sessions that demand anything —
/// yields a permutation that sorts the *current* demands, with zero
/// comparisons of floats that didn't change.
pub struct LinkSim {
    // Fields are crate-visible so the hybrid tick/event driver in
    // `crate::engine` can share the tick loop's state verbatim.
    pub(crate) cfg: StreamConfig,
    pub(crate) link_id: LinkId,
    pub(crate) ladder: Ladder,
    pub(crate) link: FluidLink,
    pub(crate) demand: DiurnalDemand,
    pub(crate) schedule: AllocationSchedule,
    pub(crate) arena: ClientArena,
    pub(crate) records: Vec<SessionRecord>,
    pub(crate) hourly: Vec<HourlyLinkStats>,
    // Persistent hot-loop buffers (see struct docs).
    pub(crate) shares: Vec<f64>,
    pub(crate) order: Vec<usize>,
    tick_arrivals: Vec<SpanArrival>,
    // Accumulators for the current hour.
    pub(crate) acc_util: f64,
    pub(crate) acc_rtt: f64,
    pub(crate) acc_conc: f64,
    pub(crate) acc_loss: f64,
    pub(crate) acc_ticks: usize,
    pub(crate) current_hour: (usize, usize),
    pub(crate) now_s: f64,
    pub(crate) rng: SimRng,
}

impl LinkSim {
    /// Build a link world. `schedule` decides each arriving session's arm.
    ///
    /// Panics on an invalid schedule (empty `PerDay`, out-of-range
    /// allocations — see `AllocationSchedule::validate`): an empty
    /// schedule used to silently run the whole horizon untreated.
    pub fn new(
        cfg: StreamConfig,
        link_id: LinkId,
        schedule: AllocationSchedule,
        seed: u64,
    ) -> LinkSim {
        if let Err(e) = schedule.validate() {
            panic!("LinkSim::new: {e}");
        }
        let ladder = Ladder::new(cfg.ladder_bps.clone());
        let link = FluidLink::new(cfg.capacity_bps, cfg.base_rtt_s, cfg.queue_capacity_s);
        let demand = DiurnalDemand::paper_week(cfg.peak_arrivals_per_s);
        LinkSim {
            link_id,
            ladder,
            link,
            demand,
            schedule,
            arena: ClientArena::new(),
            records: Vec::new(),
            hourly: Vec::new(),
            shares: Vec::new(),
            order: Vec::new(),
            tick_arrivals: Vec::new(),
            acc_util: 0.0,
            acc_rtt: 0.0,
            acc_conc: 0.0,
            acc_loss: 0.0,
            acc_ticks: 0,
            current_hour: (0, 0),
            now_s: 0.0,
            rng: SimRng::new(seed),
            cfg,
        }
    }

    /// Advance one tick of the reference loop, drawing this tick's
    /// arrivals from the link's own demand process.
    pub fn step(&mut self) {
        self.tick(&mut ArrivalSource::Demand);
    }

    /// One tick of the reference loop: take this tick's arrivals from
    /// `source` into a persistent buffer, then run the tick on them.
    pub(crate) fn tick(&mut self, source: &mut ArrivalSource<'_>) {
        let mut arrivals = std::mem::take(&mut self.tick_arrivals);
        arrivals.clear();
        source.take(self, self.now_s, 0, &mut arrivals);
        self.step_tick_prescanned(&arrivals);
        self.tick_arrivals = arrivals;
    }

    /// One tick whose arrival randomness was already drawn by
    /// [`ArrivalSource::take`] (this tick's, or — for the event engine's
    /// terminator and rollback ticks — a span pre-scan's): hour
    /// rollover, client construction from the pre-drawn draws and
    /// injection, allocation, the arena sweep, hourly accumulators and
    /// the clock. It never touches `self.rng`.
    pub(crate) fn step_tick_prescanned(&mut self, arrivals: &[SpanArrival]) {
        let dt = self.cfg.dt_s;
        let (day, hour) = self.roll_hour();

        // Arrivals: the arena binary-inserts each into its static
        // peak-demand order.
        let share_now =
            self.link.capacity_bps() / (self.arena.live_sessions() as f64 + 1.0).max(1.0);
        for a in arrivals {
            let client = Client::new(
                &self.cfg,
                &self.ladder,
                self.link_id,
                day,
                hour,
                self.demand.is_weekend(day),
                self.now_s,
                a.treated,
                share_now.min(self.cfg.session_max_bps),
                a.rng.clone(),
            );
            self.arena.push(&self.cfg, client);
        }

        // Bandwidth allocation from the persistent buffers. The demand
        // column was produced incrementally (refreshed in place by last
        // tick's arena pass, appended to by `push`), and demands are
        // two-valued (idle sessions ask for 0, the rest for their
        // constant peak rate), so listing the *active* sessions in
        // peak-sorted order — one filter pass over the arena's peak
        // order — yields an ascending order of the current demands
        // without sorting: O(n) per tick, zero comparisons, zero heap
        // allocations. Branchless compaction: idle-vs-active is
        // effectively a coin flip per session, so a filter branch would
        // mispredict heavily. `order` is a monotone scratch (never
        // shrunk) so steady-state ticks skip even the resize memset.
        let by_peak = self.arena.peak_order();
        if self.order.len() < by_peak.len() {
            self.order.resize(by_peak.len(), 0);
        }
        let demands = self.arena.demands();
        let mut active = 0usize;
        for &i in by_peak {
            self.order[active] = i;
            active += usize::from(demands[i] != 0.0);
        }
        self.link
            .allocate_ordered(demands, &self.order[..active], dt, &mut self.shares);
        let rtt = self.link.rtt_s();
        let loss = self.link.loss();

        // Session progress: the arena's three-pass column sweep steps
        // every session with *its own* share, appends finished records,
        // refreshes survivors' demands while their state is hot in
        // cache, and retires finished slots from its peak order (see
        // `ClientArena::step_all`). The active allocation order doubles
        // as the download pass's worklist: idle sessions hold zero
        // demand and zero share, so the arena can skip them.
        let now_next = self.now_s + dt;
        self.arena.step_all(
            &self.cfg,
            &self.ladder,
            &self.shares,
            &self.order[..active],
            rtt,
            loss,
            now_next,
            dt,
            &mut self.records,
        );

        // Hourly accumulators.
        self.acc_util += self.link.utilization();
        self.acc_rtt += rtt;
        self.acc_conc += self.arena.live_sessions() as f64;
        self.acc_loss += loss;
        self.acc_ticks += 1;

        self.now_s += dt;
    }

    /// Hour rollover: close the hourly statistics window if the clock
    /// has left it, and return the clock's `(day, hour)`. Idempotent
    /// within an hour.
    pub(crate) fn roll_hour(&mut self) -> (usize, usize) {
        let day = DiurnalDemand::day_index(self.now_s);
        let hour = DiurnalDemand::hour_of_day(self.now_s);
        if (day, hour) != self.current_hour && self.acc_ticks > 0 {
            self.flush_hour();
        }
        self.current_hour = (day, hour);
        (day, hour)
    }

    pub(crate) fn flush_hour(&mut self) {
        let n = self.acc_ticks.max(1) as f64;
        self.hourly.push(HourlyLinkStats {
            day: self.current_hour.0,
            hour: self.current_hour.1,
            utilization: self.acc_util / n,
            rtt_s: self.acc_rtt / n,
            concurrent: self.acc_conc / n,
            loss: self.acc_loss / n,
        });
        self.acc_util = 0.0;
        self.acc_rtt = 0.0;
        self.acc_conc = 0.0;
        self.acc_loss = 0.0;
        self.acc_ticks = 0;
    }

    /// Run to the configured horizon on the event engine and return all
    /// session records plus hourly link statistics.
    pub fn run(self) -> (Vec<SessionRecord>, Vec<HourlyLinkStats>) {
        self.run_with(EngineBackend::Event)
    }

    /// Run to the configured horizon on the selected engine backend.
    ///
    /// [`EngineBackend::Event`] is [`LinkSim::run`];
    /// [`EngineBackend::Tick`] is the reference tick loop, kept as the
    /// oracle the event engine is checked against. The event engine
    /// reproduces the tick loop's [`SessionRecord`]s bit-identically and
    /// its [`HourlyLinkStats`] to within a ≤1e-9 relative
    /// re-association tolerance (see [`crate::engine`]).
    pub fn run_with(self, backend: EngineBackend) -> (Vec<SessionRecord>, Vec<HourlyLinkStats>) {
        self.run_from(ArrivalSource::Demand, backend)
    }

    /// Run to the horizon taking arrivals from `source` on `backend`.
    ///
    /// Every run passes through here, so this is where the config is
    /// checked: panics on an invalid [`StreamConfig`] (see
    /// [`StreamConfig::validate`]), which would otherwise run to a
    /// meaningless result or not terminate.
    pub(crate) fn run_from(
        self,
        source: ArrivalSource<'_>,
        backend: EngineBackend,
    ) -> (Vec<SessionRecord>, Vec<HourlyLinkStats>) {
        if let Err(e) = self.cfg.validate() {
            panic!("LinkSim::run: {e}");
        }
        match backend {
            EngineBackend::Tick => crate::engine::run_tick(self, source),
            EngineBackend::Event => crate::engine::run_event(self, source),
        }
    }
}

/// Arrival-rate multipliers per paired link (paper: 50.8% vs 49.2% ⇒
/// roughly 1.03 : 0.97 around the mean).
const ARRIVAL_BIAS: [f64; 2] = [1.01, 0.99];

/// Rebuffer-noise bias per paired link (paper: link 1 rebuffers ~20%
/// more).
const REBUFFER_BIAS: [f64; 2] = [1.3, 1.0];

/// The paired-link world: two statistically similar links driven by
/// *independent draws from the same demand process*, with the paper's
/// small imbalances (§4.1: slightly more traffic and a rebuffer quirk
/// on link 1).
pub struct PairedSim {
    /// Shared configuration (each link applies its bias on top).
    pub cfg: StreamConfig,
    /// Allocation schedule per link.
    pub schedules: [AllocationSchedule; 2],
    /// Root seed.
    pub seed: u64,
}

impl PairedSim {
    /// Run both links (sequentially; each has its own RNG stream) and
    /// return the session records of link 1, then link 2.
    pub fn run(self) -> Vec<SessionRecord> {
        let mut root = SimRng::new(self.seed);
        let seeds = [root.next_u64(), root.next_u64()];
        let mut all = Vec::new();
        for (idx, link_id) in [LinkId::One, LinkId::Two].into_iter().enumerate() {
            let mut cfg = self.cfg.clone();
            cfg.peak_arrivals_per_s *= ARRIVAL_BIAS[idx];
            cfg.rebuffer_bias = REBUFFER_BIAS[idx];
            let sim = LinkSim::new(cfg, link_id, self.schedules[idx].clone(), seeds[idx]);
            all.append(&mut sim.run().0);
        }
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small, fast world: one day, modest load, scaled-down link.
    /// Arrivals scale with capacity so the congestion regime matches the
    /// default configuration's (peak demand ≈ 1.2× capacity uncapped).
    fn small_cfg() -> StreamConfig {
        StreamConfig {
            days: 1,
            peak_arrivals_per_s: 0.24 * 0.4,
            capacity_bps: 400e6,
            mean_watch_s: 1500.0,
            ..Default::default()
        }
    }

    #[test]
    fn sessions_complete_and_record() {
        let sim = LinkSim::new(small_cfg(), LinkId::One, AllocationSchedule::none(), 1);
        let (records, hourly) = sim.run();
        assert!(records.len() > 1000, "records {}", records.len());
        assert_eq!(hourly.len(), 24);
        // Sanity: all records carry valid hours/days and positive bytes
        // for non-cancelled sessions.
        for r in &records {
            assert!(r.hour < 24);
            assert_eq!(r.day, 0);
            if !r.cancelled {
                assert!(r.bytes > 0.0, "{r:?}");
                assert!(r.bitrate_bps >= 235e3);
            }
        }
    }

    #[test]
    fn peak_hours_are_congested() {
        let cfg = small_cfg();
        let sim = LinkSim::new(cfg, LinkId::One, AllocationSchedule::none(), 2);
        let (_, hourly) = sim.run();
        let peak = &hourly[20]; // 20:00
        let trough = &hourly[4]; // 04:00
        assert!(peak.utilization > 0.95, "peak util {}", peak.utilization);
        assert!(
            trough.utilization < 0.5,
            "trough util {}",
            trough.utilization
        );
        assert!(peak.rtt_s > trough.rtt_s, "queueing delay at peak");
    }

    #[test]
    fn capping_everyone_reduces_congestion() {
        // The headline mechanism: at high allocation the link carries the
        // same users with less traffic, so peak RTT and loss drop.
        let cfg = small_cfg();
        let uncapped = LinkSim::new(
            cfg.clone(),
            LinkId::One,
            AllocationSchedule::Constant(0.0),
            3,
        );
        let capped = LinkSim::new(cfg, LinkId::One, AllocationSchedule::Constant(0.95), 3);
        let (_, h_un) = uncapped.run();
        let (_, h_cap) = capped.run();
        let peak_rtt_un: f64 = (18..23).map(|h| h_un[h].rtt_s).sum::<f64>() / 5.0;
        let peak_rtt_cap: f64 = (18..23).map(|h| h_cap[h].rtt_s).sum::<f64>() / 5.0;
        assert!(
            peak_rtt_cap < peak_rtt_un * 0.9,
            "capped peak RTT {peak_rtt_cap} vs uncapped {peak_rtt_un}"
        );
    }

    #[test]
    fn allocation_fraction_respected() {
        let sim = LinkSim::new(
            small_cfg(),
            LinkId::One,
            AllocationSchedule::Constant(0.3),
            4,
        );
        let (records, _) = sim.run();
        let treated = records.iter().filter(|r| r.treated).count() as f64;
        let frac = treated / records.len() as f64;
        assert!((frac - 0.3).abs() < 0.03, "frac {frac}");
    }

    /// Baseline similarity of the paired links, asserted as a
    /// **multi-seed pass fraction** instead of a single-seed boolean.
    /// The single-seed version of this test was reseeded twice (PR 1:
    /// 7→9 after an estimator change; PR 2: margin +0.04) because every
    /// RNG-trajectory change re-rolls one marginal statistical draw.
    /// Running a small battery of seeds and asserting on the pass
    /// fraction makes the test robust to trajectory changes while still
    /// catching real symmetry regressions: a genuinely broken pairing
    /// fails *every* seed, a re-rolled marginal seed fails one.
    #[test]
    fn paired_links_similar_at_baseline() {
        // Scaled to 0.2 so the 8-seed battery stays affordable in debug
        // test runs (the per-seed checks get noisier, which the pass
        // threshold below accounts for).
        let cfg = StreamConfig {
            days: 1,
            peak_arrivals_per_s: 0.24 * 0.2,
            capacity_bps: 200e6,
            mean_watch_s: 1500.0,
            ..Default::default()
        };
        const SEEDS: u64 = 8;
        // Measured over seeds 0..8 at this config (PR 3 trajectory):
        // 7/8 seeds pass all three checks — volume ratios 0.95–1.05,
        // throughput ratios within ±9%, rebuffer-rate gaps −0.7 to
        // +2.4 pp (seed 7 re-rolled the rebuffer direction). Demanding
        // 6/8 leaves room for one more marginal re-roll before flaking.
        const PASS_MIN: usize = 6;
        let mut passes = 0usize;
        for seed in 0..SEEDS {
            let paired = PairedSim {
                cfg: cfg.clone(),
                schedules: [AllocationSchedule::none(), AllocationSchedule::none()],
                seed,
            };
            let sessions = paired.run();
            let (l1, l2): (Vec<_>, Vec<_>) = sessions.iter().partition(|r| r.link == LinkId::One);
            assert!(!l1.is_empty() && !l2.is_empty());
            // Similar session volumes (within the ~2% bias + noise)...
            let volume_ratio = l1.len() as f64 / l2.len() as f64;
            // ...similar mean throughput...
            let t1: f64 = l1.iter().map(|r| r.throughput_bps).sum::<f64>() / l1.len() as f64;
            let t2: f64 = l2.iter().map(|r| r.throughput_bps).sum::<f64>() / l2.len() as f64;
            let tput_ratio = t1 / t2;
            // ...but link 1 rebuffers more (the §4.1 quirk).
            let rb1: f64 = l1.iter().map(|r| r.rebuffer_indicator()).sum::<f64>() / l1.len() as f64;
            let rb2: f64 = l2.iter().map(|r| r.rebuffer_indicator()).sum::<f64>() / l2.len() as f64;
            let ok =
                (0.9..1.25).contains(&volume_ratio) && (tput_ratio - 1.0).abs() < 0.1 && rb1 > rb2;
            // Margins stay visible in `--nocapture` runs so the next
            // trajectory change can recalibrate without archaeology.
            println!(
                "seed {seed}: volume {volume_ratio:.3}, throughput {tput_ratio:.3}, \
                 rebuffer {rb1:.4} vs {rb2:.4} => {}",
                if ok { "pass" } else { "FAIL" }
            );
            passes += usize::from(ok);
        }
        assert!(
            passes >= PASS_MIN,
            "baseline similarity held on only {passes}/{SEEDS} seeds (need {PASS_MIN})"
        );
    }

    /// Regression test for the swap_remove share-misalignment bug: when
    /// a short session finished mid-tick, the last client was moved into
    /// its slot and stepped with the *finished* client's share. Survivor
    /// outcomes must be independent of the order clients were inserted
    /// in (the allocator is permutation-equivariant), so reversing the
    /// insertion order is a permutation-independent oracle: per-session
    /// records must be bit-identical either way.
    #[test]
    fn survivor_records_independent_of_insertion_order() {
        // One short session with a *small* access line (so its share is
        // strictly below the survivors') plus two long sessions with big
        // access lines, no background arrivals, ample capacity.
        let base = StreamConfig {
            days: 1,
            peak_arrivals_per_s: 1e-15, // effectively no Poisson arrivals
            capacity_bps: 100e6,
            access_sigma: 0.01,
            ..Default::default()
        };
        let ladder = Ladder::new(base.ladder_bps.clone());
        // `hour` doubles as a session id so records can be matched up.
        let make = |id: usize, mean_watch_s: f64, access_bps: f64| {
            let cfg = StreamConfig {
                mean_watch_s,
                access_median_bps: access_bps,
                ..base.clone()
            };
            Client::new(
                &cfg,
                &ladder,
                LinkId::One,
                0,
                id,
                false,
                0.0,
                false,
                access_bps,
                SimRng::new(1000 + id as u64),
            )
        };
        let run = |ids: &[usize]| {
            let mut sim = LinkSim::new(base.clone(), LinkId::One, AllocationSchedule::none(), 77);
            for &id in ids {
                // id 0 is the short session on a slow line; the rest are
                // long sessions on fast lines.
                let (watch, access) = if id == 0 {
                    (1.0, 1_200e3)
                } else {
                    (4000.0, 9e6)
                };
                sim.arena.push(&sim.cfg, make(id, watch, access));
            }
            for _ in 0..20_000 {
                sim.step();
            }
            let mut recs = sim.records.clone();
            assert_eq!(recs.len(), ids.len(), "all sessions should finish");
            recs.sort_by_key(|r| r.hour);
            recs
        };
        let forward = run(&[0, 1, 2]);
        let reversed = run(&[2, 1, 0]);
        assert_eq!(forward, reversed);
    }

    /// Regression: an empty `PerDay` schedule silently allocated 0.0
    /// forever; construction must now reject it loudly.
    #[test]
    #[should_panic(expected = "LinkSim::new: config field out of range: PerDay")]
    fn empty_per_day_schedule_rejected() {
        let _ = LinkSim::new(
            small_cfg(),
            LinkId::One,
            AllocationSchedule::PerDay(vec![]),
            1,
        );
    }

    /// Single-link runs check their config like fleet runs do.
    #[test]
    #[should_panic(expected = "LinkSim::run: config field out of range: days")]
    fn invalid_config_rejected_at_run() {
        let cfg = StreamConfig {
            days: 0,
            ..small_cfg()
        };
        let _ = LinkSim::new(cfg, LinkId::One, AllocationSchedule::none(), 1).run();
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let sim = LinkSim::new(
                small_cfg(),
                LinkId::One,
                AllocationSchedule::Constant(0.5),
                seed,
            );
            let (records, _) = sim.run();
            (records.len(), records.iter().map(|r| r.bytes).sum::<f64>())
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }
}
