//! Engine backends: the reference tick loop and the hybrid tick/event
//! driver.
//!
//! The tick loop ([`LinkSim::step`]) pays O(active sessions) every tick
//! even when nothing allocation-relevant happens. This module keeps that
//! loop verbatim as the bit-exactness oracle and adds a hybrid backend
//! that advances the world *span-wise*: it pre-scans the arrival
//! process — consuming the arrival RNG in the tick loop's own draw
//! order — and *folds* each arrival into the span whenever its peak
//! demand keeps the span's fit proof alive, so spans stretch to the
//! next allocation-*breaking* macro event: an unfoldable arrival
//! burst, an hour boundary (statistics flush + diurnal-rate change),
//! or the horizon. Terminators are scheduled on `dessim`'s calendar
//! [`EventQueue`] (whose FIFO tie-breaking reproduces the tick loop's
//! within-tick order: flush before arrivals), and the gap replays in
//! one session-major pass (`ClientArena::replay_span`).
//!
//! # Event taxonomy
//!
//! Allocation on this link changes only when the *set of demands*
//! changes or the link state moves. Demands are two-valued (peak or
//! zero — the invariant the allocation order already exploits), so the
//! events are:
//!
//! - **arrival**: a new session joins (Poisson process, rate constant
//!   within an hour). An arrival is *foldable*: its peak demand is a
//!   pure function of its private RNG stream, so the pre-scan prices it
//!   without constructing it and absorbs it into the span unless it
//!   breaks the span's fit bound;
//! - **exit**: a session finishes or abandons;
//! - **chunk boundary / rung switch**: a session's noise or bitrate
//!   changes its fill rate;
//! - **idle toggle**: a full-buffer session's demand flips between peak
//!   and zero;
//! - **hour boundary**: the diurnal arrival rate and the hourly
//!   statistics window roll over;
//! - **horizon**: the run ends.
//!
//! Only arrivals, hour boundaries and the horizon are *exogenous*; the
//! rest are per-session and — crucially — do not couple sessions while
//! the link is a fixed point. That is the decoupled-fit invariant
//! (`decoupled_fit_bound_bps`):
//! with an empty queue and
//! aggregate demand under capacity, water-filling is the identity
//! (every session is served exactly its demand, bitwise), overload is
//! exactly zero, so the queue stays empty, loss stays zero and RTT
//! stays at base. Under that invariant exits, chunk boundaries, rung
//! switches and idle toggles change *which* demands are served but
//! never *how much* any other session gets — so they need no global
//! re-allocation and are handled inside the span replay, per session.
//!
//! # Modes
//!
//! Per span the driver picks, in order:
//!
//! - **guaranteed decoupled** — queue empty and Σ peak demand ≤ the fit
//!   bound: demand can never exceed peak, so the span replays with no
//!   validation and no undo logging;
//! - **optimistic decoupled** — queue empty and Σ peak ≤
//!   `OPTIMISTIC_BETA` × capacity: full-buffer idling usually keeps
//!   *actual* aggregate demand under the bound even when the peak sum
//!   is above it. The replay records per-tick aggregate demand, an undo
//!   log snapshots every session, and a failed post-hoc validation
//!   rolls the span back. The validated prefix before the first
//!   failing tick is provably fitting, so it is salvaged by an
//!   unvalidated re-replay; only the tail re-runs through the coupled
//!   tick loop (injecting the pre-drawn arrivals, so the RNG stream is
//!   untouched), and an exponential backoff window suppresses the next
//!   optimistic attempt — near-capacity load that failed to fit once
//!   tends to keep hovering around the bound;
//! - **coupled** — anything else (standing queue, or load too high):
//!   the verbatim tick loop, one tick at a time.
//!
//! # Exactness contract
//!
//! [`SessionRecord`]s are **bit-identical** to the tick engine's in all
//! modes: decoupled spans replay term-for-term the same arithmetic on
//! the same values in the same per-session order (sessions interact
//! only through the link, which is a fixed point), the arrival RNG is
//! pre-drawn in the tick loop's own order, and record append order is
//! restored by (finish tick, slot) sorting. [`HourlyLinkStats`] are
//! means of per-tick sums that the span accumulates per-session
//! instead of per-tick — same values, different addition order — so
//! they agree to ≤1e-9 *relative* rather than bitwise; fleet-level
//! estimators consume session records only and inherit bit-identity.

use crate::abr::Ladder;
use crate::arena::{SpanArrival, SpanArrivalCtx, SpanResult, SpanStats};
use crate::config::StreamConfig;
use crate::demand::DiurnalDemand;
use crate::routing::RoutedArrival;
use crate::session::SessionRecord;
use crate::sim::{HourlyLinkStats, LinkSim};
use dessim::{EventQueue, SimRng, SimTime};

/// Which backend [`LinkSim::run_with`] drives the world with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineBackend {
    /// The reference per-tick loop — the bit-exactness oracle.
    Tick,
    /// The hybrid tick/event driver: decoupled spans between
    /// allocation-changing macro events, the tick loop everywhere else.
    Event,
}

/// Optimistic spans are attempted while Σ peak demand ≤ β × capacity:
/// full-buffer sessions idle roughly a third of their ticks in steady
/// state, so actual demand clears the fit bound well above Σ peak ==
/// capacity. Past 2× even a perfectly staggered population cannot fit,
/// and the undo log would be pure waste.
const OPTIMISTIC_BETA: f64 = 2.0;

/// After a rollback the driver runs coupled for this many ticks before
/// retrying optimism, doubling the window (up to
/// [`BACKOFF_MAX_TICKS`]) on each repeated failure within the hour.
/// A near-capacity load that failed to fit once often fits again within
/// seconds (sessions finish, buffers fill and idle), so blanket
/// pessimism for the rest of the hour throws away millions of decoupled
/// session-ticks; bounded retries cap the rollback waste at a few spans
/// per hour instead. The retry policy affects performance only — every
/// committed optimistic span is still validated against the fit bound.
const BACKOFF_INITIAL_TICKS: u32 = 64;

/// Ceiling for the rollback backoff window (see
/// [`BACKOFF_INITIAL_TICKS`]).
const BACKOFF_MAX_TICKS: u32 = 1024;

/// Length, in ticks, of an *optimistic* span. An optimistic span
/// gambles the whole replay on a post-hoc fit validation; the cap
/// bounds both the gamble (a rollback coupled-runs the unvalidated
/// tail) and the undo/per-tick-demand bookkeeping. Guaranteed spans
/// carry no such risk and run uncapped to the hour boundary.
const OPT_SPAN_CAP: usize = 128;

/// Exogenous macro events the span pre-scan schedules on the calendar
/// queue, keyed by span-local tick index. Coincident events (an hour
/// boundary tick that also draws arrivals) rely on FIFO tie-breaking to
/// replay the tick loop's within-tick order: flush, then arrivals.
enum MacroEvent {
    /// `(day, hour)` changed at this tick: flush the hourly window.
    HourBoundary,
    /// This tick's pre-drawn arrivals could not be folded into the span
    /// (or belong to an hour-boundary tick): execute the tick coupled,
    /// injecting them from the carried pre-drawn randomness.
    Arrivals,
    /// `now` reached the horizon: the run is over.
    Horizon,
}

/// The arriving session's peak demand, priced from a clone of its
/// forked RNG stream without constructing the client: the leading
/// [`Client::new`](crate::client::Client::new) draws in their exact
/// order, stopping at the access line (`initial_share_bps` feeds only
/// the non-random throughput estimate, so peak is share-independent).
/// The replay re-derives the peak through `Client::new` itself and
/// debug-asserts it matches bitwise.
fn clone_draw_peak(cfg: &StreamConfig, ladder: &Ladder, child: &SimRng) -> f64 {
    let mut r = child.clone();
    let _watch = r.exponential(1.0 / cfg.mean_watch_s);
    let _patience = r.exponential(1.0 / cfg.mean_patience_s);
    let access_bps = (cfg.access_median_bps * r.lognormal(0.0, cfg.access_sigma))
        .clamp(ladder.min_rate() * 1.5, cfg.session_max_bps);
    access_bps.min(cfg.session_max_bps)
}

/// Post-replay bookkeeping for a committed span of `span` ticks ending
/// at `now_end`: retire finished sessions from the allocation order,
/// binary-insert surviving folded arrivals (slots `base_n..`) on the
/// same peak key `LinkSim::inject` uses — in arrival order, so peak
/// ties land exactly as a tick-by-tick insertion would have — then
/// compact if due and fold the span into the hourly accumulators
/// (re-associated per session: the ≤1e-9 side of the exactness
/// contract; loss is exactly zero throughout a decoupled span) and the
/// clock.
fn commit_span(
    sim: &mut LinkSim,
    stats: &SpanStats,
    base_n: usize,
    rtt: f64,
    capacity: f64,
    span: usize,
    now_end: f64,
) {
    if stats.any_finished {
        let finished = &sim.finished;
        sim.by_peak.retain(|&i| !finished[i]);
    }
    {
        let peaks = sim.arena.peak_demands();
        for idx in base_n..sim.arena.len() {
            if !sim.finished[idx] {
                let peak = peaks[idx];
                let pos = sim.by_peak.partition_point(|&j| peaks[j] <= peak);
                sim.by_peak.insert(pos, idx);
            }
        }
    }
    if stats.any_finished && sim.arena.needs_compaction() {
        sim.arena.compact_stale(&mut sim.remap);
        let remap = &sim.remap;
        for o in &mut sim.by_peak {
            *o = remap[*o];
        }
    }
    sim.acc_util += stats.demand_ticks_bps / capacity;
    sim.acc_rtt += rtt * span as f64;
    sim.acc_conc += stats.alive_ticks as f64;
    sim.acc_ticks += span;
    sim.now_s = now_end;
}

/// Cursor over a link's routed arrival stream (sorted by global tick;
/// see [`crate::routing`]). Consuming an arrival converts the router's
/// pre-drawn randomness into the span representation: the same
/// [`SpanArrival`] the demand pre-scan would have produced, with the
/// peak priced from a clone of the forked stream. The cursor advances
/// monotonically, so — exactly like the demand RNG — each arrival's
/// randomness is consumed once, in tick order.
struct RoutedCursor<'a> {
    list: &'a [RoutedArrival],
    next: usize,
}

impl RoutedCursor<'_> {
    /// Append every arrival scheduled at global tick `tick` to `out`
    /// (tagged with span-local tick `span_tick`), returning the summed
    /// peak demand of the appended arrivals.
    fn take(
        &mut self,
        tick: u64,
        cfg: &StreamConfig,
        ladder: &Ladder,
        span_tick: u32,
        out: &mut Vec<SpanArrival>,
    ) -> f64 {
        let mut add_peak = 0.0;
        while let Some(a) = self.list.get(self.next) {
            debug_assert!(a.tick as u64 >= tick, "routed arrival skipped");
            if a.tick as u64 != tick {
                break;
            }
            let peak = clone_draw_peak(cfg, ladder, &a.rng);
            add_peak += peak;
            out.push(SpanArrival {
                tick: span_tick,
                treated: a.treated,
                rng: a.rng.clone(),
                peak,
            });
            self.next += 1;
        }
        add_peak
    }
}

/// The routed tick driver: the reference loop with the link's arrival
/// randomness replaced by the router's scheduled stream. Every tick is
/// [`LinkSim::step_tick_prescanned`] — the verbatim tick body minus the
/// demand draws — so the link's own RNG is never consumed.
pub(crate) fn run_tick_routed(
    mut sim: LinkSim,
    arrivals: &[RoutedArrival],
) -> (Vec<SessionRecord>, Vec<HourlyLinkStats>) {
    let horizon = sim.cfg.horizon_s();
    let mut cursor = RoutedCursor {
        list: arrivals,
        next: 0,
    };
    let mut buf: Vec<SpanArrival> = Vec::new();
    let mut tick = 0u64;
    while sim.now_s < horizon {
        buf.clear();
        cursor.take(tick, &sim.cfg, &sim.ladder, 0, &mut buf);
        sim.step_tick_prescanned(&buf);
        tick += 1;
    }
    if sim.acc_ticks > 0 {
        sim.flush_hour();
    }
    debug_assert_eq!(cursor.next, arrivals.len(), "unconsumed routed arrivals");
    (sim.records, sim.hourly)
}

/// The hybrid driver on a routed arrival stream (see
/// [`run_event_with`]).
pub(crate) fn run_event_routed(
    sim: LinkSim,
    arrivals: &[RoutedArrival],
) -> (Vec<SessionRecord>, Vec<HourlyLinkStats>) {
    run_event_with(
        sim,
        Some(RoutedCursor {
            list: arrivals,
            next: 0,
        }),
    )
}

/// The hybrid driver behind [`LinkSim::run_with`]
/// ([`EngineBackend::Event`]).
pub(crate) fn run_event(sim: LinkSim) -> (Vec<SessionRecord>, Vec<HourlyLinkStats>) {
    run_event_with(sim, None)
}

/// The hybrid tick/event driver, generic over where arrival randomness
/// comes from: `routed = None` draws the link's own demand process from
/// `sim.rng` (the pre-routing behavior, byte-for-byte); `Some(cursor)`
/// consumes a routed arrival stream instead and leaves `sim.rng`
/// untouched. The span machinery is identical either way because both
/// sources observe the same contract — each tick's arrival randomness
/// is materialized exactly once, in strictly increasing tick order
/// (the span-cap break consumes nothing, and the rollback tail replays
/// the already-materialized `folded` arrivals).
fn run_event_with(
    mut sim: LinkSim,
    mut routed: Option<RoutedCursor<'_>>,
) -> (Vec<SessionRecord>, Vec<HourlyLinkStats>) {
    let horizon = sim.cfg.horizon_s();
    let dt = sim.cfg.dt_s;
    let capacity = sim.link.capacity_bps();
    let fit_bound = sim.link.decoupled_fit_bound_bps();
    let optimistic_bound = capacity * OPTIMISTIC_BETA;
    let mut events: EventQueue<MacroEvent> = EventQueue::new();
    // `nows[k]` is the time at the start of span tick `k`, produced by
    // the same repeated `+= dt` the tick loop does so the floats every
    // replayed tick sees are bitwise the loop's own.
    let mut nows: Vec<f64> = Vec::new();
    // Pre-drawn arrivals folded into the current span (span-local tick
    // order), and the terminator tick's own unfoldable arrivals.
    let mut folded: Vec<SpanArrival> = Vec::new();
    let mut carry: Vec<SpanArrival> = Vec::new();
    // Scratch for routed coupled ticks (one tick's arrivals at a time).
    let mut coupled_buf: Vec<SpanArrival> = Vec::new();
    // Rollback backoff state (see [`BACKOFF_INITIAL_TICKS`]): run
    // `coupled_countdown` more ticks coupled before retrying optimism,
    // doubling `backoff` on each repeated failure; both reset when the
    // hour (and with it the arrival rate) changes.
    let mut coupled_countdown = 0u32;
    let mut backoff = BACKOFF_INITIAL_TICKS;
    let mut policy_hour = (usize::MAX, usize::MAX);

    'run: while sim.now_s < horizon {
        let day = DiurnalDemand::day_index(sim.now_s);
        let hour = DiurnalDemand::hour_of_day(sim.now_s);

        // Hour rollover, hoisted from the tick: a span can be the first
        // work of a new hour (when the boundary itself was crossed by
        // coupled ticks), and its ticks must land in the new window.
        // Coupled ticks re-check inside `step`; the check is idempotent.
        if (day, hour) != sim.current_hour && sim.acc_ticks > 0 {
            sim.flush_hour();
        }
        sim.current_hour = (day, hour);

        if (day, hour) != policy_hour {
            policy_hour = (day, hour);
            coupled_countdown = 0;
            backoff = BACKOFF_INITIAL_TICKS;
        }

        // Span-mode decision (see module docs). `None` = coupled,
        // `Some((None, Σpeak))` = guaranteed decoupled,
        // `Some((Some(bound), Σpeak))` = optimistic with post-hoc
        // validation against `bound`. The aggregate-peak sum is
        // O(population), so the coupled fast-outs come first: a
        // standing queue (peak hours are wall-to-wall coupled ticks) or
        // an open backoff window after a rollback skips it entirely.
        let mode = if sim.link.queue_depth_s() != 0.0 {
            None
        } else if coupled_countdown > 0 {
            coupled_countdown -= 1;
            None
        } else {
            let peaks = sim.arena.peak_demands();
            let total_peak: f64 = sim.by_peak.iter().map(|&i| peaks[i]).sum();
            if total_peak <= fit_bound {
                Some((None, total_peak))
            } else if total_peak <= optimistic_bound {
                // Current-demand gate: Σ peak over the fit bound is only
                // worth gambling on when the *actual* demand fits right
                // now — hovering load rarely recovers mid-span, and the
                // sum is O(population), paid only on this middle arm.
                let demands = sim.arena.demands();
                let total_demand: f64 = sim.by_peak.iter().map(|&i| demands[i]).sum();
                if total_demand <= fit_bound {
                    Some((Some(fit_bound), total_peak))
                } else {
                    None
                }
            } else {
                None
            }
        };
        let Some((validate, mut total_peak)) = mode else {
            match routed.as_mut() {
                None => sim.step(),
                Some(cursor) => {
                    let tick = (sim.now_s / dt).round() as u64;
                    coupled_buf.clear();
                    cursor.take(tick, &sim.cfg, &sim.ladder, 0, &mut coupled_buf);
                    sim.step_tick_prescanned(&coupled_buf);
                }
            }
            continue;
        };

        // Pre-scan the arrival process tick by tick — the tick loop's
        // own RNG draw order — folding each tick's arrivals into the
        // span while their (clone-priced) peak demands keep the span's
        // aggregate under the mode's bound. The span ends at the first
        // tick it cannot absorb: an arrival burst that breaks the
        // bound, an hour boundary, or the horizon. That terminator tick
        // is *not* replayed — it runs through the coupled loop after
        // the span commits, injecting the carried pre-drawn arrivals.
        let fold_bound = match validate {
            Some(_) => optimistic_bound,
            None => fit_bound,
        };
        let span_cap = match validate {
            Some(_) => OPT_SPAN_CAP,
            None => usize::MAX,
        };
        let p = sim.schedule.allocation(day);
        // Global tick index of the span's first tick, for the routed
        // cursor (dt is added repeatedly to `now_s`, so rounding absorbs
        // the accumulated ulps — far below half a tick over any horizon).
        let tick0 = (sim.now_s / dt).round() as u64;
        nows.clear();
        nows.push(sim.now_s);
        folded.clear();
        carry.clear();
        let mut k = 0usize;
        loop {
            let t = nows[k];
            if t >= horizon {
                events.push(SimTime::from_nanos(k as u64), MacroEvent::Horizon);
                break;
            }
            let (d, h) = (DiurnalDemand::day_index(t), DiurnalDemand::hour_of_day(t));
            if (d, h) != (day, hour) {
                events.push(SimTime::from_nanos(k as u64), MacroEvent::HourBoundary);
                // The boundary tick still draws its arrivals (the flush
                // consumes no randomness) — with *its* day's arm share,
                // which differs from the span's at midnight; FIFO
                // tie-breaking at equal times runs the flush first, as
                // the tick loop does.
                match routed.as_mut() {
                    None => {
                        let pb = sim.schedule.allocation(d);
                        let n = sim.demand.arrivals(t, dt, &mut sim.rng);
                        for _ in 0..n {
                            let treated = sim.rng.bernoulli(pb);
                            let rng = sim.rng.fork();
                            let peak = clone_draw_peak(&sim.cfg, &sim.ladder, &rng);
                            carry.push(SpanArrival {
                                tick: k as u32,
                                treated,
                                rng,
                                peak,
                            });
                        }
                    }
                    Some(cursor) => {
                        // The router already drew the boundary tick's
                        // arm Bernoullis with *its* day's allocation.
                        cursor.take(
                            tick0 + k as u64,
                            &sim.cfg,
                            &sim.ladder,
                            k as u32,
                            &mut carry,
                        );
                    }
                }
                events.push(SimTime::from_nanos(k as u64), MacroEvent::Arrivals);
                break;
            }
            if k >= span_cap {
                // Optimistic length cap: stop *before* consuming this
                // tick's randomness — the next span's pre-scan redraws
                // it at the same stream position. No terminator event.
                break;
            }
            let mark = folded.len();
            let add_peak = match routed.as_mut() {
                None => {
                    let n = sim.demand.arrivals(t, dt, &mut sim.rng);
                    let mut add = 0.0;
                    for _ in 0..n {
                        let treated = sim.rng.bernoulli(p);
                        let rng = sim.rng.fork();
                        let peak = clone_draw_peak(&sim.cfg, &sim.ladder, &rng);
                        add += peak;
                        folded.push(SpanArrival {
                            tick: k as u32,
                            treated,
                            rng,
                            peak,
                        });
                    }
                    add
                }
                Some(cursor) => cursor.take(
                    tick0 + k as u64,
                    &sim.cfg,
                    &sim.ladder,
                    k as u32,
                    &mut folded,
                ),
            };
            if folded.len() > mark {
                if total_peak + add_peak > fold_bound {
                    // Unfoldable burst: these arrivals terminate the
                    // span and run coupled as the terminator tick.
                    carry.extend(folded.drain(mark..));
                    events.push(SimTime::from_nanos(k as u64), MacroEvent::Arrivals);
                    break;
                }
                total_peak += add_peak;
            }
            nows.push(t + dt);
            k += 1;
        }

        // Replay the gap (the ticks strictly before the terminator).
        let span = nows.len() - 1;
        if span > 0 {
            let rtt = sim.link.rtt_s(); // empty queue: exactly base RTT
            let actx = SpanArrivalCtx {
                link_id: sim.link_id,
                day,
                hour,
                weekend: sim.demand.is_weekend(day),
                capacity_bps: capacity,
            };
            let base_n = sim.arena.len();
            match sim.arena.replay_span(
                &sim.cfg,
                &sim.ladder,
                rtt,
                &nows,
                dt,
                validate,
                &folded,
                &actx,
                &mut sim.records,
                &mut sim.finished,
            ) {
                SpanResult::Committed(stats) => {
                    commit_span(&mut sim, &stats, base_n, rtt, capacity, span, nows[span]);
                }
                SpanResult::RolledBack(kf) => {
                    // Validation failed at span tick `kf`; the arena is
                    // back at span entry. The prefix `[0, kf)` passed
                    // validation, so its decoupled fit is *proven*: an
                    // unvalidated re-replay (identical deterministic
                    // arithmetic, no undo, no gamble) salvages it.
                    // Only the tail runs coupled, injecting each tick's
                    // arrivals from the same pre-drawn randomness (the
                    // RNG stream is never re-consumed); back off before
                    // the next optimistic attempt.
                    coupled_countdown = backoff;
                    backoff = (backoff * 2).min(BACKOFF_MAX_TICKS);
                    let m = folded.partition_point(|a| (a.tick as usize) < kf);
                    if kf > 0 {
                        match sim.arena.replay_span(
                            &sim.cfg,
                            &sim.ladder,
                            rtt,
                            &nows[..kf + 1],
                            dt,
                            None,
                            &folded[..m],
                            &actx,
                            &mut sim.records,
                            &mut sim.finished,
                        ) {
                            SpanResult::Committed(stats) => {
                                commit_span(&mut sim, &stats, base_n, rtt, capacity, kf, nows[kf]);
                            }
                            SpanResult::RolledBack(_) => {
                                unreachable!("unvalidated replay cannot roll back")
                            }
                        }
                    }
                    let mut j = m;
                    for k in kf..span {
                        let mut g = j;
                        while g < folded.len() && folded[g].tick as usize == k {
                            g += 1;
                        }
                        sim.step_tick_prescanned(&folded[j..g]);
                        j = g;
                    }
                }
            }
        }

        // Dispatch the terminator in calendar order.
        while let Some((_, ev)) = events.pop() {
            match ev {
                MacroEvent::HourBoundary => {
                    // The flush half of the tick loop's hour rollover;
                    // the tick itself follows as a coincident
                    // `Arrivals` event.
                    let d = DiurnalDemand::day_index(sim.now_s);
                    let h = DiurnalDemand::hour_of_day(sim.now_s);
                    if (d, h) != sim.current_hour && sim.acc_ticks > 0 {
                        sim.flush_hour();
                    }
                    sim.current_hour = (d, h);
                }
                MacroEvent::Arrivals => sim.step_tick_prescanned(&carry),
                MacroEvent::Horizon => break 'run,
            }
        }
    }
    if sim.acc_ticks > 0 {
        sim.flush_hour();
    }
    if let Some(cursor) = &routed {
        debug_assert_eq!(cursor.next, cursor.list.len(), "unconsumed routed arrivals");
    }
    (sim.records, sim.hourly)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StreamConfig;
    use crate::scenario::AllocationSchedule;
    use crate::session::LinkId;

    fn assert_identical(cfg: StreamConfig, schedule: AllocationSchedule, seed: u64) {
        let (rt, ht) = LinkSim::new(cfg.clone(), LinkId::One, schedule.clone(), seed).run();
        let (re, he) =
            LinkSim::new(cfg, LinkId::One, schedule, seed).run_with(EngineBackend::Event);
        assert_eq!(rt.len(), re.len(), "record counts");
        for (i, (a, b)) in rt.iter().zip(&re).enumerate() {
            assert_eq!(a.link, b.link, "record {i}");
            assert_eq!(
                (a.day, a.hour, a.weekend, a.treated),
                (b.day, b.hour, b.weekend, b.treated),
                "record {i}"
            );
            assert_eq!(
                a.arrival_s.to_bits(),
                b.arrival_s.to_bits(),
                "record {i} arrival"
            );
            assert_eq!(
                a.throughput_bps.to_bits(),
                b.throughput_bps.to_bits(),
                "record {i} throughput {} vs {}",
                a.throughput_bps,
                b.throughput_bps
            );
            assert_eq!(
                a.min_rtt_s.to_bits(),
                b.min_rtt_s.to_bits(),
                "record {i} min_rtt {} vs {}",
                a.min_rtt_s,
                b.min_rtt_s
            );
            assert_eq!(
                a.play_delay_s.to_bits(),
                b.play_delay_s.to_bits(),
                "record {i} play_delay"
            );
            assert_eq!(
                a.bitrate_bps.to_bits(),
                b.bitrate_bps.to_bits(),
                "record {i} bitrate"
            );
            assert_eq!(
                a.quality.to_bits(),
                b.quality.to_bits(),
                "record {i} quality"
            );
            assert_eq!(a.bytes.to_bits(), b.bytes.to_bits(), "record {i} bytes");
            assert_eq!(
                a.retx_bytes.to_bits(),
                b.retx_bytes.to_bits(),
                "record {i} retx"
            );
            assert_eq!(
                a.duration_s.to_bits(),
                b.duration_s.to_bits(),
                "record {i} duration"
            );
            assert_eq!(
                (a.rebuffer_count, a.rebuffered, a.cancelled, a.switches),
                (b.rebuffer_count, b.rebuffered, b.cancelled, b.switches),
                "record {i}"
            );
        }
        assert_eq!(ht.len(), he.len(), "hourly counts");
        for (a, b) in ht.iter().zip(&he) {
            assert_eq!((a.day, a.hour), (b.day, b.hour));
            let close = |x: f64, y: f64| (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0);
            assert!(
                close(a.utilization, b.utilization),
                "util {} vs {}",
                a.utilization,
                b.utilization
            );
            assert!(close(a.rtt_s, b.rtt_s), "rtt {} vs {}", a.rtt_s, b.rtt_s);
            assert!(
                close(a.concurrent, b.concurrent),
                "conc {} vs {}",
                a.concurrent,
                b.concurrent
            );
            assert!(close(a.loss, b.loss), "loss {} vs {}", a.loss, b.loss);
        }
    }

    /// Light load: most of the day runs as guaranteed decoupled spans.
    #[test]
    fn event_matches_tick_light_load() {
        let cfg = StreamConfig {
            days: 1,
            peak_arrivals_per_s: 0.24 * 0.05,
            capacity_bps: 400e6,
            mean_watch_s: 1500.0,
            ..Default::default()
        };
        assert_identical(cfg, AllocationSchedule::Constant(0.5), 11);
    }

    /// Congested: the default demand/capacity ratio forces the full
    /// mode mix — coupled peak hours, optimistic shoulders (with
    /// rollbacks), guaranteed troughs.
    #[test]
    fn event_matches_tick_congested() {
        let cfg = StreamConfig {
            days: 1,
            peak_arrivals_per_s: 0.24 * 0.2,
            capacity_bps: 200e6,
            mean_watch_s: 1500.0,
            ..Default::default()
        };
        assert_identical(cfg, AllocationSchedule::Constant(0.5), 7);
    }
}
