//! Link engines: the hybrid tick/event engine every simulator run
//! goes through, and the reference tick loop it is checked against.
//!
//! [`LinkSim::run`], `PairedSim::run`, `run_fleet_link`, `FleetSim::run`
//! and fleet sweeps all run the event engine ([`EngineBackend::Event`]).
//! The tick loop ([`LinkSim::step`]) pays O(active sessions) every tick
//! even when nothing allocation-relevant happens; it stays as the
//! bit-exactness oracle, reachable only through
//! [`LinkSim::run_with`] with [`EngineBackend::Tick`], and as the
//! coupled tick the event engine falls back to. The event engine
//! advances the world *span-wise*: it pre-scans the arrival process —
//! consuming the arrival RNG in the tick loop's own draw order — and
//! *folds* each arrival into the span whenever its peak demand keeps
//! the span's fit proof alive, so spans stretch to the next
//! allocation-*breaking* macro event: an unfoldable arrival burst, an
//! hour boundary (statistics flush + diurnal-rate change), or the
//! horizon. The gap replays in one session-major pass
//! (`ClientArena::replay_span`). A burst or hour boundary then runs as
//! one coupled *terminator* tick (`LinkSim::step_tick_prescanned`, on
//! the burst's pre-drawn arrivals), whose hour rollover flushes the
//! statistics before the arrivals are injected, as the tick loop does;
//! the horizon needs nothing, as the run loop's own condition ends it.
//! A span ends at one such event at most, so no event calendar is
//! needed.
//!
//! # Arrivals
//!
//! Both engines take each tick's arrivals from one `ArrivalSource`:
//! the link's own demand process, or a routed stream (see
//! [`crate::routing`]). `ArrivalSource::take` is the only place
//! arrival randomness is drawn, in the tick loop's order — the Poisson
//! count, then per arrival the arm Bernoulli and the RNG fork — and it
//! prices each arrival's peak demand on the way. Every tick's arrivals
//! are taken exactly once, in increasing tick order, whichever engine
//! runs and whichever mode a tick lands in.
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
//!   validation and no snapshot;
//! - **optimistic decoupled** — queue empty and Σ peak ≤
//!   `OPTIMISTIC_BETA` × capacity: full-buffer idling usually keeps
//!   *actual* aggregate demand under the bound even when the peak sum
//!   is above it. The replay records per-tick aggregate demand, the
//!   arena snapshots its columns on entry, and a failed post-hoc
//!   validation restores that snapshot. The validated prefix before
//!   the first failing tick is provably fitting, so it is salvaged by
//!   an unvalidated re-replay; only the tail re-runs through the coupled
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
//! they agree to ≤1e-9 *relative* rather than bitwise. Figures and
//! estimators read session records only, so they are bit-identical on
//! either engine; no output depends on the hourly tolerance.

use crate::arena::{SpanArrival, SpanArrivalCtx, SpanResult, SpanStats};
use crate::client::draw_session_head;
use crate::demand::DiurnalDemand;
use crate::routing::RoutedArrival;
use crate::session::SessionRecord;
use crate::sim::{HourlyLinkStats, LinkSim};
use dessim::SimRng;

/// Which backend [`LinkSim::run_with`] drives the world with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineBackend {
    /// The reference per-tick loop — the bit-exactness oracle that
    /// tests and the benchmark compare against.
    Tick,
    /// The hybrid tick/event driver: decoupled spans between
    /// allocation-changing macro events, the tick loop everywhere else.
    /// Every production run uses it.
    Event,
}

/// Optimistic spans are attempted while Σ peak demand ≤ β × capacity:
/// full-buffer sessions idle roughly a third of their ticks in steady
/// state, so actual demand clears the fit bound well above Σ peak ==
/// capacity. Past 2× even a perfectly staggered population cannot fit,
/// and the span snapshot would be pure waste.
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
/// tail) and the per-tick-demand bookkeeping. Guaranteed spans
/// carry no such risk and run uncapped to the hour boundary.
const OPT_SPAN_CAP: usize = 128;

/// Post-replay bookkeeping for a committed span of `span` ticks ending
/// at `now_end` (the arena has already retired the span's finished
/// sessions and ordered its surviving arrivals): fold the span into the
/// hourly accumulators (re-associated per session: the ≤1e-9 side of
/// the exactness contract; loss is exactly zero throughout a decoupled
/// span) and the clock.
fn commit_span(
    sim: &mut LinkSim,
    stats: &SpanStats,
    rtt: f64,
    capacity: f64,
    span: usize,
    now_end: f64,
) {
    sim.acc_util += stats.demand_ticks_bps / capacity;
    sim.acc_rtt += rtt * span as f64;
    sim.acc_conc += stats.alive_ticks as f64;
    sim.acc_ticks += span;
    sim.now_s = now_end;
}

/// Where a link's arriving sessions come from.
pub(crate) enum ArrivalSource<'a> {
    /// The link's own demand process, drawn from [`LinkSim`]'s RNG.
    Demand,
    /// A routed stream sorted by global tick (see [`crate::routing`]),
    /// consumed through a monotone cursor: the router already drew the
    /// arm Bernoullis and forks, and the link's RNG is never touched, so
    /// per-link state stays independent of every other link.
    Routed {
        list: &'a [RoutedArrival],
        next: usize,
    },
}

impl ArrivalSource<'_> {
    /// Append the arrivals of the tick starting at `t` to `out`, tagged
    /// with span-local tick `span_tick`, and return their summed peak
    /// demand. The demand source draws the Poisson count, then each
    /// arrival's arm Bernoulli (under the allocation of `t`'s day) and
    /// RNG fork; the routed source takes the router's pre-drawn
    /// arrivals for the same tick. Either way each arrival's peak is
    /// priced from a clone of its forked stream.
    pub(crate) fn take(
        &mut self,
        sim: &mut LinkSim,
        t: f64,
        span_tick: u32,
        out: &mut Vec<SpanArrival>,
    ) -> f64 {
        let dt = sim.cfg.dt_s;
        let mut add_peak = 0.0;
        let cfg = &sim.cfg;
        let mut push = |treated: bool, rng: SimRng| {
            let peak = draw_session_head(cfg, &mut rng.clone()).2;
            add_peak += peak;
            out.push(SpanArrival {
                tick: span_tick,
                treated,
                rng,
                peak,
            });
        };
        match self {
            ArrivalSource::Demand => {
                let n = sim.demand.arrivals(t, dt, &mut sim.rng);
                if n > 0 {
                    let p = sim.schedule.allocation(DiurnalDemand::day_index(t));
                    for _ in 0..n {
                        let treated = sim.rng.bernoulli(p);
                        push(treated, sim.rng.fork());
                    }
                }
            }
            ArrivalSource::Routed { list, next } => {
                // `t` is a repeated `+= dt` sum; rounding absorbs the
                // accumulated ulps, far below half a tick over any
                // horizon.
                let tick = (t / dt).round() as u64;
                while let Some(a) = list.get(*next) {
                    debug_assert!(a.tick as u64 >= tick, "routed arrival skipped");
                    if a.tick as u64 != tick {
                        break;
                    }
                    push(a.treated, a.rng.clone());
                    *next += 1;
                }
            }
        }
        add_peak
    }
}

/// The reference tick loop behind [`EngineBackend::Tick`]: one
/// [`LinkSim::tick`] after another to the horizon.
pub(crate) fn run_tick(
    mut sim: LinkSim,
    mut source: ArrivalSource<'_>,
) -> (Vec<SessionRecord>, Vec<HourlyLinkStats>) {
    let horizon = sim.cfg.horizon_s();
    while sim.now_s < horizon {
        sim.tick(&mut source);
    }
    finish(sim, &source)
}

/// Flush the last hourly window and hand back the run's outputs.
fn finish(
    mut sim: LinkSim,
    source: &ArrivalSource<'_>,
) -> (Vec<SessionRecord>, Vec<HourlyLinkStats>) {
    if sim.acc_ticks > 0 {
        sim.flush_hour();
    }
    if let ArrivalSource::Routed { list, next } = source {
        debug_assert_eq!(*next, list.len(), "unconsumed routed arrivals");
    }
    (sim.records, sim.hourly)
}

/// The hybrid tick/event engine behind [`EngineBackend::Event`]. The
/// span machinery is the same for either arrival source because both
/// observe the same contract — each tick's arrival randomness is
/// materialized exactly once, in strictly increasing tick order (the
/// span-cap break consumes nothing, and the rollback tail replays the
/// already-materialized `folded` arrivals).
pub(crate) fn run_event(
    mut sim: LinkSim,
    mut source: ArrivalSource<'_>,
) -> (Vec<SessionRecord>, Vec<HourlyLinkStats>) {
    let horizon = sim.cfg.horizon_s();
    let dt = sim.cfg.dt_s;
    let capacity = sim.link.capacity_bps();
    let fit_bound = sim.link.decoupled_fit_bound_bps();
    let optimistic_bound = capacity * OPTIMISTIC_BETA;
    // `nows[k]` is the time at the start of span tick `k`, produced by
    // the same repeated `+= dt` the tick loop does so the floats every
    // replayed tick sees are bitwise the loop's own.
    let mut nows: Vec<f64> = Vec::new();
    // Pre-drawn arrivals folded into the current span (span-local tick
    // order), and the terminator tick's own unfoldable arrivals.
    let mut folded: Vec<SpanArrival> = Vec::new();
    let mut carry: Vec<SpanArrival> = Vec::new();
    // Rollback backoff state (see [`BACKOFF_INITIAL_TICKS`]): run
    // `coupled_countdown` more ticks coupled before retrying optimism,
    // doubling `backoff` on each repeated failure; both reset when the
    // hour (and with it the arrival rate) changes.
    let mut coupled_countdown = 0u32;
    let mut backoff = BACKOFF_INITIAL_TICKS;
    let mut policy_hour = (usize::MAX, usize::MAX);

    while sim.now_s < horizon {
        // Hour rollover, hoisted from the tick: a span can be the first
        // work of a new hour (when the boundary itself was crossed by
        // coupled ticks), and its ticks must land in the new window.
        // Coupled ticks roll over inside the tick; that is idempotent.
        let (day, hour) = sim.roll_hour();

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
            let total_peak = sim.arena.total_peak_bps();
            if total_peak <= fit_bound {
                Some((None, total_peak))
            } else if total_peak <= optimistic_bound {
                // Current-demand gate: Σ peak over the fit bound is only
                // worth gambling on when the *actual* demand fits right
                // now — hovering load rarely recovers mid-span, and the
                // sum is O(population), paid only on this middle arm.
                if sim.arena.total_demand_bps() <= fit_bound {
                    Some((Some(fit_bound), total_peak))
                } else {
                    None
                }
            } else {
                None
            }
        };
        let Some((validate, mut total_peak)) = mode else {
            sim.tick(&mut source);
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
        nows.clear();
        nows.push(sim.now_s);
        folded.clear();
        carry.clear();
        let mut terminator = false;
        let mut k = 0usize;
        loop {
            let t = nows[k];
            if t >= horizon {
                break;
            }
            let (d, h) = (DiurnalDemand::day_index(t), DiurnalDemand::hour_of_day(t));
            if (d, h) != (day, hour) {
                // The boundary tick draws its arrivals (the hourly flush
                // consumes no randomness) with *its* day's arm share,
                // which differs from the span's at midnight, and runs as
                // the terminator tick, whose rollover flushes the hour
                // first, as the tick loop does.
                source.take(&mut sim, t, k as u32, &mut carry);
                terminator = true;
                break;
            }
            if k >= span_cap {
                // Optimistic length cap: stop *before* consuming this
                // tick's randomness — the next span's pre-scan redraws
                // it at the same stream position. No terminator tick.
                break;
            }
            let mark = folded.len();
            let add_peak = source.take(&mut sim, t, k as u32, &mut folded);
            if folded.len() > mark {
                if total_peak + add_peak > fold_bound {
                    // Unfoldable burst: these arrivals terminate the
                    // span and run coupled as the terminator tick.
                    carry.extend(folded.drain(mark..));
                    terminator = true;
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
            match sim.arena.replay_span(
                &sim.cfg,
                rtt,
                &nows,
                dt,
                validate,
                &folded,
                &actx,
                &mut sim.records,
            ) {
                SpanResult::Committed(stats) => {
                    commit_span(&mut sim, &stats, rtt, capacity, span, nows[span]);
                }
                SpanResult::RolledBack(kf) => {
                    // Validation failed at span tick `kf`; the arena is
                    // back at span entry. The prefix `[0, kf)` passed
                    // validation, so its decoupled fit is *proven*: an
                    // unvalidated re-replay (identical deterministic
                    // arithmetic, no snapshot, no gamble) salvages it.
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
                            rtt,
                            &nows[..kf + 1],
                            dt,
                            None,
                            &folded[..m],
                            &actx,
                            &mut sim.records,
                        ) {
                            SpanResult::Committed(stats) => {
                                commit_span(&mut sim, &stats, rtt, capacity, kf, nows[kf]);
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

        if terminator {
            sim.step_tick_prescanned(&carry);
        }
    }
    finish(sim, &source)
}
