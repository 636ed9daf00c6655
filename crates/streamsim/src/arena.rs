//! Struct-of-arrays storage for the active session population.
//!
//! The per-tick client pass used to iterate a `Vec<Client>` of ~230-byte
//! structs, pulling four cache lines per session to touch a dozen hot
//! floats. [`ClientArena`] stores those hot fields as parallel columns
//! (`Vec<f64>`/`Vec<u64>`/one-byte phases) so the tick streams over
//! contiguous memory, and keeps the cold per-session identity
//! ([`SessionRecord`] fields, patience, RNG) in side tables touched only
//! on events.
//!
//! The tick is split into three passes, each preserving the scalar
//! [`Client::step`] order *per client* (clients are independent within a
//! tick, so running the passes column-wise is bit-identical to stepping
//! each client alone):
//!
//! 1. a **download pass** over only the sessions that can be
//!    downloading (the caller's active list — idle sessions provably
//!    no-op, so they are skipped entirely), which collects
//!    chunk-boundary events into a scratch list;
//! 2. a **slow path** over the collected boundaries only (EWMA update,
//!    ziggurat noise redraw, ABR ladder walk, segment folding);
//! 3. a **phase pass** over everyone (startup/playing/rebuffering
//!    transitions, session completion) that also refreshes each
//!    survivor's next-tick demand while its state is in cache.
//!
//! Per-session minimum-RTT tracking is global rather than per client:
//! a monotone suffix-min stack over the tick RTT series answers "min
//! RTT over this session's lifetime" with one binary search at finish
//! (see `rtt_min_stack`), eliminating a load/compare per client-tick.
//!
//! The arena is the one owner of per-session state. Besides the columns
//! it keeps the *peak order* — the live slots sorted by peak demand,
//! from which `LinkSim` builds the allocator's order without a sort —
//! and retires, compacts and remaps it itself. An optimistic replay span
//! rolls back by restoring a snapshot of the columns taken on entry.
//!
//! `Client` remains the retained scalar reference implementation:
//! `tests/arena_oracle.rs` proves the arena's records, demand stream and
//! peak order bit-identical to stepping each `Client` individually
//! under random arrival/exit sequences.

use crate::abr::{perceptual_quality, Ladder};
use crate::client::{Client, Phase};
use crate::config::StreamConfig;
use crate::session::{LinkId, SessionRecord};
use dessim::SimRng;

/// Cold per-session state: record identity plus fields touched only on
/// phase transitions, kept out of the hot columns so the download pass
/// streams over exactly what it needs.
#[derive(Debug, Clone)]
struct Cold {
    link: LinkId,
    day: usize,
    hour: usize,
    weekend: bool,
    arrival_s: f64,
    treated: bool,
    patience_s: f64,
    play_delay_s: f64,
    rebuffer_count: u32,
    switches: u32,
    bitrate_time_product: f64,
    quality_time_product: f64,
}

/// Per-session chunk-boundary parameters, packed into one 24-byte row so
/// the boundary slow path pays a single gather instead of three spread
/// across the cold table. `permitted` is the session's permitted ladder
/// prefix (`Ladder::permitted_rungs_in(ladder, cap)`, the whole ladder when
/// untreated), precomputed once so every chunk's ABR walk skips the
/// per-rung ceiling comparisons.
#[derive(Debug, Clone, Copy)]
struct ChunkParams {
    sigma: f64,
    dip_prob: f64,
    permitted: usize,
}

/// Declares [`Columns`] from one field list, with the two operations
/// that take every column: `clone_from` (the optimistic-span snapshot
/// and its rollback) and `gather` (compaction). A column added to the
/// list is snapshotted and compacted with the rest.
macro_rules! columns {
    ($(#[$meta:meta])* struct Columns { $($(#[$doc:meta])* $field:ident: Vec<$ty:ty>,)* }) => {
        $(#[$meta])*
        struct Columns { $($(#[$doc])* $field: Vec<$ty>,)* }

        impl Clone for Columns {
            fn clone(&self) -> Columns {
                Columns { $($field: self.$field.clone(),)* }
            }

            // Column by column, so the destination's buffers are reused:
            // a derived `Clone` would allocate a fresh copy every span.
            fn clone_from(&mut self, src: &Columns) {
                $(self.$field.clone_from(&src.$field);)*
            }
        }

        impl Columns {
            /// Keep the rows `keep` (ascending old indices), in order.
            fn gather(&mut self, keep: &[u32]) {
                $(gather(&mut self.$field, keep);)*
            }
        }
    };
}

/// Move rows `keep` (ascending) to the front of `col` and drop the rest:
/// one branch-free gather per column (a per-column `retain` re-pays the
/// flag branch for every column).
fn gather<T: Clone>(col: &mut Vec<T>, keep: &[u32]) {
    for (new, &old) in keep.iter().enumerate() {
        col[new] = col[old as usize].clone();
    }
    col.truncate(keep.len());
}

columns! {
    /// Every per-session column: slot `i` of each belongs to the same
    /// session.
    #[derive(Debug, Default)]
    struct Columns {
        // Hot columns: read/written by the per-tick download or phase pass.
        phase: Vec<Phase>,
        buffer_s: Vec<f64>,
        bitrate: Vec<f64>,
        chunk_noise: Vec<f64>,
        chunk_progress_s: Vec<f64>,
        /// Access line (bits/s), clamped to the transport ceiling at
        /// construction, so it is also the session's peak demand: the one
        /// non-zero value `demand` ever takes.
        access_bps: Vec<f64>,
        watched_s: Vec<f64>,
        watch_target_s: Vec<f64>,
        bytes: Vec<f64>,
        retx_bytes: Vec<f64>,
        active_dl_s: Vec<f64>,
        /// Value of [`ClientArena::tick_count`] when the session was
        /// pushed: the start of its RTT observation window in
        /// `rtt_min_stack`, and the base of its ticks-alive count
        /// (`tick_count - push_tick`, needed only for the
        /// volume-independent retransmission term at finish), which
        /// saves a per-client counter increment every tick.
        push_tick: Vec<u64>,
        seg_play_ticks: Vec<u64>,
        /// Next-tick demand (bits/s), refreshed by the phase pass; the
        /// allocator reads this column directly.
        demand: Vec<f64>,
        // Event columns: touched only at chunk boundaries.
        throughput_est: Vec<f64>,
        chunk_params: Vec<ChunkParams>,
        rng: Vec<SimRng>,
        // Cold side table.
        cold: Vec<Cold>,
        /// Tombstones: finished sessions stay in place (demand zeroed,
        /// out of the peak order, skipped by the phase pass) until
        /// enough accumulate to amortize a whole-arena compaction — see
        /// `ClientArena::needs_compaction`.
        dead: Vec<bool>,
    }
}

/// The active session population in struct-of-arrays layout.
///
/// The arena is the one owner of per-session state: the index-aligned
/// columns, the peak-demand order over the live slots, and the
/// tombstones. Finished slots leave the peak order at the end of the
/// tick or span they finish in, and a deferred compaction later removes
/// them from every column order-preservingly and remaps the order.
#[derive(Debug, Default)]
pub struct ClientArena {
    cols: Columns,
    /// The live slots sorted by peak demand (`access_bps`), ties in slot
    /// order: binary insertion on push, retirement of finished slots,
    /// an order-preserving remap on compaction. Demands are two-valued
    /// (peak or zero), so filtering out the idle slots yields the
    /// ascending current-demand order the allocator takes, without a
    /// sort.
    by_peak: Vec<usize>,
    dead_count: usize,
    /// Scratch: chunk-boundary events collected by the download pass,
    /// as (index, effective rate) pairs.
    boundary: Vec<(u32, f64)>,
    /// Scratch for compaction: survivor indices, and the old→new index
    /// map the peak order follows.
    keep: Vec<u32>,
    remap: Vec<usize>,
    /// Monotone suffix-min structure over the per-tick RTT series:
    /// entries `(tick, rtt)` with both strictly ascending, where an
    /// entry's `rtt` is the minimum over every tick from its `tick` to
    /// now. Replaces a per-client min update (70M loads/compares on the
    /// five-day run) with amortized O(1) per *tick* plus one binary
    /// search per session finish; the result is the min over the same
    /// value set, hence bit-identical. Worst case (monotonically rising
    /// RTT forever) grows one entry per tick — a few MB over five days,
    /// accepted for the hot-loop win.
    rtt_min_stack: Vec<(u64, f64)>,
    /// Ticks stepped so far (incremented at the top of
    /// [`ClientArena::step_all`]); see `push_tick`.
    tick_count: u64,
    /// Scratch for the hybrid event engine's decoupled spans: per-tick
    /// aggregate demand recorded during an optimistic replay (the
    /// post-hoc validation input — see [`ClientArena::replay_span`]).
    span_demand: Vec<f64>,
    /// Scratch: records finished during a replay span, keyed by (global
    /// finish tick, slot) so commit can restore the tick loop's
    /// tick-major, slot-ordered append order.
    span_records: Vec<(u64, u32, SessionRecord)>,
    /// Scratch: per-span-tick finish counts, maintained while a span
    /// with folded arrivals replays so each arrival's injection-time
    /// live-session count — the input to its initial share estimate —
    /// can be reconstructed in arrival order.
    finishes_at: Vec<u32>,
    /// The columns as they stood on entry to the last optimistic span;
    /// a failed validation restores them. The tick clock, RTT suffix-min
    /// stack, tombstone count and records are written only at commit,
    /// and the peak order only gains the span's folded arrivals, so
    /// nothing else needs restoring.
    snapshot: Columns,
}

/// One arrival folded into a replay span (see
/// [`ClientArena::replay_span`]): the pre-drawn randomness the tick
/// loop would have consumed at the arrival tick — the arm Bernoulli and
/// the forked per-session stream — plus the session's peak demand,
/// which the engine pre-computed from a clone of `rng` (through
/// `client::draw_session_head`, the leading `Client::new` draws) to size
/// the span's demand envelope.
#[derive(Debug, Clone)]
pub(crate) struct SpanArrival {
    /// Span-local tick index the session arrives at (it is injected at
    /// the start of that tick, exactly like the tick loop's arrivals).
    pub tick: u32,
    /// Pre-drawn treatment-arm Bernoulli.
    pub treated: bool,
    /// The forked per-session RNG, unconsumed.
    pub rng: SimRng,
    /// Peak demand the engine derived from a clone of `rng`; the arena
    /// asserts it against the constructed client (the two must track
    /// `Client::new`'s draw order together).
    pub peak: f64,
}

/// Link-world identity a span's folded arrivals are constructed with:
/// constant across the span (spans never cross an hour boundary).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SpanArrivalCtx {
    pub link_id: LinkId,
    pub day: usize,
    pub hour: usize,
    pub weekend: bool,
    pub capacity_bps: f64,
}

/// Aggregates of a committed replay span, in the re-associated
/// (per-session, not per-tick) order the span computes them —
/// numerically within 1e-9 of the tick loop's per-tick accumulation,
/// which is the hourly-stats tolerance contract.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SpanStats {
    /// Σ over sessions of peak demand × ticks spent demanding; divided
    /// by capacity this is the span's utilization integral (every
    /// demanding session is served exactly its peak in a decoupled span).
    pub demand_ticks_bps: f64,
    /// Σ over ticks of the post-tick live-session count (the
    /// concurrency integral).
    pub alive_ticks: u64,
}

/// Outcome of [`ClientArena::replay_span`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum SpanResult {
    /// Every tick validated (or validation was not requested): session
    /// state, records, tombstones and the tick clock are committed.
    Committed(SpanStats),
    /// Optimistic validation failed: the carried tick (span-local, the
    /// first of its kind) saw aggregate demand above the decoupled-fit
    /// bound, so shares would not have been the identity from that tick
    /// on. Every session has been restored to span entry and nothing
    /// was emitted; the caller may salvage the validated prefix (its
    /// fit is now *proven*, so an unvalidated re-replay commits it)
    /// and must run the rest coupled.
    RolledBack(usize),
}

impl ClientArena {
    /// Empty arena.
    pub fn new() -> ClientArena {
        ClientArena::default()
    }

    /// Number of session slots, including tombstoned (dead) slots that
    /// have not been compacted away yet. Columns and the shares buffer
    /// are sized by this.
    pub fn len(&self) -> usize {
        self.cols.phase.len()
    }

    /// Whether the arena holds no session slots.
    pub fn is_empty(&self) -> bool {
        self.cols.phase.is_empty()
    }

    /// Number of live (not finished) sessions.
    pub fn live_sessions(&self) -> usize {
        self.len() - self.dead_count
    }

    /// Current per-session demands (bits/s), index-aligned with the
    /// arena. This is the column the bandwidth allocator consumes.
    pub fn demands(&self) -> &[f64] {
        &self.cols.demand
    }

    /// The live slots in ascending peak demand, ties in slot order.
    /// Filtered to the slots whose current demand is non-zero, it is the
    /// ascending demand order the bandwidth allocator takes.
    pub fn peak_order(&self) -> &[usize] {
        &self.by_peak
    }

    /// Σ peak demand over the live sessions, summed in peak order.
    pub(crate) fn total_peak_bps(&self) -> f64 {
        let peaks = &self.cols.access_bps;
        self.by_peak.iter().map(|&i| peaks[i]).sum()
    }

    /// Σ current demand over the live sessions, summed in peak order.
    pub(crate) fn total_demand_bps(&self) -> f64 {
        let demands = &self.cols.demand;
        self.by_peak.iter().map(|&i| demands[i]).sum()
    }

    /// Admit a fresh client: decompose it into the columns and insert
    /// its slot into the peak order. Its initial demand is whatever the
    /// scalar [`Client::demand`] reports.
    pub fn push(&mut self, cfg: &StreamConfig, client: Client) {
        // The download pass checks chunk boundaries only for sessions
        // that made progress this tick; that is sound because progress
        // is always below the chunk length between ticks.
        debug_assert!(
            client.chunk_progress_s < cfg.chunk_s,
            "client injected mid-boundary"
        );
        // `Client::new` clamps the access line to the transport
        // ceiling, so it doubles as the peak-demand column.
        debug_assert!(
            client.access_bps <= cfg.session_max_bps,
            "access line above the transport ceiling"
        );
        // The ticks-alive count starts at `push_tick`, and the record's
        // minimum RTT is taken over the ticks from there on; both hold
        // only for a client that has not been stepped.
        debug_assert!(
            client.ticks_alive == 0 && client.min_rtt_s == f64::INFINITY,
            "client stepped before push"
        );
        // Keyed on the session's peak demand, its access line (not its
        // current demand, which is zero for an idle client), after every
        // slot of equal or lower peak, live or dead: ties stay in slot
        // order.
        let peaks = &self.cols.access_bps;
        let pos = self
            .by_peak
            .partition_point(|&j| peaks[j] <= client.access_bps);
        self.by_peak.insert(pos, self.len());
        let demand_now = client.demand(cfg).rate_bps;
        let c = &mut self.cols;
        c.phase.push(client.phase);
        c.buffer_s.push(client.buffer_s);
        c.bitrate.push(client.bitrate);
        c.chunk_noise.push(client.chunk_noise);
        c.chunk_progress_s.push(client.chunk_progress_s);
        c.access_bps.push(client.access_bps);
        c.watched_s.push(client.watched_s);
        c.watch_target_s.push(client.watch_target_s);
        c.bytes.push(client.bytes);
        c.retx_bytes.push(client.retx_bytes);
        c.active_dl_s.push(client.active_dl_s);
        c.push_tick.push(self.tick_count);
        c.seg_play_ticks.push(client.seg_play_ticks);
        c.demand.push(demand_now);
        c.throughput_est.push(client.throughput_est);
        c.chunk_params.push(ChunkParams {
            sigma: client.noise_sigma,
            dip_prob: client.dip_prob,
            permitted: if client.treated {
                Ladder::permitted_rungs_in(&cfg.ladder_bps, cfg.cap_bps)
            } else {
                cfg.ladder_bps.len()
            },
        });
        c.rng.push(client.rng);
        c.dead.push(false);
        c.cold.push(Cold {
            link: client.link,
            day: client.day,
            hour: client.hour,
            weekend: client.weekend,
            arrival_s: client.arrival_s,
            treated: client.treated,
            patience_s: client.patience_s,
            play_delay_s: client.play_delay_s,
            rebuffer_count: client.rebuffer_count,
            switches: client.switches,
            bitrate_time_product: client.bitrate_time_product,
            quality_time_product: client.quality_time_product,
        });
    }

    /// Advance every session one tick given its allocated rate and the
    /// shared link state. Finished sessions' records are appended to
    /// `records`, and their slots leave the peak order.
    ///
    /// `downloaders` lists the sessions that may be downloading this
    /// tick — it must be duplicate-free and include every session whose
    /// share is positive and whose download gate is open (extra
    /// sessions are harmless: their download block no-ops exactly like
    /// the scalar skip). `LinkSim` passes its active allocation order;
    /// `0..len` is always a valid, conservative choice. Idle sessions
    /// provably transfer nothing (zero share ⇒ zero rate), so skipping
    /// them keeps the download pass proportional to the *active*
    /// population.
    ///
    /// Survivors' next-tick demands are refreshed in the
    /// [`ClientArena::demands`] column; finished sessions are
    /// tombstoned in place, and compacted away once enough have
    /// accumulated to amortize the whole-arena gather.
    #[allow(clippy::too_many_arguments)]
    pub fn step_all(
        &mut self,
        cfg: &StreamConfig,
        ladder: &Ladder,
        shares: &[f64],
        downloaders: &[usize],
        rtt_s: f64,
        loss: f64,
        now_s: f64,
        dt_s: f64,
        records: &mut Vec<SessionRecord>,
    ) {
        let n = self.len();
        debug_assert_eq!(shares.len(), n, "one share per session");
        // The permitted-rung prefixes in `chunk_params` were computed
        // from `cfg.ladder_bps` at push time; the ladder stepped with
        // must be the same one.
        debug_assert_eq!(ladder.rates(), &cfg.ladder_bps[..]);
        self.tick_count += 1;

        // Record this tick's RTT in the global suffix-min structure:
        // pop entries whose minima the new value subsumes, then push it
        // with the earliest tick it now covers. Amortized O(1).
        {
            let mut covers_from = self.tick_count;
            while let Some(&(t, v)) = self.rtt_min_stack.last() {
                if v >= rtt_s {
                    covers_from = t;
                    self.rtt_min_stack.pop();
                } else {
                    break;
                }
            }
            self.rtt_min_stack.push((covers_from, rtt_s));
        }

        // Destructure into same-length slices: with every column sliced
        // to `..n` the optimizer proves `i < n` once per indexed loop
        // and elides the per-access bounds checks.
        let ClientArena {
            cols,
            dead_count,
            boundary,
            rtt_min_stack,
            tick_count,
            ..
        } = self;
        let Columns {
            phase,
            buffer_s,
            bitrate,
            chunk_noise,
            chunk_progress_s,
            access_bps,
            watched_s,
            watch_target_s,
            bytes,
            retx_bytes,
            active_dl_s,
            push_tick,
            seg_play_ticks,
            demand,
            throughput_est,
            chunk_params,
            rng,
            cold,
            dead,
        } = cols;
        let rtt_min_stack = &rtt_min_stack[..];
        let tick_count = *tick_count;
        let shares = &shares[..n];
        let phase = &mut phase[..n];
        let buffer_s = &mut buffer_s[..n];
        let bitrate = &mut bitrate[..n];
        let chunk_noise = &mut chunk_noise[..n];
        let chunk_progress_s = &mut chunk_progress_s[..n];
        let access_bps = &access_bps[..n];
        let watched_s = &mut watched_s[..n];
        let watch_target_s = &watch_target_s[..n];
        let bytes = &mut bytes[..n];
        let retx_bytes = &mut retx_bytes[..n];
        let active_dl_s = &mut active_dl_s[..n];
        let push_tick = &push_tick[..n];
        let seg_play_ticks = &mut seg_play_ticks[..n];
        let demand = &mut demand[..n];
        let throughput_est = &mut throughput_est[..n];
        let chunk_params = &chunk_params[..n];
        let rng = &mut rng[..n];
        let cold = &mut cold[..n];
        let dead = &mut dead[..n];

        // Pass 1: download arithmetic, only over the sessions that can
        // transfer. The loss factors are tick-constant and hoisted; the
        // per-client expressions are term-for-term those of
        // `Client::step`. The chunk-boundary test lives inside the
        // `rate > 0` block because progress is below the chunk length
        // between ticks (a boundary resets it the tick it fires), so
        // only sessions that added progress this tick can cross; the
        // collection itself is branch-free — an unconditional write at
        // the list head plus a conditional advance (the same pattern as
        // `LinkSim`'s order build).
        let one_minus_loss = 1.0 - loss;
        let retx_factor = cfg.loss_floor + loss * cfg.loss_to_retx;
        let max_buffer_s = cfg.max_buffer_s;
        let chunk_s = cfg.chunk_s;
        if boundary.len() < n {
            boundary.resize(n, (0, 0.0));
        }
        let boundary_scratch = &mut boundary[..n];
        let mut n_boundary = 0usize;
        for &i in downloaders {
            let downloading = phase[i] != Phase::Playing || buffer_s[i] < max_buffer_s;
            if downloading {
                let rate = shares[i].min(access_bps[i]) * chunk_noise[i] * one_minus_loss;
                if rate > 0.0 {
                    let payload_bytes = rate * dt_s / 8.0;
                    bytes[i] += payload_bytes;
                    retx_bytes[i] += payload_bytes * retx_factor;
                    active_dl_s[i] += dt_s;
                    let video_s = rate * dt_s / bitrate[i];
                    buffer_s[i] += video_s;
                    let progress = chunk_progress_s[i] + video_s;
                    chunk_progress_s[i] = progress;
                    boundary_scratch[n_boundary] = (i as u32, rate);
                    n_boundary += usize::from(progress >= chunk_s);
                }
            }
        }

        // Pass 2 (slow path), split into two loops over the collected
        // boundaries. Pass 2a batches the RNG work: each session's two
        // draws (ziggurat normal, then the dip Bernoulli — the same
        // per-stream order as the scalar reference, so records stay
        // bit-identical) plus the `fast_exp` noise rebuild, touching
        // only the rng/chunk_params/chunk_noise columns. Pass 2b then
        // does the ABR bookkeeping (EWMA, ladder walk, segment fold)
        // with no RNG in the loop body. Measured interleaved old-vs-new
        // on the 1-vCPU reference box: five_day_default 1.370 s vs
        // 1.392 s means over six rounds — neutral within the ±5% noise
        // band (the hoped-for cross-session overlap of the serial
        // xoshiro chains did not show up as wall-clock). Kept because
        // the draw loop is now a self-contained batch point: a SIMD or
        // table-sharing sampler can replace pass 2a without touching
        // the ABR logic.
        for &(iu, _) in boundary_scratch[..n_boundary].iter() {
            let i = iu as usize;
            let p = chunk_params[i];
            let z = rng[i].standard_normal();
            let mut noise = dessim::fast_exp(-0.5 * p.sigma * p.sigma + p.sigma * z);
            // Rare difficulty dips: a transient collapse that can drain
            // the buffer (rebuffer driver independent of link congestion).
            if rng[i].bernoulli(p.dip_prob) {
                noise *= 0.12;
            }
            chunk_noise[i] = noise;
        }
        for &(iu, rate) in boundary_scratch[..n_boundary].iter() {
            let i = iu as usize;
            chunk_progress_s[i] = 0.0;
            // `rate > 0` held when the boundary was collected, but the
            // scalar reference guards the EWMA on it, so keep the guard
            // for exactness under future collection changes.
            if rate > 0.0 {
                throughput_est[i] = 0.8 * throughput_est[i] + 0.2 * rate;
            }
            let p = chunk_params[i];
            let next = ladder.select_from_top(p.permitted, throughput_est[i], cfg.abr_safety);
            if next != bitrate[i] {
                if phase[i] != Phase::Startup && (next - bitrate[i]).abs() > 1.0 {
                    cold[i].switches += 1;
                }
                fold_products(&mut seg_play_ticks[i], bitrate[i], &mut cold[i], dt_s);
                bitrate[i] = next;
            }
        }

        // Pass 3: phase transitions, completions (whose records pull
        // the session's minimum RTT out of the global suffix-min stack
        // — the min over the same per-tick values the scalar folds
        // incrementally, hence the same f64), and the fused demand
        // refresh for survivors.
        let mut any_finished = false;
        for i in 0..n {
            if dead[i] {
                continue; // tombstone awaiting compaction
            }
            match phase[i] {
                Phase::Startup => {
                    if buffer_s[i] >= cfg.startup_buffer_s {
                        phase[i] = Phase::Playing;
                        // Startup cost: fill time plus connection setup RTTs.
                        cold[i].play_delay_s = (now_s - cold[i].arrival_s) + 3.0 * rtt_s;
                    } else if now_s - cold[i].arrival_s > cold[i].patience_s {
                        records.push(finish_record(
                            FinishSlot {
                                ticks_alive: tick_count - push_tick[i],
                                watched_s: watched_s[i],
                                active_dl_s: active_dl_s[i],
                                min_rtt_s: window_min_rtt(rtt_min_stack, push_tick[i] + 1),
                                bitrate: bitrate[i],
                                seg_play_ticks: &mut seg_play_ticks[i],
                                bytes: bytes[i],
                                retx_bytes: &mut retx_bytes[i],
                                cold: &mut cold[i],
                            },
                            cfg,
                            dt_s,
                            now_s,
                            true,
                        ));
                        dead[i] = true;
                        *dead_count += 1;
                        // Dead slots are omitted from the allocation
                        // order, whose contract requires their demand
                        // to be zero.
                        demand[i] = 0.0;
                        any_finished = true;
                        continue;
                    }
                }
                Phase::Playing => {
                    watched_s[i] += dt_s;
                    buffer_s[i] -= dt_s;
                    seg_play_ticks[i] += 1;
                    if buffer_s[i] <= 0.0 {
                        buffer_s[i] = 0.0;
                        phase[i] = Phase::Rebuffering;
                        cold[i].rebuffer_count += 1;
                    }
                    if watched_s[i] >= watch_target_s[i] {
                        records.push(finish_record(
                            FinishSlot {
                                ticks_alive: tick_count - push_tick[i],
                                watched_s: watched_s[i],
                                active_dl_s: active_dl_s[i],
                                min_rtt_s: window_min_rtt(rtt_min_stack, push_tick[i] + 1),
                                bitrate: bitrate[i],
                                seg_play_ticks: &mut seg_play_ticks[i],
                                bytes: bytes[i],
                                retx_bytes: &mut retx_bytes[i],
                                cold: &mut cold[i],
                            },
                            cfg,
                            dt_s,
                            now_s,
                            false,
                        ));
                        dead[i] = true;
                        *dead_count += 1;
                        demand[i] = 0.0;
                        any_finished = true;
                        continue;
                    }
                }
                Phase::Rebuffering => {
                    if buffer_s[i] >= cfg.resume_buffer_s {
                        phase[i] = Phase::Playing;
                    }
                }
            }
            // Demand is two-valued: zero while idling on a full playback
            // buffer, the access line otherwise (see `Client::demand`).
            demand[i] = if phase[i] == Phase::Playing && buffer_s[i] >= max_buffer_s {
                0.0
            } else {
                access_bps[i]
            };
        }
        if any_finished {
            self.retire_finished();
        }
    }

    /// Drop the finished slots from the peak order, then compact if
    /// enough tombstones have accumulated: the end of every tick or
    /// committed span in which a session finished.
    fn retire_finished(&mut self) {
        let dead = &self.cols.dead;
        self.by_peak.retain(|&i| !dead[i]);
        if self.needs_compaction() {
            self.compact_stale();
        }
    }

    /// Whether enough tombstones have accumulated that a compaction
    /// pays for itself. The threshold (at least 32 dead and at least a
    /// quarter of the slots) amortizes the whole-arena gather over many
    /// finishes: per-tick compaction was ~10% of the five-day run.
    fn needs_compaction(&self) -> bool {
        self.dead_count >= 32 && 4 * self.dead_count >= self.len()
    }

    /// Remove every tombstoned slot from every column, preserving the
    /// order of survivors, and move the peak order to the new indices.
    /// The peak order holds live slots only (see `retire_finished`).
    fn compact_stale(&mut self) {
        let mut keep = std::mem::take(&mut self.keep);
        keep.clear();
        let remap = &mut self.remap;
        remap.clear();
        remap.resize(self.cols.dead.len(), usize::MAX);
        for (i, &done) in self.cols.dead.iter().enumerate() {
            if !done {
                remap[i] = keep.len();
                keep.push(i as u32);
            }
        }
        self.cols.gather(&keep);
        for o in &mut self.by_peak {
            *o = remap[*o];
        }
        self.dead_count = 0;
        self.keep = keep;
    }

    /// Advance every live session `nows.len() - 1` ticks *decoupled*:
    /// session-major instead of tick-major, each session stepped with
    /// its own demand as its share under link conditions frozen at
    /// `rtt_s` / zero loss. This is the hybrid event engine's span
    /// primitive (see [`crate::engine`]); the caller guarantees the
    /// decoupled-fit invariant ([`FluidLink::decoupled_fit_bound_bps`]
    /// — empty queue, aggregate demand under capacity) under which
    /// water-filling is the identity and the link state is a fixed
    /// point, so the per-tick arithmetic below — term-for-term the
    /// [`ClientArena::step_all`] passes with `share == peak demand`,
    /// `1 - loss == 1.0` — produces bit-identical session trajectories
    /// and records. Sessions only ever interact through the shared
    /// link, so reordering tick-major to session-major changes nothing;
    /// each session's RNG is a private stream, so per-stream draw order
    /// is preserved too.
    ///
    /// `nows[k]` is the simulation time at the *start* of span tick `k`
    /// — the tick loop's own repeated `now += dt` chain, which the
    /// caller extends rather than recomputes so the floats match
    /// bitwise; tick `k` sees `now_s = nows[k + 1]` in its phase pass,
    /// exactly like the coupled loop.
    ///
    /// With `validate_below = Some(bound)` the span is *optimistic*:
    /// the caller could not prove the fit from peak demands alone, so
    /// per-tick aggregate demand is accumulated during the replay and
    /// checked afterwards. On violation the columns are restored from
    /// the snapshot taken on entry, nothing is emitted, and
    /// [`SpanResult::RolledBack`] tells the caller to re-run the span
    /// coupled. With `None` the fit is guaranteed (aggregate *peak*
    /// demand fits, and demand never exceeds peak), so the snapshot and
    /// validation are skipped.
    ///
    /// `arrivals` (span-local tick order, pre-drawn randomness — see
    /// [`SpanArrival`]) are *folded into* the span: after every
    /// pre-existing session has replayed (wave 1), each arrival is
    /// constructed at its arrival tick with the exact live-session
    /// count the tick loop would have seen — reconstructed from wave
    /// 1's per-tick finish counts plus earlier arrivals' — injected at
    /// the arena tail (the tick loop's slot order) and into the peak
    /// order, and replayed over the rest of the span (wave 2). Wave 2
    /// runs in arrival order, so an earlier arrival's mid-span finish
    /// is visible to a later arrival's live count, exactly as in the
    /// coupled loop.
    ///
    /// On commit, finished sessions' records land in `records` in
    /// (finish tick, slot) order — the tick loop's append order — their
    /// slots are tombstoned and leave the peak order, and the tick
    /// clock and RTT suffix-min stack advance by the whole span in one
    /// transaction. Each arrival was inserted after every slot of equal
    /// or lower peak, so the survivors keep the order a tick-by-tick
    /// insertion would have given them. On rollback `records` is
    /// untouched and the injected arrivals are gone — the caller may
    /// salvage the prefix before the failing tick with an unvalidated
    /// re-replay (its fit is proven by the very validation that failed
    /// later) and re-runs the rest coupled, re-injecting from the same
    /// pre-drawn `arrivals`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn replay_span(
        &mut self,
        cfg: &StreamConfig,
        ladder: &Ladder,
        rtt_s: f64,
        nows: &[f64],
        dt_s: f64,
        validate_below: Option<f64>,
        arrivals: &[SpanArrival],
        actx: &SpanArrivalCtx,
        records: &mut Vec<SessionRecord>,
    ) -> SpanResult {
        let span = nows.len() - 1;
        let base_n = self.len();
        let base_live = self.live_sessions();
        debug_assert!(span > 0, "empty replay span");
        debug_assert_eq!(ladder.rates(), &cfg.ladder_bps[..]);
        let start_tick = self.tick_count;
        let validating = validate_below.is_some();
        let track_finishes = !arrivals.is_empty();

        let mut span_records = std::mem::take(&mut self.span_records);
        span_records.clear();
        let mut span_demand = std::mem::take(&mut self.span_demand);
        if validating {
            self.snapshot.clone_from(&self.cols);
            span_demand.clear();
            span_demand.resize(span, 0.0);
        }
        let mut finishes_at = std::mem::take(&mut self.finishes_at);
        if track_finishes {
            finishes_at.clear();
            finishes_at.resize(span, 0);
        }

        let mut demand_ticks_bps = 0.0f64;
        let mut alive_ticks = 0u64;
        let mut finished_now = 0usize;

        // Wave 1: every pre-existing live session replays the whole
        // span.
        for i in 0..base_n {
            if self.cols.dead[i] {
                continue; // tombstone awaiting compaction
            }
            let (demanding, done_at) = self.cols.replay_one(
                cfg,
                ladder,
                rtt_s,
                nows,
                dt_s,
                start_tick,
                i,
                0,
                validating,
                &mut span_demand,
                &mut span_records,
            );
            demand_ticks_bps += self.cols.access_bps[i] * demanding as f64;
            if let Some((k_done, _)) = done_at {
                alive_ticks += k_done as u64;
                finished_now += 1;
                if track_finishes {
                    finishes_at[k_done] += 1;
                }
            } else {
                alive_ticks += span as u64;
            }
        }

        // Wave 2: folded arrivals, in arrival order. `live` tracks the
        // live-session count at the walk position — the value
        // `LinkSim`'s tick would read for the initial-share estimate —
        // by subtracting finish counts as the walk passes their ticks.
        // Same-tick arrivals share one count taken *before* any of them
        // is injected, exactly like the tick loop's single
        // `share_now` read per tick.
        let mut live = base_live;
        let mut fin_cursor = 0usize;
        let mut j = 0usize;
        while j < arrivals.len() {
            let ka = arrivals[j].tick as usize;
            debug_assert!(ka < span, "arrival beyond span");
            while fin_cursor < ka {
                live -= finishes_at[fin_cursor] as usize;
                fin_cursor += 1;
            }
            let share_now = actx.capacity_bps / (live as f64 + 1.0).max(1.0);
            let mut g = j;
            while g < arrivals.len() && arrivals[g].tick as usize == ka {
                g += 1;
            }
            for a in &arrivals[j..g] {
                let client = Client::new(
                    cfg,
                    ladder,
                    actx.link_id,
                    actx.day,
                    actx.hour,
                    actx.weekend,
                    nows[ka],
                    a.treated,
                    share_now.min(cfg.session_max_bps),
                    a.rng.clone(),
                );
                let idx = self.len();
                // Push as of the arrival tick so the slot's push tick
                // (min-RTT window start, ticks-alive base) matches the
                // tick loop's; the span clock itself advances only at
                // commit.
                self.tick_count = start_tick + ka as u64;
                self.push(cfg, client);
                self.tick_count = start_tick;
                debug_assert_eq!(
                    self.cols.access_bps[idx].to_bits(),
                    a.peak.to_bits(),
                    "pre-scan peak diverged from Client::new draw order"
                );
                let (demanding, done_at) = self.cols.replay_one(
                    cfg,
                    ladder,
                    rtt_s,
                    nows,
                    dt_s,
                    start_tick,
                    idx,
                    ka,
                    validating,
                    &mut span_demand,
                    &mut span_records,
                );
                demand_ticks_bps += self.cols.access_bps[idx] * demanding as f64;
                if let Some((k_done, _)) = done_at {
                    alive_ticks += (k_done - ka) as u64;
                    finished_now += 1;
                    finishes_at[k_done] += 1;
                } else {
                    alive_ticks += (span - ka) as u64;
                }
            }
            live += g - j;
            j = g;
        }
        let failed = if validating {
            let bound = validate_below.unwrap();
            span_demand[..span].iter().position(|&d| d > bound)
        } else {
            None
        };
        let result = if let Some(kf) = failed {
            // The snapshot predates wave 2, so restoring it also drops
            // the folded arrivals pushed at the tail; their peak-order
            // entries are the only ones at or above the entry length.
            self.cols.clone_from(&self.snapshot);
            self.by_peak.retain(|&i| i < base_n);
            SpanResult::RolledBack(kf)
        } else {
            // Commit the arena-global state in one transaction. The RTT
            // suffix-min stack update is `span` identical per-tick pushes
            // collapsed into one: the first push (tick `start + 1`) pops
            // every entry with a value ≥ the span RTT and covers from
            // the earliest tick popped; the rest are no-ops.
            self.tick_count = start_tick + span as u64;
            let mut covers_from = start_tick + 1;
            while let Some(&(t, v)) = self.rtt_min_stack.last() {
                if v >= rtt_s {
                    covers_from = t;
                    self.rtt_min_stack.pop();
                } else {
                    break;
                }
            }
            self.rtt_min_stack.push((covers_from, rtt_s));
            self.dead_count += finished_now;
            span_records.sort_unstable_by_key(|r| (r.0, r.1));
            records.extend(span_records.drain(..).map(|r| r.2));
            if finished_now > 0 {
                self.retire_finished();
            }
            SpanResult::Committed(SpanStats {
                demand_ticks_bps,
                alive_ticks,
            })
        };
        self.span_records = span_records;
        self.span_demand = span_demand;
        self.finishes_at = finishes_at;
        result
    }
}

impl Columns {
    /// Replay one session (slot `i`) over span ticks `[k0, span)`: the
    /// per-session inner loop of [`ClientArena::replay_span`], shared
    /// by wave 1 (`k0 == 0`) and wave-2 folded arrivals (`k0` = the
    /// arrival tick). Writes the final state (and tombstone, on finish)
    /// back to the columns, pushes any finish record onto
    /// `span_records`, and returns the ticks spent demanding plus the
    /// span-local finish tick / cancel flag if the session ended.
    #[allow(clippy::too_many_arguments)]
    fn replay_one(
        &mut self,
        cfg: &StreamConfig,
        ladder: &Ladder,
        rtt_s: f64,
        nows: &[f64],
        dt_s: f64,
        start_tick: u64,
        i: usize,
        k0: usize,
        validating: bool,
        span_demand: &mut [f64],
        span_records: &mut Vec<(u64, u32, SessionRecord)>,
    ) -> (u64, Option<(usize, bool)>) {
        let span = nows.len() - 1;
        // Tick-constant factors, as hoisted by `step_all`. Loss is
        // exactly zero in a decoupled span, so the factors reduce to
        // `1.0` / the loss floor — spelled the same way so the rounding
        // is the same.
        let loss = 0.0;
        let one_minus_loss = 1.0 - loss;
        let retx_factor = cfg.loss_floor + loss * cfg.loss_to_retx;
        let max_buffer_s = cfg.max_buffer_s;
        let chunk_s = cfg.chunk_s;

        // Load the slot into locals: the whole span runs out of
        // registers, touching memory only at chunk boundaries (RNG,
        // cold table) and at the final write-back.
        let mut phase = self.phase[i];
        let mut buffer = self.buffer_s[i];
        let mut bitrate = self.bitrate[i];
        let mut noise = self.chunk_noise[i];
        let mut progress = self.chunk_progress_s[i];
        let access = self.access_bps[i];
        let mut watched = self.watched_s[i];
        let watch_target = self.watch_target_s[i];
        let mut bytes = self.bytes[i];
        let mut retx = self.retx_bytes[i];
        let mut active_dl = self.active_dl_s[i];
        let mut seg_play = self.seg_play_ticks[i];
        let mut est = self.throughput_est[i];
        let params = self.chunk_params[i];
        let arrival_s = self.cold[i].arrival_s;
        let patience_s = self.cold[i].patience_s;
        let mut demanding = 0u64;
        let mut done_at: Option<(usize, bool)> = None;

        // The download arithmetic is tick-invariant between chunk
        // boundaries (noise and bitrate only change there), so the
        // per-tick products and the share→video division hoist out
        // of the tick loop: same values, same operations, computed
        // once per boundary instead of once per tick. The share is the
        // session's peak demand, its access line, so
        // `shares[i].min(access_bps[i])` is `access` bitwise.
        let mut rate = access * noise * one_minus_loss;
        let mut rate_pos = rate > 0.0;
        let mut payload_bytes = rate * dt_s / 8.0;
        let mut retx_bytes_tick = payload_bytes * retx_factor;
        let mut video_s = rate * dt_s / bitrate;

        // The chunk-boundary slow path (pass 2 of the tick): the
        // session's two draws in per-stream order, then the ABR
        // bookkeeping, then the refresh of the hoisted download
        // constants. `$counts_switch` is `phase != Phase::Startup`,
        // statically known in each phase-specialized loop below.
        macro_rules! chunk_boundary {
            ($counts_switch:expr) => {{
                let z = self.rng[i].standard_normal();
                let mut next_noise =
                    dessim::fast_exp(-0.5 * params.sigma * params.sigma + params.sigma * z);
                if self.rng[i].bernoulli(params.dip_prob) {
                    next_noise *= 0.12;
                }
                progress = 0.0;
                if rate > 0.0 {
                    est = 0.8 * est + 0.2 * rate;
                }
                let next = ladder.select_from_top(params.permitted, est, cfg.abr_safety);
                if next != bitrate {
                    if $counts_switch && (next - bitrate).abs() > 1.0 {
                        self.cold[i].switches += 1;
                    }
                    fold_products(&mut seg_play, bitrate, &mut self.cold[i], dt_s);
                    bitrate = next;
                }
                noise = next_noise;
                rate = access * noise * one_minus_loss;
                rate_pos = rate > 0.0;
                payload_bytes = rate * dt_s / 8.0;
                retx_bytes_tick = payload_bytes * retx_factor;
                video_s = rate * dt_s / bitrate;
            }};
        }

        // The tick loop, specialized per phase: each inner loop runs
        // ticks until the phase changes, the session finishes, or the
        // span ends. Per tick each loop performs exactly the tick
        // loop's pass-1/2/3 operations in the tick loop's order —
        // the specialization only removes the per-tick phase match
        // and the branches whose outcome the phase decides.
        let nows_next = &nows[1..];
        let mut k = k0;
        'ticks: while k < span {
            match phase {
                // Startup downloads unconditionally (not Playing).
                Phase::Startup => {
                    while k < span {
                        let now_next = nows_next[k];
                        let kt = k;
                        k += 1;
                        demanding += 1;
                        if validating {
                            span_demand[kt] += access;
                        }
                        let mut at_boundary = false;
                        if rate_pos {
                            bytes += payload_bytes;
                            retx += retx_bytes_tick;
                            active_dl += dt_s;
                            buffer += video_s;
                            progress += video_s;
                            at_boundary = progress >= chunk_s;
                        }
                        if at_boundary {
                            chunk_boundary!(false);
                        }
                        if buffer >= cfg.startup_buffer_s {
                            phase = Phase::Playing;
                            self.cold[i].play_delay_s = (now_next - arrival_s) + 3.0 * rtt_s;
                            continue 'ticks;
                        }
                        if now_next - arrival_s > patience_s {
                            done_at = Some((kt, true));
                            break 'ticks;
                        }
                    }
                }
                // The steady state: downloads whenever the buffer
                // has room.
                Phase::Playing => {
                    while k < span {
                        let kt = k;
                        k += 1;
                        if buffer < max_buffer_s {
                            demanding += 1;
                            if validating {
                                span_demand[kt] += access;
                            }
                            if rate_pos {
                                bytes += payload_bytes;
                                retx += retx_bytes_tick;
                                active_dl += dt_s;
                                buffer += video_s;
                                progress += video_s;
                                if progress >= chunk_s {
                                    chunk_boundary!(true);
                                }
                            }
                        }
                        watched += dt_s;
                        buffer -= dt_s;
                        seg_play += 1;
                        if buffer <= 0.0 {
                            buffer = 0.0;
                            phase = Phase::Rebuffering;
                            self.cold[i].rebuffer_count += 1;
                            if watched >= watch_target {
                                done_at = Some((kt, false));
                                break 'ticks;
                            }
                            continue 'ticks;
                        }
                        if watched >= watch_target {
                            done_at = Some((kt, false));
                            break 'ticks;
                        }
                    }
                }
                // Rebuffering downloads unconditionally (not Playing).
                Phase::Rebuffering => {
                    while k < span {
                        let kt = k;
                        k += 1;
                        demanding += 1;
                        if validating {
                            span_demand[kt] += access;
                        }
                        let mut at_boundary = false;
                        if rate_pos {
                            bytes += payload_bytes;
                            retx += retx_bytes_tick;
                            active_dl += dt_s;
                            buffer += video_s;
                            progress += video_s;
                            at_boundary = progress >= chunk_s;
                        }
                        if at_boundary {
                            chunk_boundary!(true);
                        }
                        if buffer >= cfg.resume_buffer_s {
                            phase = Phase::Playing;
                            continue 'ticks;
                        }
                    }
                }
            }
        }

        if let Some((k_done, cancelled)) = done_at {
            // The session's min RTT over its observation window: the
            // window always contains a span tick, whose RTT (base +
            // empty queue) is the global minimum value, so the
            // suffix-min stack query the tick loop does reduces to
            // `rtt_s` exactly.
            let finish_tick = start_tick + k_done as u64 + 1;
            let rec = finish_record(
                FinishSlot {
                    ticks_alive: finish_tick - self.push_tick[i],
                    watched_s: watched,
                    active_dl_s: active_dl,
                    min_rtt_s: rtt_s,
                    bitrate,
                    seg_play_ticks: &mut seg_play,
                    bytes,
                    retx_bytes: &mut retx,
                    cold: &mut self.cold[i],
                },
                cfg,
                dt_s,
                nows[k_done + 1],
                cancelled,
            );
            span_records.push((finish_tick, i as u32, rec));
        }

        // Write the locals back and refresh the demand column from
        // the final state (the same two-valued rule the tick loop
        // applies every tick; intermediate values are unobservable
        // because no other session reads them in a decoupled span).
        self.phase[i] = phase;
        self.buffer_s[i] = buffer;
        self.bitrate[i] = bitrate;
        self.chunk_noise[i] = noise;
        self.chunk_progress_s[i] = progress;
        self.watched_s[i] = watched;
        self.bytes[i] = bytes;
        self.retx_bytes[i] = retx;
        self.active_dl_s[i] = active_dl;
        self.seg_play_ticks[i] = seg_play;
        self.throughput_est[i] = est;
        if done_at.is_some() {
            self.dead[i] = true;
            // Dead slots are omitted from the allocation order, whose
            // contract requires their demand to be zero.
            self.demand[i] = 0.0;
        } else {
            self.demand[i] = if phase == Phase::Playing && buffer >= max_buffer_s {
                0.0
            } else {
                access
            };
        }
        (demanding, done_at)
    }
}

/// Minimum RTT observed over the ticks `[start, now]`, answered from
/// the arena's monotone suffix-min stack: the last entry at or before
/// `start` covers it (the first entry is the global minimum and covers
/// any earlier start). `∞` when no tick has been recorded.
#[inline]
fn window_min_rtt(stack: &[(u64, f64)], start: u64) -> f64 {
    let idx = stack.partition_point(|&(t, _)| t <= start);
    if idx == 0 {
        stack.first().map_or(f64::INFINITY, |&(_, v)| v)
    } else {
        stack[idx - 1].1
    }
}

/// The borrows of slot `i` a session-finish needs — free functions
/// instead of `&mut self` methods so `step_all` can keep its columns
/// destructured into bounds-check-free slices.
struct FinishSlot<'a> {
    ticks_alive: u64,
    watched_s: f64,
    active_dl_s: f64,
    min_rtt_s: f64,
    bitrate: f64,
    seg_play_ticks: &'a mut u64,
    bytes: f64,
    retx_bytes: &'a mut f64,
    cold: &'a mut Cold,
}

/// Fold the current constant-bitrate segment into the time-weighted
/// products. Must run before the slot's bitrate changes and at session
/// end (mirrors `Client::fold_products`).
#[inline]
fn fold_products(seg_play_ticks: &mut u64, bitrate: f64, cold: &mut Cold, dt_s: f64) {
    if *seg_play_ticks > 0 {
        let t = *seg_play_ticks as f64 * dt_s;
        cold.bitrate_time_product += bitrate * t;
        cold.quality_time_product += perceptual_quality(bitrate) * t;
        *seg_play_ticks = 0;
    }
}

/// Build the session record for a finishing slot (mirrors
/// `Client::finish`).
fn finish_record(
    slot: FinishSlot<'_>,
    cfg: &StreamConfig,
    dt_s: f64,
    now_s: f64,
    cancelled: bool,
) -> SessionRecord {
    // Volume-independent retransmissions (connection upkeep, tail
    // losses), accrued once over the session's lifetime.
    *slot.retx_bytes += cfg.fixed_retx_bytes_per_s * dt_s * slot.ticks_alive as f64;
    fold_products(slot.seg_play_ticks, slot.bitrate, slot.cold, dt_s);
    // Play time == watched seconds (playback advances exactly while
    // playing), so no separate accumulator is needed.
    let play = slot.watched_s.max(1e-9);
    let c = slot.cold;
    SessionRecord {
        link: c.link,
        day: c.day,
        hour: c.hour,
        weekend: c.weekend,
        arrival_s: c.arrival_s,
        treated: c.treated,
        throughput_bps: if slot.active_dl_s > 0.0 {
            slot.bytes * 8.0 / slot.active_dl_s
        } else {
            0.0
        },
        min_rtt_s: if slot.min_rtt_s.is_finite() {
            slot.min_rtt_s
        } else {
            f64::NAN
        },
        play_delay_s: c.play_delay_s,
        bitrate_bps: if cancelled {
            f64::NAN
        } else {
            c.bitrate_time_product / play
        },
        quality: if cancelled {
            f64::NAN
        } else {
            c.quality_time_product / play
        },
        rebuffer_count: c.rebuffer_count,
        rebuffered: c.rebuffer_count > 0,
        cancelled,
        bytes: slot.bytes,
        retx_bytes: *slot.retx_bytes,
        switches: c.switches,
        duration_s: now_s - c.arrival_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::draw_session_head;

    fn cfg() -> StreamConfig {
        StreamConfig {
            access_median_bps: 20e6,
            access_sigma: 0.05,
            ..Default::default()
        }
    }

    fn make_client(c: &StreamConfig, ladder: &Ladder, seed: u64) -> Client {
        Client::new(
            c,
            ladder,
            LinkId::One,
            0,
            20,
            false,
            0.0,
            false,
            20e6,
            SimRng::new(seed),
        )
    }

    /// The arena must reproduce the scalar client bit-for-bit over a
    /// whole session lifetime, including the finish record. (The full
    /// randomized suite lives in `tests/arena_oracle.rs`.)
    #[test]
    fn matches_scalar_client_to_completion() {
        let c = cfg();
        let ladder = Ladder::new(c.ladder_bps.clone());
        let scalar = make_client(&c, &ladder, 42);
        let mut arena = ClientArena::new();
        arena.push(&c, scalar.clone());
        let mut scalar = scalar;

        let mut records = Vec::new();
        let mut t = 0.0;
        for _ in 0..200_000 {
            t += 1.0;
            let scalar_done = scalar.step(&c, &ladder, 20e6, 0.02, 0.0, t, 1.0);
            arena.step_all(&c, &ladder, &[20e6], &[0], 0.02, 0.0, t, 1.0, &mut records);
            assert_eq!(scalar_done.is_some(), !records.is_empty());
            if let Some(rec) = scalar_done {
                assert_eq!(records.pop(), Some(rec));
                // The finished slot has left the peak order.
                assert!(arena.peak_order().is_empty());
                return;
            }
            // Demands agree every tick.
            assert_eq!(
                scalar.demand(&c).rate_bps.to_bits(),
                arena.demands()[0].to_bits()
            );
        }
        panic!("session never finished");
    }

    #[test]
    fn compact_preserves_survivor_order() {
        let c = cfg();
        let ladder = Ladder::new(c.ladder_bps.clone());
        let mut arena = ClientArena::new();
        for seed in 0..5 {
            arena.push(&c, make_client(&c, &ladder, seed));
        }
        let accesses = arena.cols.access_bps.clone();
        let order = arena.peak_order().to_vec();
        for i in [0, 2] {
            arena.cols.dead[i] = true;
            arena.dead_count += 1;
        }
        let dead = &arena.cols.dead;
        arena.by_peak.retain(|&i| !dead[i]);
        arena.compact_stale();
        assert_eq!(arena.len(), 3);
        assert_eq!(
            arena.cols.access_bps,
            vec![accesses[1], accesses[3], accesses[4]]
        );
        // The peak order follows the survivors to their new slots.
        let remap = [usize::MAX, 0, usize::MAX, 1, 2];
        let expect: Vec<usize> = order
            .iter()
            .filter(|&&i| i != 0 && i != 2)
            .map(|&i| remap[i])
            .collect();
        assert_eq!(arena.peak_order(), expect);
    }

    #[test]
    fn push_reports_startup_demand() {
        let c = cfg();
        let ladder = Ladder::new(c.ladder_bps.clone());
        let client = make_client(&c, &ladder, 7);
        let expect = client.demand(&c).rate_bps;
        let mut arena = ClientArena::new();
        arena.push(&c, client);
        assert_eq!(arena.demands(), &[expect]);
        assert_eq!(arena.total_peak_bps(), expect);
        assert_eq!(arena.peak_order(), &[0]);
    }

    /// A span that fails validation leaves the arena as it found it,
    /// although the replay finished sessions and pushed folded arrivals
    /// before validating; the span then replays unvalidated exactly as
    /// on an arena that never tried.
    #[test]
    fn rollback_restores_span_entry() {
        let c = StreamConfig {
            mean_watch_s: 60.0,
            ..cfg()
        };
        let ladder = Ladder::new(c.ladder_bps.clone());
        let (rtt, dt) = (0.02, 1.0);
        // Eight sessions, three coupled ticks, each served its demand.
        let twin = || {
            let mut arena = ClientArena::new();
            for seed in 0..8 {
                arena.push(&c, make_client(&c, &ladder, seed));
            }
            let mut records = Vec::new();
            for t in 1..=3 {
                let shares = arena.demands().to_vec();
                let all: Vec<usize> = (0..arena.len()).collect();
                arena.step_all(
                    &c,
                    &ladder,
                    &shares,
                    &all,
                    rtt,
                    0.0,
                    t as f64,
                    dt,
                    &mut records,
                );
            }
            arena
        };
        let (mut a, mut b) = (twin(), twin());
        let arrivals: Vec<SpanArrival> = [(5, false), (5, true), (40, false)]
            .into_iter()
            .enumerate()
            .map(|(n, (tick, treated))| {
                let rng = SimRng::new(100 + n as u64);
                let peak = draw_session_head(&c, &ladder, &mut rng.clone()).2;
                SpanArrival {
                    tick,
                    treated,
                    rng,
                    peak,
                }
            })
            .collect();
        let actx = SpanArrivalCtx {
            link_id: LinkId::One,
            day: 0,
            hour: 20,
            weekend: false,
            capacity_bps: 1e9,
        };
        let mut nows = vec![3.0];
        for k in 0..300 {
            nows.push(nows[k] + dt);
        }

        let mut records = Vec::new();
        let rolled = a.replay_span(
            &c,
            &ladder,
            rtt,
            &nows,
            dt,
            Some(0.0),
            &arrivals,
            &actx,
            &mut records,
        );
        assert!(matches!(rolled, SpanResult::RolledBack(0)), "{rolled:?}");
        assert!(records.is_empty());
        assert_eq!(format!("{:?}", a.cols), format!("{:?}", b.cols));
        assert_eq!(a.len(), b.len());
        assert_eq!(a.live_sessions(), b.live_sessions());
        assert_eq!(a.dead_count, b.dead_count);
        assert_eq!(a.peak_order(), b.peak_order());

        let replay = |arena: &mut ClientArena| {
            let mut records = Vec::new();
            let done = arena.replay_span(
                &c,
                &ladder,
                rtt,
                &nows,
                dt,
                None,
                &arrivals,
                &actx,
                &mut records,
            );
            assert!(matches!(done, SpanResult::Committed(_)), "{done:?}");
            records
        };
        let (ra, rb) = (replay(&mut a), replay(&mut b));
        // Sessions finished inside the span, so the rolled-back replay
        // had tombstones to undo.
        assert!(!ra.is_empty());
        assert_eq!(format!("{ra:?}"), format!("{rb:?}"));
        let bits = |arena: &ClientArena| -> Vec<u64> {
            arena.demands().iter().map(|d| d.to_bits()).collect()
        };
        assert_eq!(bits(&a), bits(&b));
        assert_eq!(a.peak_order(), b.peak_order());
    }
}
