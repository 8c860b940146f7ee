//! Struct-of-arrays contention core: the engine's busy-slot hot path.
//!
//! [`SlottedEngine`](crate::engine::SlottedEngine) is generic over
//! [`BackoffProcess`](plc_mac::process::BackoffProcess) objects, which is
//! the right shape for correctness and protocol ablations but the wrong
//! shape for a busy medium: walking a `Vec<StationCtx>` of ~100-byte
//! structs costs several cache lines per station plus an enum dispatch
//! per event. When every station's process exports a [`SoaView`], the
//! engine moves the counters into this core, which stores *when* each
//! counter runs out rather than the counter.
//!
//! # Clocks
//!
//! A 1901 station changes course only when one of its two counters runs
//! out: BC counts down on every contention slot, DC on every busy slot.
//! An 802.11 DCF station has BC alone, and it stops while the medium is
//! busy. The core keeps one clock per counter:
//!
//! * `slot`, the BC clock: 1901 advances it on every contention slot,
//!   idle or busy; DCF on idle slots only, so a busy slot leaves it, and
//!   with it every deferring station's BC, where it is;
//! * `busy`, the DC clock: it counts 1901's busy slots (DCF never moves
//!   it);
//! * station `i` keeps `tx_at[i]`, the `slot` at which its BC reaches 0
//!   (`BC = tx_at − slot`), and `dc_at[i]`, the `busy` index at which its
//!   DC reaches 0 (`DC = dc_at − busy`; [`NEVER`] when deferral is
//!   disabled, as it always is under DCF);
//! * each number is also filed in a power-of-two ring of station bitsets
//!   (⌈N/64⌉ words per bucket; see below for N ≤ 64): bucket
//!   `tx_at mod R_tx` of the transmit ring, bucket `dc_at mod R_dc` of
//!   the deferral ring. Between slots a `tx_at` lies in
//!   `[slot, slot + max CW − 1]` and a `dc_at` in `[busy, busy + max DC]`,
//!   so with at least max CW and max DC + 1 buckets (the largest of any
//!   class table) every bucket holds one clock value. A redraw can file
//!   a full lap ahead, into a bucket being read, but a busy slot empties
//!   the buckets it reads before it files any station. Both rings are
//!   sized once and never grow.
//!
//! A busy slot visits only `tx_ring[slot] | dc_ring[busy]` — the
//! transmitters plus the stations whose DC ran out — and redraws each
//! from its own class table (a one-table population hoists the table out
//! of the pass). Every other station's BC and DC drop by one when `slot`
//! and `busy` advance, or, under DCF, hold because neither does. An idle
//! slot is `slot += 1`, a fast-forward jump over `k` idle slots is
//! `slot += k`, and the next slot's transmitter set is the bucket
//! `tx_ring[slot]`. The minimum BC (the fast-forward jump length) is
//! needed only when that bucket is empty, and only then computed: the
//! distance to the next non-empty transmit bucket.
//!
//! The decrement was never the cost. On the packed `BC|DC` sweep these
//! clocks replaced, at N = 500 (CA1), an idle sweep — decrement and fold
//! every station, nothing else — took ≈0.7 µs, a busy slot ≈2.9 µs. The
//! rest is the ≈35 stations that change course on a busy slot (≈9
//! transmitters and ≈26 deferral redraws, averaged over 34,000 busy
//! slots), each picked out by a data-dependent branch of the O(N) loop and
//! queued for its redraw. Visiting only those stations brings the busy
//! slot to ≈1.1 µs (`busy_slot/500`: 3.75 → 1.12 ms per 1,000 slots).
//!
//! Nor does a visit need a branch of its own. A multi-word busy slot
//! takes both buckets whole, lists the visited stations in ascending
//! order, and makes one flat pass over them: each unfiles both of its
//! old clocks without asking which ran out (the bucket a clock ran out
//! in is already empty, and clearing a station's own unset bit changes
//! nothing), redraws and refiles. The bitset-to-list step behind the
//! visit list and the next slot's transmitter set writes eight entries
//! per word whatever its count and cuts back, so it ends on no
//! data-dependent branch either. At N = 500 (CA1, 2-vCPU Xeon) the core
//! bench falls from 0.99 to 0.79 ms per 1,000 slots (`busy_slot/500`;
//! `busy_slot/1000` 1.55 → 1.07 ms). In the engine (rdtsc split, median
//! of six runs of 205,000 busy steps, timers included) a busy step falls
//! from ≈950 to ≈770 ns: the busy slot itself ≈535 → ≈405 ns, the next
//! slot's transmitter fold ≈106 → ≈71 ns, and the collision arm's pass
//! over the colliders (one now, four before) ≈148 → ≈135 ns.
//!
//! Populations of at most 64 stations (one bitset word) file no transmit
//! clocks. A sparse ring (five stations at CW 8192 spread over 8,192
//! buckets) would cost far more to walk, and 64 KB per engine to hold.
//! They cache instead the earliest `tx_at` (`next_at`) and the bitset of
//! the stations due at it (`next_mask`). A busy slot ends with one
//! branch-free pass over at most 64 clocks that refreshes both (left to
//! the next read instead, saturated N = 10 ran ≈2.5 % slower). Parking
//! and unparking mark the cache stale, and the next read refreshes it:
//! once per batch of backlog changes (the opening of a
//! priority-resolution round, a step's arrivals), not once per change.
//! Idle slots and jumps move `slot` alone, so the transmitter set is
//! `next_mask` once `slot == next_at` and empty before, the minimum BC
//! is `next_at − slot`, and a jump clamped short of it (at the horizon,
//! a beacon or a noise edge) needs no scan: every BC stays positive and
//! the minimum drops by the jump.
//!
//! # Parking
//!
//! A station that stops contending — its queue ran dry, or priority
//! resolution froze it — *parks*: it leaves both rings, both its clocks
//! read [`NEVER`], and it holds its (BC, DC) as plain counters that no
//! clock moves. The engine's backlog updates
//! ([`set_active`](ContentionCore::set_active)) park and unpark at once
//! and draw nothing; unparking files the held counters against the
//! current clocks. A transmitter whose queue empties is still redrawn in
//! its busy slot, with the word the per-object path draws, and the engine
//! parks it after the slot's pass; an arrival's
//! [`reset_now`](ContentionCore::reset_now) redraws the station from
//! stage 0 and files it. A saturated population never parks, so its
//! busy slot is the flat pass above with no flag to test: a prototype
//! that tested one inside the pass ran a saturated N = 500 population
//! 4 % slower.
//!
//! # Fallbacks
//!
//! A population the clocks cannot host keeps the per-object path, with a
//! typed [`CoreRejection`] that the engine counts in
//! `engine.soa_fallbacks`: one that mixes 1901 and DCF stations (their
//! BC clocks run on different slots), one whose rings would exceed
//! [`RING_BYTES_MAX`], and malformed views (an empty window or stage
//! table, a stage past its table). Results are identical either way;
//! only the cost differs.
//!
//! # Draw-order contract
//!
//! Bit-identity with the per-object path rests on two facts, both pinned
//! by the `soa_equivalence` test suite:
//!
//! * the vendored `gen_range(0..cw)` consumes exactly one `next_u64` and
//!   maps it with the Lemire multiply-shift `((x · cw) >> 64)` — no
//!   rejection loop, so the word count per redraw is fixed;
//! * every station loop in the engine mutates (and therefore redraws) in
//!   ascending station order.
//!
//! The core draws as it visits: bit iteration yields stations in
//! ascending order, and the transmitters' stage and BPC bookkeeping,
//! which draws nothing, runs before the pass. The stream consumption is
//! word-for-word what the per-object path would have drawn.
//!
//! The fast-forward contention cache (zero set + min BC) is read off the
//! core once per step ([`fold`](ContentionCore::fold)): the next transmit
//! bucket, or the cached due set of a one-word population, and the
//! minimum BC only when that set is empty.

use crate::trace::StationId;
use plc_core::config::DC_DISABLED;
use plc_mac::process::{BackoffSnapshot, Protocol, SoaView};
use rand::rngs::SmallRng;
use rand::RngCore;

/// What a transmitting station's backoff does after a non-idle slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SweepAction {
    /// Re-enter stage 0: a success, a retry-limit drop, or a head-of-line
    /// reset (all three share the stage-0 transition in both protocols).
    Restart,
    /// Advance the backoff stage: a collision without a drop.
    Advance,
}

/// A clock value no clock reaches: the `dc_at` of a station whose
/// deferral counter is disabled, and both clocks of a parked station.
const NEVER: u64 = u64::MAX;

/// Most bytes both rings may take together. A population that would need
/// more falls back to the per-object path
/// ([`CoreRejection::RingsTooLarge`]).
///
/// The cap bounds memory; it is not where the rings start to lose. Run
/// time per busy slot of saturated `cw128-g4-dc1901` (5·10⁷ µs, best of
/// 3, two rounds; a 2-vCPU Xeon with 2 MiB of L2 per core), event rings
/// vs the packed `BC|DC` sweep they replaced: N = 500 (0.5 MB of rings)
/// 0.6–1.0 vs 3.6–4.6 µs, N = 1000 (1.05 MB) 1.5–2.1 vs 7.7–8.5 µs,
/// N = 4000 (4.1 MB) 11–13 vs 29–33 µs, N = 16,000 (16.4 MB) 85–89 vs
/// 99–103 µs. The gain falls from ≈5× to ≈1.15× once the rings outgrow
/// L2, while they hold ≈1 KB per station at CW 8192. At N = 30,000
/// (30.8 MB; one run each, three rounds, a 2-vCPU Xeon with 2 MiB of L2
/// per core) the rings take 102–114 µs per busy slot, level with the
/// packed sweep's 102–106 µs and 2.2× ahead of the per-object path's
/// 232–246 µs, which hosts a population above the cap.
const RING_BYTES_MAX: usize = 32 << 20;

/// Map one RNG word into `0..cw` exactly as the vendored
/// `gen_range(0..cw)` does (see the module docs).
#[inline]
fn draw_below(x: u64, cw: u32) -> u32 {
    (((x as u128) * (cw as u128)) >> 64) as u32
}

/// Per-stage parameters of one distinct stage table. Stations index into
/// these via `ContentionCore::class`, so homogeneous populations share
/// one table.
struct ClassTable {
    cw: Vec<u32>,
    /// Per-stage DC reload values ([`DC_DISABLED`] for disabled).
    dc: Vec<u32>,
    /// `num_stages − 1`: both protocols saturate stage lookups here.
    last: u32,
}

/// The BC/DC store: per-station clocks filed in event rings. See the
/// [module docs](self).
struct Clocks {
    /// Every station's protocol: which slots move the BC clock, and how
    /// a busy slot redraws.
    proto: Protocol,
    /// The BC clock: contention slots elapsed (1901), idle slots elapsed
    /// (DCF).
    slot: u64,
    /// Busy slots elapsed: the DC clock.
    busy: u64,
    /// Per station, the `slot` at which its BC reaches 0 ([`NEVER`] while
    /// parked).
    tx_at: Vec<u64>,
    /// Per station, the `busy` index at which its DC reaches 0 ([`NEVER`]
    /// when disabled or parked).
    dc_at: Vec<u64>,
    /// Per station, the (BC, DC) it holds while parked ([`DC_DISABLED`]
    /// for a disabled DC); unread while it is filed.
    held: Vec<(u32, u32)>,
    /// Stations filed (not parked).
    filed: usize,
    /// Bitset words per bucket: ⌈N/64⌉.
    words: usize,
    /// Transmit ring: bucket `t mod R_tx` holds the stations with
    /// `tx_at == t`. Empty for one-word populations, which cache their
    /// earliest transmit clock instead (`next_at`, `next_mask`).
    tx_ring: Vec<u64>,
    /// `R_tx − 1`.
    tx_mask: u64,
    /// Deferral ring: bucket `b mod R_dc` holds the stations with
    /// `dc_at == b`.
    dc_ring: Vec<u64>,
    /// `R_dc − 1`.
    dc_mask: u64,
    /// One-word populations only: the earliest `tx_at`, so the minimum
    /// BC is `next_at − slot` ([`NEVER`] when every station is parked).
    next_at: u64,
    /// One-word populations only: the stations whose `tx_at` is
    /// `next_at`, the transmit set once `slot` reaches it.
    next_mask: u64,
    /// A `tx_at` changed since `next_at`/`next_mask` were computed; the
    /// next read refreshes them (one-word populations only).
    stale: bool,
    /// Multi-word populations only: the stations a busy slot visits,
    /// listed in ascending order before any of them redraws. Sized for
    /// every station at build, so no busy slot grows it.
    visit: Vec<StationId>,
}

impl Clocks {
    /// File every station's current counters against clocks at 0, or
    /// refuse a population whose rings would exceed [`RING_BYTES_MAX`].
    fn new(views: &[SoaView], classes: &[ClassTable]) -> Result<Self, CoreRejection> {
        // A station's current counters come from its table, but the view
        // is arbitrary data: size for them too.
        let tx_buckets = (classes.iter().flat_map(|t| &t.cw))
            .map(|&cw| cw as usize)
            .chain(views.iter().map(|v| v.state.bc as usize + 1))
            .max()
            .map_or(1, usize::next_power_of_two);
        let dc_buckets = (classes.iter().flat_map(|t| &t.dc))
            .chain(views.iter().map(|v| &v.state.dc))
            .filter(|&&dc| dc != DC_DISABLED)
            .max()
            .map_or(1, |&dc| (dc as usize + 1).next_power_of_two());
        let n = views.len();
        let words = n.div_ceil(64);
        // One bitset word: the transmit clocks are scanned, not filed.
        let tx_words = if words == 1 { 0 } else { tx_buckets * words };
        let bytes = (dc_buckets.checked_mul(words))
            .and_then(|w| w.checked_add(tx_words)?.checked_mul(8))
            .unwrap_or(usize::MAX);
        if bytes > RING_BYTES_MAX {
            return Err(CoreRejection::RingsTooLarge { bytes });
        }
        let mut c = Clocks {
            proto: views[0].protocol,
            slot: 0,
            busy: 0,
            tx_at: vec![NEVER; n],
            dc_at: vec![NEVER; n],
            held: views.iter().map(|v| (v.state.bc, v.state.dc)).collect(),
            filed: 0,
            words,
            tx_ring: vec![0; tx_words],
            tx_mask: tx_buckets as u64 - 1,
            dc_ring: vec![0; dc_buckets * words],
            dc_mask: dc_buckets as u64 - 1,
            next_at: NEVER,
            next_mask: 0,
            stale: true,
            visit: Vec::with_capacity(if words == 1 { 0 } else { n + 8 }),
        };
        for i in 0..n {
            c.unpark(i);
        }
        Ok(c)
    }

    /// Whether station `i` is parked: in neither ring, its counters held.
    #[inline]
    fn parked(&self, i: StationId) -> bool {
        self.tx_at[i] == NEVER
    }

    /// Station `i`'s BC.
    #[inline]
    fn bc(&self, i: StationId) -> u32 {
        if self.parked(i) {
            self.held[i].0
        } else {
            (self.tx_at[i] - self.slot) as u32
        }
    }

    /// Station `i`'s DC, [`DC_DISABLED`] when disabled.
    #[inline]
    fn dc(&self, i: StationId) -> u32 {
        match self.dc_at[i] {
            _ if self.parked(i) => self.held[i].1,
            NEVER => DC_DISABLED,
            at => (at - self.busy) as u32,
        }
    }

    /// Take filed station `i` out of both rings, holding its counters.
    fn park(&mut self, i: StationId) {
        self.held[i] = (self.bc(i), self.dc(i));
        if self.words > 1 {
            let w = self.tx_word(self.tx_at[i], i);
            self.tx_ring[w] &= !bit(i);
        }
        let w = self.dc_word(self.dc_at[i], i);
        self.dc_ring[w] &= !bit(i);
        self.tx_at[i] = NEVER;
        self.dc_at[i] = NEVER;
        self.filed -= 1;
        self.stale = true;
    }

    /// File parked station `i`'s held counters against the current
    /// clocks.
    fn unpark(&mut self, i: StationId) {
        let (bc, dc) = self.held[i];
        self.tx_at[i] = self.slot + bc as u64;
        if self.words > 1 {
            let w = self.tx_word(self.tx_at[i], i);
            self.tx_ring[w] |= bit(i);
        }
        if dc != DC_DISABLED {
            self.dc_at[i] = self.busy + dc as u64;
            let w = self.dc_word(self.dc_at[i], i);
            self.dc_ring[w] |= bit(i);
        }
        self.filed += 1;
        self.stale = true;
    }

    /// Refresh a stale one-word cache. Every read of it comes through
    /// here first.
    #[inline]
    fn settle(&mut self) {
        if self.stale {
            if self.words == 1 {
                self.refresh_next();
            }
            self.stale = false;
        }
    }

    /// Recompute `next_at` and `next_mask` of a one-word population in
    /// one branch-free pass over `tx_at`. A parked station's [`NEVER`]
    /// joins the set only when every station is parked, and `slot` never
    /// reaches it.
    #[inline]
    fn refresh_next(&mut self) {
        let (mut at, mut mask) = (u64::MAX, 0u64);
        for (i, &t) in self.tx_at.iter().enumerate() {
            // A strictly earlier clock starts the set afresh; an equal
            // one joins it.
            mask &= ((t < at) as u64).wrapping_sub(1);
            mask |= ((t <= at) as u64) << i;
            at = at.min(t);
        }
        self.next_at = at;
        self.next_mask = mask;
        self.stale = false;
    }

    /// The one-word transmit set: the stations whose BC is 0 this slot.
    #[inline]
    fn due(&self) -> u64 {
        debug_assert!(!self.stale, "the one-word cache is read settled");
        if self.next_at == self.slot {
            self.next_mask
        } else {
            0
        }
    }

    /// Index of station `i`'s word in transmit bucket `t`.
    #[inline]
    fn tx_word(&self, t: u64, i: usize) -> usize {
        (t & self.tx_mask) as usize * self.words + i / 64
    }

    /// Index of station `i`'s word in deferral bucket `b`.
    #[inline]
    fn dc_word(&self, b: u64, i: usize) -> usize {
        (b & self.dc_mask) as usize * self.words + i / 64
    }

    /// Append the stations of the current transmit bucket (BC = 0), in
    /// ascending order.
    #[inline]
    fn transmitters(&self, out: &mut Vec<StationId>) {
        if self.words == 1 {
            push_bits(out, 0, self.due());
            return;
        }
        let base = (self.slot & self.tx_mask) as usize * self.words;
        for (w, &word) in self.tx_ring[base..base + self.words].iter().enumerate() {
            push_bits(out, w * 64, word);
        }
    }

    /// Minimum BC when no station transmits this slot (all BC > 0), or
    /// `u32::MAX` when every station is parked.
    fn min_bc(&self) -> u32 {
        let d = if self.filed == 0 {
            None
        } else if self.words == 1 {
            Some(self.next_at - self.slot)
        } else {
            (1..=self.tx_mask).find(|&d| {
                let base = ((self.slot + d) & self.tx_mask) as usize * self.words;
                self.tx_ring[base..base + self.words]
                    .iter()
                    .any(|&w| w != 0)
            })
        };
        d.map_or(u32::MAX, |d| d as u32)
    }

    /// One busy slot: apply each transmitter's action (`tx` ascending,
    /// `actions` parallel to it), then visit `tx_ring[slot] |
    /// dc_ring[busy]` in ascending station order, redrawing each visited
    /// station from `table` and filing its fresh clocks. 1901 then
    /// advances both clocks; DCF advances neither, so its deferring
    /// stations hold their BC.
    fn busy_slot<'t>(
        &mut self,
        tx: &[StationId],
        actions: &[SweepAction],
        table: impl Fn(StationId) -> &'t ClassTable,
        bpc: &mut [u32],
        stage: &mut [u8],
        rng: &mut SmallRng,
    ) {
        debug_assert_eq!(tx.len(), actions.len());
        self.settle();
        match self.proto {
            Protocol::Ieee1901 => {
                // Only a station's own redraw reads its BPC, so a
                // restarting transmitter's stage-0 re-entry can be
                // applied up front.
                for (&i, &action) in tx.iter().zip(actions) {
                    if action == SweepAction::Restart {
                        bpc[i] = 0;
                    }
                }
                let (slot, busy) = (self.slot + 1, self.busy + 1);
                self.visit(tx, bpc, stage, rng, |i, bpc, stage, r| {
                    redraw_1901(table(i), bpc, stage, r, slot, busy)
                });
                self.slot = slot;
                self.busy = busy;
            }
            Protocol::Dcf80211 => {
                for (&i, &action) in tx.iter().zip(actions) {
                    (bpc[i], stage[i]) = match action {
                        SweepAction::Restart => (0, 0),
                        SweepAction::Advance => (
                            bpc[i].saturating_add(1),
                            (stage[i] as u32 + 1).min(table(i).last) as u8,
                        ),
                    };
                }
                // No station files a DC, so only the transmitters are
                // visited, each redrawn against the unmoved `slot`.
                let slot = self.slot;
                self.visit(tx, bpc, stage, rng, |i, _, stage, r| {
                    let bc = draw_below(r.next_u64(), table(i).cw[*stage as usize]);
                    (slot + bc as u64, NEVER)
                });
            }
        }
    }

    /// The pass of [`busy_slot`](Self::busy_slot): visit the slot's
    /// stations in ascending order, take each out of both rings, and file
    /// the `(tx_at, dc_at)` that `redraw` returns.
    ///
    /// Which bucket a visited station came from decides nothing: both of
    /// its old clocks are unfiled without a branch. The bucket a clock
    /// ran out in has just been emptied, and clearing a station's own
    /// unset bit changes nothing (a disabled DC is filed nowhere). A
    /// multi-word population lists the visited stations first and then
    /// makes one flat pass over them; a one-word population takes its
    /// transmit word from the cached due set and, once every redraw has
    /// landed, refreshes that cache in one pass over `tx_at`: the next
    /// slot, idle run and jump read it without a scan.
    #[inline(always)]
    fn visit(
        &mut self,
        tx: &[StationId],
        bpc: &mut [u32],
        stage: &mut [u8],
        rng: &mut SmallRng,
        redraw: impl FnMut(StationId, &mut u32, &mut u8, &mut SmallRng) -> (u64, u64),
    ) {
        if self.words == 1 {
            self.visit_word(tx, bpc, stage, rng, redraw);
        } else {
            self.visit_words(tx, bpc, stage, rng, redraw);
        }
    }

    /// [`visit`](Self::visit) of a one-word population.
    fn visit_word(
        &mut self,
        tx: &[StationId],
        bpc: &mut [u32],
        stage: &mut [u8],
        rng: &mut SmallRng,
        mut redraw: impl FnMut(StationId, &mut u32, &mut u8, &mut SmallRng) -> (u64, u64),
    ) {
        debug_assert!(
            {
                let scan = (self.tx_at.iter().enumerate())
                    .fold(0, |bits, (i, &at)| bits | ((at == self.slot) as u64) << i);
                self.due() == scan && scan == tx.iter().fold(0, |bits, &i| bits | bit(i))
            },
            "transmitters must be the stations with BC = 0"
        );
        // A redraw filed a full lap ahead lands in the deferral bucket
        // again, after this take, so it is not visited twice.
        let dc_base = (self.busy & self.dc_mask) as usize;
        let mut bits = self.due() | std::mem::take(&mut self.dc_ring[dc_base]);
        while bits != 0 {
            let i = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            self.dc_ring[(self.dc_at[i] & self.dc_mask) as usize] &= !bit(i);
            let (tx_at, dc_at) = redraw(i, &mut bpc[i], &mut stage[i], rng);
            self.tx_at[i] = tx_at;
            self.dc_at[i] = dc_at;
            if dc_at != NEVER {
                self.dc_ring[(dc_at & self.dc_mask) as usize] |= bit(i);
            }
        }
        self.refresh_next();
    }

    /// [`visit`](Self::visit) of a multi-word population.
    fn visit_words(
        &mut self,
        tx: &[StationId],
        bpc: &mut [u32],
        stage: &mut [u8],
        rng: &mut SmallRng,
        mut redraw: impl FnMut(StationId, &mut u32, &mut u8, &mut SmallRng) -> (u64, u64),
    ) {
        let words = self.words;
        let (tx_mask, dc_mask) = (self.tx_mask, self.dc_mask);
        let tx_base = (self.slot & tx_mask) as usize * words;
        let dc_base = (self.busy & dc_mask) as usize * words;
        debug_assert!(
            (0..words).all(|w| {
                let want = tx
                    .iter()
                    .filter(|&&i| i / 64 == w)
                    .fold(0, |b, &i| b | bit(i));
                self.tx_ring[tx_base + w] == want
            }),
            "transmitters must be the slot's bucket"
        );
        // Both buckets empty out whole before any station redraws: a
        // redraw filed a full lap ahead lands in them again, after the
        // take, so it is not visited twice.
        self.visit.clear();
        for w in 0..words {
            let bits = std::mem::take(&mut self.tx_ring[tx_base + w])
                | std::mem::take(&mut self.dc_ring[dc_base + w]);
            push_bits(&mut self.visit, w * 64, bits);
        }
        // One length for every per-station slice, so each visit carries
        // one bounds check; the RNG state lives in a local for the pass.
        let n = self.tx_at.len();
        let (tx_at, dc_at) = (&mut self.tx_at[..n], &mut self.dc_at[..n]);
        let (bpc, stage) = (&mut bpc[..n], &mut stage[..n]);
        let (tx_ring, dc_ring) = (&mut self.tx_ring, &mut self.dc_ring);
        let ring_word = |at: u64, mask: u64, i: usize| (at & mask) as usize * words + i / 64;
        let mut r = rng.clone();
        for &i in &self.visit {
            tx_ring[ring_word(tx_at[i], tx_mask, i)] &= !bit(i);
            dc_ring[ring_word(dc_at[i], dc_mask, i)] &= !bit(i);
            let (t_at, d_at) = redraw(i, &mut bpc[i], &mut stage[i], &mut r);
            tx_at[i] = t_at;
            dc_at[i] = d_at;
            tx_ring[ring_word(t_at, tx_mask, i)] |= bit(i);
            if d_at != NEVER {
                dc_ring[ring_word(d_at, dc_mask, i)] |= bit(i);
            }
        }
        *rng = r;
    }
}

/// Redraw one 1901 station after a busy slot: stage from BPC (saturated
/// at the last; a restarting transmitter's BPC is already 0), BPC
/// incremented, DC reloaded, one RNG word for the BC. Returns the fresh
/// `(tx_at, dc_at)` for the advanced clocks `slot` and `busy`.
#[inline(always)]
fn redraw_1901(
    t: &ClassTable,
    bpc: &mut u32,
    stage: &mut u8,
    rng: &mut SmallRng,
    slot: u64,
    busy: u64,
) -> (u64, u64) {
    let s = (*bpc).min(t.last) as usize;
    *stage = s as u8;
    *bpc = bpc.saturating_add(1);
    let dc_at = match t.dc[s] {
        DC_DISABLED => NEVER,
        dc => busy + dc as u64,
    };
    (slot + draw_below(rng.next_u64(), t.cw[s]) as u64, dc_at)
}

/// Station `i`'s bit within its bitset word.
#[inline]
fn bit(i: usize) -> u64 {
    1 << (i % 64)
}

/// Append the stations of bitset word `bits`, whose bit 0 is station
/// `base`, in ascending order.
///
/// Eight entries are written whatever the count and the vector is then
/// cut back to it, so a word of at most eight stations — nearly every
/// word of a busy slot — ends on no data-dependent branch; only the
/// ninth station on loops. Keep eight slots of spare capacity, or the
/// first such call grows the vector.
#[inline]
fn push_bits(out: &mut Vec<StationId>, base: usize, mut bits: u64) {
    let len = out.len() + bits.count_ones() as usize;
    out.extend((0..8).map(|_| {
        let i = base + bits.trailing_zeros() as usize;
        bits &= bits.wrapping_sub(1);
        i
    }));
    out.truncate(len);
    while bits != 0 {
        out.push(base + bits.trailing_zeros() as usize);
        bits &= bits - 1;
    }
}

/// The struct-of-arrays contention state. See the [module docs](self).
pub(crate) struct ContentionCore {
    /// The BC/DC store.
    clocks: Clocks,
    /// 1901: raw BPC (one past the stage in effect). DCF: retry count.
    /// Only touched on redraws.
    bpc: Vec<u32>,
    /// Stage in effect, cached at redraw time.
    stage: Vec<u8>,
    /// Index into `classes`.
    class: Vec<u16>,
    classes: Vec<ClassTable>,
}

/// Why a station population cannot be hosted in the struct-of-arrays
/// core. The engine then falls back to the per-object path — results are
/// identical, only the busy slot is slower — and surfaces the reason
/// through
/// [`SlottedEngine::soa_rejection`](crate::engine::SlottedEngine::soa_rejection)
/// plus the `engine.soa_fallbacks` observability counter, instead of
/// silently degrading.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CoreRejection {
    /// No stations (nothing to host).
    Empty,
    /// More stations than the core's index domain.
    TooManyStations(usize),
    /// A stage table is empty or longer than the `u8` stage array allows.
    StageTableSize {
        /// Offending station.
        station: usize,
        /// Its stage-table length.
        stages: usize,
    },
    /// An empty contention window: a draw from `0..cw` needs `cw ≥ 1`.
    WindowUnrepresentable {
        /// Offending station.
        station: usize,
        /// The empty window (0).
        cw: u32,
    },
    /// A station's current stage indexes past its stage table.
    StageOutOfRange {
        /// Offending station.
        station: usize,
        /// The out-of-range stage.
        stage: u32,
    },
    /// More distinct stage tables than the `u16` class ids.
    TooManyClasses(usize),
    /// The population mixes IEEE 1901 and 802.11 DCF stations, whose BC
    /// clocks run on different slots.
    MixedProtocols {
        /// The first station whose protocol differs from station 0's.
        station: usize,
    },
    /// The event rings would take more than the core's cap (32 MiB).
    RingsTooLarge {
        /// Bytes both rings would take.
        bytes: usize,
    },
}

impl std::fmt::Display for CoreRejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreRejection::Empty => write!(f, "no stations to host"),
            CoreRejection::TooManyStations(n) => {
                write!(f, "{n} stations exceed the core's index domain")
            }
            CoreRejection::StageTableSize { station, stages } => write!(
                f,
                "station {station}: stage table of {stages} entries does not fit \
                 the u8 stage array (need 1..=256)"
            ),
            CoreRejection::WindowUnrepresentable { station, cw } => write!(
                f,
                "station {station}: contention window {cw} is empty (need at least 1)"
            ),
            CoreRejection::StageOutOfRange { station, stage } => write!(
                f,
                "station {station}: stage {stage} indexes past its stage table"
            ),
            CoreRejection::TooManyClasses(n) => {
                write!(f, "{n} distinct parameter classes exceed the u16 class ids")
            }
            CoreRejection::MixedProtocols { station } => write!(
                f,
                "station {station} runs a different protocol than station 0: IEEE 1901 \
                 and 802.11 DCF count backoff on different slots"
            ),
            CoreRejection::RingsTooLarge { bytes } => write!(
                f,
                "the event rings would take {bytes} bytes, above the \
                 {RING_BYTES_MAX}-byte cap"
            ),
        }
    }
}

impl CoreRejection {
    /// The rejection as a typed configuration error, for callers that
    /// treat an engaged-but-unavailable core as fatal.
    pub fn to_error(&self) -> plc_core::error::Error {
        plc_core::error::Error::invalid_config(format!(
            "struct-of-arrays contention core unavailable: {self}"
        ))
    }
}

impl ContentionCore {
    /// Build a core from per-station views, every station filed, or the
    /// reason it cannot host them (the engine then stays on the
    /// per-object path and counts the fallback).
    pub(crate) fn try_from_views(views: &[SoaView]) -> Result<Self, CoreRejection> {
        let n = views.len();
        let Some(first) = views.first() else {
            return Err(CoreRejection::Empty);
        };
        if n > u32::MAX as usize {
            return Err(CoreRejection::TooManyStations(n));
        }
        let mut tables: Vec<&SoaView> = Vec::new();
        let mut class = Vec::with_capacity(n);
        for (station, v) in views.iter().enumerate() {
            if v.protocol != first.protocol {
                return Err(CoreRejection::MixedProtocols { station });
            }
            if v.stages.is_empty() || v.stages.len() > 256 {
                return Err(CoreRejection::StageTableSize {
                    station,
                    stages: v.stages.len(),
                });
            }
            if v.stages.iter().any(|s| s.cw == 0) {
                return Err(CoreRejection::WindowUnrepresentable { station, cw: 0 });
            }
            if v.state.stage as usize >= v.stages.len() {
                return Err(CoreRejection::StageOutOfRange {
                    station,
                    stage: v.state.stage,
                });
            }
            let c = match tables.iter().position(|t| t.stages == v.stages) {
                Some(c) => c,
                None if tables.len() > u16::MAX as usize => {
                    return Err(CoreRejection::TooManyClasses(tables.len()));
                }
                None => {
                    tables.push(v);
                    tables.len() - 1
                }
            };
            class.push(c as u16);
        }
        let classes: Vec<ClassTable> = (tables.iter())
            .map(|v| ClassTable {
                cw: v.stages.iter().map(|s| s.cw).collect(),
                dc: v.stages.iter().map(|s| s.dc).collect(),
                last: (v.stages.len() - 1) as u32,
            })
            .collect();
        Ok(ContentionCore {
            clocks: Clocks::new(views, &classes)?,
            bpc: views.iter().map(|v| v.state.bpc).collect(),
            stage: views.iter().map(|v| v.state.stage as u8).collect(),
            class,
            classes,
        })
    }

    /// Mark station `i` backlogged or drained: park or unpark it at once,
    /// drawing nothing (see the module docs). The engine calls this for
    /// non-saturated populations alone, after a busy slot's pass for its
    /// transmitters.
    #[inline]
    pub(crate) fn set_active(&mut self, i: StationId, active: bool) {
        if self.clocks.parked(i) == active {
            if active {
                self.clocks.unpark(i);
            } else {
                self.clocks.park(i);
            }
        }
    }

    /// Immediate stage-0 reset for one station (traffic arrival): draws
    /// right away, preserving the arrival loop's per-station draw order,
    /// and files the station. A drained station arrives here parked, one
    /// still resending errored blocks filed; the engine parks it again if
    /// priority resolution froze it.
    #[inline]
    pub(crate) fn reset_now(&mut self, i: StationId, rng: &mut SmallRng) {
        self.set_active(i, false);
        let t = &self.classes[self.class[i] as usize];
        // Stage 0 in both protocols; 1901's BPC runs one past the stage
        // in effect, DCF's retry count restarts at 0.
        self.stage[i] = 0;
        self.bpc[i] = (self.clocks.proto == Protocol::Ieee1901) as u32;
        self.clocks.held[i] = (draw_below(rng.next_u64(), t.cw[0]), t.dc[0]);
        self.clocks.unpark(i);
    }

    /// Absorb `k` guaranteed-idle slots (fast-forward: every backlogged
    /// station has `BC ≥ k`).
    #[inline]
    pub(crate) fn skip_idle(&mut self, k: u32) {
        let c = &mut self.clocks;
        debug_assert!(
            c.tx_at.iter().all(|&at| at - c.slot >= k as u64),
            "cannot skip past BC = 0"
        );
        c.slot += k as u64;
    }

    /// One idle slot: every backlogged station's BC decrements.
    #[inline]
    pub(crate) fn idle_slot(&mut self) {
        let c = &mut self.clocks;
        debug_assert!(
            c.tx_at.iter().all(|&at| at > c.slot),
            "station with BC == 0 must transmit, not idle"
        );
        c.slot += 1;
    }

    /// One busy slot: each transmitter applies its [`SweepAction`]
    /// (parallel to `tx`, which must be the ascending contender set — a
    /// success is one [`SweepAction::Restart`]), every other backlogged
    /// station senses the medium busy.
    #[inline]
    pub(crate) fn busy_slot(
        &mut self,
        tx: &[StationId],
        actions: &[SweepAction],
        rng: &mut SmallRng,
    ) {
        let (classes, class) = (&self.classes, &self.class);
        let (clocks, bpc, stage) = (&mut self.clocks, &mut self.bpc, &mut self.stage);
        match &classes[..] {
            [t] => clocks.busy_slot(tx, actions, |_| t, bpc, stage, rng),
            _ => clocks.busy_slot(
                tx,
                actions,
                |i| &classes[class[i] as usize],
                bpc,
                stage,
                rng,
            ),
        }
    }

    /// Collect the transmitter set: backlogged stations with `BC == 0`,
    /// in ascending station order (the engine's scan order).
    #[inline]
    pub(crate) fn contenders(&mut self, out: &mut Vec<StationId>) {
        self.clocks.settle();
        self.clocks.transmitters(out);
    }

    /// The fast-forward contention cache: `zero` (empty on entry) gets the
    /// transmitters of the next slot, and only when there are none does
    /// `min_bc` get the minimum BC (`u32::MAX` when no station is
    /// backlogged).
    #[inline]
    pub(crate) fn fold(&mut self, zero: &mut Vec<StationId>, min_bc: &mut u32) {
        self.contenders(zero);
        if zero.is_empty() {
            *min_bc = self.clocks.min_bc();
        }
    }

    /// Synthesize the station's counter snapshot — field-for-field what
    /// the process object's `snapshot()` would report.
    pub(crate) fn snapshot(&self, i: StationId) -> BackoffSnapshot {
        let t = &self.classes[self.class[i] as usize];
        let stage = self.stage[i] as usize;
        let dc = self.clocks.dc(i);
        BackoffSnapshot {
            stage,
            cw: t.cw[stage],
            bc: self.clocks.bc(i),
            dc: (dc != DC_DISABLED).then_some(dc),
            bpc: match self.clocks.proto {
                Protocol::Ieee1901 => self.bpc[i].saturating_sub(1),
                Protocol::Dcf80211 => self.bpc[i],
            },
        }
    }
}

/// Benchmark support: drives the contention core alone — no traffic,
/// metrics, bursting or trace plumbing — so the busy-slot pass can be
/// microbenchmarked in isolation (`benches/busy_slot.rs` in
/// `crates/bench`). Hidden from docs; not a stable API.
#[doc(hidden)]
pub mod bench {
    use super::{ContentionCore, SweepAction};
    use plc_mac::process::BackoffProcess;
    use plc_mac::Backoff1901;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// A saturated single-class IEEE 1901 population stepped through
    /// idle and busy slots only.
    pub struct BusySweepBench {
        core: ContentionCore,
        rng: SmallRng,
        tx: Vec<usize>,
        zero: Vec<usize>,
        actions: Vec<SweepAction>,
    }

    impl BusySweepBench {
        /// Build an `n`-station saturated CA0/CA1 population.
        pub fn new(n: usize, seed: u64) -> Self {
            let mut seed_rng = SmallRng::seed_from_u64(seed);
            let ps: Vec<Backoff1901> = (0..n)
                .map(|_| Backoff1901::default_ca1(&mut seed_rng))
                .collect();
            let views: Vec<_> = ps.iter().map(|p| p.soa_view().unwrap()).collect();
            BusySweepBench {
                core: ContentionCore::try_from_views(&views).expect("representable"),
                rng: SmallRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15),
                tx: Vec::with_capacity(n),
                zero: Vec::with_capacity(n),
                actions: Vec::with_capacity(n),
            }
        }

        /// Advance `slots` contention slots (idle or busy slot each, then
        /// the fast-forward cache fold), returning a checksum so the
        /// optimizer cannot elide the work. State carries across calls —
        /// repeated invocations measure the steady state.
        pub fn run(&mut self, slots: usize) -> u64 {
            let mut acc = 0u64;
            for _ in 0..slots {
                self.tx.clear();
                self.core.contenders(&mut self.tx);
                match self.tx.len() {
                    0 => self.core.idle_slot(),
                    n => {
                        // A success restarts its winner; colliders advance.
                        let action = match n {
                            1 => SweepAction::Restart,
                            _ => SweepAction::Advance,
                        };
                        self.actions.clear();
                        self.actions.resize(n, action);
                        self.core.busy_slot(&self.tx, &self.actions, &mut self.rng);
                    }
                }
                self.zero.clear();
                let mut min = u32::MAX;
                self.core.fold(&mut self.zero, &mut min);
                acc = acc
                    .wrapping_add(min as u64)
                    .wrapping_add(self.zero.len() as u64);
            }
            acc
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plc_core::config::CsmaConfig;
    use plc_mac::process::{BackoffProcess, SoaStage, SoaState};
    use plc_mac::{Backoff1901, BackoffDcf};
    use rand::SeedableRng;

    fn views_of<P: BackoffProcess>(ps: &[P]) -> Vec<SoaView> {
        ps.iter().map(|p| p.soa_view().unwrap()).collect()
    }

    /// The core the engine would build for `ps`.
    fn core_of<P: BackoffProcess>(ps: &[P]) -> ContentionCore {
        ContentionCore::try_from_views(&views_of(ps)).unwrap()
    }

    /// `n` 1901 stations on the (CW, DC) table.
    fn stations_1901(n: usize, cw: &[u32], dc: &[u32], seed: u64) -> Vec<Backoff1901> {
        let cfg = CsmaConfig::from_vectors(cw, dc).unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Backoff1901::new(cfg.clone(), &mut rng))
            .collect()
    }

    /// The per-object contender set: contending stations with BC = 0.
    fn object_tx<P: BackoffProcess>(ps: &[P], on: &[bool]) -> Vec<usize> {
        (0..ps.len())
            .filter(|&i| on[i] && ps[i].wants_tx())
            .collect()
    }

    /// The transmitters' actions of a busy slot: a success restarts its
    /// winner; colliders restart (a drop) or advance, mixed by `call`.
    fn actions_for(tx: &[usize], call: usize) -> Vec<SweepAction> {
        tx.iter()
            .map(|&i| match (i + call) % 3 {
                _ if tx.len() == 1 => SweepAction::Restart,
                0 => SweepAction::Restart,
                _ => SweepAction::Advance,
            })
            .collect()
    }

    /// One slot through the objects as the engine's per-object loops run
    /// it: `tx` (ascending) apply their `actions`, every other contending
    /// station idles (no transmitter) or senses the medium busy.
    fn object_slot<P: BackoffProcess>(
        ps: &mut [P],
        on: &[bool],
        tx: &[usize],
        actions: &[SweepAction],
        rng: &mut SmallRng,
    ) {
        let mut txi = 0usize;
        for (i, p) in ps.iter_mut().enumerate() {
            if txi < tx.len() && tx[txi] == i {
                match actions[txi] {
                    SweepAction::Restart => p.reset(rng),
                    SweepAction::Advance => p.on_tx_failure(rng),
                }
                txi += 1;
            } else if on[i] && tx.is_empty() {
                p.on_idle_slot(rng);
            } else if on[i] {
                p.on_busy(rng);
            }
        }
    }

    /// The same slot through the core.
    fn core_slot(
        core: &mut ContentionCore,
        tx: &[usize],
        actions: &[SweepAction],
        rng: &mut SmallRng,
    ) {
        if tx.is_empty() {
            core.idle_slot();
        } else {
            core.busy_slot(tx, actions, rng);
        }
    }

    /// The fold must equal a from-scratch scan of the core: the filed
    /// stations with BC = 0, and, only when there are none (the one case
    /// the engine reads it), their minimum BC.
    fn assert_cache(core: &ContentionCore, zero: &[usize], min: u32, at: &str) {
        let filed: Vec<usize> = (0..core.bpc.len())
            .filter(|&i| !core.clocks.parked(i))
            .collect();
        let want_zero: Vec<usize> = (filed.iter().copied())
            .filter(|&i| core.clocks.bc(i) == 0)
            .collect();
        assert_eq!(zero, want_zero, "{at}: folded zero set");
        if zero.is_empty() {
            let want_min = filed.iter().map(|&i| core.clocks.bc(i)).min();
            assert_eq!(min, want_min.unwrap_or(u32::MAX), "{at}: folded min BC");
        }
    }

    /// Every filed station's clocks must be filed exactly where they
    /// point: its bit set in transmit bucket `tx_at mod R_tx` (multi-word
    /// populations; one word files no transmit clocks) and in deferral
    /// bucket `dc_at mod R_dc` unless its DC is disabled, and in no other
    /// bucket of either ring; a parked station in neither ring. A settled
    /// one-word cache must equal a fresh scan of `tx_at`. `want` is
    /// scratch, rebuilt on every call.
    fn assert_clocks(c: &Clocks, want: &mut Vec<u64>, at: &str) {
        want.clear();
        want.resize(c.tx_ring.len(), 0);
        if !want.is_empty() {
            for (i, &t) in c.tx_at.iter().enumerate() {
                if t != NEVER {
                    want[c.tx_word(t, i)] |= bit(i);
                }
            }
        }
        assert!(c.tx_ring == *want, "{at}: transmit ring");
        want.clear();
        want.resize(c.dc_ring.len(), 0);
        for (i, &d) in c.dc_at.iter().enumerate() {
            if d != NEVER {
                want[c.dc_word(d, i)] |= bit(i);
            }
        }
        assert!(c.dc_ring == *want, "{at}: deferral ring");
        let filed = c.tx_at.iter().filter(|&&t| t != NEVER).count();
        assert_eq!(c.filed, filed, "{at}: filed count");
        if c.words == 1 && !c.stale {
            let next_at = c.tx_at.iter().copied().min().unwrap();
            let next_mask =
                (c.tx_at.iter().enumerate()).fold(0, |m, (i, &t)| m | ((t == next_at) as u64) << i);
            assert_eq!(
                (c.next_at, c.next_mask),
                (next_at, next_mask),
                "{at}: cache"
            );
        }
    }

    /// Every station's counters and both RNG streams must match.
    fn assert_objects<P: BackoffProcess>(
        ps: &[P],
        core: &ContentionCore,
        rngs: (&SmallRng, &SmallRng),
        at: &str,
    ) {
        for (i, p) in ps.iter().enumerate() {
            assert_eq!(p.snapshot(), core.snapshot(i), "{at}: station {i}");
        }
        assert_eq!(rngs.0, rngs.1, "{at}: RNG streams");
    }

    /// Fold the cache after a call and check it, the clocks, the next
    /// contender set and every station against the objects.
    fn check_after<P: BackoffProcess>(
        ps: &[P],
        core: &mut ContentionCore,
        rngs: (&SmallRng, &SmallRng),
        want: &mut Vec<u64>,
        at: &str,
    ) {
        let (mut zero, mut min) = (Vec::new(), u32::MAX);
        core.fold(&mut zero, &mut min);
        assert_clocks(&core.clocks, want, at);
        assert_cache(core, &zero, min, at);
        let mut next = Vec::new();
        core.contenders(&mut next);
        assert_eq!(next, zero, "{at}: contenders after the call");
        assert_objects(ps, core, rngs, at);
    }

    /// Drive the same slot sequence through process objects and through
    /// `core` with cloned RNGs, every station backlogged, emulating the
    /// engine's loop (scan → idle / busy slot → fold): the cache, the
    /// clocks, every counter snapshot and the RNG states must agree at
    /// every slot.
    fn mirror_slots<P: BackoffProcess>(
        ps: &mut [P],
        core: &mut ContentionCore,
        slots: usize,
        seed: u64,
    ) {
        let on = vec![true; ps.len()];
        let mut rng_a = SmallRng::seed_from_u64(seed);
        let mut rng_b = rng_a.clone();
        let mut want = Vec::new();
        for slot in 0..slots {
            let at = format!("slot {slot}");
            let tx = object_tx(ps, &on);
            let mut core_tx = Vec::new();
            core.contenders(&mut core_tx);
            assert_eq!(core_tx, tx, "{at}: contenders");
            let actions = actions_for(&tx, slot);
            object_slot(ps, &on, &tx, &actions, &mut rng_a);
            core_slot(core, &tx, &actions, &mut rng_b);
            check_after(ps, core, (&rng_a, &rng_b), &mut want, &at);
        }
    }

    #[test]
    fn mirrors_object_transitions_1901() {
        let mut seed_rng = SmallRng::seed_from_u64(7);
        let mut ps: Vec<Backoff1901> = (0..4)
            .map(|_| Backoff1901::default_ca1(&mut seed_rng))
            .collect();
        let mut core = core_of(&ps);
        mirror_slots(&mut ps, &mut core, 500, 99);
    }

    #[test]
    fn mirrors_object_transitions_1901_generic_path() {
        // Two stage tables: every redraw reads its station's class table
        // instead of the hoisted one, on one bitset word and on two.
        for n in [4, 70] {
            let mut seed_rng = SmallRng::seed_from_u64(7);
            let mut ps: Vec<Backoff1901> = (0..n)
                .map(|i| match i % 3 {
                    0 => Backoff1901::new(CsmaConfig::ieee1901_ca23(), &mut seed_rng),
                    _ => Backoff1901::default_ca1(&mut seed_rng),
                })
                .collect();
            let mut core = core_of(&ps);
            assert_eq!(core.classes.len(), 2);
            mirror_slots(&mut ps, &mut core, 2_000, 99);
        }
    }

    #[test]
    fn mirrors_event_layout_across_bitset_words() {
        // Three bitset words per bucket, long enough for deep stages and
        // many laps of both rings.
        let mut ps = stations_1901(130, &[8, 16, 32, 64], &[0, 1, 3, 15], 11);
        let mut core = core_of(&ps);
        assert_eq!(core.clocks.words, 3);
        mirror_slots(&mut ps, &mut core, 20_000, 12);
    }

    #[test]
    fn mirrors_event_layout_wide_windows_and_disabled_deferral() {
        // A CW-8192 stage (8192-bucket transmit ring, which the slot
        // clock laps), deferral off, and one- and two-word buckets on
        // both sides of the N ≤ 64 minimum-BC scan.
        let off = [DC_DISABLED; 4];
        let cases: [(usize, &[u32], &[u32], usize); 4] = [
            (5, &[128, 512, 2048, 8192], &[0, 1, 3, 15], 40_000),
            (65, &[128, 512, 2048, 8192], &[0, 1, 3, 15], 40_000),
            (64, &[16, 32, 64, 128], &off, 5_000),
            (65, &[16, 32, 64, 128], &off, 5_000),
        ];
        for (n, cw, dc, slots) in cases {
            let mut ps = stations_1901(n, cw, dc, n as u64);
            let mut core = core_of(&ps);
            mirror_slots(&mut ps, &mut core, slots, 3);
        }
    }

    #[test]
    fn event_layout_survives_clamped_jumps() {
        // `mirror_slots` steps slot by slot; the engine also jumps. Mix
        // busy slots with full jumps (k = min BC), jumps clamped short of
        // it (at the horizon, a beacon or a noise edge; k = 0 is the
        // engine's cache rebuild) and single idle slots, on one-word
        // populations (the cached due set) and on two, three and eight
        // bitset words (both rings). After every call the fold, the
        // contender set, both rings and the one-word cache must equal a
        // fresh scan, and every counter and the RNG the objects', driven
        // alike.
        let off = [DC_DISABLED; 4];
        let tables: [(&[u32], &[u32]); 3] = [
            (&[8, 16, 32, 64], &[0, 1, 3, 15]),
            (&[128, 512, 2048, 8192], &[0, 1, 3, 15]),
            (&[16, 32, 64, 128], &off),
        ];
        let mut want = Vec::new();
        for n in [1, 2, 5, 63, 64, 65, 130, 500] {
            let on = vec![true; n];
            let (mut full_n, mut clamped_n) = (0, 0);
            for (cw, dc) in tables {
                let mut ps = stations_1901(n, cw, dc, n as u64);
                let mut core = core_of(&ps);
                assert_eq!(core.clocks.words, n.div_ceil(64));
                let mut pick = SmallRng::seed_from_u64(n as u64 ^ cw[0] as u64);
                let mut rng_a = SmallRng::seed_from_u64(21);
                let mut rng_b = rng_a.clone();
                let (mut full, mut clamped) = (0, 0);
                for call in 0..4_000 {
                    let at = format!("N = {n}, CW {cw:?}, call {call}");
                    let mut tx = Vec::new();
                    core.contenders(&mut tx);
                    assert_eq!(tx, object_tx(&ps, &on), "{at}: contenders");
                    let mut jump = None;
                    if tx.is_empty() {
                        let min_bc = ps.iter().map(|p| p.snapshot().bc).min().unwrap();
                        match pick.next_u32() % 3 {
                            0 => {
                                full += 1;
                                jump = Some(min_bc);
                            }
                            1 => {
                                let k = pick.next_u32() % min_bc;
                                clamped += (k > 0) as usize;
                                jump = Some(k);
                            }
                            _ => {}
                        }
                    }
                    match jump {
                        Some(k) => {
                            for p in &mut ps {
                                p.consume_idle_slots(k);
                            }
                            core.skip_idle(k);
                        }
                        None => {
                            let actions = actions_for(&tx, call);
                            object_slot(&mut ps, &on, &tx, &actions, &mut rng_a);
                            core_slot(&mut core, &tx, &actions, &mut rng_b);
                        }
                    }
                    check_after(&ps, &mut core, (&rng_a, &rng_b), &mut want, &at);
                }
                assert!(
                    n > 64 || full > 0 && clamped > 0,
                    "N = {n}, CW {cw:?}: {full} full and {clamped} clamped jumps"
                );
                full_n += full;
                clamped_n += clamped;
            }
            // Larger populations are seldom idle (500 stations on the CA1
            // table never are in 4,000 calls), so their jumps are counted
            // over the three tables.
            assert!(
                full_n > 0 && clamped_n > 0,
                "N = {n}: {full_n} full and {clamped_n} clamped jumps"
            );
        }
    }

    #[test]
    fn mirrors_object_transitions_dcf() {
        // One bitset word and two: the BC clock stops on busy slots.
        for (n, slots) in [(3, 400), (70, 4_000)] {
            let mut seed_rng = SmallRng::seed_from_u64(3);
            let mut ps: Vec<BackoffDcf> =
                (0..n).map(|_| BackoffDcf::classic(&mut seed_rng)).collect();
            let mut core = core_of(&ps);
            mirror_slots(&mut ps, &mut core, slots, 5);
        }
    }

    /// Drive `ps` and their core through random backlog changes in the
    /// engine's order — arrivals (`reset_now`, then the backlog flag) and
    /// priority freezes and unfreezes at the top of a step, a slot or a
    /// jump, then drains of the slot's transmitters after their redraw —
    /// and compare with the objects after every call. Stations that do
    /// not contend get no object call, so their counters hold.
    fn drive_backlog<P: BackoffProcess>(ps: &mut [P], calls: usize, seed: u64) {
        let n = ps.len();
        let mut core = core_of(ps);
        let mut pick = SmallRng::seed_from_u64(seed);
        let mut rng_a = SmallRng::seed_from_u64(seed ^ 1);
        let mut rng_b = rng_a.clone();
        let mut want = Vec::new();
        let (mut backlog, mut frozen) = (vec![true; n], vec![false; n]);
        let (mut parks, mut unparks, mut arrivals) = (0, 0, 0);
        for call in 0..calls {
            let at = |what: &str| format!("N = {n}, call {call}: {what}");
            let mut set_active = |core: &mut ContentionCore, i: usize, on: bool| {
                let was = !core.clocks.parked(i);
                core.set_active(i, on);
                assert_eq!(core.clocks.parked(i), !on);
                parks += (was && !on) as usize;
                unparks += (!was && on) as usize;
            };
            for i in 0..n {
                // An arrival can reach a station still backlogged with
                // errored blocks to resend, filed or frozen, as well as a
                // drained one.
                match pick.next_u32() % 16 {
                    0 => {
                        backlog[i] = true;
                        arrivals += 1;
                        ps[i].reset(&mut rng_a);
                        core.reset_now(i, &mut rng_b);
                        assert!(!core.clocks.parked(i), "{}", at("an arrival files"));
                        assert_objects(ps, &core, (&rng_a, &rng_b), &at("arrival"));
                    }
                    1 => frozen[i] = !frozen[i],
                    _ => continue,
                }
                set_active(&mut core, i, backlog[i] && !frozen[i]);
                assert_objects(ps, &core, (&rng_a, &rng_b), &at("backlog flag"));
            }
            let on: Vec<bool> = (0..n).map(|i| backlog[i] && !frozen[i]).collect();
            let mut tx = Vec::new();
            core.contenders(&mut tx);
            assert_eq!(tx, object_tx(ps, &on), "{}", at("contenders"));
            let min_bc = (0..n).filter(|&i| on[i]).map(|i| ps[i].snapshot().bc).min();
            match min_bc {
                Some(m) if m > 1 && pick.next_u32() % 2 == 0 => {
                    let k = 1 + pick.next_u32() % m;
                    for i in (0..n).filter(|&i| on[i]) {
                        ps[i].consume_idle_slots(k);
                    }
                    core.skip_idle(k);
                }
                _ => {
                    let actions = actions_for(&tx, call);
                    object_slot(ps, &on, &tx, &actions, &mut rng_a);
                    core_slot(&mut core, &tx, &actions, &mut rng_b);
                    assert_objects(ps, &core, (&rng_a, &rng_b), &at("slot"));
                    for &i in &tx {
                        if pick.next_u32() % 2 == 0 {
                            backlog[i] = false;
                            set_active(&mut core, i, false);
                        }
                    }
                }
            }
            check_after(ps, &mut core, (&rng_a, &rng_b), &mut want, &at("step"));
        }
        assert!(
            parks > calls / 10 && unparks > calls / 10 && arrivals > calls / 10,
            "N = {n}: {parks} parks, {unparks} unparks, {arrivals} arrivals"
        );
    }

    #[test]
    fn parks_and_unparks_like_the_objects() {
        for n in [5, 70] {
            let mut seed_rng = SmallRng::seed_from_u64(n as u64);
            // Two 1901 tables, so a redraw reads its station's table.
            let mut ps: Vec<Backoff1901> = (0..n)
                .map(|i| match i % 3 {
                    0 => Backoff1901::new(CsmaConfig::ieee1901_ca23(), &mut seed_rng),
                    _ => Backoff1901::default_ca1(&mut seed_rng),
                })
                .collect();
            drive_backlog(&mut ps, 3_000, n as u64);
            let mut ps: Vec<BackoffDcf> =
                (0..n).map(|_| BackoffDcf::classic(&mut seed_rng)).collect();
            drive_backlog(&mut ps, 3_000, n as u64 + 1);
        }
    }

    /// `n` copies of a 1901 view on the (CW, DC) table at stage 0.
    fn views_1901(n: usize, cw: &[u32], dc: &[u32]) -> Vec<SoaView> {
        let stages: Vec<SoaStage> = (cw.iter().zip(dc))
            .map(|(&cw, &dc)| SoaStage { cw, dc })
            .collect();
        let view = SoaView {
            protocol: Protocol::Ieee1901,
            state: SoaState {
                bc: 0,
                dc: stages[0].dc,
                bpc: 1,
                stage: 0,
            },
            stages,
        };
        vec![view; n]
    }

    #[test]
    fn rejects_unrepresentable_views() {
        let reject = |views: &[SoaView]| ContentionCore::try_from_views(views).err();
        let view = |cw: u32, dc: u32, nstages: usize| SoaView {
            stages: vec![SoaStage { cw, dc }; nstages],
            ..views_1901(1, &[8], &[0]).remove(0)
        };
        assert_eq!(reject(&[]), Some(CoreRejection::Empty));
        assert_eq!(
            reject(&[view(0, 0, 4)]),
            Some(CoreRejection::WindowUnrepresentable { station: 0, cw: 0 })
        );
        assert_eq!(
            reject(&[view(8, 0, 257)]),
            Some(CoreRejection::StageTableSize {
                station: 0,
                stages: 257
            })
        );
        // u64 clocks take any window, deferral counter and live counter
        // the views carry.
        let mut big = view(1 << 17, 0xFFFF, 4);
        big.state.bc = u16::MAX as u32 + 1;
        big.state.dc = 0xFFFF;
        for v in [big, view(8, DC_DISABLED, 4), view(8, 0, 4)] {
            assert_eq!(reject(&[v]), None);
        }
        let mut rng = SmallRng::seed_from_u64(1);
        let mixed = [
            Backoff1901::default_ca1(&mut rng).soa_view().unwrap(),
            BackoffDcf::classic(&mut rng).soa_view().unwrap(),
        ];
        assert_eq!(
            reject(&mixed),
            Some(CoreRejection::MixedProtocols { station: 1 })
        );
    }

    #[test]
    fn dedups_classes_and_hosts_every_population() {
        let mut rng = SmallRng::seed_from_u64(1);
        let ps: Vec<Backoff1901> = (0..10)
            .map(|_| Backoff1901::default_ca1(&mut rng))
            .collect();
        assert_eq!(core_of(&ps).classes.len(), 1);
        let mixed: Vec<Backoff1901> = (0..10)
            .map(|i| match i % 2 {
                0 => Backoff1901::new(CsmaConfig::ieee1901_ca23(), &mut rng),
                _ => Backoff1901::default_ca1(&mut rng),
            })
            .collect();
        let core = core_of(&mixed);
        assert_eq!(core.classes.len(), 2);
        assert_eq!(core.class, [0, 1, 0, 1, 0, 1, 0, 1, 0, 1]);
        let dcf: Vec<BackoffDcf> = (0..10).map(|_| BackoffDcf::classic(&mut rng)).collect();
        assert_eq!(core_of(&dcf).clocks.proto, Protocol::Dcf80211);
        // CW 8192: (8192 + 16) buckets × 16 words × 8 bytes ≈ 1.05 MB of
        // rings at N = 1000, ≈ 30.8 MB at N = 30,000 (469 words), and
        // past the 32 MiB cap at N = 33,000 (516 words).
        let wide = |n| views_1901(n, &[128, 512, 2048, 8192], &[0, 1, 3, 15]);
        for n in [1000, 30_000] {
            let core = ContentionCore::try_from_views(&wide(n)).unwrap();
            let bytes = 8 * (core.clocks.tx_ring.len() + core.clocks.dc_ring.len());
            assert!(
                (1 << 20..=RING_BYTES_MAX).contains(&bytes),
                "N = {n}: {bytes} bytes"
            );
        }
        let too_wide = ContentionCore::try_from_views(&wide(33_000)).err();
        assert!(
            matches!(too_wide, Some(CoreRejection::RingsTooLarge { bytes }) if bytes > RING_BYTES_MAX),
            "{too_wide:?}"
        );
    }
}
