//! Struct-of-arrays contention core: the engine's busy-slot hot path.
//!
//! [`SlottedEngine`](crate::engine::SlottedEngine) is generic over
//! [`BackoffProcess`](plc_mac::process::BackoffProcess) objects, which is
//! the right shape for correctness and protocol ablations but the wrong
//! shape for a saturated medium: walking a `Vec<StationCtx>` of ~100-byte
//! structs costs several cache lines per station plus an enum dispatch
//! per event. When every station's process exports a
//! [`SoaView`](plc_mac::process::SoaView), the engine moves the counters
//! into this core, which keeps them in one of two layouts.
//!
//! # Event-indexed layout (saturated single-class IEEE 1901)
//!
//! A 1901 station changes course only when one of its two clocks runs
//! out: BC counts down on every contention slot, DC on every busy slot.
//! For the all-backlogged, single-class 1901 population — the saturated
//! benchmark regime — the core therefore stores *when* each clock runs
//! out rather than the counters:
//!
//! * `slot` counts contention slots (idle and busy), `busy` counts busy
//!   slots;
//! * station `i` keeps `tx_at[i]`, the `slot` at which its BC reaches 0
//!   (`BC = tx_at − slot`), and `dc_at[i]`, the `busy` index at which its
//!   DC reaches 0 (`DC = dc_at − busy`; [`NEVER`] when deferral is
//!   disabled);
//! * each number is also filed in a power-of-two ring of station bitsets
//!   (⌈N/64⌉ words per bucket; see below for N ≤ 64): bucket
//!   `tx_at mod R_tx` of the transmit ring, bucket `dc_at mod R_dc` of
//!   the deferral ring. Between slots a `tx_at` lies in
//!   `[slot, slot + max CW − 1]` and a `dc_at` in `[busy, busy + max DC]`,
//!   so with at least max CW and max DC + 1 buckets every bucket holds one
//!   clock value. A redraw can file a full lap ahead, into the bucket
//!   being read, but a busy slot empties each word of that bucket before
//!   it files any station of the word. Both rings are sized once from the
//!   class table and never grow.
//!
//! A busy slot visits only `tx_ring[slot] | dc_ring[busy]` — the
//! transmitters plus the stations whose DC ran out — and redraws each;
//! every other station's BC and DC drop by one when `slot` and `busy`
//! advance. An idle slot is `slot += 1`, a fast-forward jump over `k`
//! idle slots is `slot += k`, and the next slot's transmitter set is the
//! bucket `tx_ring[slot]`. The minimum BC (the fast-forward jump length)
//! is needed only when that bucket is empty, and only then computed: the
//! distance to the next non-empty transmit bucket.
//!
//! The decrement was never the cost. On the packed layout below at
//! N = 500 (CA1), an idle sweep — decrement and fold every station,
//! nothing else — takes ≈0.7 µs, a busy slot ≈2.9 µs. The rest is the
//! ≈35 stations that change course on a busy slot (≈9 transmitters and
//! ≈26 deferral redraws, averaged over 34,000 busy slots), each picked
//! out by a data-dependent branch of the O(N) loop and queued for its
//! redraw. Visiting only those stations brings the busy slot to ≈1.1 µs
//! (`busy_slot/500`: 3.75 → 1.12 ms per 1,000 slots).
//!
//! Populations of at most 64 stations (one bitset word) file no transmit
//! clocks. A sparse ring (five stations at CW 8192 spread over 8,192
//! buckets) would cost far more to walk, and 64 KB per engine to hold.
//! They cache instead the earliest `tx_at` (`next_at`) and the bitset of
//! the stations due at it (`next_mask`). Only a busy slot (and `new`)
//! changes a `tx_at`, and it ends with one branch-free pass over at most
//! 64 of them that refreshes both; idle slots and jumps move `slot`
//! alone. So the transmitter set is `next_mask` once `slot == next_at`
//! and empty before, the minimum BC is `next_at − slot`, and a jump
//! clamped short of it (at the horizon, a beacon or a noise edge) needs
//! no scan: every BC stays positive and the minimum drops by the jump.
//!
//! A population whose rings would exceed [`RING_BYTES_MAX`] (wide
//! windows × many stations, e.g. N > 960 with a CW-8192 stage) stays on
//! the packed layout. Like a [`CoreRejection`] fallback this changes no
//! result, only the cost — the busy slot is O(N) again — but it is not
//! counted in `engine.soa_fallbacks`: the struct-of-arrays core is still
//! in use.
//!
//! # Packed layout (everything else)
//!
//! Dynamic backlog (Poisson, on/off), DCF, multi-table and mixed-priority
//! populations (whose resolution rounds clear the losers' backlog flags)
//! keep BC and DC packed into one `u32` per station (`bcdc`: BC in the
//! low 16 bits, DC in the high 16, with `0xFFFF` as the disabled-DC
//! sentinel) and sweep every backlogged station on each slot. A
//! deferring station's whole slot update is one load, one compare
//! (`word >= 0x10000` means `DC > 0`), one subtract and one store:
//!
//! ```text
//! word - 1 - (((word >> 16) != 0xFFFF) as u32) << 16   // BC -= 1, DC -= 1 unless disabled
//! ```
//!
//! Stage and BPC live in separate arrays in both layouts — they are only
//! touched on redraws. `from_views` rejects populations whose CW/DC
//! values don't fit the packed domain (CW > 2¹⁶, DC ≥ 2¹⁶ − 1 yet not
//! disabled), in which case the engine stays on the per-object path.
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
//! The event layout draws as it visits: bit iteration yields stations in
//! ascending order. The packed sweep runs in two passes: pass 1 walks
//! stations in ascending order and *decides* who redraws (queueing
//! `(station, cw)` pairs), pass 2 pre-fills the draw buffer from the
//! engine RNG — one `next_u64` per queued redraw, in queue order — and
//! applies the same multiply-shift. Either way the stream consumption is
//! word-for-word what the per-object path would have drawn.
//!
//! The fast-forward contention cache (`zero` set + min BC) is folded
//! *inside* the sweeps (`TRACK = true`). In the packed layout stations
//! whose BC is final fold inline, redrawn stations fold as their draw
//! lands, and the two ascending zero sets merge with one ordered pass;
//! the event layout reads the set off the next transmit bucket, or off
//! the cached due set of a one-word population.

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

const PROTO_DCF: u8 = 0;
const PROTO_1901: u8 = 1;

/// In-word disabled-DC sentinel (the packed 16-bit image of
/// [`DC_DISABLED`]).
const DC16_DISABLED: u32 = 0xFFFF;

/// `dc_at` of a station whose deferral counter is disabled: its DC never
/// runs out.
const NEVER: u64 = u64::MAX;

/// Most bytes both rings of an [`EventLayout`] may take together. A
/// population that would need more stays on the packed layout.
///
/// The cap keeps the rings within one core's L2 cache; it is not where
/// the event layout starts to lose. Run time per busy slot of saturated
/// `cw128-g4-dc1901` (5·10⁷ µs, best of 3, two rounds; a 2-vCPU Xeon
/// with 2 MiB of L2 per core), event vs packed layout: N = 500 (0.5 MB
/// of rings) 0.6–1.0 vs 3.6–4.6 µs, N = 1000 (1.05 MB) 1.5–2.1 vs
/// 7.7–8.5 µs, N = 4000 (4.1 MB) 11–13 vs 29–33 µs, N = 16,000 (16.4 MB)
/// 85–89 vs 99–103 µs. The gain falls from ≈5× to ≈1.15× once the rings
/// outgrow L2, while they hold ≈1 KB per station at CW 8192.
const RING_BYTES_MAX: usize = 1 << 20;

/// Pack a (BC, 16-bit DC) pair into one word.
#[inline]
fn pack(bc: u32, dc16: u32) -> u32 {
    bc | (dc16 << 16)
}

/// Map one RNG word into `0..cw` exactly as the vendored
/// `gen_range(0..cw)` does (see the module docs).
#[inline]
fn draw_below(x: u64, cw: u32) -> u32 {
    (((x as u128) * (cw as u128)) >> 64) as u32
}

/// Per-stage parameters of one distinct (protocol, table) combination.
/// Stations index into these via `ContentionCore::class`, so homogeneous
/// populations share one table.
struct ClassTable {
    proto: u8,
    cw: Vec<u32>,
    /// Per-stage DC reload values, already mapped to the packed 16-bit
    /// domain ([`DC16_DISABLED`] for disabled).
    dc16: Vec<u32>,
    /// `num_stages − 1`: both protocols saturate stage lookups here.
    last: u32,
}

/// BC/DC store of the event-indexed layout. See the [module docs](self).
struct EventLayout {
    /// Contention slots elapsed, idle and busy: the BC clock.
    slot: u64,
    /// Busy slots elapsed: the DC clock.
    busy: u64,
    /// Per station, the `slot` at which its BC reaches 0.
    tx_at: Vec<u64>,
    /// Per station, the `busy` index at which its DC reaches 0
    /// ([`NEVER`] when disabled).
    dc_at: Vec<u64>,
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
    /// BC is `next_at − slot`.
    next_at: u64,
    /// One-word populations only: the stations whose `tx_at` is
    /// `next_at`, the transmit set once `slot` reaches it.
    next_mask: u64,
}

impl EventLayout {
    /// File the packed words of a single-class 1901 population, or `None`
    /// when its rings would exceed [`RING_BYTES_MAX`].
    fn new(bcdc: &[u32], t: &ClassTable) -> Option<Self> {
        let on = |&dc: &u32| dc != DC16_DISABLED;
        let max_cw = t.cw.iter().copied().max().unwrap_or(0);
        let max_dc = t.dc16.iter().copied().filter(on).max().unwrap_or(0);
        // A station's current counters come from the same table, but the
        // view is arbitrary data: size for them too.
        let max_bc0 = bcdc.iter().map(|w| w & 0xFFFF).max().unwrap_or(0);
        let max_dc0 = bcdc.iter().map(|w| w >> 16).filter(on).max().unwrap_or(0);
        let tx_buckets = (max_cw as usize)
            .max(max_bc0 as usize + 1)
            .next_power_of_two();
        let dc_buckets = (max_dc.max(max_dc0) as usize + 1).next_power_of_two();
        let words = bcdc.len().div_ceil(64);
        // One bitset word: the transmit clocks are scanned, not filed.
        let tx_words = if words == 1 { 0 } else { tx_buckets * words };
        let ring_words = tx_words.checked_add(dc_buckets.checked_mul(words)?)?;
        if ring_words.checked_mul(8)? > RING_BYTES_MAX {
            return None;
        }
        let mut ev = EventLayout {
            slot: 0,
            busy: 0,
            tx_at: bcdc.iter().map(|w| (w & 0xFFFF) as u64).collect(),
            dc_at: bcdc
                .iter()
                .map(|w| match w >> 16 {
                    DC16_DISABLED => NEVER,
                    dc => dc as u64,
                })
                .collect(),
            words,
            tx_ring: vec![0; tx_words],
            tx_mask: tx_buckets as u64 - 1,
            dc_ring: vec![0; dc_buckets * words],
            dc_mask: dc_buckets as u64 - 1,
            next_at: 0,
            next_mask: 0,
        };
        for i in 0..bcdc.len() {
            if words > 1 {
                let w = ev.tx_word(ev.tx_at[i], i);
                ev.tx_ring[w] |= bit(i);
            }
            if ev.dc_at[i] != NEVER {
                let w = ev.dc_word(ev.dc_at[i], i);
                ev.dc_ring[w] |= bit(i);
            }
        }
        if words == 1 {
            ev.refresh_next();
        }
        Some(ev)
    }

    /// Recompute `next_at` and `next_mask` of a one-word population in
    /// one branch-free pass over `tx_at`. Only `new` and `busy_slot`
    /// change `tx_at`, and both end here; idle slots and jumps move
    /// `slot` alone, which the cache reads relative to.
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
    }

    /// The one-word transmit set: the stations whose BC is 0 this slot.
    #[inline]
    fn due(&self) -> u64 {
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

    #[inline]
    fn bc(&self, i: StationId) -> u32 {
        (self.tx_at[i] - self.slot) as u32
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

    /// The contention cache after a slot: `zero` (empty on entry) gets
    /// the transmitters of the new slot, and only when there are none
    /// does `min_bc` get the minimum BC.
    #[inline]
    fn fold(&self, zero: &mut Vec<StationId>, min_bc: &mut u32) {
        self.transmitters(zero);
        if zero.is_empty() {
            *min_bc = self.min_bc();
        }
    }

    /// Minimum BC when no station transmits this slot (all BC > 0).
    fn min_bc(&self) -> u32 {
        let d = if self.words == 1 {
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

    /// One busy slot: visit `tx_ring[slot] | dc_ring[busy]` in ascending
    /// station order, take each visited station out of both rings and
    /// redraw it as 1901 does — stage from BPC (zeroed first for a
    /// `Restart`), DC reloaded, BPC incremented, one RNG word for the BC
    /// — filing the fresh clocks ahead of the advanced `slot`/`busy`.
    /// `tx` must be the transmit bucket in ascending order (the
    /// contender set), `actions` parallel to it. A one-word population
    /// takes its transmit word from the cached due set and, once every
    /// redraw has landed, refreshes that cache in one pass over `tx_at`:
    /// the next slot, idle run and jump read it without a scan.
    fn busy_slot(
        &mut self,
        tx: &[StationId],
        actions: &[SweepAction],
        t: &ClassTable,
        bpc: &mut [u32],
        stage: &mut [u8],
        rng: &mut SmallRng,
    ) {
        debug_assert!(
            self.words > 1 || {
                let scan = (self.tx_at.iter().enumerate())
                    .fold(0, |bits, (i, &at)| bits | ((at == self.slot) as u64) << i);
                self.due() == scan && scan == tx.iter().fold(0, |bits, &i| bits | bit(i))
            },
            "transmitters must be the stations with BC = 0"
        );
        let tx_base = (self.slot & self.tx_mask) as usize * self.words;
        let dc_base = (self.busy & self.dc_mask) as usize * self.words;
        let (slot, busy) = (self.slot + 1, self.busy + 1);
        let mut txi = 0usize;
        for w in 0..self.words {
            // The current buckets empty out: every station in them
            // redraws. A redraw of this word filed a full lap ahead
            // lands in them again, after this take, so it is not
            // visited twice.
            let tx_bits = if self.words == 1 {
                self.due()
            } else {
                std::mem::take(&mut self.tx_ring[tx_base + w])
            };
            let mut bits = tx_bits | std::mem::take(&mut self.dc_ring[dc_base + w]);
            while bits != 0 {
                let b = bits.trailing_zeros();
                bits &= bits - 1;
                let i = w * 64 + b as usize;
                if tx_bits >> b & 1 != 0 {
                    debug_assert_eq!(tx[txi], i, "transmitters must be the slot's bucket");
                    if actions[txi] == SweepAction::Restart {
                        bpc[i] = 0;
                    }
                    txi += 1;
                    // Its DC may still be running: leave that bucket.
                    if self.dc_at[i] != NEVER {
                        let at = self.dc_word(self.dc_at[i], i);
                        self.dc_ring[at] &= !bit(i);
                    }
                } else if self.words > 1 {
                    // DC ran out while BC > 0: leave the transmit bucket.
                    let at = self.tx_word(self.tx_at[i], i);
                    self.tx_ring[at] &= !bit(i);
                }
                let s = bpc[i].min(t.last) as usize;
                stage[i] = s as u8;
                bpc[i] = bpc[i].saturating_add(1);
                self.dc_at[i] = match t.dc16[s] {
                    DC16_DISABLED => NEVER,
                    dc => {
                        let at = busy + dc as u64;
                        let word = self.dc_word(at, i);
                        self.dc_ring[word] |= bit(i);
                        at
                    }
                };
                let at = slot + draw_below(rng.next_u64(), t.cw[s]) as u64;
                self.tx_at[i] = at;
                if self.words > 1 {
                    let word = self.tx_word(at, i);
                    self.tx_ring[word] |= bit(i);
                }
            }
        }
        debug_assert_eq!(txi, tx.len(), "every transmitter must be in the bucket");
        self.slot = slot;
        self.busy = busy;
        if self.words == 1 {
            self.refresh_next();
        }
    }
}

/// Station `i`'s bit within its bitset word.
#[inline]
fn bit(i: usize) -> u64 {
    1 << (i % 64)
}

/// Append the stations of bitset word `bits`, whose bit 0 is station
/// `base`, in ascending order.
#[inline]
fn push_bits(out: &mut Vec<StationId>, base: usize, mut bits: u64) {
    while bits != 0 {
        out.push(base + bits.trailing_zeros() as usize);
        bits &= bits - 1;
    }
}

/// The struct-of-arrays contention state. See the [module docs](self).
pub(crate) struct ContentionCore {
    n: usize,
    /// Packed per-station `BC | DC << 16` words: the BC/DC store of the
    /// packed layout, empty under the event layout. `u16` BC is exact:
    /// `CsmaConfig` caps CW at 2¹⁶, so every draw from `0..cw` fits
    /// (checked again in [`from_views`]).
    bcdc: Vec<u32>,
    /// The BC/DC store of the event-indexed layout, when the population
    /// qualifies (all backlogged, one IEEE 1901 class, rings within
    /// [`RING_BYTES_MAX`]). `None` selects the packed layout.
    events: Option<EventLayout>,
    /// 1901: raw BPC (one past the stage in effect). DCF: retry count.
    /// Only touched on redraws — deliberately outside the packed word.
    bpc: Vec<u32>,
    /// Stage in effect, cached at redraw time.
    stage: Vec<u8>,
    /// `PROTO_1901` or `PROTO_DCF` — selects the busy-slot semantics.
    proto: Vec<u8>,
    /// Index into `classes`.
    class: Vec<u16>,
    /// Whether the station is backlogged (has a fresh frame queued or
    /// errored PBs awaiting retransmission). The engine keeps these in
    /// step with the stations' queues, so the sweeps never touch
    /// `StationCtx`.
    active: Vec<bool>,
    classes: Vec<ClassTable>,
    /// Queued redraws of the current packed sweep: `(station, cw)` in
    /// ascending station order — the draw order.
    pending: Vec<(u32, u32)>,
    /// Per-sweep batch of raw RNG words, one per queued redraw.
    draws: Vec<u64>,
    /// Redrawn stations whose fresh BC landed on 0, ascending (scratch
    /// for the fused cache fold; see [`merge_zero`]).
    redraw_zero: Vec<StationId>,
    /// Merge scratch for [`merge_zero`].
    merge_buf: Vec<StationId>,
}

/// Merge the ascending `extra` set into the ascending `zero` set,
/// preserving order. The two sets are disjoint (a station folds from
/// exactly one pass), so strict `<` suffices.
fn merge_zero(zero: &mut Vec<StationId>, extra: &[StationId], buf: &mut Vec<StationId>) {
    if extra.is_empty() {
        return;
    }
    buf.clear();
    let (mut i, mut j) = (0, 0);
    while i < zero.len() && j < extra.len() {
        if zero[i] < extra[j] {
            buf.push(zero[i]);
            i += 1;
        } else {
            buf.push(extra[j]);
            j += 1;
        }
    }
    buf.extend_from_slice(&zero[i..]);
    buf.extend_from_slice(&extra[j..]);
    std::mem::swap(zero, buf);
}

/// Map a view's DC value into the packed 16-bit domain, or `None` when
/// it doesn't fit (the core then stays unused).
#[inline]
fn dc16_of(dc: u32) -> Option<u32> {
    if dc == DC_DISABLED {
        Some(DC16_DISABLED)
    } else if dc < DC16_DISABLED {
        Some(dc)
    } else {
        None
    }
}
/// Why a station population cannot be hosted in the packed
/// struct-of-arrays core. The engine then falls back to the per-object
/// path — results are identical, only the busy-slot sweep is slower —
/// and surfaces the reason through
/// [`SlottedEngine::soa_rejection`](crate::engine::SlottedEngine::soa_rejection)
/// plus the `engine.soa_fallbacks` observability counter, instead of
/// silently degrading.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CoreRejection {
    /// No stations (nothing to pack).
    Empty,
    /// More stations than the packed index domain.
    TooManyStations(usize),
    /// A stage table is empty or longer than the `u8` stage array allows.
    StageTableSize {
        /// Offending station.
        station: usize,
        /// Its stage-table length.
        stages: usize,
    },
    /// A contention window of 0 or above 2¹⁶ cannot be packed into the
    /// 16-bit BC field (a draw from `0..cw` must fit).
    WindowUnrepresentable {
        /// Offending station.
        station: usize,
        /// The unrepresentable window.
        cw: u32,
    },
    /// A deferral counter ≥ 0xFFFF that is not [`DC_DISABLED`] collides
    /// with the packed disabled-DC sentinel.
    DeferralUnrepresentable {
        /// Offending station.
        station: usize,
        /// The unrepresentable deferral counter.
        dc: u32,
    },
    /// A live backoff counter above the 16-bit packed domain.
    CounterOutOfRange {
        /// Offending station.
        station: usize,
        /// The unrepresentable backoff counter.
        bc: u32,
    },
    /// A station's current stage indexes past its stage table.
    StageOutOfRange {
        /// Offending station.
        station: usize,
        /// The out-of-range stage.
        stage: u32,
    },
    /// More distinct (protocol, table) classes than the `u16` class ids.
    TooManyClasses(usize),
}

impl std::fmt::Display for CoreRejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreRejection::Empty => write!(f, "no stations to pack"),
            CoreRejection::TooManyStations(n) => {
                write!(f, "{n} stations exceed the packed index domain")
            }
            CoreRejection::StageTableSize { station, stages } => write!(
                f,
                "station {station}: stage table of {stages} entries does not fit \
                 the u8 stage array (need 1..=256)"
            ),
            CoreRejection::WindowUnrepresentable { station, cw } => write!(
                f,
                "station {station}: contention window {cw} does not fit the \
                 packed 16-bit backoff field (need 1..=65536)"
            ),
            CoreRejection::DeferralUnrepresentable { station, dc } => write!(
                f,
                "station {station}: deferral counter {dc} collides with the \
                 packed disabled-DC sentinel 0xFFFF (need < 65535 or DC_DISABLED)"
            ),
            CoreRejection::CounterOutOfRange { station, bc } => write!(
                f,
                "station {station}: backoff counter {bc} exceeds the packed \
                 16-bit domain"
            ),
            CoreRejection::StageOutOfRange { station, stage } => write!(
                f,
                "station {station}: stage {stage} indexes past its stage table"
            ),
            CoreRejection::TooManyClasses(n) => {
                write!(f, "{n} distinct parameter classes exceed the u16 class ids")
            }
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
    /// Build a core from per-station views, or `None` when the views
    /// cannot be represented exactly (oversized CW/DC/stage tables), in
    /// which case the engine stays on the per-object path. See
    /// [`try_from_views`](Self::try_from_views) for the reason.
    pub(crate) fn from_views(views: &[SoaView], all_active: bool) -> Option<Self> {
        Self::try_from_views(views, all_active).ok()
    }

    /// [`from_views`](Self::from_views) surfacing *why* the views cannot
    /// be packed, so the engine can report the fallback instead of
    /// silently taking the per-object path. An all-backlogged (`all_active`)
    /// single-class IEEE 1901 population gets the event-indexed layout
    /// unless its rings would exceed [`RING_BYTES_MAX`]; that fallback is
    /// not a rejection — the packed layout hosts it with identical
    /// results, and the module docs say what it costs.
    pub(crate) fn try_from_views(
        views: &[SoaView],
        all_active: bool,
    ) -> std::result::Result<Self, CoreRejection> {
        let core = Self::try_arrays(views, all_active)?;
        if all_active && core.classes.len() == 1 && core.classes[0].proto == PROTO_1901 {
            if let Some(ev) = EventLayout::new(&core.bcdc, &core.classes[0]) {
                // It redraws as it visits: no packed words, redraw queue
                // or fold scratch.
                return Ok(ContentionCore {
                    events: Some(ev),
                    bcdc: Vec::new(),
                    ..core
                });
            }
        }
        Ok(core.with_packed_scratch())
    }

    /// The packed layout, whatever the population.
    #[cfg(test)]
    fn try_packed(views: &[SoaView], all_active: bool) -> std::result::Result<Self, CoreRejection> {
        Ok(Self::try_arrays(views, all_active)?.with_packed_scratch())
    }

    /// The packed sweep's redraw queue and fold scratch, sized for every
    /// station at once so no sweep ever grows them.
    fn with_packed_scratch(self) -> Self {
        let n = self.n;
        ContentionCore {
            pending: Vec::with_capacity(n),
            draws: Vec::with_capacity(n),
            redraw_zero: Vec::with_capacity(n),
            merge_buf: Vec::with_capacity(n),
            ..self
        }
    }

    /// The per-station arrays and class tables, checked against the
    /// packed domain, with BC and DC in `bcdc`.
    fn try_arrays(views: &[SoaView], all_active: bool) -> std::result::Result<Self, CoreRejection> {
        let n = views.len();
        if n == 0 {
            return Err(CoreRejection::Empty);
        }
        if n > u32::MAX as usize {
            return Err(CoreRejection::TooManyStations(n));
        }
        let mut classes: Vec<(Protocol, &SoaView, ClassTable)> = Vec::new();
        let mut core = ContentionCore {
            n,
            bcdc: Vec::with_capacity(n),
            events: None,
            bpc: Vec::with_capacity(n),
            stage: Vec::with_capacity(n),
            proto: Vec::with_capacity(n),
            class: Vec::with_capacity(n),
            active: vec![all_active; n],
            classes: Vec::new(),
            pending: Vec::new(),
            draws: Vec::new(),
            redraw_zero: Vec::new(),
            merge_buf: Vec::new(),
        };
        for (station, v) in views.iter().enumerate() {
            if v.stages.is_empty() || v.stages.len() > 256 {
                return Err(CoreRejection::StageTableSize {
                    station,
                    stages: v.stages.len(),
                });
            }
            if let Some(s) = v.stages.iter().find(|s| s.cw == 0 || s.cw > 1 << 16) {
                return Err(CoreRejection::WindowUnrepresentable { station, cw: s.cw });
            }
            if let Some(s) = v.stages.iter().find(|s| dc16_of(s.dc).is_none()) {
                return Err(CoreRejection::DeferralUnrepresentable { station, dc: s.dc });
            }
            let st = v.state;
            if st.bc > u16::MAX as u32 {
                return Err(CoreRejection::CounterOutOfRange { station, bc: st.bc });
            }
            if st.stage as usize >= v.stages.len() {
                return Err(CoreRejection::StageOutOfRange {
                    station,
                    stage: st.stage,
                });
            }
            let dc16 = dc16_of(st.dc)
                .ok_or(CoreRejection::DeferralUnrepresentable { station, dc: st.dc })?;
            let class = match classes
                .iter()
                .position(|(p, cv, _)| *p == v.protocol && cv.stages == v.stages)
            {
                Some(c) => c,
                None => {
                    if classes.len() > u16::MAX as usize {
                        return Err(CoreRejection::TooManyClasses(classes.len()));
                    }
                    classes.push((
                        v.protocol,
                        v,
                        ClassTable {
                            proto: match v.protocol {
                                Protocol::Ieee1901 => PROTO_1901,
                                Protocol::Dcf80211 => PROTO_DCF,
                            },
                            cw: v.stages.iter().map(|s| s.cw).collect(),
                            dc16: v
                                .stages
                                .iter()
                                .map(|s| dc16_of(s.dc).expect("checked above"))
                                .collect(),
                            last: (v.stages.len() - 1) as u32,
                        },
                    ));
                    classes.len() - 1
                }
            };
            core.bcdc.push(pack(st.bc, dc16));
            core.bpc.push(st.bpc);
            core.stage.push(st.stage as u8);
            core.proto.push(classes[class].2.proto);
            core.class.push(class as u16);
        }
        core.classes = classes.into_iter().map(|(_, _, t)| t).collect();
        Ok(core)
    }

    /// Current backoff counter of station `i`.
    #[inline]
    pub(crate) fn bc_of(&self, i: StationId) -> u32 {
        match &self.events {
            Some(ev) => ev.bc(i),
            None => self.bcdc[i] & 0xFFFF,
        }
    }

    /// Mark station `i` backlogged or drained. Only for cores built
    /// without `all_active` — the engine calls this for non-saturated
    /// populations alone — so never for the event layout, which holds
    /// all-backlogged populations only.
    #[inline]
    pub(crate) fn set_active(&mut self, i: StationId, active: bool) {
        debug_assert!(
            self.events.is_none(),
            "backlog is fixed in the event layout"
        );
        self.active[i] = active;
    }

    /// Absorb `k` guaranteed-idle slots (fast-forward: every backlogged
    /// station has `BC ≥ k`) and rebuild the contention cache, as
    /// [`idle_sweep`](Self::idle_sweep) does for one slot.
    #[inline]
    pub(crate) fn skip_idle(&mut self, k: u32, zero: &mut Vec<StationId>, min_bc: &mut u32) {
        if let Some(ev) = &mut self.events {
            debug_assert!(
                ev.tx_at.iter().all(|&at| at - ev.slot >= k as u64),
                "cannot skip past BC = 0"
            );
            ev.slot += k as u64;
            ev.fold(zero, min_bc);
            return;
        }
        for i in 0..self.n {
            if self.active[i] {
                debug_assert!(k <= self.bcdc[i] & 0xFFFF, "cannot skip past BC = 0");
                let bc = (self.bcdc[i] & 0xFFFF) - k;
                self.bcdc[i] -= k;
                if bc == 0 {
                    zero.push(i);
                } else {
                    *min_bc = (*min_bc).min(bc);
                }
            }
        }
    }

    /// Collect the transmitter set: backlogged stations with `BC == 0`,
    /// in ascending station order (the engine's scan order).
    #[inline]
    pub(crate) fn contenders(&self, out: &mut Vec<StationId>) {
        if let Some(ev) = &self.events {
            return ev.transmitters(out);
        }
        for i in 0..self.n {
            if self.active[i] && self.bcdc[i] & 0xFFFF == 0 {
                out.push(i);
            }
        }
    }

    /// One idle slot: every backlogged station's BC decrements. With
    /// `TRACK`, rebuilds the contention cache in the same pass.
    #[inline]
    pub(crate) fn idle_sweep<const TRACK: bool>(
        &mut self,
        zero: &mut Vec<StationId>,
        min_bc: &mut u32,
    ) {
        if let Some(ev) = &mut self.events {
            debug_assert!(
                ev.tx_at.iter().all(|&at| at > ev.slot),
                "station with BC == 0 must transmit, not idle"
            );
            ev.slot += 1;
            if TRACK {
                ev.fold(zero, min_bc);
            }
            return;
        }
        for i in 0..self.n {
            if self.active[i] {
                debug_assert!(
                    self.bc_of(i) > 0,
                    "station with BC == 0 must transmit, not idle"
                );
                let word = self.bcdc[i] - 1;
                self.bcdc[i] = word;
                if TRACK {
                    let bc = word & 0xFFFF;
                    if bc == 0 {
                        zero.push(i);
                    } else {
                        *min_bc = (*min_bc).min(bc);
                    }
                }
            }
        }
    }

    /// A successful transmission by `w`: the winner restarts at stage 0,
    /// every other backlogged station senses the medium busy. With
    /// `TRACK`, rebuilds the contention cache in the same pass (fused —
    /// no separate fold sweep; see the module docs).
    #[inline]
    pub(crate) fn success_sweep<const TRACK: bool>(
        &mut self,
        w: StationId,
        rng: &mut SmallRng,
        zero: &mut Vec<StationId>,
        min_bc: &mut u32,
    ) {
        if let Some(ev) = &mut self.events {
            ev.busy_slot(
                std::slice::from_ref(&w),
                &[SweepAction::Restart],
                &self.classes[0],
                &mut self.bpc,
                &mut self.stage,
                rng,
            );
            if TRACK {
                ev.fold(zero, min_bc);
            }
            return;
        }
        self.pending.clear();
        for i in 0..self.n {
            if i == w {
                self.queue_restart(i);
            } else if self.active[i] {
                self.busy_one::<TRACK>(i, zero, min_bc);
            }
        }
        self.apply_draws::<TRACK>(rng, zero, min_bc);
    }

    /// A collision: each transmitter applies its [`SweepAction`]
    /// (parallel to `tx`, which must be ascending), every other
    /// backlogged station senses the medium busy. `TRACK` fuses the
    /// cache fold as in [`success_sweep`](Self::success_sweep).
    #[inline]
    pub(crate) fn collision_sweep<const TRACK: bool>(
        &mut self,
        tx: &[StationId],
        actions: &[SweepAction],
        rng: &mut SmallRng,
        zero: &mut Vec<StationId>,
        min_bc: &mut u32,
    ) {
        debug_assert_eq!(tx.len(), actions.len());
        if let Some(ev) = &mut self.events {
            ev.busy_slot(
                tx,
                actions,
                &self.classes[0],
                &mut self.bpc,
                &mut self.stage,
                rng,
            );
            if TRACK {
                ev.fold(zero, min_bc);
            }
            return;
        }
        self.pending.clear();
        let mut txi = 0usize;
        for i in 0..self.n {
            if txi < tx.len() && tx[txi] == i {
                match actions[txi] {
                    SweepAction::Restart => self.queue_restart(i),
                    SweepAction::Advance => self.queue_advance(i),
                }
                txi += 1;
            } else if self.active[i] {
                self.busy_one::<TRACK>(i, zero, min_bc);
            }
        }
        self.apply_draws::<TRACK>(rng, zero, min_bc);
    }

    /// Immediate stage-0 reset for one station (traffic arrival): draws
    /// right away, preserving the arrival loop's per-station draw order.
    /// Never folds — the engine rebuilds the cache after arrival resets.
    #[inline]
    pub(crate) fn reset_now(&mut self, i: StationId, rng: &mut SmallRng) {
        debug_assert!(
            self.events.is_none(),
            "arrivals never reach the event layout"
        );
        self.pending.clear();
        self.queue_restart(i);
        let (mut unused_zero, mut unused_min) = (Vec::new(), u32::MAX);
        self.apply_draws::<false>(rng, &mut unused_zero, &mut unused_min);
    }

    /// Synthesize the station's counter snapshot — field-for-field what
    /// the process object's `snapshot()` would report.
    pub(crate) fn snapshot(&self, i: StationId) -> BackoffSnapshot {
        let t = &self.classes[self.class[i] as usize];
        let stage = self.stage[i] as usize;
        let (bc, dc) = match &self.events {
            Some(ev) => (
                ev.bc(i),
                (ev.dc_at[i] != NEVER).then(|| (ev.dc_at[i] - ev.busy) as u32),
            ),
            None => {
                let dc16 = self.bcdc[i] >> 16;
                (
                    self.bcdc[i] & 0xFFFF,
                    (dc16 != DC16_DISABLED).then_some(dc16),
                )
            }
        };
        BackoffSnapshot {
            stage,
            cw: t.cw[stage],
            bc,
            dc,
            bpc: if self.proto[i] == PROTO_1901 {
                self.bpc[i].saturating_sub(1)
            } else {
                self.bpc[i]
            },
        }
    }

    /// Busy-slot semantics for one non-transmitting backlogged station:
    /// one packed word in, one out (see the module docs). With `TRACK`,
    /// stations whose BC is final after this slot fold into the cache
    /// here; queued redraws fold in [`apply_draws`](Self::apply_draws)
    /// instead.
    #[inline]
    fn busy_one<const TRACK: bool>(
        &mut self,
        i: usize,
        zero: &mut Vec<StationId>,
        min_bc: &mut u32,
    ) {
        let word = self.bcdc[i];
        if self.proto[i] == PROTO_DCF {
            // DCF freezes the backoff counter while the medium is busy; a
            // deferring station's BC is positive (else it would have
            // transmitted), so it folds into the minimum.
            if TRACK {
                *min_bc = (*min_bc).min(word & 0xFFFF);
            }
        } else if word >= 0x10000 {
            // 1901 with DC > 0: BC -= 1, DC -= 1 unless disabled.
            debug_assert!(word & 0xFFFF > 0, "station with BC == 0 must transmit");
            let word = word - 1 - ((((word >> 16) != DC16_DISABLED) as u32) << 16);
            self.bcdc[i] = word;
            if TRACK {
                let bc = word & 0xFFFF;
                if bc == 0 {
                    zero.push(i);
                } else {
                    *min_bc = (*min_bc).min(bc);
                }
            }
        } else {
            // 1901 sensing busy while DC = 0: jump to the next backoff
            // stage without attempting a transmission.
            self.queue_redraw_1901(i);
        }
    }

    /// Queue a stage-0 re-entry (success / drop / head-of-line reset).
    #[inline]
    fn queue_restart(&mut self, i: usize) {
        self.bpc[i] = 0;
        if self.proto[i] == PROTO_1901 {
            self.queue_redraw_1901(i);
        } else {
            self.stage[i] = 0;
            self.pending
                .push((i as u32, self.classes[self.class[i] as usize].cw[0]));
        }
    }

    /// Queue a stage-advancing redraw (collision without a drop).
    #[inline]
    fn queue_advance(&mut self, i: usize) {
        if self.proto[i] == PROTO_1901 {
            // BPC already points past the stage that failed; the redraw
            // advances it.
            self.queue_redraw_1901(i);
        } else {
            let t = &self.classes[self.class[i] as usize];
            let next = (self.stage[i] as u32 + 1).min(t.last);
            self.bpc[i] = self.bpc[i].saturating_add(1);
            self.stage[i] = next as u8;
            self.pending.push((i as u32, t.cw[next as usize]));
        }
    }

    /// Queue the 1901 redraw: stage from the current BPC (saturated at
    /// the last), DC reloaded from the table, BPC saturating-incremented.
    /// For stage-0 re-entry (success, drop, reset) the caller zeroes BPC
    /// first.
    #[inline]
    fn queue_redraw_1901(&mut self, i: usize) {
        let t = &self.classes[self.class[i] as usize];
        let stage = self.bpc[i].min(t.last) as usize;
        self.stage[i] = stage as u8;
        // The fresh BC lands in `apply_draws`; only DC is final here.
        self.bcdc[i] = pack(self.bcdc[i] & 0xFFFF, t.dc16[stage]);
        self.bpc[i] = self.bpc[i].saturating_add(1);
        self.pending.push((i as u32, t.cw[stage]));
    }

    /// Batched RNG: pre-fill the draw buffer — one `next_u64` per queued
    /// redraw, in queue (= draw) order — then map each word exactly as
    /// the vendored `gen_range(0..cw)` does. See the module docs for why
    /// this is bit-identical to per-station `gen_range` calls.
    ///
    /// With `TRACK`, redrawn *backlogged* stations fold into the cache
    /// as their draw lands (a redrawn station may be drained — a winner
    /// whose queue emptied — and drained stations never fold). The
    /// pending queue is ascending, so the fresh zeros merge into the
    /// sweep's zeros with one ordered pass.
    #[inline]
    fn apply_draws<const TRACK: bool>(
        &mut self,
        rng: &mut SmallRng,
        zero: &mut Vec<StationId>,
        min_bc: &mut u32,
    ) {
        self.draws.clear();
        for _ in 0..self.pending.len() {
            self.draws.push(rng.next_u64());
        }
        if TRACK {
            self.redraw_zero.clear();
        }
        for (&(i, cw), &x) in self.pending.iter().zip(&self.draws) {
            let bc = draw_below(x, cw);
            let i = i as usize;
            self.bcdc[i] = pack(bc, self.bcdc[i] >> 16);
            if TRACK && self.active[i] {
                if bc == 0 {
                    self.redraw_zero.push(i);
                } else {
                    *min_bc = (*min_bc).min(bc);
                }
            }
        }
        if TRACK {
            merge_zero(zero, &self.redraw_zero, &mut self.merge_buf);
        }
    }
}

/// Benchmark support: drives the contention core alone — no traffic,
/// metrics, bursting or trace plumbing — so the busy-slot sweep can be
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
    /// idle/success/collision sweeps only.
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
                core: ContentionCore::from_views(&views, true).expect("representable"),
                rng: SmallRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15),
                tx: Vec::with_capacity(n),
                zero: Vec::with_capacity(n),
                actions: Vec::with_capacity(n),
            }
        }

        /// Advance `slots` contention slots (idle, success or collision
        /// sweep each, with the fused cache fold), returning a checksum
        /// so the optimizer cannot elide the work. State carries across
        /// calls — repeated invocations measure the steady state.
        pub fn run(&mut self, slots: usize) -> u64 {
            let mut acc = 0u64;
            for _ in 0..slots {
                self.tx.clear();
                self.core.contenders(&mut self.tx);
                self.zero.clear();
                let mut min = u32::MAX;
                match self.tx.len() {
                    0 => self.core.idle_sweep::<true>(&mut self.zero, &mut min),
                    1 => self.core.success_sweep::<true>(
                        self.tx[0],
                        &mut self.rng,
                        &mut self.zero,
                        &mut min,
                    ),
                    _ => {
                        self.actions.clear();
                        self.actions.resize(self.tx.len(), SweepAction::Advance);
                        self.core.collision_sweep::<true>(
                            &self.tx,
                            &self.actions,
                            &mut self.rng,
                            &mut self.zero,
                            &mut min,
                        );
                    }
                }
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
    use plc_mac::process::BackoffProcess;
    use plc_mac::{Backoff1901, BackoffDcf};
    use rand::SeedableRng;

    fn views_of<P: BackoffProcess>(ps: &[P]) -> Vec<SoaView> {
        ps.iter().map(|p| p.soa_view().unwrap()).collect()
    }

    /// The core the engine would build for a saturated population.
    fn core_of<P: BackoffProcess>(ps: &[P]) -> ContentionCore {
        ContentionCore::from_views(&views_of(ps), true).unwrap()
    }

    /// `n` saturated 1901 stations on the (CW, DC) table.
    fn stations_1901(n: usize, cw: &[u32], dc: &[u32], seed: u64) -> Vec<Backoff1901> {
        let cfg = CsmaConfig::from_vectors(cw, dc).unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Backoff1901::new(cfg.clone(), &mut rng))
            .collect()
    }

    /// The fused fold must equal a from-scratch scan of the core. The
    /// minimum BC is read only when no station transmits next, and only
    /// then does the event layout compute it.
    fn assert_cache(core: &ContentionCore, zero: &[usize], min: u32, slot: usize) {
        let want_zero: Vec<usize> = (0..core.n)
            .filter(|&i| core.active[i] && core.bc_of(i) == 0)
            .collect();
        assert_eq!(zero, want_zero, "slot {slot} fused zero set");
        if zero.is_empty() || core.events.is_none() {
            let want_min = (0..core.n)
                .filter(|&i| core.active[i] && core.bc_of(i) > 0)
                .map(|i| core.bc_of(i))
                .min()
                .unwrap_or(u32::MAX);
            assert_eq!(min, want_min, "slot {slot} fused min BC");
        }
    }

    /// Drive the same slot sequence through process objects and through
    /// `core` with cloned RNGs, emulating the engine's loop (scan →
    /// idle / success / collision): the fused cache, every counter
    /// snapshot and the RNG states must agree at every slot.
    fn mirror_slots<P: BackoffProcess>(
        ps: &mut [P],
        core: &mut ContentionCore,
        slots: usize,
        seed: u64,
    ) {
        let mut rng_a = SmallRng::seed_from_u64(seed);
        let mut rng_b = rng_a.clone();
        for slot in 0..slots {
            let tx: Vec<usize> = ps
                .iter()
                .enumerate()
                .filter(|(_, p)| p.wants_tx())
                .map(|(i, _)| i)
                .collect();
            let mut core_tx = Vec::new();
            core.contenders(&mut core_tx);
            assert_eq!(core_tx, tx, "slot {slot} contenders");
            let (mut zero, mut min) = (Vec::new(), u32::MAX);
            match tx.len() {
                0 => {
                    for p in ps.iter_mut() {
                        p.on_idle_slot(&mut rng_a);
                    }
                    core.idle_sweep::<true>(&mut zero, &mut min);
                }
                1 => {
                    let w = tx[0];
                    for (i, p) in ps.iter_mut().enumerate() {
                        if i == w {
                            p.on_tx_success(&mut rng_a);
                        } else {
                            p.on_busy(&mut rng_a);
                        }
                    }
                    core.success_sweep::<true>(w, &mut rng_b, &mut zero, &mut min);
                }
                _ => {
                    // Alternate drop/advance to cover both actions.
                    let actions: Vec<SweepAction> = tx
                        .iter()
                        .map(|&i| {
                            if (i + slot) % 3 == 0 {
                                SweepAction::Restart
                            } else {
                                SweepAction::Advance
                            }
                        })
                        .collect();
                    let mut txi = 0usize;
                    for (i, p) in ps.iter_mut().enumerate() {
                        if txi < tx.len() && tx[txi] == i {
                            match actions[txi] {
                                SweepAction::Restart => p.reset(&mut rng_a),
                                SweepAction::Advance => p.on_tx_failure(&mut rng_a),
                            }
                            txi += 1;
                        } else {
                            p.on_busy(&mut rng_a);
                        }
                    }
                    core.collision_sweep::<true>(&tx, &actions, &mut rng_b, &mut zero, &mut min);
                }
            }
            assert_cache(core, &zero, min, slot);
            for (i, p) in ps.iter().enumerate() {
                assert_eq!(p.snapshot(), core.snapshot(i), "slot {slot} station {i}");
                assert_eq!(p.wants_tx(), core.bc_of(i) == 0, "slot {slot} station {i}");
            }
            assert_eq!(rng_a, rng_b, "RNG streams diverged at slot {slot}");
        }
    }

    #[test]
    fn mirrors_object_transitions_1901() {
        let mut seed_rng = SmallRng::seed_from_u64(7);
        let mut ps: Vec<Backoff1901> = (0..4)
            .map(|_| Backoff1901::default_ca1(&mut seed_rng))
            .collect();
        let mut core = core_of(&ps);
        assert!(core.events.is_some());
        mirror_slots(&mut ps, &mut core, 500, 99);
    }

    #[test]
    fn mirrors_object_transitions_1901_generic_path() {
        // The same population on the packed layout: the generic sweep
        // (per-station checks) must agree station for station with the
        // objects, as the event layout does.
        let mut seed_rng = SmallRng::seed_from_u64(7);
        let mut ps: Vec<Backoff1901> = (0..4)
            .map(|_| Backoff1901::default_ca1(&mut seed_rng))
            .collect();
        let mut core = ContentionCore::try_packed(&views_of(&ps), true).unwrap();
        assert!(core.events.is_none());
        mirror_slots(&mut ps, &mut core, 500, 99);
    }

    #[test]
    fn mirrors_event_layout_across_bitset_words() {
        // Three bitset words per bucket, long enough for deep stages and
        // many laps of both rings.
        let mut ps = stations_1901(130, &[8, 16, 32, 64], &[0, 1, 3, 15], 11);
        let mut core = core_of(&ps);
        assert!(core.events.is_some());
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
            assert!(core.events.is_some(), "N = {n}");
            mirror_slots(&mut ps, &mut core, slots, 3);
        }
    }

    #[test]
    fn one_word_cache_survives_clamped_jumps() {
        // `mirror_slots` steps slot by slot; the engine also jumps. Mix
        // busy slots with full jumps (k = min BC), jumps clamped short of
        // it (at the horizon, a beacon or a noise edge; k = 0 is the
        // engine's cache rebuild) and single idle slots. After every
        // call the fused cache and the contender set must equal a fresh
        // scan, and every counter the packed layout's, driven alike.
        let off = [DC_DISABLED; 4];
        let tables: [(&[u32], &[u32]); 3] = [
            (&[8, 16, 32, 64], &[0, 1, 3, 15]),
            (&[128, 512, 2048, 8192], &[0, 1, 3, 15]),
            (&[16, 32, 64, 128], &off),
        ];
        for n in [1, 2, 5, 63, 64] {
            for (cw, dc) in tables {
                let ps = stations_1901(n, cw, dc, n as u64);
                let mut core = core_of(&ps);
                assert!(core.events.as_ref().is_some_and(|ev| ev.words == 1));
                let mut packed = ContentionCore::try_packed(&views_of(&ps), true).unwrap();
                let mut pick = SmallRng::seed_from_u64(n as u64 ^ cw[0] as u64);
                let mut rng_a = SmallRng::seed_from_u64(21);
                let mut rng_b = rng_a.clone();
                let (mut full, mut clamped) = (0, 0);
                for call in 0..4_000 {
                    let at = format!("N = {n}, CW {cw:?}, call {call}");
                    let mut tx = Vec::new();
                    core.contenders(&mut tx);
                    let scan: Vec<usize> = (0..n).filter(|&i| core.bc_of(i) == 0).collect();
                    assert_eq!(tx, scan, "{at}: contenders");
                    let (mut zero, mut min) = (Vec::new(), u32::MAX);
                    let (mut zero_p, mut min_p) = (Vec::new(), u32::MAX);
                    match tx.len() {
                        0 => {
                            let min_bc = (0..n).map(|i| core.bc_of(i)).min().unwrap();
                            match pick.next_u32() % 3 {
                                0 => {
                                    full += 1;
                                    core.skip_idle(min_bc, &mut zero, &mut min);
                                    packed.skip_idle(min_bc, &mut zero_p, &mut min_p);
                                }
                                1 => {
                                    let k = pick.next_u32() % min_bc;
                                    clamped += (k > 0) as usize;
                                    core.skip_idle(k, &mut zero, &mut min);
                                    packed.skip_idle(k, &mut zero_p, &mut min_p);
                                }
                                _ => {
                                    core.idle_sweep::<true>(&mut zero, &mut min);
                                    packed.idle_sweep::<true>(&mut zero_p, &mut min_p);
                                }
                            }
                        }
                        1 => {
                            core.success_sweep::<true>(tx[0], &mut rng_a, &mut zero, &mut min);
                            packed.success_sweep::<true>(
                                tx[0],
                                &mut rng_b,
                                &mut zero_p,
                                &mut min_p,
                            );
                        }
                        _ => {
                            let actions: Vec<SweepAction> = tx
                                .iter()
                                .map(|&i| match (i + call) % 3 {
                                    0 => SweepAction::Restart,
                                    _ => SweepAction::Advance,
                                })
                                .collect();
                            core.collision_sweep::<true>(
                                &tx, &actions, &mut rng_a, &mut zero, &mut min,
                            );
                            packed.collision_sweep::<true>(
                                &tx,
                                &actions,
                                &mut rng_b,
                                &mut zero_p,
                                &mut min_p,
                            );
                        }
                    }
                    assert_cache(&core, &zero, min, call);
                    assert_eq!(zero, zero_p, "{at}: zero set against the packed layout");
                    let mut next = Vec::new();
                    core.contenders(&mut next);
                    assert_eq!(next, zero, "{at}: contenders after the call");
                    for i in 0..n {
                        assert_eq!(core.snapshot(i), packed.snapshot(i), "{at}: station {i}");
                    }
                    assert_eq!(rng_a, rng_b, "{at}: RNG streams");
                }
                assert!(
                    full > 0 && clamped > 0,
                    "N = {n}, CW {cw:?}: {full} full and {clamped} clamped jumps"
                );
            }
        }
    }

    #[test]
    fn mirrors_object_transitions_dcf() {
        let mut seed_rng = SmallRng::seed_from_u64(3);
        let mut ps: Vec<BackoffDcf> = (0..3).map(|_| BackoffDcf::classic(&mut seed_rng)).collect();
        let mut core = core_of(&ps);
        mirror_slots(&mut ps, &mut core, 400, 5);
    }

    #[test]
    fn rejects_unrepresentable_views() {
        use plc_mac::process::{SoaStage, SoaState};
        let view = |cw: u32, dc: u32, nstages: usize| SoaView {
            protocol: Protocol::Ieee1901,
            stages: vec![SoaStage { cw, dc }; nstages],
            state: SoaState {
                bc: 0,
                dc: 0,
                bpc: 1,
                stage: 0,
            },
        };
        assert!(ContentionCore::from_views(&[], true).is_none());
        assert!(ContentionCore::from_views(&[view(1 << 17, 0, 4)], true).is_none());
        assert!(ContentionCore::from_views(&[view(0, 0, 4)], true).is_none());
        assert!(ContentionCore::from_views(&[view(8, 0, 257)], true).is_none());
        // A DC too large to pack (yet not disabled) is rejected; the
        // disabled sentinel itself is representable.
        assert!(ContentionCore::from_views(&[view(8, 0xFFFF, 4)], true).is_none());
        assert!(ContentionCore::from_views(&[view(8, DC_DISABLED, 4)], true).is_some());
        assert!(ContentionCore::from_views(&[view(8, 0, 4)], true).is_some());
    }

    #[test]
    fn dedups_classes_and_picks_the_layout() {
        let mut rng = SmallRng::seed_from_u64(1);
        let ps: Vec<Backoff1901> = (0..10)
            .map(|_| Backoff1901::default_ca1(&mut rng))
            .collect();
        let core = core_of(&ps);
        assert_eq!(core.classes.len(), 1);
        assert!(
            core.events.is_some() && core.bcdc.is_empty(),
            "saturated single-class 1901 takes the event layout"
        );
        let lazy = ContentionCore::from_views(&views_of(&ps), false).unwrap();
        assert!(lazy.events.is_none(), "dynamic backlog never qualifies");
        let dcf: Vec<BackoffDcf> = (0..10).map(|_| BackoffDcf::classic(&mut rng)).collect();
        assert!(core_of(&dcf).events.is_none(), "DCF stays packed");
        // CW 8192 at N = 1000: (8192 + 16) buckets × 16 words × 8 bytes
        // overflow the ring cap; at N = 500 (8 words) they fit.
        let wide = |n| stations_1901(n, &[128, 512, 2048, 8192], &[0, 1, 3, 15], 2);
        assert!(
            core_of(&wide(1000)).events.is_none(),
            "oversized rings stay packed"
        );
        assert!(core_of(&wide(500)).events.is_some());
    }
}
