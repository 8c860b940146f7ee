//! Station topology: who hears whom, who interferes with whom.
//!
//! The paper's testbed puts every station on one power strip — a single
//! shared contention domain, which is what the legacy
//! `Simulation::ieee1901(n)` constructors model. Real deployments are a
//! *graph of media*: stations sit at outlets, links attenuate with cable
//! run length, and two logical networks on the same wire may hear each
//! other fully (exposed stations), partially (hidden stations that jam
//! without being sensed), or not at all (spatial reuse).
//!
//! [`Topology`] captures that graph. It has two representations:
//!
//! * **Fully connected** — the legacy single-domain scenario. O(1) to
//!   build and store for any station count (no matrices, no channel
//!   evaluation), and simulations over it reduce *byte-identically* to
//!   the legacy engine path.
//! * **Spatial** — stations at explicit 2-D positions grouped into
//!   *cells* (logical networks). Per-link SNR is computed from a base
//!   [`ChannelModel`] with the link's Euclidean distance, and two derived
//!   n×n matrices drive the multi-domain engine:
//!
//!   * the **hearing (carrier-sense) matrix**: `sense[i][j]` is true when
//!     the link SNR reaches the sense threshold — station `i` defers to
//!     `j`'s transmissions;
//!   * the **interference matrix**: `interfere[i][j]` is true when the
//!     link SNR reaches the (lower) interference threshold — `j`'s
//!     transmissions corrupt `i`'s concurrent receptions even when they
//!     cannot be sensed. Sensing implies interference
//!     (`sense ⊆ interfere`).
//!
//! A cross-cell pair in the band between the two thresholds is the
//! classic *hidden terminal*: it jams but is never deferred to.
//!
//! Build one with [`Topology::builder`]; the multi-domain run path is
//! documented in [`crate::multidomain`].

use plc_core::error::{Error, Result};
use plc_core::timing::MacTiming;
use plc_phy::{ChannelModel, PhyRate};

/// Default carrier-sense threshold (dB): a link at or above this SNR is
/// reliably detected by the 1901 preamble correlator.
pub const DEFAULT_SENSE_THRESHOLD_DB: f64 = 10.0;

/// Default interference threshold (dB): a link at or above this SNR
/// deposits enough energy to corrupt a concurrent reception, even when
/// it is too weak to carrier-sense.
pub const DEFAULT_INTERFERENCE_THRESHOLD_DB: f64 = 0.0;

/// The station graph a simulation runs over. See the [module
/// docs](self) for the semantics of the two representations.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    repr: Repr,
}

#[derive(Debug, Clone, PartialEq)]
enum Repr {
    /// Every station hears every station, one logical network. The
    /// legacy single-domain scenario; deliberately matrix-free so that
    /// `Topology::fully_connected(10_000)` costs nothing.
    FullyConnected {
        n: usize,
    },
    Spatial(Box<Spatial>),
}

#[derive(Debug, Clone, PartialEq)]
struct Spatial {
    /// Station positions (metres), global station order.
    positions: Vec<(f64, f64)>,
    /// Cell membership: `cells[c]` lists the global ids of cell `c`'s
    /// stations, ascending. Global ids are assigned in cell order, so
    /// the lists are contiguous ranges.
    cells: Vec<Vec<usize>>,
    /// Station → cell index.
    cell_of: Vec<usize>,
    /// Pairwise link SNR (dB); `snr[i][j] == snr[j][i]`, diagonal is the
    /// channel's zero-distance SNR.
    snr_db: Vec<Vec<f64>>,
    /// Hearing matrix (carrier sense), symmetric, false on the diagonal.
    sense: Vec<Vec<bool>>,
    /// Interference matrix, symmetric, false on the diagonal;
    /// `sense[i][j]` implies `interfere[i][j]`.
    interfere: Vec<Vec<bool>>,
    /// Per-station MAC timing derived from the station's weakest
    /// same-cell link (`Some` iff a link payload was configured).
    timing: Option<Vec<MacTiming>>,
    sense_threshold_db: f64,
    interference_threshold_db: f64,
}

impl Topology {
    /// The legacy scenario: `n` stations, one shared medium, one logical
    /// network. Simulations over this topology take the single-domain
    /// engine path unchanged (byte-identical traces, metrics and sweep
    /// output).
    pub fn fully_connected(n: usize) -> Self {
        Topology {
            repr: Repr::FullyConnected { n },
        }
    }

    /// Start building a spatial multi-cell topology.
    pub fn builder() -> TopologyBuilder {
        TopologyBuilder::new()
    }

    /// `n` stations grouped into isolated cells of `cell_size` (the last
    /// cell takes the remainder): a cell's stations share one outlet, so
    /// every pair links at the channel's zero-distance SNR (38 dB on the
    /// builder's short-link channel, well inside sense range) at any cell
    /// size, and cells sit 1 km apart (below the interference threshold).
    /// Every cell is thus an independent contention domain on the legacy
    /// fast path. This is the shape the sweep engine can restamp to any
    /// station count — see
    /// [`Simulation::cells_of`](crate::Simulation::cells_of).
    pub fn isolated_cells(n: usize, cell_size: usize) -> Self {
        assert!(cell_size >= 1, "cell_size must be at least 1");
        if n == 0 {
            return Topology::fully_connected(0);
        }
        let mut b = Topology::builder();
        let mut placed = 0usize;
        let mut cell_index = 0usize;
        while placed < n {
            let len = cell_size.min(n - placed);
            let positions = vec![(cell_index as f64 * 1_000.0, 0.0); len];
            b = b.cell(&positions);
            placed += len;
            cell_index += 1;
        }
        b.build()
            .expect("isolated-cells layout is always a valid topology")
    }

    /// Build a spatial topology directly from explicit matrices — the
    /// escape hatch for property tests and for hearing data measured on
    /// real deployments rather than derived from the synthetic channel.
    ///
    /// `cells[c]` lists the global station ids of cell `c` (the ids must
    /// partition `0..n` where `n` is the matrix dimension). `sense` and
    /// `interfere` must be `n×n`; they are symmetrized with OR, the
    /// diagonal is cleared, and `sense` is folded into `interfere`
    /// (sensing implies interference). Within-cell pairs must sense each
    /// other — members of one logical network that cannot hear each
    /// other are a configuration error, not a hidden-terminal scenario.
    pub fn from_matrices(
        cells: Vec<Vec<usize>>,
        sense: Vec<Vec<bool>>,
        interfere: Vec<Vec<bool>>,
    ) -> Result<Self> {
        let n = sense.len();
        if n == 0 {
            return Err(Error::invalid_config("topology needs at least one station"));
        }
        if sense.iter().any(|r| r.len() != n)
            || interfere.len() != n
            || interfere.iter().any(|r| r.len() != n)
        {
            return Err(Error::invalid_config(
                "sense and interference matrices must both be n×n",
            ));
        }
        let mut cell_of = vec![usize::MAX; n];
        for (c, members) in cells.iter().enumerate() {
            if members.is_empty() {
                return Err(Error::invalid_config(format!("cell {c} is empty")));
            }
            for &i in members {
                if i >= n || cell_of[i] != usize::MAX {
                    return Err(Error::invalid_config(format!(
                        "cells must partition stations 0..{n}: station {i} \
                         is out of range or assigned twice"
                    )));
                }
                cell_of[i] = c;
            }
        }
        if cell_of.contains(&usize::MAX) {
            return Err(Error::invalid_config(format!(
                "cells must partition stations 0..{n}: some station is unassigned"
            )));
        }
        let mut sense_m = vec![vec![false; n]; n];
        let mut interfere_m = vec![vec![false; n]; n];
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                sense_m[i][j] = sense[i][j] || sense[j][i];
                interfere_m[i][j] =
                    interfere[i][j] || interfere[j][i] || sense[i][j] || sense[j][i];
            }
        }
        for members in &cells {
            for (a, &i) in members.iter().enumerate() {
                for &j in &members[a + 1..] {
                    if !sense_m[i][j] {
                        return Err(Error::invalid_config(format!(
                            "stations {i} and {j} share cell {} but cannot \
                             sense each other; every within-cell pair must \
                             be in carrier-sense range",
                            cell_of[i]
                        )));
                    }
                }
            }
        }
        let snr = vec![vec![f64::NAN; n]; n];
        Ok(Topology {
            repr: Repr::Spatial(Box::new(Spatial {
                positions: vec![(0.0, 0.0); n],
                cells,
                cell_of,
                snr_db: snr,
                sense: sense_m,
                interfere: interfere_m,
                timing: None,
                sense_threshold_db: DEFAULT_SENSE_THRESHOLD_DB,
                interference_threshold_db: DEFAULT_INTERFERENCE_THRESHOLD_DB,
            })),
        })
    }

    /// Total station count across all cells.
    pub fn num_stations(&self) -> usize {
        match &self.repr {
            Repr::FullyConnected { n } => *n,
            Repr::Spatial(s) => s.cell_of.len(),
        }
    }

    /// Number of logical networks (cells).
    pub fn num_cells(&self) -> usize {
        match &self.repr {
            Repr::FullyConnected { .. } => 1,
            Repr::Spatial(s) => s.cells.len(),
        }
    }

    /// Whether this is the matrix-free legacy representation that routes
    /// through the single-domain engine unchanged.
    pub fn is_fully_connected(&self) -> bool {
        matches!(self.repr, Repr::FullyConnected { .. })
    }

    /// The cell (logical network) a station belongs to.
    pub fn cell_of(&self, station: usize) -> usize {
        match &self.repr {
            Repr::FullyConnected { .. } => 0,
            Repr::Spatial(s) => s.cell_of[station],
        }
    }

    /// Global station ids of cell `c`, ascending.
    pub fn cell_members(&self, c: usize) -> Vec<usize> {
        match &self.repr {
            Repr::FullyConnected { n } => {
                assert_eq!(c, 0, "fully-connected topology has one cell");
                (0..*n).collect()
            }
            Repr::Spatial(s) => s.cells[c].clone(),
        }
    }

    /// Can station `i` carrier-sense station `j`'s transmissions?
    pub fn hears(&self, i: usize, j: usize) -> bool {
        if i == j {
            return false;
        }
        match &self.repr {
            Repr::FullyConnected { .. } => true,
            Repr::Spatial(s) => s.sense[i][j],
        }
    }

    /// Does a transmission by `j` corrupt a concurrent reception at `i`?
    /// True whenever [`hears`](Self::hears) is true; additionally true in
    /// the hidden-terminal band between the two thresholds.
    pub fn interferes(&self, i: usize, j: usize) -> bool {
        if i == j {
            return false;
        }
        match &self.repr {
            Repr::FullyConnected { .. } => true,
            Repr::Spatial(s) => s.interfere[i][j],
        }
    }

    /// Mean link SNR between two stations in dB, when the topology was
    /// built from positions (`None` for the matrix-free representations).
    pub fn link_snr_db(&self, i: usize, j: usize) -> Option<f64> {
        match &self.repr {
            Repr::FullyConnected { .. } => None,
            Repr::Spatial(s) => {
                let v = s.snr_db[i][j];
                v.is_finite().then_some(v)
            }
        }
    }

    /// Per-station MAC timing derived from the station's weakest
    /// same-cell link, when the builder configured a link payload
    /// ([`TopologyBuilder::link_payload_bytes`]). `None` means the
    /// simulation's configured timing applies to every station.
    pub fn station_timing(&self, station: usize) -> Option<MacTiming> {
        match &self.repr {
            Repr::FullyConnected { .. } => None,
            Repr::Spatial(s) => s.timing.as_ref().map(|t| t[station]),
        }
    }

    /// Whether any two cells are coupled — by carrier sense or by
    /// interference. Uncoupled cells are fully independent simulations.
    pub fn cells_coupled(&self, a: usize, b: usize) -> bool {
        match &self.repr {
            Repr::FullyConnected { .. } => false,
            Repr::Spatial(s) => s.cells[a].iter().any(|&i| {
                s.cells[b]
                    .iter()
                    .any(|&j| s.sense[i][j] || s.interfere[i][j])
            }),
        }
    }

    /// Connected components of the cell-coupling graph, each a sorted
    /// list of cell indices. Components are independent: the multi-domain
    /// runner spreads them over the [`crate::batch::BatchRunner`] pool.
    pub fn components(&self) -> Vec<Vec<usize>> {
        let c = self.num_cells();
        let mut comp_of = vec![usize::MAX; c];
        let mut comps: Vec<Vec<usize>> = Vec::new();
        for start in 0..c {
            if comp_of[start] != usize::MAX {
                continue;
            }
            let id = comps.len();
            let mut stack = vec![start];
            let mut members = Vec::new();
            comp_of[start] = id;
            while let Some(a) = stack.pop() {
                members.push(a);
                for (b, slot) in comp_of.iter_mut().enumerate() {
                    if *slot == usize::MAX && self.cells_coupled(a, b) {
                        *slot = id;
                        stack.push(b);
                    }
                }
            }
            members.sort_unstable();
            comps.push(members);
        }
        comps
    }

    /// Configured carrier-sense threshold (dB), when spatial.
    pub fn sense_threshold_db(&self) -> Option<f64> {
        match &self.repr {
            Repr::FullyConnected { .. } => None,
            Repr::Spatial(s) => Some(s.sense_threshold_db),
        }
    }

    /// Configured interference threshold (dB), when spatial.
    pub fn interference_threshold_db(&self) -> Option<f64> {
        match &self.repr {
            Repr::FullyConnected { .. } => None,
            Repr::Spatial(s) => Some(s.interference_threshold_db),
        }
    }
}

/// Builder for spatial topologies. Cells are appended with
/// [`cell`](TopologyBuilder::cell); stations receive global ids in the
/// order the cells (and positions within each cell) were added.
#[derive(Debug, Clone)]
pub struct TopologyBuilder {
    channel: ChannelModel,
    sense_threshold_db: f64,
    interference_threshold_db: f64,
    cells: Vec<Vec<(f64, f64)>>,
    link_payload_bytes: Option<usize>,
}

impl Default for TopologyBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl TopologyBuilder {
    /// A builder with the short-link channel preset and default
    /// thresholds.
    pub fn new() -> Self {
        TopologyBuilder {
            channel: ChannelModel::short_link(),
            sense_threshold_db: DEFAULT_SENSE_THRESHOLD_DB,
            interference_threshold_db: DEFAULT_INTERFERENCE_THRESHOLD_DB,
            cells: Vec::new(),
            link_payload_bytes: None,
        }
    }

    /// Base channel model. Each link evaluates this model with
    /// `distance_m` replaced by the pair's Euclidean distance, so
    /// `snr0_db` and `atten_db_per_m` shape the whole topology.
    pub fn channel(mut self, channel: ChannelModel) -> Self {
        self.channel = channel;
        self
    }

    /// Carrier-sense threshold in dB (default
    /// [`DEFAULT_SENSE_THRESHOLD_DB`]).
    pub fn sense_threshold_db(mut self, db: f64) -> Self {
        self.sense_threshold_db = db;
        self
    }

    /// Interference threshold in dB (default
    /// [`DEFAULT_INTERFERENCE_THRESHOLD_DB`]); must not exceed the sense
    /// threshold.
    pub fn interference_threshold_db(mut self, db: f64) -> Self {
        self.interference_threshold_db = db;
        self
    }

    /// Append one cell (logical network) of stations at the given
    /// positions (metres).
    pub fn cell(mut self, positions: &[(f64, f64)]) -> Self {
        self.cells.push(positions.to_vec());
        self
    }

    /// Derive each station's MAC timing from its weakest same-cell link
    /// carrying MPDUs of this payload size: the link's tone map (at
    /// mains phase 0) yields a [`PhyRate`], whose airtime for the
    /// payload rebuilds `Ts`/`Tc` through
    /// [`MacTiming::from_payload`]. Without this call every station uses
    /// the simulation's configured timing.
    pub fn link_payload_bytes(mut self, payload_bytes: usize) -> Self {
        self.link_payload_bytes = Some(payload_bytes);
        self
    }

    /// Validate and build. Typed [`Error::InvalidConfig`] on: no cells,
    /// an empty cell, non-finite positions, inverted thresholds, a
    /// within-cell pair below the sense threshold, or (with a link
    /// payload) a within-cell link too weak to carry any data.
    pub fn build(self) -> Result<Topology> {
        if self.cells.is_empty() || self.cells.iter().all(|c| c.is_empty()) {
            return Err(Error::invalid_config("topology needs at least one station"));
        }
        if self.cells.iter().any(|c| c.is_empty()) {
            return Err(Error::invalid_config("topology cells must be non-empty"));
        }
        if self.interference_threshold_db > self.sense_threshold_db {
            return Err(Error::invalid_config(format!(
                "interference threshold ({} dB) must not exceed the sense \
                 threshold ({} dB): anything strong enough to carrier-sense \
                 also interferes",
                self.interference_threshold_db, self.sense_threshold_db
            )));
        }
        let mut positions = Vec::new();
        let mut cells = Vec::new();
        let mut cell_of = Vec::new();
        for (c, ps) in self.cells.iter().enumerate() {
            let mut members = Vec::with_capacity(ps.len());
            for &(x, y) in ps {
                if !x.is_finite() || !y.is_finite() {
                    return Err(Error::invalid_config(format!(
                        "cell {c} has a non-finite station position"
                    )));
                }
                members.push(positions.len());
                positions.push((x, y));
                cell_of.push(c);
            }
            cells.push(members);
        }
        let n = positions.len();
        let dist = |i: usize, j: usize| -> f64 {
            let (xi, yi) = positions[i];
            let (xj, yj) = positions[j];
            ((xi - xj).powi(2) + (yi - yj).powi(2)).sqrt()
        };
        let mut snr_db = vec![vec![0.0; n]; n];
        let mut sense = vec![vec![false; n]; n];
        let mut interfere = vec![vec![false; n]; n];
        for i in 0..n {
            snr_db[i][i] = self.channel.snr0_db;
            for j in (i + 1)..n {
                let link = ChannelModel {
                    distance_m: dist(i, j),
                    ..self.channel.clone()
                };
                let snr = link.mean_snr_db();
                snr_db[i][j] = snr;
                snr_db[j][i] = snr;
                let s = snr >= self.sense_threshold_db;
                let f = snr >= self.interference_threshold_db;
                sense[i][j] = s;
                sense[j][i] = s;
                // Sensing implies interference.
                interfere[i][j] = f || s;
                interfere[j][i] = f || s;
            }
        }
        for (c, members) in cells.iter().enumerate() {
            for (a, &i) in members.iter().enumerate() {
                for &j in &members[a + 1..] {
                    if !sense[i][j] {
                        return Err(Error::invalid_config(format!(
                            "stations {i} and {j} of cell {c} are {:.1} m \
                             apart: link SNR {:.1} dB is below the {:.1} dB \
                             sense threshold, so they cannot form one \
                             logical network",
                            dist(i, j),
                            snr_db[i][j],
                            self.sense_threshold_db
                        )));
                    }
                }
            }
        }
        let timing = match self.link_payload_bytes {
            None => None,
            Some(payload) => {
                let mut per_station = Vec::with_capacity(n);
                for (i, &c) in cell_of.iter().enumerate() {
                    // The station transmits at the rate its weakest
                    // same-cell link sustains (broadcast-safe tone map).
                    let d = cells[c]
                        .iter()
                        .filter(|&&j| j != i)
                        .map(|&j| dist(i, j))
                        .fold(0.0, f64::max);
                    let link = ChannelModel {
                        distance_m: d,
                        ..self.channel.clone()
                    };
                    let rate = PhyRate::from_tone_map(&link.tone_map(0.0));
                    let timing = rate.mac_timing(payload).ok_or_else(|| {
                        Error::invalid_config(format!(
                            "station {i}'s weakest in-cell link ({d:.1} m, \
                             {:.1} dB) is a dead channel: no tone-map rate \
                             can carry a {payload}-byte payload",
                            link.mean_snr_db()
                        ))
                    })?;
                    per_station.push(timing);
                }
                Some(per_station)
            }
        };
        Ok(Topology {
            repr: Repr::Spatial(Box::new(Spatial {
                positions,
                cells,
                cell_of,
                snr_db,
                sense,
                interfere,
                timing,
                sense_threshold_db: self.sense_threshold_db,
                interference_threshold_db: self.interference_threshold_db,
            })),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_cells(gap_m: f64) -> Topology {
        Topology::builder()
            .cell(&[(0.0, 0.0), (2.0, 0.0)])
            .cell(&[(gap_m, 0.0), (gap_m + 2.0, 0.0)])
            .build()
            .unwrap()
    }

    #[test]
    fn fully_connected_is_matrix_free_and_total() {
        let t = Topology::fully_connected(10_000);
        assert!(t.is_fully_connected());
        assert_eq!(t.num_stations(), 10_000);
        assert_eq!(t.num_cells(), 1);
        assert!(t.hears(0, 9_999));
        assert!(t.interferes(3, 7));
        assert!(!t.hears(5, 5));
        assert_eq!(t.components(), vec![vec![0]]);
    }

    #[test]
    fn close_cells_sense_each_other() {
        // 10 m apart at 0.4 dB/m from 38 dB: cross SNR ≈ 34 dB ≥ 10 dB.
        let t = two_cells(10.0);
        assert_eq!(t.num_cells(), 2);
        assert!(t.hears(0, 2));
        assert!(t.interferes(0, 2));
        assert_eq!(t.components(), vec![vec![0, 1]]);
    }

    #[test]
    fn mid_distance_is_hidden_interference() {
        // Sense needs ≥ 10 dB → within 70 m; interference ≥ 0 dB → within
        // 95 m. A 80 m gap lands in the hidden band.
        let t = two_cells(80.0);
        assert!(!t.hears(0, 2), "cross-cell pair must be below sense");
        assert!(t.interferes(0, 2), "but still above interference");
        assert_eq!(t.components(), vec![vec![0, 1]], "jamming couples cells");
    }

    #[test]
    fn far_cells_are_isolated() {
        let t = two_cells(200.0);
        assert!(!t.hears(0, 2));
        assert!(!t.interferes(0, 2));
        assert_eq!(t.components(), vec![vec![0], vec![1]]);
    }

    #[test]
    fn within_cell_pairs_must_sense() {
        let err = Topology::builder()
            .cell(&[(0.0, 0.0), (200.0, 0.0)])
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("sense threshold"), "{err}");
    }

    #[test]
    fn inverted_thresholds_rejected() {
        let err = Topology::builder()
            .cell(&[(0.0, 0.0)])
            .sense_threshold_db(5.0)
            .interference_threshold_db(9.0)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("must not exceed"), "{err}");
    }

    #[test]
    fn empty_topologies_rejected() {
        assert!(Topology::builder().build().is_err());
        assert!(Topology::builder().cell(&[]).build().is_err());
    }

    #[test]
    fn link_payload_derives_uniform_timing_on_symmetric_cells() {
        let t = Topology::builder()
            .cell(&[(0.0, 0.0), (4.0, 0.0)])
            .link_payload_bytes(36 * 1024)
            .build()
            .unwrap();
        let a = t.station_timing(0).unwrap();
        let b = t.station_timing(1).unwrap();
        assert_eq!(a, b, "symmetric links must derive identical timing");
        assert!(a.is_valid());
        // And it matches the direct phy derivation for a 4 m link.
        let link = ChannelModel {
            distance_m: 4.0,
            ..ChannelModel::short_link()
        };
        let expect = PhyRate::from_tone_map(&link.tone_map(0.0))
            .mac_timing(36 * 1024)
            .unwrap();
        assert_eq!(a, expect);
    }

    #[test]
    fn longer_links_slow_the_cell_down() {
        let near = Topology::builder()
            .cell(&[(0.0, 0.0), (2.0, 0.0)])
            .link_payload_bytes(36 * 1024)
            .build()
            .unwrap();
        let far = Topology::builder()
            .cell(&[(0.0, 0.0), (60.0, 0.0)])
            .link_payload_bytes(36 * 1024)
            .build()
            .unwrap();
        assert!(
            far.station_timing(0).unwrap().ts > near.station_timing(0).unwrap().ts,
            "weaker link ⇒ more symbols ⇒ longer Ts"
        );
    }

    #[test]
    fn from_matrices_symmetrizes_and_validates() {
        // 3 stations: cell {0,1} mutually sensing, station 2 alone,
        // one-way interference 2→0 gets symmetrized.
        let s = vec![
            vec![false, true, false],
            vec![true, false, false],
            vec![false, false, false],
        ];
        let mut f = s.clone();
        f[0][2] = true;
        let t = Topology::from_matrices(vec![vec![0, 1], vec![2]], s.clone(), f).unwrap();
        assert!(t.hears(0, 1) && t.hears(1, 0));
        assert!(t.interferes(2, 0) && t.interferes(0, 2), "symmetrized");
        assert!(!t.hears(0, 2));
        assert_eq!(t.components(), vec![vec![0, 1]]);

        // Same matrices but {0,2} forced into one cell: rejected, they
        // cannot sense each other.
        let err = Topology::from_matrices(vec![vec![0, 2], vec![1]], s.clone(), s).unwrap_err();
        assert!(err.to_string().contains("within-cell"), "{err}");
    }

    #[test]
    fn from_matrices_rejects_bad_partitions() {
        let s = vec![vec![false, true], vec![true, false]];
        assert!(Topology::from_matrices(vec![vec![0]], s.clone(), s.clone()).is_err());
        assert!(Topology::from_matrices(vec![vec![0, 0], vec![1]], s.clone(), s.clone()).is_err());
        assert!(Topology::from_matrices(vec![vec![0, 1, 2]], s.clone(), s).is_err());
    }
}
