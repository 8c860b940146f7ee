//! End-to-end and per-layer benchmark of the `plc` workspace.
//!
//! One run executes one [`Workload`] in a fresh process: set-ups, then
//! operations repeated for a fixed number of seconds, every output
//! checked into a [`Tally`]. With tracing off a run reports the
//! [`END_TO_END`] metrics. With tracing on it alternates plain and
//! traced operations on the same inputs and reports the [`PER_LAYER`]
//! split of the plain wall time. `README.md` beside this crate says why
//! each workload exists and which layers it loads and bypasses.

pub mod checks;
pub mod host;
mod workloads;

pub use checks::Tally;
pub use workloads::Workload;

use plc_core::error::{Error, Result};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// End-to-end metrics `(name, unit)`, reported with tracing off.
pub const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, reported with tracing on. Times and
/// counts are per operation; a layer the workload never reaches reads 0.
pub const PER_LAYER: [(&str, &str); 23] = [
    ("sim.run_s", "s"),
    ("engine.busy_s", "s"),
    ("engine.busy_step_ns", "ns"),
    ("engine.ff_s", "s"),
    ("engine.ff_share", "ratio"),
    ("engine.soa_fallbacks", "count"),
    ("sweep.cells", "count"),
    ("sweep.cell_s", "s"),
    ("batch.idle_share", "ratio"),
    ("job.create_s", "s"),
    ("job.checkpoint_flush_s", "s"),
    ("job.points_done", "count"),
    ("analysis.fixed_point_s", "s"),
    ("analysis.delay_walk_s", "s"),
    ("analysis.delay_walk_slots", "count"),
    ("boost.screen_s", "s"),
    ("boost.evals", "count"),
    ("boost.confirm_s", "s"),
    ("boost.confirm_replay_s", "s"),
    ("boost.rungs", "count"),
    ("boost.pruned", "count"),
    ("obs.trace_overhead", "ratio"),
    ("obs.layer_coverage", "ratio"),
];

/// Set-ups in an untraced run; `setup_s` is their median.
const SETUPS: u64 = 5;
/// Horizon scale of the warm-up operation that ends each set-up.
const WARMUP_SCALE: f64 = 0.25;
/// Fewest timed operations in a run, however short `--seconds` is.
const MIN_OPS: usize = 3;
/// Operation index of the first set-up, so set-ups never share inputs
/// with timed operations.
const SETUP_INDEX: u64 = 1 << 31;
/// Share of the untraced wall time the measured top-level rows of the
/// per-layer table must add up to.
const MIN_COVERAGE: f64 = 0.95;

/// What one run measures.
#[derive(Debug, Clone)]
pub struct Opts {
    /// The workload to run.
    pub workload: Workload,
    /// Seed every input of the run derives from.
    pub seed: u64,
    /// How long to keep starting timed operations.
    pub seconds: f64,
    /// Report per-layer metrics from traced operations instead of
    /// end-to-end ones.
    pub trace: bool,
    /// Tiny inputs, for the benchmark's own tests.
    pub smoke: bool,
    /// Parent of the run's boost directories; the run removes what it
    /// creates there.
    pub work_dir: PathBuf,
}

/// One reported metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// What one run found.
#[derive(Debug)]
pub struct Outcome {
    /// Operations checked and failed.
    pub tally: Tally,
    /// Every [`END_TO_END`] or every [`PER_LAYER`] metric, in that order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines: provenance, timings, the per-layer table.
    pub report: String,
}

impl Outcome {
    /// Whether operations ran and every one passed its checks.
    pub fn correct(&self) -> bool {
        self.tally.attempted > 0 && self.tally.failed == 0
    }

    /// The value of metric `name`, if the run reported it.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    /// The result as one JSON line: `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        )
    }
}

/// Run one workload as `opts` says.
pub fn run(opts: &Opts) -> Result<Outcome> {
    if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
        return Err(Error::invalid_config(format!(
            "seconds must be finite and at least 0, not {}",
            opts.seconds
        )));
    }
    let dir = opts
        .work_dir
        .join(format!("{}-{}", opts.workload.name(), std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let outcome = measure(opts, &dir);
    let removed = std::fs::remove_dir_all(&dir);
    // Fails, harmlessly, while another run still uses the directory.
    let _ = std::fs::remove_dir(&opts.work_dir);
    let outcome = outcome?;
    removed?;
    Ok(outcome)
}

fn measure(opts: &Opts, dir: &Path) -> Result<Outcome> {
    let bench = opts.workload.bench(opts.seed, opts.smoke);
    let mut tally = Tally::default();
    let mut report = format!(
        "provenance: {}\n",
        host::provenance(opts, bench.workers(), dir)
    );
    let metrics = if opts.trace {
        traced(opts, bench.as_ref(), dir, &mut tally, &mut report)?
    } else {
        untraced(opts, bench.as_ref(), dir, &mut tally, &mut report)?
    };
    report.push_str(&format!(
        "ops: {} attempted, {} failed, error_rate {}\n",
        tally.attempted,
        tally.failed,
        tally.error_rate()
    ));
    if let Some(why) = &tally.first_failure {
        report.push_str(&format!("first failure: {why}\n"));
    }
    if let Some((name, value, _)) = metrics.iter().find(|m| !m.1.is_finite()) {
        return Err(Error::runtime(format!(
            "metric {name} is not finite: {value}"
        )));
    }
    Ok(Outcome {
        tally,
        metrics,
        report,
    })
}

/// Set-ups, then timed operations until `opts.seconds` have passed.
fn untraced(
    opts: &Opts,
    bench: &dyn Bench,
    dir: &Path,
    tally: &mut Tally,
    report: &mut String,
) -> Result<Vec<Metric>> {
    let (mut setups, mut creates) = (Vec::new(), Vec::new());
    for i in 0..SETUPS {
        let started = Instant::now();
        let warm_up = bench.op(SETUP_INDEX + i, WARMUP_SCALE, dir, None, tally)?;
        setups.push(started.elapsed().as_secs_f64());
        creates.push(warm_up.setup);
    }
    let started = Instant::now();
    let mut ops = Vec::new();
    while ops.len() < MIN_OPS || started.elapsed().as_secs_f64() < opts.seconds {
        ops.push(bench.op(ops.len() as u64, 1.0, dir, None, tally)?);
    }
    let walls: Vec<f64> = ops.iter().map(|o| o.wall).collect();
    let cpus: Vec<f64> = ops.iter().map(|o| o.cpu).collect();
    let wall_s = median(&walls);
    report.push_str(&format!(
        "set-ups (s): {}\n  of which inputs and create (s): {}\n\
         timed ops, wall (s): {}\ntimed ops, cpu (s): {}\n",
        seconds_list(&setups),
        seconds_list(&creates),
        seconds_list(&walls),
        seconds_list(&cpus)
    ));
    if let Some((name, rate)) = bench.rate(wall_s) {
        report.push_str(&format!(
            "{name} = {rate} (restates wall_s: the work per operation is fixed)\n"
        ));
    }
    let values = [wall_s, median(&cpus), median(&setups), host::peak_rss_mb()?];
    Ok(END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name, value, unit))
        .collect())
}

/// One warm-up, then plain and traced operations on the same inputs,
/// alternating which goes first, until `opts.seconds` have passed.
fn traced(
    opts: &Opts,
    bench: &dyn Bench,
    dir: &Path,
    tally: &mut Tally,
    report: &mut String,
) -> Result<Vec<Metric>> {
    bench.op(SETUP_INDEX, WARMUP_SCALE, dir, None, tally)?;
    let mut trace = Trace::default();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while plain.len() < MIN_OPS || started.elapsed().as_secs_f64() < opts.seconds {
        let i = plain.len() as u64;
        let traced_first = i % 2 == 1;
        if traced_first {
            traced.push(bench.op(i, 1.0, dir, Some(&mut trace), tally)?.wall);
        }
        plain.push(bench.op(i, 1.0, dir, None, tally)?.wall);
        if !traced_first {
            traced.push(bench.op(i, 1.0, dir, Some(&mut trace), tally)?.wall);
        }
    }
    let untraced_wall = median(&plain);
    let traced_wall = median(&traced);
    let mut layers = trace.layers(traced.len(), bench.workers());
    layers.insert(
        "obs.trace_overhead",
        (traced_wall - untraced_wall) / untraced_wall,
    );
    let rows = bench.rows(&layers);
    let covered: f64 = rows
        .iter()
        .filter(|r| r.kind == RowKind::Top)
        .map(|r| r.secs)
        .sum();
    layers.insert("obs.layer_coverage", covered / untraced_wall);
    report.push_str(&table(&rows, &layers, untraced_wall, traced.len()));
    report.push_str(&format!(
        "  wall_s median: untraced {untraced_wall:.6} s, traced {traced_wall:.6} s; \
         obs.trace_overhead {:+.2}% (base: untraced wall_s)\n",
        100.0 * layers["obs.trace_overhead"]
    ));
    let coverage = layers["obs.layer_coverage"];
    let mut claims = vec![(
        format!("obs.layer_coverage {coverage} >= {MIN_COVERAGE}"),
        coverage >= MIN_COVERAGE,
    )];
    claims.extend(bench.claims(&layers, untraced_wall));
    for (claim, holds) in claims {
        let verdict = if holds { "holds" } else { "DOES NOT HOLD" };
        report.push_str(&format!("isolation: {claim}: {verdict}\n"));
    }
    Ok(PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, layers[name], unit))
        .collect())
}

fn table(rows: &[Row], layers: &Layers, untraced_wall: f64, ops: usize) -> String {
    let mut out = format!(
        "per-layer table: seconds per traced operation, mean of {ops}; \
         share base: median untraced wall_s {untraced_wall:.6} s\n"
    );
    for row in rows {
        let layer = match row.kind {
            RowKind::Top => row.layer.to_string(),
            RowKind::Part => format!("  {}", row.layer),
            RowKind::Derived => format!("= {}", row.layer),
        };
        out.push_str(&format!(
            "  {layer:<46} {:>10.6} s {:>6.1}%  {}\n",
            row.secs,
            100.0 * row.secs / untraced_wall,
            row.basis
        ));
    }
    out.push_str(&format!(
        "  obs.layer_coverage {:.1}%: measured top-level rows over the median untraced wall_s; \
         the rest is unmeasured\n",
        100.0 * layers["obs.layer_coverage"]
    ));
    for (name, unit) in PER_LAYER {
        out.push_str(&format!("  {name} = {} {unit}\n", layers[name]));
    }
    out
}

fn seconds_list(values: &[f64]) -> String {
    let shown: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
    shown.join(" ")
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Run `call`, the call users wait on, and return its output with its
/// wall seconds and its user plus system CPU seconds over all threads.
pub(crate) fn timed<T>(call: impl FnOnce() -> T) -> Result<(T, f64, f64)> {
    let cpu = host::cpu_secs()?;
    let started = Instant::now();
    let out = call();
    let wall = started.elapsed().as_secs_f64();
    Ok((out, wall, host::cpu_secs()? - cpu))
}

/// What one operation cost, in seconds.
pub(crate) struct OpTime {
    /// Building the inputs and creating the run, before the timed call.
    pub(crate) setup: f64,
    /// Wall time of the timed call.
    pub(crate) wall: f64,
    /// User plus system CPU time of the timed call, all threads.
    pub(crate) cpu: f64,
}

/// Per-operation layer values by metric name.
pub(crate) type Layers = BTreeMap<&'static str, f64>;

/// A workload: its operations, and how its layers add up to its wall
/// time.
pub(crate) trait Bench {
    /// Worker threads the workload fans out on.
    fn workers(&self) -> usize;

    /// Run operation `index` with every horizon scaled by `scale`: set up
    /// its inputs from the seed, time the call users wait on, and check
    /// the outputs into `tally`. With `trace`, the crates record into its
    /// registry and the benchmark adds its own spans. `Err` is only for
    /// the benchmark's own file handling and clock reads.
    fn op(
        &self,
        index: u64,
        scale: f64,
        dir: &Path,
        trace: Option<&mut Trace>,
        tally: &mut Tally,
    ) -> Result<OpTime>;

    /// The rows of the per-layer table.
    fn rows(&self, layers: &Layers) -> Vec<Row>;

    /// What the workload was chosen to isolate, each claim with whether
    /// the trace bears it out.
    fn claims(&self, layers: &Layers, untraced_wall: f64) -> Vec<(String, bool)>;

    /// The workload's own rate at `wall_s` per operation, if it has one.
    fn rate(&self, wall_s: f64) -> Option<(&'static str, f64)>;
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RowKind {
    /// A measured span that splits the wall time; the coverage adds
    /// these up.
    Top,
    /// A measured part of the top-level row above it.
    Part,
    /// A value derived from other spans, shown for reference only.
    Derived,
}

/// One row of the per-layer table, in seconds per operation.
pub(crate) struct Row {
    kind: RowKind,
    layer: &'static str,
    secs: f64,
    /// Measured span or derived value, and from what.
    basis: &'static str,
}

impl Row {
    pub(crate) fn top(layer: &'static str, secs: f64, basis: &'static str) -> Row {
        Row {
            kind: RowKind::Top,
            layer,
            secs,
            basis,
        }
    }

    pub(crate) fn part(layer: &'static str, secs: f64, basis: &'static str) -> Row {
        Row {
            kind: RowKind::Part,
            layer,
            secs,
            basis,
        }
    }

    pub(crate) fn derived(layer: &'static str, secs: f64, basis: &'static str) -> Row {
        Row {
            kind: RowKind::Derived,
            layer,
            secs,
            basis,
        }
    }
}

/// What traced operations recorded: the registry the crates' counters
/// and span timers write to, and the benchmark's own spans and counts
/// around public calls.
#[derive(Default)]
pub(crate) struct Trace {
    pub(crate) registry: plc_obs::Registry,
    totals: BTreeMap<&'static str, f64>,
}

impl Trace {
    /// Add `value`, seconds or a count, to the benchmark's total `name`.
    pub(crate) fn add(&mut self, name: &'static str, value: f64) {
        *self.totals.entry(name).or_default() += value;
    }

    /// Every [`PER_LAYER`] value per traced operation, except the two
    /// that need the plain wall time.
    fn layers(&self, ops: usize, workers: usize) -> Layers {
        let snap = self.registry.snapshot();
        let timer = |name: &str| snap.timer(name).map_or(0.0, |t| t.total_secs);
        let counter = |name: &str| snap.counter(name).unwrap_or(0) as f64;
        let total = |name: &str| self.totals.get(name).copied().unwrap_or(0.0);
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let ops = ops as f64;

        let steps = counter("engine.steps");
        let skipped = counter("engine.steps_skipped");
        // `engine.step` times busy slots only: the engine subtracts its
        // fast-forward time from the batched loop time it records.
        let busy = timer("engine.step");
        let cell = timer("sweep.cell");
        // `BoostRun::run` times nothing of its own, so its confirm rungs
        // are derived. The batch workers' cells are timed in the
        // instrumented replay of the rungs, so that replay is their base.
        let confirm = total("boost.run_s") - total("boost.screen_s");
        let fan_out = total("boost.confirm_traced_replay_s");

        let mut layers: Layers = PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect();
        for (name, value) in &self.totals {
            if layers.contains_key(name) {
                layers.insert(name, value / ops);
            }
        }
        for (name, value) in [
            ("engine.busy_s", busy / ops),
            ("engine.busy_step_ns", ratio(busy * 1e9, steps - skipped)),
            ("engine.ff_s", timer("engine.fast_forward") / ops),
            ("engine.ff_share", ratio(skipped, steps)),
            (
                "engine.soa_fallbacks",
                counter("engine.soa_fallbacks") / ops,
            ),
            ("sweep.cells", counter("sweep.cells") / ops),
            ("sweep.cell_s", cell / ops),
            (
                "batch.idle_share",
                if cell > 0.0 {
                    1.0 - ratio(cell, workers as f64 * fan_out)
                } else {
                    0.0
                },
            ),
            (
                "job.checkpoint_flush_s",
                timer("job.checkpoint_flush") / ops,
            ),
            ("job.points_done", counter("job.points_done") / ops),
            ("boost.evals", counter("boost.evals") / ops),
            ("boost.confirm_s", confirm / ops),
            ("boost.rungs", counter("boost.rungs") / ops),
            ("boost.pruned", counter("boost.pruned") / ops),
        ] {
            layers.insert(name, value);
        }
        layers
    }
}
