//! Microbenchmark for the contention core's busy slot alone.
//!
//! Drives `plc_sim`'s contention core through idle/success/collision
//! slots (with the fused fast-forward cache fold) without any of the
//! engine's traffic, metrics or trace plumbing, so regressions in the
//! busy-slot cost show up undiluted. Each iteration advances 1 000
//! slots, so the cost per slot ≈ reported time / 1 000. A saturated
//! CA1 population runs the event-indexed layout, whose busy slot visits
//! only the stations that change course (transmitters and expired
//! deferral counters, ≈35 per busy slot at n = 500) plus one bitset
//! bucket of ⌈n/64⌉ words: the cost follows those events, not n. At
//! saturation the events themselves grow with n, which the n = 1 000
//! point tracks.
//!
//! Run with `cargo bench -p plc-bench --bench busy_slot`. CI runs a
//! shortened smoke pass (non-gating) and uploads the criterion report.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use plc_sim::contention_bench::BusySweepBench;
use std::hint::black_box;

const SLOTS_PER_ITER: usize = 1_000;

fn bench_busy_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("busy_slot_sweep");
    for &n in &[10usize, 50, 200, 500, 1_000] {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut bench = BusySweepBench::new(n, 7);
            // Steady state: backoff stages deepen over the first few
            // thousand slots; state carries across iterations.
            bench.run(5 * SLOTS_PER_ITER);
            b.iter(|| black_box(bench.run(SLOTS_PER_ITER)));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_busy_sweep);
criterion_main!(benches);
