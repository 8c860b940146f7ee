//! Criterion benchmarks — one group per regenerated table/figure, timing
//! the computational pipeline behind each artifact, plus core-engine
//! microbenchmarks (steps/second, fixed-point solves).
//!
//! Run with `cargo bench`. Sample counts are kept small because individual
//! iterations are whole simulations.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use plc_analysis::{BianchiModel, CoupledModel, Model1901};
use plc_core::timing::MacTiming;
use plc_core::units::Microseconds;
use plc_sim::{PaperSim, Simulation};
use plc_testbed::CollisionExperiment;
use std::hint::black_box;

/// Table 1 is constants; benchmark the config construction + validation
/// path that regenerates it.
fn bench_table1(c: &mut Criterion) {
    c.bench_function("table1/config_construction", |b| {
        b.iter(|| {
            let cfg = plc_core::config::CsmaConfig::ieee1901_ca01();
            black_box(cfg.validate().is_ok())
        })
    });
}

/// Figure 1: the trace pipeline (engine with snapshots).
fn bench_figure1(c: &mut Criterion) {
    c.bench_function("figure1/trace_30_events", |b| {
        b.iter(|| black_box(plc_bench::exp::figure1::trace(30, 1)))
    });
}

/// Table 2: one emulated-testbed measurement (2 s test, N = 3).
fn bench_table2(c: &mut Criterion) {
    let mut g = c.benchmark_group("table2");
    g.sample_size(10);
    g.bench_function("testbed_measurement_n3_2s", |b| {
        b.iter(|| {
            let out = CollisionExperiment {
                duration: Microseconds::from_secs(2.0),
                ..CollisionExperiment::paper(3, 1)
            }
            .run()
            .unwrap();
            black_box(out.collision_probability)
        })
    });
    g.finish();
}

/// Figure 2: each of the three series at N = 5.
fn bench_figure2(c: &mut Criterion) {
    let mut g = c.benchmark_group("figure2");
    g.sample_size(10);
    g.bench_function("simulation_n5_5s", |b| {
        b.iter(|| {
            black_box(
                PaperSim::with_n_and_time(5, 5.0e6)
                    .run(1)
                    .unwrap()
                    .collision_pr,
            )
        })
    });
    g.bench_function("analysis_coupled_n5", |b| {
        let model = CoupledModel::default_ca1();
        b.iter(|| black_box(model.solve(5).collision_probability))
    });
    g.bench_function("testbed_n5_2s", |b| {
        b.iter(|| {
            black_box(
                CollisionExperiment {
                    duration: Microseconds::from_secs(2.0),
                    ..CollisionExperiment::paper(5, 1)
                }
                .run()
                .unwrap()
                .collision_probability,
            )
        })
    });
    g.finish();
}

/// E1: throughput comparison points at several N.
fn bench_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("throughput_vs_n");
    g.sample_size(10);
    for n in [2usize, 10] {
        g.bench_with_input(BenchmarkId::new("sim_1901_5s", n), &n, |b, &n| {
            b.iter(|| black_box(Simulation::ieee1901(n).horizon_us(5.0e6).seed(1).run()))
        });
        g.bench_with_input(BenchmarkId::new("sim_dcf_5s", n), &n, |b, &n| {
            b.iter(|| black_box(Simulation::dcf(n).horizon_us(5.0e6).seed(1).run()))
        });
    }
    g.finish();
}

/// E3: the boost search — the `plc-boost` screen of the 55-candidate
/// default space at one saturated N (55 mean-field solves).
fn bench_boost(c: &mut Criterion) {
    let mut g = c.benchmark_group("boost");
    g.sample_size(10);
    let timing = MacTiming::paper_default();
    g.bench_function("search_n10", |b| {
        b.iter(|| black_box(plc_bench::exp::boost::best_at(10, &timing)))
    });
    g.finish();
}

/// E4: fairness pipeline — simulation + windowed Jain.
fn bench_fairness(c: &mut Criterion) {
    let mut g = c.benchmark_group("fairness");
    g.sample_size(10);
    g.bench_function("trace_and_windowed_jain_n4_5s", |b| {
        b.iter(|| {
            let trace = plc_bench::exp::fairness::success_trace(
                &Simulation::ieee1901(4).horizon_us(5.0e6).seed(1),
            );
            black_box(plc_stats::fairness::windowed_jain(&trace, 4, 16))
        })
    });
    g.finish();
}

/// E5/E6: the sniffer pipeline (capture → MME decode → burst grouping).
fn bench_sniffer(c: &mut Criterion) {
    let mut g = c.benchmark_group("sniffer");
    g.sample_size(10);
    g.bench_function("mme_overhead_n2_2s", |b| {
        b.iter(|| {
            black_box(
                plc_bench::exp::mme_overhead::measure(&plc_bench::RunOpts::quick(), 2, 2e-6, 1)
                    .unwrap(),
            )
        })
    });
    g.finish();
}

/// E7 + engine microbenchmarks: model solves and raw engine speed.
fn bench_models_and_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("models");
    for n in [2usize, 7, 20] {
        g.bench_with_input(BenchmarkId::new("coupled_solve", n), &n, |b, &n| {
            let m = CoupledModel::default_ca1();
            b.iter(|| black_box(m.solve(n).collision_probability))
        });
        g.bench_with_input(BenchmarkId::new("decoupled_solve", n), &n, |b, &n| {
            let m = Model1901::default_ca1();
            b.iter(|| black_box(m.solve(n).collision_probability))
        });
        g.bench_with_input(BenchmarkId::new("bianchi_solve", n), &n, |b, &n| {
            let m = BianchiModel::classic();
            b.iter(|| black_box(m.solve(n).collision_probability))
        });
    }
    g.finish();

    let mut g = c.benchmark_group("engine");
    g.bench_function("reference_sim_1s_n5", |b| {
        b.iter(|| black_box(PaperSim::with_n_and_time(5, 1.0e6).run(1).unwrap()))
    });
    g.bench_function("modular_engine_1s_n5", |b| {
        b.iter(|| black_box(Simulation::ieee1901(5).horizon_us(1.0e6).seed(1).run()))
    });
    g.finish();
}

/// E8: the channel-error pipeline (PHY error model + retransmitting engine).
fn bench_errors(c: &mut Criterion) {
    let mut g = c.benchmark_group("errors");
    g.sample_size(10);
    g.bench_function("noisy_sim_n3_5s_p0.1", |b| {
        b.iter(|| {
            black_box(
                Simulation::ieee1901(3)
                    .pb_error_prob(0.1)
                    .horizon_us(5.0e6)
                    .seed(1)
                    .run()
                    .metrics
                    .goodput(),
            )
        })
    });
    g.bench_function("tone_map_and_rate", |b| {
        let ch = plc_phy::ChannelModel::long_link();
        b.iter(|| {
            let rate = plc_phy::PhyRate::from_tone_map(&ch.tone_map(black_box(0.0)));
            black_box(rate.airtime(36 * 1024))
        })
    });
    g.finish();
}

/// E9: the delay pipeline (simulation + renewal prediction).
fn bench_delay(c: &mut Criterion) {
    let mut g = c.benchmark_group("delay");
    g.sample_size(10);
    g.bench_function("points_n_1_2_5", |b| {
        b.iter(|| {
            black_box(plc_bench::exp::delay::points(
                &plc_bench::RunOpts::quick(),
                &[1, 2, 5],
            ))
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_table1,
    bench_figure1,
    bench_table2,
    bench_figure2,
    bench_throughput,
    bench_boost,
    bench_fairness,
    bench_sniffer,
    bench_models_and_engine,
    bench_errors,
    bench_delay,
);
criterion_main!(benches);
