//! Smoke runs of every workload on tiny inputs: the output checks, both
//! reports and the failure accounting. No timing is asserted.

use perfbench::{checks, run, Opts, Outcome, Tally, Workload, END_TO_END, PER_LAYER};
use plc_boost::{BoostConfig, BoostRun};
use plc_sim::Simulation;
use std::path::PathBuf;

fn scratch(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("perfbench-{name}-{}", std::process::id()))
}

fn smoke(workload: Workload, trace: bool) -> Outcome {
    let opts = Opts {
        workload,
        seed: 11,
        seconds: 0.0,
        trace,
        smoke: true,
        work_dir: scratch(&format!("{}-{trace}", workload.name())),
    };
    let outcome = run(&opts).expect("a smoke run completes");
    assert!(!opts.work_dir.exists(), "the run removes its directories");
    assert!(
        outcome.correct(),
        "{} (trace {trace}) failed its checks:\n{}",
        workload.name(),
        outcome.report
    );
    outcome
}

fn names(outcome: &Outcome) -> Vec<&'static str> {
    outcome.metrics.iter().map(|m| m.0).collect()
}

#[test]
fn untraced_runs_pass_their_checks_and_report_every_end_to_end_metric() {
    for workload in Workload::ALL {
        let outcome = smoke(workload, false);
        assert_eq!(names(&outcome), END_TO_END.map(|m| m.0));
        // cpu_s may read 0 here: tiny operations take less than a clock tick.
        for name in ["wall_s", "setup_s", "peak_rss_mb"] {
            assert!(outcome.metric(name).unwrap() > 0.0, "{outcome:?}");
        }
        assert!(outcome.report.starts_with("provenance: {\"workload\": "));
        let line = outcome.result_line();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
        assert!(line.contains("\"failed\": 0, "), "{line}");
    }
}

#[test]
fn traced_runs_report_every_layer_metric_and_the_layer_they_load() {
    for workload in Workload::ALL {
        let outcome = smoke(workload, true);
        assert_eq!(names(&outcome), PER_LAYER.map(|m| m.0));
        assert!(
            outcome.report.contains("per-layer table"),
            "{}",
            outcome.report
        );
        assert!(outcome.report.contains("isolation: "), "{}", outcome.report);
        let loaded = match workload {
            Workload::SaturatedDense => "engine.busy_s",
            Workload::BoostSearch => "job.points_done",
        };
        assert!(outcome.metric(loaded).unwrap() > 0.0, "{}", outcome.report);
        assert!(outcome.report.contains("isolation: obs.layer_coverage "));
        assert!(outcome.metric("obs.layer_coverage").unwrap() > 0.0);
    }
}

#[test]
fn out_of_range_reports_and_an_off_front_recommendation_count_as_failed_ops() {
    let mut report = Simulation::ieee1901(3)
        .horizon_us(2.0e5)
        .seed(1)
        .try_run()
        .unwrap();
    checks::sim_report(&report).unwrap();
    report.collision_probability = 1.5;
    assert!(checks::sim_report(&report).is_err());
    report.collision_probability = 0.1;
    report.successes = 0;
    report.collided_tx = 0;
    assert!(checks::sim_report(&report).is_err());

    let dir = scratch("pareto");
    let mut cfg = BoostConfig::smoke(&dir);
    cfg.rungs = 1;
    cfg.base_horizon_us = 1.0e5;
    let boost = BoostRun::create(cfg).unwrap().run().unwrap();
    checks::pareto(&boost.artifact_path).unwrap();
    let mut artifact = boost.artifact.clone();
    artifact.recommended.candidate.label = "not-a-candidate".to_string();
    std::fs::write(
        &boost.artifact_path,
        serde_json::to_string(&artifact).unwrap(),
    )
    .unwrap();
    let why = checks::pareto(&boost.artifact_path).unwrap_err();
    assert!(why.contains("not on the front"), "{why}");
    std::fs::remove_dir_all(&dir).unwrap();

    // A failed check is counted, and the operations after it still are.
    let mut tally = Tally::default();
    tally.record(checks::sim_report(&report));
    tally.record(Err(why));
    tally.record(Ok(()));
    assert_eq!((tally.attempted, tally.failed), (3, 2));
    assert!(tally.first_failure.unwrap().contains("no transmissions"));
}

#[test]
fn benchmark_json_lists_the_workloads_and_metrics_the_command_reports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).unwrap();
    for workload in Workload::ALL {
        assert!(
            text.contains(&format!("{{\"name\": \"{}\", ", workload.name())),
            "{} missing",
            workload.name()
        );
    }
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(
            text.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", ")),
            "{name} ({unit}) missing"
        );
    }
    assert_eq!(
        text.matches("\"unit\": ").count(),
        END_TO_END.len() + PER_LAYER.len()
    );
}
