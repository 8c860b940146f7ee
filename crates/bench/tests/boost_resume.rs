//! Chaos and determinism tests for the closed-loop boosting CLI
//! (`experiments boost`): the search must produce a non-empty Pareto
//! front, the `pareto.json` artifact must be byte-identical for any
//! worker count, and a SIGKILL mid-search must be survivable —
//! `experiments boost resume` replays to the identical artifact. The
//! default search's artifact and rung results are pinned byte for byte.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const EXE: &str = env!("CARGO_BIN_EXE_experiments");

fn temp_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("plc_boost_resume_{}_{}", name, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The tiny-space × smoke-portfolio search every test runs, fixed
/// modulo directory and worker count.
fn smoke_args(dir: &Path, workers: &str) -> Vec<String> {
    [
        "run",
        "--dir",
        dir.to_str().unwrap(),
        "--space",
        "tiny",
        "--portfolio",
        "smoke",
        "--seed",
        "42",
        "--rungs",
        "2",
        "--screen-keep",
        "4",
        "--horizon-us",
        "2e5",
        "--replications",
        "1",
        "--workers",
        workers,
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

fn run_boost(args: &[String]) -> std::process::Output {
    Command::new(EXE)
        .arg("boost")
        .args(args)
        .output()
        .expect("experiments binary runs")
}

/// Poll a member job's `journal.jsonl` until it holds at least `lines`
/// fully flushed entries.
fn wait_for_journal_lines(path: &Path, lines: usize) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Ok(contents) = std::fs::read_to_string(path) {
            if contents.ends_with('\n') && contents.lines().count() >= lines {
                return;
            }
        }
        assert!(
            Instant::now() < deadline,
            "journal at {} never reached {lines} lines",
            path.display()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn boost_search_finds_a_front_and_is_byte_identical_across_workers() {
    let dir_one = temp_dir("workers1");
    let out = run_boost(&smoke_args(&dir_one, "1"));
    assert!(out.status.success(), "boost run failed: {out:?}");
    let artifact_one = std::fs::read_to_string(dir_one.join("pareto.json")).unwrap();

    // The front is non-empty and the verdict names a recommendation.
    // (The vendored serde_json is a writer-oriented stand-in, so probe
    // the document textually.)
    assert!(
        !artifact_one.contains("\"pareto\":[]"),
        "empty Pareto front: {artifact_one}"
    );
    assert!(
        artifact_one.contains("\"recommended\":{\"candidate\":{\"label\":\""),
        "missing recommendation: {artifact_one}"
    );

    // Same search, four workers: the artifact must not differ by a byte.
    let dir_four = temp_dir("workers4");
    let out = run_boost(&smoke_args(&dir_four, "4"));
    assert!(
        out.status.success(),
        "boost run (4 workers) failed: {out:?}"
    );
    let artifact_four = std::fs::read_to_string(dir_four.join("pareto.json")).unwrap();
    assert_eq!(
        artifact_one, artifact_four,
        "pareto.json differs across worker counts"
    );

    std::fs::remove_dir_all(&dir_one).unwrap();
    std::fs::remove_dir_all(&dir_four).unwrap();
}

#[test]
fn killed_boost_search_resumes_byte_identical() {
    // Reference: the same search run to completion without interference.
    let ref_dir = temp_dir("reference");
    let out = run_boost(&smoke_args(&ref_dir, "1"));
    assert!(out.status.success(), "reference run failed: {out:?}");
    let reference = std::fs::read_to_string(ref_dir.join("pareto.json")).unwrap();

    // Chaos run: stall the first member job's checkpoint hook after its
    // 2nd journaled point so the process sits in a known window, then
    // SIGKILL it there — mid-rung, mid-member.
    let chaos_dir = temp_dir("chaos");
    let mut args = smoke_args(&chaos_dir, "1");
    args.extend(["--stall-after", "2", "--stall-ms", "20000"].map(String::from));
    let mut child = Command::new(EXE)
        .arg("boost")
        .args(&args)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("chaos child spawns");
    wait_for_journal_lines(&chaos_dir.join("rung1/saturated/journal.jsonl"), 2);
    child.kill().expect("SIGKILL the stalled search");
    child.wait().expect("reap the killed search");
    assert!(
        !chaos_dir.join("pareto.json").exists(),
        "killed search must not have written its artifact"
    );

    // Status reads progress from the manifests and journals alone.
    let out = run_boost(&[
        "status".to_string(),
        "--dir".to_string(),
        chaos_dir.to_str().unwrap().to_string(),
    ]);
    assert!(out.status.success(), "status failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("rung1/saturated") && stdout.contains("artifact: pending"),
        "unexpected status: {stdout}"
    );

    // Resume in a fresh process with a different worker count: settled
    // points replay from the journals and the artifact is identical.
    let mut resume_args = smoke_args(&chaos_dir, "2");
    resume_args[0] = "resume".to_string();
    let out = run_boost(&resume_args);
    assert!(out.status.success(), "resume failed: {out:?}");
    let resumed = std::fs::read_to_string(chaos_dir.join("pareto.json")).unwrap();
    assert_eq!(
        reference, resumed,
        "resumed artifact differs from the uninterrupted run"
    );

    // Resuming a finished search is a no-op returning the same artifact.
    let out = run_boost(&resume_args);
    assert!(out.status.success(), "second resume failed: {out:?}");
    let again = std::fs::read_to_string(chaos_dir.join("pareto.json")).unwrap();
    assert_eq!(reference, again);

    std::fs::remove_dir_all(&ref_dir).unwrap();
    std::fs::remove_dir_all(&chaos_dir).unwrap();
}

#[test]
fn boost_run_refuses_an_existing_search_and_mismatched_resume() {
    let dir = temp_dir("refuse");
    let out = run_boost(&smoke_args(&dir, "1"));
    assert!(out.status.success(), "initial run failed: {out:?}");

    // A second `run` into the same directory is refused.
    let out = run_boost(&smoke_args(&dir, "1"));
    assert!(!out.status.success(), "second run must be refused");

    // A resume with different search parameters is refused.
    let mut args = smoke_args(&dir, "1");
    args[0] = "resume".to_string();
    let seed_at = args.iter().position(|a| a == "--seed").unwrap() + 1;
    args[seed_at] = "7".to_string();
    let out = run_boost(&args);
    assert!(!out.status.success(), "mismatched resume must be refused");

    std::fs::remove_dir_all(&dir).unwrap();
}

/// 64-bit FNV-1a, the hash the `plc-sim` topology pins use.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 1_469_598_103_934_665_603;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(1_099_511_628_211);
    }
    h
}

#[test]
fn default_search_writes_the_pinned_bytes() {
    // The default search (default space and portfolio, seed 42, two
    // rungs) writes these bytes at any worker count. A speed-up must
    // leave them alone; a change that means to move results re-blesses
    // the table once and says why.
    const PINS: [(&str, usize, u64); 7] = [
        ("pareto.json", 2182, 13103115284686103657),
        ("rung1/cells/results.json", 8187, 13938926772869100144),
        ("rung1/poisson/results.json", 8198, 17898217090165293127),
        ("rung1/saturated/results.json", 24389, 4116656920178105540),
        ("rung2/cells/results.json", 5068, 11914924262147351717),
        ("rung2/poisson/results.json", 5076, 14529356963443759762),
        ("rung2/saturated/results.json", 15088, 4668015067284014320),
    ];
    let dir = temp_dir("pinned");
    let out = run_boost(&["run", "--dir", dir.to_str().unwrap()].map(String::from));
    assert!(out.status.success(), "default search failed: {out:?}");
    for (file, len, hash) in PINS {
        let bytes = std::fs::read(dir.join(file)).unwrap();
        assert_eq!((bytes.len(), fnv1a(&bytes)), (len, hash), "{file}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
