//! CLI-level tests of the `veritas` binary: exit-status behavior on
//! per-unit errors (`--allow-errors`), the streaming path, flag usage
//! errors, and file-system failures.

use std::path::PathBuf;
use std::process::{Command, Output};

use veritas_engine::QueryRecord;

fn veritas(args: &[&str], dir: &std::path::Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_veritas"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("the veritas binary must run")
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("veritas_cli_test_{name}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn run_exits_nonzero_on_unit_errors_unless_allowed() {
    let dir = temp_dir("exit_status");
    // chunk_index far out of range: every unit fails (cheaply, before any
    // inference), so the run completes but carries errors.
    std::fs::write(
        dir.join("bad.json"),
        r#"{"queries": [{"id": "bad", "kind": "interventional", "chunk_index": 100000}]}"#,
    )
    .unwrap();

    let failing = veritas(
        &[
            "run",
            "bad.json",
            "--synthetic",
            "2",
            "--out",
            "report.jsonl",
        ],
        &dir,
    );
    assert!(
        !failing.status.success(),
        "per-unit errors must fail the run: {}",
        String::from_utf8_lossy(&failing.stderr)
    );
    let stderr = String::from_utf8_lossy(&failing.stderr);
    assert!(stderr.contains("--allow-errors"), "stderr was: {stderr}");
    // The records were still written before the nonzero exit.
    let report = std::fs::read_to_string(dir.join("report.jsonl")).unwrap();
    assert_eq!(report.lines().count(), 2);

    let allowed = veritas(
        &[
            "run",
            "bad.json",
            "--synthetic",
            "2",
            "--allow-errors",
            "--out",
            "report.jsonl",
        ],
        &dir,
    );
    assert!(
        allowed.status.success(),
        "--allow-errors must downgrade unit errors to exit 0: {}",
        String::from_utf8_lossy(&allowed.stderr)
    );
}

#[test]
fn run_rejects_invalid_query_files_with_nonzero_exit() {
    let dir = temp_dir("invalid_query");
    std::fs::write(
        dir.join("invalid.json"),
        r#"{"queries": [{"id": "s", "kind": "sweep"}]}"#,
    )
    .unwrap();
    let output = veritas(&["run", "invalid.json", "--synthetic", "2"], &dir);
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("sweep"), "stderr was: {stderr}");
}

#[test]
fn streamed_run_writes_valid_jsonl() {
    let dir = temp_dir("stream");
    std::fs::write(
        dir.join("queries.json"),
        r#"{"queries": [{"id": "posterior", "kind": "abduction"}]}"#,
    )
    .unwrap();
    let output = veritas(
        &[
            "run",
            "queries.json",
            "--synthetic",
            "2",
            "--stream",
            "--out",
            "stream.jsonl",
            "--summary",
            "summary.json",
        ],
        &dir,
    );
    assert!(
        output.status.success(),
        "streamed run failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let report = std::fs::read_to_string(dir.join("stream.jsonl")).unwrap();
    let records: Vec<QueryRecord> = report
        .lines()
        .map(|line| serde_json::from_str(line).expect("every streamed line is a record"))
        .collect();
    assert_eq!(records.len(), 2);
    assert!(records.iter().all(|r| r.is_ok()));
    let summary = std::fs::read_to_string(dir.join("summary.json")).unwrap();
    assert!(summary.contains("\"shards\": 1"), "summary was: {summary}");
}

#[test]
fn flags_a_run_cannot_honor_are_usage_errors() {
    let dir = temp_dir("usage");
    std::fs::write(
        dir.join("queries.json"),
        r#"{"queries": [{"id": "posterior", "kind": "abduction"}]}"#,
    )
    .unwrap();
    for (flags, complaint) in [
        (&["--shards", "2"][..], "--workers"),
        (&["--no-cache"][..], "unknown flag `--no-cache`"),
    ] {
        let mut args = vec!["run", "queries.json", "--synthetic", "2"];
        args.extend_from_slice(flags);
        let output = veritas(&args, &dir);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{flags:?}: {stderr}");
        assert!(stderr.contains(complaint), "{flags:?}: {stderr}");
    }
    let bench = veritas(&["bench"], &dir);
    let stderr = String::from_utf8_lossy(&bench.stderr);
    assert_eq!(bench.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown subcommand"), "{stderr}");
}

#[test]
fn file_system_failures_exit_3_and_name_the_path() {
    let dir = temp_dir("io_failures");
    // Every unit fails before inference, so the runs are cheap.
    std::fs::write(
        dir.join("bad.json"),
        r#"{"queries": [{"id": "bad", "kind": "interventional", "chunk_index": 100000}]}"#,
    )
    .unwrap();
    std::fs::write(dir.join("plain"), "a regular file").unwrap();
    let run = |flag, path| {
        vec![
            "run",
            "bad.json",
            "--synthetic",
            "2",
            "--allow-errors",
            flag,
            path,
        ]
    };
    for (args, path) in [
        (run("--out", "missing/r.jsonl"), "missing/r.jsonl"),
        (run("--summary", "missing/s.json"), "missing/s.json"),
        (
            vec!["run", "missing.json", "--synthetic", "2"],
            "missing.json",
        ),
        (
            vec!["synth", "--out", "plain/sessions", "--sessions", "1"],
            "plain/sessions",
        ),
        (vec!["validate", "missing.jsonl"], "missing.jsonl"),
    ] {
        let output = veritas(&args, &dir);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(3), "{args:?}: {stderr}");
        assert!(stderr.contains(path), "{args:?}: {stderr}");
    }
}

#[test]
fn a_cache_hit_shortfall_fails_the_run() {
    let dir = temp_dir("cache_floor");
    std::fs::write(
        dir.join("queries.json"),
        r#"{"queries": [{"id": "posterior", "kind": "abduction"}]}"#,
    )
    .unwrap();
    // One query per session: every unit infers, so no hit can be served.
    let output = veritas(
        &[
            "run",
            "queries.json",
            "--synthetic",
            "2",
            "--min-cache-hits",
            "1",
            "--out",
            "report.jsonl",
        ],
        &dir,
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("cache"), "stderr: {stderr}");
}

#[test]
fn the_daemon_subcommands_print_the_daemon_usage() {
    let dir = temp_dir("daemon_help");
    let daemon = Command::new(env!("CARGO_BIN_EXE_veritasd"))
        .arg("--help")
        .output()
        .expect("the veritasd binary must run");
    assert!(daemon.status.success());
    assert!(String::from_utf8_lossy(&daemon.stdout).contains("--worker-cmd"));
    for subcommand in ["serve", "worker"] {
        let output = veritas(&[subcommand, "--help"], &dir);
        assert_eq!(output.status.code(), Some(0), "veritas {subcommand} --help");
        assert_eq!(output.stdout, daemon.stdout, "veritas {subcommand} --help");
    }
}

#[test]
fn an_ingested_vcorp_reproduces_its_directory_run_and_shares_its_cache() {
    let dir = temp_dir("ingest_roundtrip");
    let _ = std::fs::remove_dir_all(dir.join("sessions"));
    let _ = std::fs::remove_dir_all(dir.join("store"));
    let _ = std::fs::remove_file(dir.join("corpus.vcorp"));
    std::fs::write(
        dir.join("queries.json"),
        r#"{"queries": [
            {"id": "posterior", "kind": "abduction"},
            {"id": "what-if", "kind": "counterfactual", "scenario": {"abr": "bba"}}
        ]}"#,
    )
    .unwrap();

    // Materialize a JSON session directory with the CLI itself, then
    // convert it.
    let synth = veritas(
        &[
            "synth",
            "--out",
            "sessions",
            "--sessions",
            "3",
            "--seed",
            "77",
        ],
        &dir,
    );
    assert!(
        synth.status.success(),
        "synth failed: {}",
        String::from_utf8_lossy(&synth.stderr)
    );
    let ingest = veritas(&["ingest", "sessions", "--out", "corpus.vcorp"], &dir);
    assert!(
        ingest.status.success(),
        "ingest failed: {}",
        String::from_utf8_lossy(&ingest.stderr)
    );
    let stdout = String::from_utf8_lossy(&ingest.stdout);
    assert!(stdout.contains("ingested 3 sessions"), "stdout: {stdout}");

    let run = |corpus: &str, out: &str, summary: &str| {
        let output = veritas(
            &[
                "run",
                "queries.json",
                "--corpus",
                corpus,
                "--cache-dir",
                "store",
                "--out",
                out,
                "--summary",
                summary,
            ],
            &dir,
        );
        assert!(
            output.status.success(),
            "run over {corpus} failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
    };
    run("sessions", "dir.jsonl", "dir-summary.json");
    run("corpus.vcorp", "vcorp.jsonl", "vcorp-summary.json");

    // Identical causal payload from either corpus source.
    let normalize = |name: &str| -> Vec<String> {
        std::fs::read_to_string(dir.join(name))
            .unwrap()
            .lines()
            .map(|line| {
                let mut record: QueryRecord = serde_json::from_str(line).unwrap();
                record.elapsed_us = 0;
                record.cache = None;
                serde_json::to_string(&record).unwrap()
            })
            .collect()
    };
    let records = normalize("dir.jsonl");
    assert!(!records.is_empty());
    assert_eq!(records, normalize("vcorp.jsonl"));

    // The `.vcorp` run shares the directory run's cache keys: it restores
    // every posterior from the store written by the first run and infers
    // nothing.
    let summary_of = |name: &str| -> veritas_engine::RunSummary {
        serde_json::from_str(&std::fs::read_to_string(dir.join(name)).unwrap()).unwrap()
    };
    let dir_summary = summary_of("dir-summary.json");
    let vcorp_summary = summary_of("vcorp-summary.json");
    assert!(dir_summary.cache_misses > 0);
    assert_eq!(
        vcorp_summary.cache_misses, 0,
        "the .vcorp run must be served entirely from the shared cache"
    );
    assert_eq!(vcorp_summary.disk_hits, dir_summary.cache_misses);
}

#[test]
fn ingest_rejects_bad_invocations_with_usage_errors() {
    let dir = temp_dir("ingest_usage");
    let missing_out = veritas(&["ingest", "sessions"], &dir);
    assert_eq!(missing_out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&missing_out.stderr);
    assert!(stderr.contains("--out"), "stderr: {stderr}");

    let missing_dir = veritas(&["ingest", "--out", "x.vcorp"], &dir);
    assert_eq!(missing_dir.status.code(), Some(2));

    // A directory with no session logs is a corpus-format error (exit 2),
    // and no output file is left behind.
    std::fs::create_dir_all(dir.join("empty")).unwrap();
    let empty = veritas(&["ingest", "empty", "--out", "empty.vcorp"], &dir);
    assert!(!empty.status.success());
    assert!(!dir.join("empty.vcorp").exists());
}

#[test]
fn cache_dir_warm_starts_a_second_run_without_inference() {
    let dir = temp_dir("cache_dir");
    let _ = std::fs::remove_dir_all(dir.join("store"));
    std::fs::write(
        dir.join("queries.json"),
        r#"{"queries": [
            {"id": "posterior", "kind": "abduction"},
            {"id": "what-if", "kind": "counterfactual", "scenario": {"abr": "bba"}}
        ]}"#,
    )
    .unwrap();
    let run = |out: &str, summary: &str| {
        veritas(
            &[
                "run",
                "queries.json",
                "--synthetic",
                "2",
                "--cache-dir",
                "store",
                "--out",
                out,
                "--summary",
                summary,
            ],
            &dir,
        )
    };
    let cold = run("cold.jsonl", "cold-summary.json");
    assert!(
        cold.status.success(),
        "cold run failed: {}",
        String::from_utf8_lossy(&cold.stderr)
    );
    let warm = run("warm.jsonl", "warm-summary.json");
    assert!(warm.status.success());

    let summary_of = |name: &str| -> veritas_engine::RunSummary {
        serde_json::from_str(&std::fs::read_to_string(dir.join(name)).unwrap()).unwrap()
    };
    let cold_summary = summary_of("cold-summary.json");
    let warm_summary = summary_of("warm-summary.json");
    assert_eq!(cold_summary.disk_hits, 0);
    assert!(cold_summary.cache_misses > 0);
    assert_eq!(
        warm_summary.cache_misses, 0,
        "the second --cache-dir run must perform zero inferences"
    );
    assert_eq!(warm_summary.disk_hits, cold_summary.cache_misses);

    // The record streams agree on everything but timing and cache tier.
    let normalize = |name: &str| -> Vec<String> {
        std::fs::read_to_string(dir.join(name))
            .unwrap()
            .lines()
            .map(|line| {
                let mut record: QueryRecord = serde_json::from_str(line).unwrap();
                record.elapsed_us = 0;
                record.cache = None;
                serde_json::to_string(&record).unwrap()
            })
            .collect()
    };
    assert_eq!(normalize("cold.jsonl"), normalize("warm.jsonl"));
}
