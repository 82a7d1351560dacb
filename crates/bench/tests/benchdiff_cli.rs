//! End-to-end checks for `benchdiff`: suite alignment, the regression
//! gate's measured-on-both-sides rule, merge mode, and the committed
//! baseline pair the CI perf-gate job runs against.

use std::process::Command;

fn write(dir: &std::path::Path, name: &str, body: &str) -> std::path::PathBuf {
    let path = dir.join(name);
    std::fs::write(&path, body).expect("write fixture");
    path
}

fn suite_json(suite: &str, results: &[(&str, f64, u64)]) -> String {
    let rows: Vec<String> = results
        .iter()
        .map(|(name, median, batches)| {
            format!(
                r#"{{"name":"{name}","median_ns":{median},"p95_ns":{median},"min_ns":{median},"mean_ns":{median},"iters_per_batch":1,"batches":{batches}}}"#
            )
        })
        .collect();
    format!(r#"{{"suite":"{suite}","mode":"full","results":[{}]}}"#, rows.join(","))
}

fn benchdiff(args: &[&std::ffi::OsStr]) -> (bool, String) {
    let out =
        Command::new(env!("CARGO_BIN_EXE_benchdiff")).args(args).output().expect("benchdiff runs");
    let text =
        format!("{}{}", String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
    (out.status.success(), text)
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("vc_benchdiff_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn gate_fails_on_measured_regression_but_ignores_smoke_entries() {
    let dir = temp_dir("gate");
    let base = write(
        &dir,
        "base.json",
        &suite_json("crypto", &[("sign", 1000.0, 30), ("verify", 2000.0, 30), ("hash", 10.0, 1)]),
    );
    // verify regressed 50%, hash "regressed" 10x but is a 1-batch smoke entry.
    let cur = write(
        &dir,
        "cur.json",
        &suite_json("crypto", &[("sign", 1000.0, 30), ("verify", 3000.0, 30), ("hash", 100.0, 1)]),
    );

    let (ok, text) =
        benchdiff(&[base.as_os_str(), cur.as_os_str(), "--gate".as_ref(), "20".as_ref()]);
    assert!(!ok, "50% measured regression must fail a 20% gate:\n{text}");
    assert!(text.contains("crypto/verify"), "{text}");
    assert!(!text.contains("crypto/hash  "), "smoke entry must not be gated:\n{text}");
    assert!(text.contains("smoke — not gated"), "{text}");

    // A generous gate passes, and so does no gate at all.
    let (ok, _) = benchdiff(&[base.as_os_str(), cur.as_os_str(), "--gate".as_ref(), "60".as_ref()]);
    assert!(ok);
    let (ok, text) = benchdiff(&[base.as_os_str(), cur.as_os_str()]);
    assert!(ok);
    assert!(text.contains("+50.0%"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn aligns_suites_and_reports_missing_and_new_benchmarks() {
    let dir = temp_dir("align");
    let base =
        write(&dir, "base.json", &suite_json("auth", &[("sign", 100.0, 30), ("old", 5.0, 30)]));
    let cur =
        write(&dir, "cur.json", &suite_json("auth", &[("sign", 110.0, 30), ("fresh", 7.0, 30)]));
    let (ok, text) = benchdiff(&[base.as_os_str(), cur.as_os_str()]);
    assert!(ok);
    assert!(text.contains("[auth]"), "{text}");
    assert!(text.contains("missing from current"), "{text}");
    assert!(text.contains("new"), "{text}");
    assert!(text.contains("+10.0%"), "{text}");
    assert!(text.contains("1 benchmarks compared"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn merge_combines_per_suite_files_into_one_gateable_baseline() {
    let dir = temp_dir("merge");
    let a = write(&dir, "BENCH_crypto.json", &suite_json("crypto", &[("sign", 1000.0, 30)]));
    let b = write(&dir, "BENCH_auth.json", &suite_json("auth", &[("token", 500.0, 30)]));
    let merged = dir.join("BENCH_all.json");
    let (ok, _) = benchdiff(&[
        "--merge".as_ref(),
        "BENCH_all".as_ref(),
        "--out".as_ref(),
        merged.as_os_str(),
        b.as_os_str(),
        a.as_os_str(),
    ]);
    assert!(ok);

    let text = std::fs::read_to_string(&merged).expect("merged file written");
    let doc = vc_obs::json::Json::parse(&text).expect("merged file parses");
    assert_eq!(doc["id"].as_str(), Some("BENCH_all"));
    assert_eq!(doc["mode"].as_str(), Some("full"));
    let suites = match doc.get("suites") {
        Some(vc_obs::json::Json::Arr(items)) => items,
        other => panic!("suites must be an array, got {other:?}"),
    };
    let names: Vec<&str> = suites.iter().filter_map(|s| s["suite"].as_str()).collect();
    assert_eq!(names, ["auth", "crypto"], "suites sort by name regardless of input order");

    // The merged file diffs cleanly against itself and gates at 0%.
    let (ok, text) =
        benchdiff(&[merged.as_os_str(), merged.as_os_str(), "--gate".as_ref(), "0".as_ref()]);
    assert!(ok, "self-diff must pass a 0% gate:\n{text}");
    assert!(text.contains("2 benchmarks compared, 2 measured on both sides"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn committed_baseline_pair_passes_the_ci_gate() {
    let repo = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let pr1 = repo.join("results/BENCH_pr1.json");
    let pr3 = repo.join("results/BENCH_pr3.json");
    let (ok, text) =
        benchdiff(&[pr1.as_os_str(), pr3.as_os_str(), "--gate".as_ref(), "20".as_ref()]);
    assert!(ok, "the committed pr1/pr3 pair must pass the 20% gate:\n{text}");
    assert!(text.contains("[crypto]"), "{text}");
    assert!(text.contains("gate: no median regressed"), "{text}");
}

#[test]
fn malformed_input_fails_with_a_clear_message() {
    let dir = temp_dir("bad");
    let good = write(&dir, "good.json", &suite_json("crypto", &[("sign", 1.0, 30)]));
    let bad = write(&dir, "bad.json", "{\"suite\":\"x\",");
    let (ok, text) = benchdiff(&[good.as_os_str(), bad.as_os_str()]);
    assert!(!ok);
    assert!(text.contains("bad JSON"), "{text}");

    let shapeless = write(&dir, "shapeless.json", "{\"results\":[]}");
    let (ok, text) = benchdiff(&[good.as_os_str(), shapeless.as_os_str()]);
    assert!(!ok);
    assert!(text.contains("expected a \"suite\" name"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}
