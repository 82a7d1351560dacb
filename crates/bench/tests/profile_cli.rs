//! End-to-end checks for `experiments --profile`: profiling is strictly
//! additive (tables and traces are byte-identical with or without it,
//! mirroring the untraced-vs-traced invariant for the recorder) and the
//! exported call tree is internally consistent.

use std::process::Command;
use vc_obs::json::Json;

struct ProfiledRun {
    stdout: Vec<u8>,
    trace: Vec<u8>,
    profile: Option<Json>,
    folded: Option<String>,
}

fn run_e3(dir: &std::path::Path, tag: &str, profiled: bool) -> ProfiledRun {
    let trace = dir.join(format!("{tag}.jsonl"));
    let profile = dir.join(format!("{tag}.json"));
    let folded = dir.join(format!("{tag}.folded"));
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_experiments"));
    cmd.args(["--quick", "--seed", "7", "--trace"]).arg(&trace);
    if profiled {
        cmd.arg("--profile").arg(&profile).arg("--folded").arg(&folded);
    }
    let out = cmd.arg("e3").output().expect("experiments runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    ProfiledRun {
        stdout: out.stdout,
        trace: std::fs::read(&trace).expect("trace written"),
        profile: profiled.then(|| {
            let text = std::fs::read_to_string(&profile).expect("profile written");
            Json::parse(&text).expect("profile.json parses")
        }),
        folded: profiled.then(|| std::fs::read_to_string(&folded).expect("folded stacks written")),
    }
}

/// Sums every frame's children totals, asserting the tree invariants:
/// `self_ns + Σ children.total_ns == total_ns` and children sorted by label.
fn check_frames(frames: &[Json]) -> u64 {
    let mut sum = 0u64;
    for frame in frames {
        let total = frame["total_ns"].as_f64().expect("total_ns") as u64;
        let self_ns = frame["self_ns"].as_f64().expect("self_ns") as u64;
        let calls = frame["calls"].as_f64().expect("calls") as u64;
        assert!(calls >= 1);
        assert!(self_ns <= total, "self {self_ns} must be <= total {total}");
        let child_sum = match frame.get("children") {
            Some(Json::Arr(children)) => {
                let labels: Vec<&str> =
                    children.iter().map(|c| c["label"].as_str().expect("label")).collect();
                let mut sorted = labels.clone();
                sorted.sort_unstable();
                assert_eq!(labels, sorted, "children must sort by label");
                check_frames(children)
            }
            None => 0,
            Some(other) => panic!("children must be an array, got {other:?}"),
        };
        assert!(child_sum <= total, "children sum {child_sum} exceeds parent total {total}");
        assert_eq!(self_ns, total - child_sum, "self must be total minus children");
        sum += total;
    }
    sum
}

#[test]
fn profiling_is_additive_and_tree_is_consistent() {
    let dir = std::env::temp_dir().join(format!("vc_profile_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let plain = run_e3(&dir, "plain", false);
    let profiled = run_e3(&dir, "profiled", true);

    // Additive: same tables on stdout, byte-identical trace.
    assert_eq!(plain.stdout, profiled.stdout, "profiling must not change the tables");
    assert_eq!(plain.trace, profiled.trace, "profiling must not perturb the trace");

    // Consistent: the exported call tree obeys its own arithmetic.
    let doc = profiled.profile.expect("profiled run wrote profile.json");
    assert_eq!(doc["version"].as_f64(), Some(1.0));
    let Some(Json::Arr(frames)) = doc.get("frames") else { panic!("frames must be an array") };
    let root_sum = check_frames(frames);
    assert_eq!(doc["total_ns"].as_f64().expect("total_ns") as u64, root_sum);

    // The tree reaches through the stack: the experiment root wraps the
    // run phase, which reaches the auth handshake (8 re-join handshakes).
    let e3 = frames.iter().find(|f| f["label"].as_str() == Some("e3")).expect("e3 root frame");
    let Some(Json::Arr(phases)) = e3.get("children") else { panic!("e3 has phases") };
    let run =
        phases.iter().find(|f| f["label"].as_str() == Some("run")).expect("run phase under e3");
    let Some(Json::Arr(surfaces)) = run.get("children") else { panic!("run has children") };
    let handshake = surfaces
        .iter()
        .find(|f| f["label"].as_str() == Some("auth.handshake"))
        .expect("auth.handshake under run");
    assert_eq!(handshake["calls"].as_f64(), Some(8.0), "E3 re-joins 8 vehicles");

    // Collapsed stacks: `a;b;c <self_ns>` lines, flamegraph-compatible.
    let folded = profiled.folded.expect("profiled run wrote folded stacks");
    assert!(!folded.is_empty());
    for line in folded.lines() {
        let (stack, self_ns) = line.rsplit_once(' ').expect("stack <self_ns>");
        assert!(!stack.is_empty());
        self_ns.parse::<u64>().expect("self_ns is an integer");
    }
    assert!(folded.lines().any(|l| l.starts_with("e3;run;auth.handshake ")), "folded: {folded}");
    std::fs::remove_dir_all(&dir).ok();
}
