//! The experiment harness must be reproducible: same seed, same tables.
//! (Experiments with wall-clock columns — E4, E5, E9, E11 — are exempt from
//! cell-level equality but still checked for shape.)

use vc_bench::experiments::registry;

/// Experiments whose every cell is a pure function of the seed.
const DETERMINISTIC: &[&str] = &["e2", "e3", "e7", "e13", "e15"];

#[test]
fn deterministic_experiments_reproduce_exactly() {
    for exp in registry() {
        if !DETERMINISTIC.contains(&exp.id) {
            continue;
        }
        let a = (exp.run)(true, 7, None);
        let b = (exp.run)(true, 7, None);
        assert_eq!(a.rows, b.rows, "{} rows differ across identical runs", exp.id);
    }
}

#[test]
fn different_seeds_change_something() {
    // E7 (replication churn) is seed-sensitive in its measured column.
    let e7 = registry().into_iter().find(|e| e.id == "e7").expect("e7 exists");
    let a = (e7.run)(true, 1, None);
    let b = (e7.run)(true, 2, None);
    assert_ne!(a.rows, b.rows, "seed must matter");
}

#[test]
fn tracing_does_not_perturb_results() {
    // Attaching a recorder must leave every table cell untouched: the
    // instrumentation hooks do the same work with or without a recorder.
    for id in ["e2", "e3"] {
        let exp = registry().into_iter().find(|e| e.id == id).expect("known id");
        let silent = (exp.run)(true, 7, None);
        let mut rec = vc_obs::Recorder::new();
        let traced = (exp.run)(true, 7, Some(&mut rec));
        assert_eq!(silent.rows, traced.rows, "{id} rows changed under tracing");
        assert!(!rec.is_empty(), "{id} emitted no events");
        assert_eq!(rec.open_spans(), 0, "{id} leaked open spans");
    }
}

#[test]
fn e3_trace_covers_four_components() {
    let exp = registry().into_iter().find(|e| e.id == "e3").expect("e3 exists");
    let mut rec = vc_obs::Recorder::new();
    let _ = (exp.run)(true, 7, Some(&mut rec));
    let mut components: Vec<&str> = rec.events().map(|e| e.component).collect();
    components.sort_unstable();
    components.dedup();
    for required in ["sim", "net", "auth", "cloud"] {
        assert!(components.contains(&required), "missing {required} events: {components:?}");
    }
    // Spans closed and measured: the handshake latency histogram exists.
    assert!(rec.hub().histogram("auth.handshake.us").is_some());
}

#[test]
fn every_experiment_produces_well_formed_tables() {
    for exp in registry() {
        let table = (exp.run)(true, 3, None);
        assert!(!table.columns.is_empty(), "{} has no columns", exp.id);
        assert!(!table.rows.is_empty(), "{} has no rows", exp.id);
        for (i, row) in table.rows.iter().enumerate() {
            assert_eq!(row.len(), table.columns.len(), "{} row {i} width mismatch", exp.id);
        }
        assert!(!table.paper_anchor.is_empty(), "{} lacks a paper anchor", exp.id);
        assert!(table.id.eq_ignore_ascii_case(exp.id));
        // JSON artifact serializes.
        let json = table.to_json();
        assert_eq!(json["id"], table.id);
    }
}
