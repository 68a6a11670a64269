//! The benchmark's own tests: every workload at a quick size.

use ev_ide::{EditorClient, SharedEvpServer};
use ev_json::Value;
use ev_perfbench::alloc::CountingAlloc;
use ev_perfbench::{edit_keeps_view, run, Config, Report, Workload};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn quick(workload: Workload, seed: u64, trace: bool) -> Report {
    let config = Config {
        workload,
        seed,
        seconds: 1,
        trace,
        quick: true,
    };
    let report = run(&config).expect("run");
    assert!(report.attempted > 0, "{workload:?}: nothing attempted");
    assert_eq!(
        report.failed, 0,
        "{workload:?} trace={trace}: failed operations"
    );
    report
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
fn declared(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let json = ev_json::parse(&text).expect("valid JSON");
    json.get(key)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Value::as_str).expect(f).to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

fn reported(report: &Report) -> Vec<(String, String)> {
    report
        .metrics
        .iter()
        .map(|m| (m.name.to_owned(), m.unit.to_owned()))
        .collect()
}

#[test]
fn untraced_runs_report_every_end_to_end_metric() {
    let expected = declared("end_to_end");
    assert_eq!(expected.len(), 11);
    for workload in Workload::ALL {
        let report = quick(workload, 7, false);
        assert_eq!(reported(&report), expected, "{workload:?}");
        for m in &report.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{workload:?} {}: {}",
                m.name,
                m.value
            );
        }
        let line = ev_json::parse(&report.result_line()).expect("result line is JSON");
        assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
    }
}

#[test]
fn traced_runs_report_every_per_layer_metric_with_the_same_digest() {
    let expected = declared("per_layer");
    for workload in Workload::ALL {
        let untraced = quick(workload, 11, false);
        let traced = quick(workload, 11, true);
        assert_eq!(reported(&traced), expected, "{workload:?}");
        assert_eq!(
            untraced.digest, traced.digest,
            "{workload:?}: tracing changed outputs"
        );
        let metric = |name: &str| traced.metric(name).expect(name).value;
        assert_eq!(metric("cache.misses_per_edit"), 1.0);
        assert_eq!(metric("cache.hit_ratio"), 1.0);
        assert!(metric("core.nodes") > 100.0);
        let spans = traced.spans.as_ref().expect("span records");
        assert!(spans.spans().iter().any(|s| s.name == "flame.render"));
    }
}

#[test]
fn digests_are_deterministic_per_seed() {
    for workload in Workload::ALL {
        let a = quick(workload, 3, false);
        let b = quick(workload, 3, false);
        let c = quick(workload, 4, false);
        assert_eq!(
            a.digest, b.digest,
            "{workload:?}: same seed, different outputs"
        );
        assert_ne!(
            a.digest, c.digest,
            "{workload:?}: seed does not reach the inputs"
        );
    }
}

#[test]
fn the_edit_guard_rejects_an_edit_that_empties_the_view() {
    let profile = ev_gen::synthetic::SyntheticSpec {
        functions: 60,
        samples: 300,
        max_depth: 12,
        ..Default::default()
    }
    .build();
    let mut client = EditorClient::connect_shared(SharedEvpServer::new()).unwrap();
    let id = client.open_profile(&profile).unwrap();
    let rects = |client: &mut EditorClient, metric: &str| {
        client.flame_graph(id, "topDown", metric).unwrap().len()
    };
    let cpu = rects(&mut client, "cpu");
    // A rewrite of an existing exclusive metric keeps the view's shape ...
    client
        .run_script(
            id,
            "visit(fn(n) { set_value(n, \"alloc_space\", value(n, \"cpu\") * 2); });",
        )
        .unwrap();
    assert!(edit_keeps_view(rects(&mut client, "alloc_space"), cpu));
    // ... while a derived metric lays out a single elided rect.
    client
        .run_script(
            id,
            "derive(\"twice\", fn(n) { return value(n, \"cpu\") * 2; });",
        )
        .unwrap();
    assert!(!edit_keeps_view(rects(&mut client, "twice"), cpu));
}
