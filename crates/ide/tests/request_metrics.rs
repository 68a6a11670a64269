//! Exact deltas of the server's process-wide request metrics.
//!
//! The counters and histograms live in one process-global registry, so
//! this test has a binary of its own: beside the crate's unit tests,
//! which handle requests on parallel threads, the deltas it reads would
//! include their requests too.

use ev_ide::rpc::Request;
use ev_ide::EvpServer;
use ev_json::Value;

fn histogram_count(name: &'static str) -> u64 {
    ev_trace::histogram(name).count()
}

#[test]
fn requests_bump_counters_and_per_method_histograms() {
    let server = EvpServer::new();
    let requests_before = ev_trace::counter_value("ide.requests");
    let errors_before = ev_trace::counter_value("ide.errors");
    let init_before = histogram_count("ide.latency.initialize");
    let unknown_before = histogram_count("ide.latency.unknown");
    server
        .handle(&Request::new(1, "initialize", Value::Null))
        .unwrap();
    let bad = server
        .handle(&Request::new(2, "bogus/method", Value::Null))
        .unwrap();
    assert!(bad.outcome.is_err());
    assert_eq!(ev_trace::counter_value("ide.requests") - requests_before, 2);
    assert_eq!(ev_trace::counter_value("ide.errors") - errors_before, 1);
    assert_eq!(histogram_count("ide.latency.initialize") - init_before, 1);
    // Unknown methods pool into one histogram instead of growing the
    // registry per arbitrary method string.
    assert_eq!(histogram_count("ide.latency.unknown") - unknown_before, 1);
    let metrics = ev_trace::snapshot_metrics();
    assert!(metrics.histogram("ide.latency.bogus/method").is_none());
}
