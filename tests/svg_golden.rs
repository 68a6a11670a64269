//! Golden bytes of the SVG renderer.
//!
//! `render::svg` is pinned by the CRC-32 and length of its output on
//! the benchmark-sized open input (a ~1 MiB gzip'd pprof, ~96k rects)
//! and on a small graph with hostile frame names and highlights. Any
//! change to the renderer that alters a single output byte fails here;
//! a rewrite for speed must keep these constants as they are.

use ev_core::{Frame, MetricDescriptor, MetricId, MetricKind, MetricUnit, Profile};
use ev_flame::render::{svg, SvgOptions};
use ev_flame::FlameGraph;

/// `(crc32, length)` of an SVG document.
fn digest(doc: &str) -> (u32, usize) {
    (ev_flate::crc32(doc.as_bytes()), doc.len())
}

fn open_input(seed: u64) -> FlameGraph {
    let gz = ev_gen::synthetic::pprof_with_size(1 << 20, seed);
    let body = ev_flate::gzip_decompress(&gz).expect("inflate");
    let profile = ev_formats::pprof::parse(&body).expect("decode");
    FlameGraph::top_down(&profile, MetricId::from_index(0))
}

#[test]
fn svg_of_the_open_input_is_pinned() {
    let graph = open_input(301);
    assert_eq!(graph.rects().len(), 96_729, "rect count");
    let plain = svg(&graph, &SvgOptions::default());
    assert_eq!(digest(&plain), (0xd0ea_0abd, 19_913_262), "default options");
    let highlighted = svg(
        &graph,
        &SvgOptions {
            width: 1600,
            row_height: 16,
            highlights: graph.search("function001"),
        },
    );
    assert_eq!(highlighted.matches("#c040e0").count(), 5_060);
    assert_eq!(
        digest(&highlighted),
        (0x6098_96b8, 19_920_680),
        "1600 px, highlights"
    );
}

/// The hostile-label graph of the renderer's unit tests, plus names
/// that exercise every escaped character and the label cut.
fn hostile_graph() -> FlameGraph {
    let mut p = Profile::new("t");
    let m = p.add_metric(MetricDescriptor::new(
        "cpu",
        MetricUnit::Count,
        MetricKind::Exclusive,
    ));
    let samples: [(&[&str], f64); 5] = [
        (&["main", "alpha"], 75.0),
        (&["main", "<b&d>"], 25.0),
        (&["main", "alpha", "say \"hi\" & <bye>"], 12.5),
        (
            &["main", "a_rather_long_function_name_that_needs_cutting"],
            3.3,
        ),
        (&["main", "tiny"], 0.125),
    ];
    for (stack, value) in samples {
        let frames: Vec<Frame> = stack.iter().map(|&name| Frame::function(name)).collect();
        p.add_sample(&frames, &[(m, value)]);
    }
    FlameGraph::top_down(&p, m)
}

#[test]
fn svg_of_hostile_labels_is_pinned() {
    let graph = hostile_graph();
    for (width, needle, expect) in [
        (1200, "alpha", (0x06d3_be69u32, 1_854usize)),
        (300, "b&d", (0x7d6b_7f5a, 1_773)),
        (97, "", (0x06ca_2327, 1_719)),
    ] {
        let options = SvgOptions {
            width,
            row_height: 18,
            highlights: graph.search(needle),
        };
        assert_eq!(digest(&svg(&graph, &options)), expect, "width {width}");
    }
}
