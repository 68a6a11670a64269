//! Renderers: SVG (documents) and ANSI (terminals) over a
//! [`FlameGraph`] layout.
//!
//! These replace the WebGL canvas of the VSCode extension; the geometry
//! they draw is identical ([`FlameRect`] carries normalized positions).

use crate::fixed;
use crate::layout::{FlameGraph, FlameRect};
use std::fmt::Write as _;

/// Options for [`svg`].
#[derive(Debug, Clone)]
pub struct SvgOptions {
    /// Canvas width in pixels.
    pub width: u32,
    /// Row height in pixels.
    pub row_height: u32,
    /// Rect indices (from [`FlameGraph::search`]) to highlight.
    pub highlights: Vec<usize>,
}

impl Default for SvgOptions {
    fn default() -> SvgOptions {
        SvgOptions {
            width: 1200,
            row_height: 18,
            highlights: Vec::new(),
        }
    }
}

/// Fill of highlighted (search-hit) rects.
const HIGHLIGHT: &str = "#c040e0";

/// Renders the flame graph as a standalone SVG document. Each frame is a
/// `<rect>` with a `<title>` tooltip carrying the label and metric
/// values (the hover of §VI-B).
///
/// The markup is written straight into one buffer, sized exactly up
/// front by a counting pass over the same code, and nothing is
/// allocated per rect. Numbers print as `format!("{:.2}")`/`{:.6}`
/// would.
pub fn svg(graph: &FlameGraph, options: &SvgOptions) -> String {
    let _span = ev_trace::span("flame.render");
    let rects = graph.rects();
    let row = f64::from(options.row_height);
    let height = (graph.max_depth() + 1) as f64 * row;
    let header = format!(
        concat!(
            r#"<svg xmlns="http://www.w3.org/2000/svg" width="{}" height="{}" font-family="monospace" font-size="11">"#,
            "\n",
            r##"<rect width="100%" height="100%" fill="#ffffff"/>"##,
            "\n"
        ),
        options.width, height as u32
    );
    const FOOTER: &str = "</svg>\n";

    let deepest = rects.iter().map(|r| r.depth).max().unwrap_or(0);
    let canvas = Canvas {
        width: f64::from(options.width),
        rect_height: fixed_string(row - 1.0),
        rows: (0..=deepest)
            .map(|depth| {
                let y = depth as f64 * row;
                (fixed_string(y), fixed_string(y + row - 5.0))
            })
            .collect(),
    };
    let mut highlighted = vec![false; rects.len()];
    for &i in &options.highlights {
        if let Some(slot) = highlighted.get_mut(i) {
            *slot = true;
        }
    }

    let mut len = ByteCount(header.len() + FOOTER.len());
    for (rect, &lit) in rects.iter().zip(&highlighted) {
        write_rect(&mut len, rect, lit, &canvas);
    }
    let mut out = String::with_capacity(len.0);
    out.push_str(&header);
    for (rect, &lit) in rects.iter().zip(&highlighted) {
        write_rect(&mut out, rect, lit, &canvas);
    }
    out.push_str(FOOTER);
    debug_assert_eq!(out.len(), len.0, "counting pass disagrees with the output");
    out
}

/// Per-document constants of the SVG markup.
struct Canvas {
    /// Canvas width in pixels.
    width: f64,
    /// The formatted rect height (row height minus the gap).
    rect_height: String,
    /// Per depth: the formatted rect top and label baseline.
    rows: Vec<(String, String)>,
}

/// Where [`write_rect`] puts its markup: the document itself, or a
/// byte count that sizes the document before it is written.
trait Sink {
    /// Appends `s` as is.
    fn text(&mut self, s: &str);
    /// Appends `s` with the XML special characters escaped.
    fn escaped(&mut self, s: &str);
    /// Appends `v` as `format!("{v:.2}")`/`{:.6}` would.
    fn fixed(&mut self, v: f64, decimals: usize);
}

impl Sink for String {
    fn text(&mut self, s: &str) {
        self.push_str(s);
    }

    fn escaped(&mut self, s: &str) {
        let mut start = 0;
        for (i, b) in s.bytes().enumerate() {
            if let Some(entity) = entity(b) {
                self.push_str(&s[start..i]);
                self.push_str(entity);
                start = i + 1;
            }
        }
        self.push_str(&s[start..]);
    }

    fn fixed(&mut self, v: f64, decimals: usize) {
        fixed::push_fixed(self, v, decimals);
    }
}

/// Counts the bytes a [`String`] sink would receive.
struct ByteCount(usize);

impl Sink for ByteCount {
    fn text(&mut self, s: &str) {
        self.0 += s.len();
    }

    fn escaped(&mut self, s: &str) {
        self.0 += s
            .bytes()
            .map(|b| entity(b).map_or(1, str::len))
            .sum::<usize>();
    }

    fn fixed(&mut self, v: f64, decimals: usize) {
        self.0 += fixed::fixed_len(v, decimals);
    }
}

/// The XML entity for a byte that must be escaped in text and
/// attribute values.
fn entity(b: u8) -> Option<&'static str> {
    match b {
        b'&' => Some("&amp;"),
        b'<' => Some("&lt;"),
        b'>' => Some("&gt;"),
        b'"' => Some("&quot;"),
        _ => None,
    }
}

/// `v` formatted with two decimals.
fn fixed_string(v: f64) -> String {
    let mut s = String::new();
    fixed::push_fixed(&mut s, v, 2);
    s
}

/// The label drawn inside a rect `w` pixels wide, and whether it was
/// cut short; `None` when no label plausibly fits (≈6.6 px/char).
/// `chars` budgets bytes, so the cut backs off to a char boundary.
fn visible_label(label: &str, w: f64) -> Option<(&str, bool)> {
    let chars = (w / 6.6) as usize;
    if chars < 3 {
        return None;
    }
    if label.len() <= chars {
        return Some((label, false));
    }
    let mut cut = chars - 1;
    while !label.is_char_boundary(cut) {
        cut -= 1;
    }
    Some((&label[..cut], true))
}

/// Writes one frame: a `<g>` with the tooltip title, the rect and, when
/// it fits, the label.
fn write_rect(out: &mut impl Sink, rect: &FlameRect, highlighted: bool, canvas: &Canvas) {
    let x = rect.x * canvas.width;
    let w = (rect.width * canvas.width).max(0.5);
    let (y, baseline) = &canvas.rows[rect.depth];
    let color = rect.color.hex_bytes();
    let fill = if highlighted {
        HIGHLIGHT
    } else {
        std::str::from_utf8(&color).expect("ASCII hex")
    };
    out.text("<g><title>");
    out.escaped(&rect.label);
    out.text(" — total ");
    out.fixed(rect.value, 6);
    out.text(", self ");
    out.fixed(rect.self_value, 6);
    out.text(", ");
    out.fixed(rect.width * 100.0, 2);
    out.text(r#"% of program</title><rect x=""#);
    out.fixed(x, 2);
    out.text(r#"" y=""#);
    out.text(y);
    out.text(r#"" width=""#);
    out.fixed(w, 2);
    out.text(r#"" height=""#);
    out.text(&canvas.rect_height);
    out.text(r#"" fill=""#);
    out.text(fill);
    out.text("\" stroke=\"#ffffff\" stroke-width=\"0.5\"/>\n");
    if let Some((label, cut)) = visible_label(&rect.label, w) {
        out.text(r#"<text x=""#);
        out.fixed(x + 2.0, 2);
        out.text(r#"" y=""#);
        out.text(baseline);
        out.text(r#"">"#);
        out.escaped(label);
        if cut {
            out.text("…");
        }
        out.text("</text>\n");
    }
    out.text("</g>\n");
}

/// Renders the flame graph for a terminal: one line per depth row,
/// frames drawn as colored segments with 24-bit ANSI backgrounds.
/// `columns` is the terminal width; pass `color: false` for plain text
/// (used in tests and logs).
pub fn ansi(graph: &FlameGraph, columns: usize, color: bool) -> String {
    let _span = ev_trace::span("flame.render");
    assert!(columns >= 8, "terminal too narrow");
    let mut out = String::new();
    for depth in 0..=graph.max_depth() {
        let mut line = vec![' '; columns];
        let mut spans: Vec<(usize, usize, &FlameRect)> = Vec::new();
        for rect in graph.rects().iter().filter(|r| r.depth == depth) {
            let start = (rect.x * columns as f64).round() as usize;
            let end = ((rect.x + rect.width) * columns as f64).round() as usize;
            let end = end.max(start + 1).min(columns);
            if start >= columns {
                continue;
            }
            // Fill with the label, padded/truncated to the span.
            let width = end - start;
            let mut label: Vec<char> = rect.label.chars().take(width).collect();
            while label.len() < width {
                label.push(' ');
            }
            line[start..end].copy_from_slice(&label);
            spans.push((start, end, rect));
        }
        if color {
            // Emit the row segment by segment with background colors.
            let mut cursor = 0usize;
            for (start, end, rect) in &spans {
                if *start > cursor {
                    out.extend(line[cursor..*start].iter());
                }
                let c = rect.color;
                let _ = write!(
                    out,
                    "\x1b[48;2;{};{};{}m\x1b[30m{}\x1b[0m",
                    c.r,
                    c.g,
                    c.b,
                    line[*start..*end].iter().collect::<String>()
                );
                cursor = *end;
            }
            if cursor < columns {
                out.extend(line[cursor..].iter());
            }
        } else {
            // Plain text: mark frame boundaries with pipes.
            for (start, end, _) in &spans {
                line[*start] = '|';
                if *end - 1 > *start {
                    line[*end - 1] = '|';
                }
            }
            out.extend(line.iter());
        }
        // Trim trailing whitespace per row.
        while out.ends_with(' ') {
            out.pop();
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev_core::{Frame, MetricDescriptor, MetricKind, MetricUnit, Profile};

    fn graph() -> FlameGraph {
        let mut p = Profile::new("t");
        let m = p.add_metric(MetricDescriptor::new(
            "cpu",
            MetricUnit::Count,
            MetricKind::Exclusive,
        ));
        p.add_sample(
            &[Frame::function("main"), Frame::function("alpha")],
            &[(m, 75.0)],
        );
        p.add_sample(
            &[Frame::function("main"), Frame::function("<b&d>")],
            &[(m, 25.0)],
        );
        FlameGraph::top_down(&p, m)
    }

    #[test]
    fn svg_structure() {
        let g = graph();
        let doc = svg(&g, &SvgOptions::default());
        assert!(doc.starts_with("<svg"));
        assert!(doc.trim_end().ends_with("</svg>"));
        assert_eq!(doc.matches("<rect").count(), 1 + g.rects().len());
        assert!(doc.contains("ROOT"));
        assert!(doc.contains("alpha"));
        // XML escaping of hostile frame names.
        assert!(doc.contains("&lt;b&amp;d&gt;"));
        assert!(!doc.contains("<b&d>"));
    }

    #[test]
    fn svg_highlights_search_results() {
        let g = graph();
        let hits = g.search("alpha");
        let doc = svg(
            &g,
            &SvgOptions {
                highlights: hits,
                ..SvgOptions::default()
            },
        );
        assert!(doc.contains("#c040e0"));
    }

    /// FNV-1a, to pin whole documents in a constant.
    fn fnv1a(doc: &str) -> u64 {
        doc.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// Values at the edges of fixed-point formatting: exact and
    /// inexact .5 ties, signed zero, negatives, subnormals, magnitudes
    /// past 2^52, and the non-finite values.
    const EDGES: [f64; 24] = [
        0.0,
        -0.0,
        0.125,
        2.675,
        0.005,
        1.005,
        0.5,
        1.0 / 3.0,
        -1.5,
        -0.001,
        1e-300,
        5e-324,
        f64::MIN_POSITIVE,
        123_456.789,
        1e15,
        1e16,
        1e17,
        4_503_599_627_370_496.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.999_999_999,
        0.999_999_5,
        1234.5678,
    ];

    /// A layout whose every numeric field cycles through [`EDGES`].
    fn edge_graph() -> FlameGraph {
        let labels = [
            "alpha",
            "<b&d>",
            "say \"hi\"",
            "a_rather_long_name_to_cut",
            "é",
        ];
        let n = EDGES.len();
        let rects = (0..3 * n)
            .map(|i| FlameRect {
                node: ev_core::NodeId::ROOT,
                depth: i % 4,
                x: EDGES[i % n],
                width: if i % 2 == 0 {
                    EDGES[(i + 3) % n]
                } else {
                    (i % 13) as f64 / 13.0
                },
                label: labels[i % labels.len()].to_owned(),
                value: EDGES[(i + 7) % n],
                self_value: EDGES[(i + 11) % n],
                color: crate::Color::new(i as u8, (i * 7) as u8, (i * 31) as u8),
                mapped: false,
            })
            .collect();
        graph().with_rects(rects)
    }

    #[test]
    fn svg_of_edge_values_is_pinned() {
        let g = edge_graph();
        for (width, row_height, expect) in [
            (1200, 18, 0x096e_b29b_2b21_cb9fu64),
            (1, 1, 0xd1ed_194b_ebf7_9e3a),
            (7, 3, 0x75be_2ef8_3488_68ec),
        ] {
            let options = SvgOptions {
                width,
                row_height,
                highlights: vec![1, 5, 40, 1000],
            };
            assert_eq!(fnv1a(&svg(&g, &options)), expect, "{width}x{row_height}");
        }
    }

    #[test]
    fn svg_is_sized_exactly_up_front() {
        let g = edge_graph();
        for width in [1, 7, 1200] {
            let doc = svg(
                &g,
                &SvgOptions {
                    width,
                    ..SvgOptions::default()
                },
            );
            assert_eq!(doc.capacity(), doc.len(), "width {width}");
        }
    }

    #[test]
    fn multibyte_labels_are_cut_at_char_boundaries() {
        let labels = [
            format!("a{}", "é".repeat(100)),
            "日本語".repeat(30),
            "🔥".repeat(40),
            "aé日🔥".repeat(20),
            format!("ascii_prefix_{}", "ß".repeat(50)),
        ];
        let mut p = Profile::new("utf8");
        let m = p.add_metric(MetricDescriptor::new(
            "cpu",
            MetricUnit::Count,
            MetricKind::Exclusive,
        ));
        for (i, label) in labels.iter().enumerate() {
            let frames = [Frame::function("main"), Frame::function(label.as_str())];
            p.add_sample(&frames, &[(m, 1.0 + i as f64)]);
        }
        let g = FlameGraph::top_down(&p, m);
        for width in (20..=2400).step_by(37) {
            let doc = svg(
                &g,
                &SvgOptions {
                    width,
                    ..SvgOptions::default()
                },
            );
            assert_eq!(doc.matches("<rect").count(), 1 + g.rects().len());
        }
        for label in &labels {
            for tenth_px in 0..4000 {
                let w = f64::from(tenth_px) / 10.0;
                let chars = (w / 6.6) as usize;
                match visible_label(label, w) {
                    None => assert!(chars < 3),
                    Some((shown, false)) => assert_eq!(shown, label.as_str()),
                    Some((shown, true)) => {
                        // The longest whole-char prefix within chars - 1 bytes.
                        assert!(label.starts_with(shown));
                        assert!(shown.len() < chars);
                        let next = label[shown.len()..].chars().next().unwrap();
                        assert!(shown.len() + next.len_utf8() >= chars, "{w}: {shown}");
                    }
                }
            }
        }
    }

    #[test]
    fn ascii_labels_cut_where_they_always_did() {
        let label = "abcdefghijklmnopqrstuvwxyz";
        // 66 px fit 10 chars: 9 of the label and an ellipsis.
        assert_eq!(visible_label(label, 66.0), Some(("abcdefghi", true)));
        assert_eq!(visible_label(label, 6.6 * 26.0), Some((label, false)));
        assert_eq!(visible_label(label, 19.0), None);
    }

    #[test]
    fn ansi_plain_geometry() {
        let g = graph();
        let text = ansi(&g, 80, false);
        let rows: Vec<&str> = text.lines().collect();
        // ROOT, main, {alpha, <b&d>} = 3 depth rows.
        assert_eq!(rows.len(), 3);
        assert!(rows[0].starts_with('|'), "{}", rows[0]);
        // The boundary pipe overwrites the first label character.
        assert!(rows[1].contains("ain"), "{}", rows[1]);
        // alpha's span is ~75% of the row; its label interior survives
        // the boundary markers.
        assert!(rows[2].contains("lpha"), "{}", rows[2]);
        for row in &rows {
            assert!(row.len() <= 80);
        }
    }

    #[test]
    fn ansi_color_contains_escapes() {
        let g = graph();
        let text = ansi(&g, 60, true);
        assert!(text.contains("\x1b[48;2;"));
        assert!(text.contains("\x1b[0m"));
    }

    #[test]
    #[should_panic(expected = "narrow")]
    fn ansi_rejects_tiny_terminal() {
        ansi(&graph(), 4, false);
    }
}
