//! End-to-end and per-layer benchmark of EasyView's three user paths.
//!
//! One run issues a fixed, seed-determined sequence of operations from
//! one client thread in a closed loop, of three operation classes
//! interleaved evenly over the run:
//!
//! 1. **open** — pprof bytes → `Profile` → metric view → top-down
//!    layout → SVG, through the library's public functions (no
//!    `ev-ide`, no view cache);
//! 2. **session** — EVP round-trips of an editor session
//!    (`ev_gen::ide_session::session_trace`) against an in-process
//!    shared server whose view cache is warm: *nav* requests
//!    (`codeLink`, `hover`, `codeLens`, `search`, `summary`) and *view*
//!    requests (`flameGraph` at default client parameters);
//! 3. **edit** — `profile/script` rewrites an exclusive metric with a
//!    step-specific coefficient, then the flame graph of that metric is
//!    refreshed, which always misses the view cache.
//!
//! Every run measures every operation class, so every run reports
//! every metric; the [`Workload`] decides how much of the run each
//! class gets and which input the open class reads. The
//! program keeps its shipped defaults: `ExecPolicy::auto()` and
//! `ServerOptions::default()`.
//!
//! With `trace` set, every other operation of each class is timed
//! stage by stage from this crate (spans around the calls into each
//! crate, see [`spans`]), and the run reports per-layer metrics instead
//! of end-to-end ones. The operations in between run untraced, which
//! gives the tracing overhead from the same run.

pub mod alloc;
pub mod spans;
mod stats;

use ev_analysis::{view_key, MetricView};
use ev_core::{MetricId, Profile};
use ev_flame::render::{self, SvgOptions};
use ev_flame::FlameGraph;
use ev_gen::ide_session::{session_trace, SessionOp};
use ev_gen::synthetic::{pprof_with_size, SyntheticSpec};
use ev_ide::rpc::{codes, decode_frame, encode_frame, Request, Response};
use ev_ide::{EditorClient, IdeError, ServerOptions, SharedEvpServer};
use ev_json::Value;
use ev_par::ExecPolicy;
use spans::Recorder;

/// Size of the `open` workload's gzip'd pprof input, in bytes.
const OPEN_INPUT_BYTES: usize = 1 << 20;

/// Nominal operation rates (operations per second of busy time) on a
/// 2-vCPU x86-64 host, used only to size a run: the same `--seconds`
/// always gives the same operation counts, so the sample count (and
/// the percentile the tail is read at) is the same in every run of a
/// workload.
const OPEN_LARGE_PER_S: f64 = 1.4;
const OPEN_SMALL_PER_S: f64 = 13.0;
const SESSION_PER_S: f64 = 32.0;
const EDIT_PER_S: f64 = 5.5;

/// The timed phase stops issuing operations once it has run this many
/// times `--seconds`, so a run on a host much slower than the nominal
/// rates still ends in bounded time (with fewer samples, reported).
const DEADLINE_FACTOR: f64 = 1.3;

/// The pool warm-up (see [`warm_pool`]) gives up after this long.
const POOL_WARMUP_CAP_NS: u64 = 3_000_000_000;

/// Set-up is repeated this many times; `setup_s` is the median.
const SETUP_ROUNDS: usize = 5;

/// The edited view must lay out at least this share of the `cpu`
/// view's rectangles (an edit that empties the view times nothing).
const EDIT_RECT_SHARE: f64 = 0.9;

/// One user path of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Repeated opens of a ~1 MiB gzip'd pprof.
    Open,
    /// Script edits, each followed by the flame-graph refresh it forces,
    /// beside an editor session against a warm view cache.
    Edit,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 2] = [Workload::Open, Workload::Edit];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Open => "open",
            Workload::Edit => "edit",
        }
    }

    /// Index of the workload's own operation class (open, session,
    /// edit): the class `requests_per_s` counts.
    fn class(self) -> usize {
        match self {
            Workload::Open => 0,
            Workload::Edit => 2,
        }
    }

    /// Share of a run's time per class (open, session, edit). The
    /// shares only size each class's sample; no metric pools classes.
    /// `open` gives most of the run to its own class; `edit` gives each
    /// class about 100 operations (at `--seconds 42`), so every tail it
    /// reports is read at or above the 90th percentile.
    fn shares(self) -> [f64; 3] {
        match self {
            Workload::Open => [0.55, 0.25, 0.2],
            Workload::Edit => [0.185, 0.38, 0.435],
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What to run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Seed of the generated inputs and operation sequence.
    pub seed: u64,
    /// Sizes the run (see the nominal rates above).
    pub seconds: u32,
    /// Per-layer run instead of end-to-end run.
    pub trace: bool,
    /// Small inputs and few operations, for the benchmark's own tests.
    pub quick: bool,
}

/// Operation counts of one run.
#[derive(Debug, Clone, Copy)]
struct Plan {
    opens: usize,
    session: usize,
    edits: usize,
}

impl Plan {
    fn new(config: &Config) -> Plan {
        if config.quick {
            return Plan {
                opens: 12,
                session: 75,
                edits: 12,
            };
        }
        let seconds = f64::from(config.seconds);
        let shares = config.workload.shares();
        let count = |rate: f64, share: f64| ((rate * seconds * share).round() as usize).max(1);
        let open_rate = match config.workload {
            Workload::Open => OPEN_LARGE_PER_S,
            Workload::Edit => OPEN_SMALL_PER_S,
        };
        Plan {
            opens: count(open_rate, shares[0]),
            session: count(SESSION_PER_S, shares[1]),
            edits: count(EDIT_PER_S, shares[2]),
        }
    }
}

/// A profile's source-mapped nodes in node-id order; session ops pick
/// from this table modulo its size.
struct PickTables {
    mapped: Vec<(i64, String, u32)>,
    node_count: usize,
}

impl PickTables {
    fn derive(profile: &Profile) -> PickTables {
        let mapped = profile
            .node_ids()
            .filter_map(|id| {
                let frame = profile.resolve_frame(id);
                frame
                    .has_source_mapping()
                    .then(|| (id.index() as i64, frame.file, frame.line))
            })
            .collect();
        PickTables {
            mapped,
            node_count: profile.node_count(),
        }
    }

    fn pick(&self, i: usize) -> &(i64, String, u32) {
        &self.mapped[i % self.mapped.len()]
    }
}

/// Inputs of one run, built before anything is timed.
struct Inputs {
    open_bytes: Vec<u8>,
    editor: Profile,
    tables: PickTables,
    session: Vec<SessionOp>,
    edits: usize,
    opens: usize,
}

impl Inputs {
    fn build(config: &Config) -> Result<Inputs, String> {
        let plan = Plan::new(config);
        let editor_spec = if config.quick {
            SyntheticSpec {
                functions: 60,
                samples: 300,
                max_depth: 12,
                ..SyntheticSpec::default()
            }
        } else {
            SyntheticSpec::default()
        };
        let open_bytes = match (config.workload, config.quick) {
            (Workload::Open, false) => pprof_with_size(OPEN_INPUT_BYTES, config.seed),
            (Workload::Open, true) => SyntheticSpec {
                seed: config.seed,
                samples: 2_000,
                ..SyntheticSpec::default()
            }
            .build_pprof(),
            _ => editor_spec.build_pprof(),
        };
        let editor = editor_spec.build();
        let tables = PickTables::derive(&editor);
        if tables.mapped.is_empty() {
            return Err("editor profile has no source-mapped nodes".to_owned());
        }
        Ok(Inputs {
            open_bytes,
            editor,
            tables,
            session: session_ops(config.seed, plan.session),
            edits: plan.edits,
            opens: plan.opens,
        })
    }
}

/// Share of each session-op kind, in [`op_kind`] order: the expected
/// mix of [`session_trace`].
const SESSION_MIX: [f64; 9] = [
    0.02,       // BadLink
    0.25,       // CodeLink
    0.25,       // Hover
    0.15,       // CodeLens
    0.20 / 3.0, // FlameGraph topDown
    0.20 / 3.0, // FlameGraph bottomUp
    0.20 / 3.0, // FlameGraph flat
    0.08,       // Search
    0.05,       // Summary
];

fn op_kind(op: &SessionOp) -> usize {
    match op {
        SessionOp::BadLink { .. } => 0,
        SessionOp::CodeLink { .. } => 1,
        SessionOp::Hover { .. } => 2,
        SessionOp::CodeLens { .. } => 3,
        SessionOp::FlameGraph { view: "topDown" } => 4,
        SessionOp::FlameGraph { view: "bottomUp" } => 5,
        SessionOp::FlameGraph { .. } => 6,
        SessionOp::Search { .. } => 7,
        SessionOp::Summary => 8,
    }
}

/// About `n` ops of `session_trace(seed, ..)`: the first
/// `round(n * share)` ops of each kind, with the kinds interleaved in
/// an order that is the same for every seed. The seed picks each op's
/// target; the count and the position of each kind are fixed, so every
/// run has the same sample mix in the same order.
fn session_ops(seed: u64, n: usize) -> Vec<SessionOp> {
    let quota: Vec<usize> = SESSION_MIX
        .iter()
        .map(|share| ((n as f64 * share).round() as usize).max(1))
        .collect();
    let mut len = 4 * n + 64;
    let picked = loop {
        let mut picked: Vec<Vec<SessionOp>> = quota.iter().map(|_| Vec::new()).collect();
        for op in session_trace(seed, len) {
            let kind = op_kind(&op);
            if picked[kind].len() < quota[kind] {
                picked[kind].push(op);
            }
        }
        if picked.iter().zip(&quota).all(|(ops, &q)| ops.len() == q) {
            break picked;
        }
        len *= 2;
    };
    let mut queues: Vec<_> = picked.into_iter().map(Vec::into_iter).collect();
    interleave(&quota)
        .into_iter()
        .map(|kind| queues[kind].next().expect("one op per slot"))
        .collect()
}

/// Spreads `counts[c]` items of each class `c` evenly over one
/// sequence, whatever the counts: item `k` of a class of `n` sits at
/// `(k + 1/2) / n`, ties in class order. Returns each position's class.
fn interleave(counts: &[usize]) -> Vec<usize> {
    let mut keyed: Vec<(f64, usize)> = counts
        .iter()
        .enumerate()
        .flat_map(|(class, &n)| (0..n).map(move |k| ((k as f64 + 0.5) / n as f64, class)))
        .collect();
    keyed.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    keyed.into_iter().map(|(_, class)| class).collect()
}

/// Whether a session op is a flame-graph view (vs. navigation).
fn is_view(op: &SessionOp) -> bool {
    matches!(op, SessionOp::FlameGraph { .. })
}

fn session_params(op: &SessionOp, profile_id: i64, tables: &PickTables) -> Value {
    let pid = ("profileId", Value::Int(profile_id));
    match op {
        SessionOp::FlameGraph { view } => Value::object([
            pid,
            ("metric", Value::from("cpu")),
            ("view", Value::from(*view)),
        ]),
        SessionOp::CodeLink { pick } => {
            Value::object([pid, ("node", Value::Int(tables.pick(*pick).0))])
        }
        SessionOp::CodeLens { pick } => {
            Value::object([pid, ("file", Value::from(tables.pick(*pick).1.as_str()))])
        }
        SessionOp::Hover { pick } => {
            let (_, file, line) = tables.pick(*pick);
            Value::object([
                pid,
                ("file", Value::from(file.as_str())),
                ("line", Value::Int(i64::from(*line))),
            ])
        }
        SessionOp::Summary => Value::object([pid]),
        SessionOp::Search { query } => Value::object([pid, ("query", Value::from(query.as_str()))]),
        SessionOp::BadLink { offset } => Value::object([
            pid,
            ("node", Value::Int((tables.node_count + offset) as i64)),
        ]),
    }
}

/// The EVscript of edit step `step`: rewrites `alloc_space` as a
/// step-specific multiple of `cpu`, so every step changes the profile's
/// content fingerprint while keeping the view's shape.
fn edit_script(seed: u64, step: usize) -> String {
    let coefficient = 1.0 + (step as f64 + 1.0) / 4096.0 + (seed % 997) as f64 / 1e7;
    format!(
        "visit(fn(n) {{ set_value(n, \"alloc_space\", value(n, \"cpu\") * {coefficient:.12}); }});"
    )
}

/// Chains one leaf checksum into the running digest (order-sensitive).
fn fold(digest: u32, leaf: u32) -> u32 {
    let mut chain = [0u8; 8];
    chain[..4].copy_from_slice(&digest.to_le_bytes());
    chain[4..].copy_from_slice(&leaf.to_le_bytes());
    ev_flate::crc32(&chain)
}

/// The checksum of one response: its result payload, or its error code.
fn leaf(outcome: &Outcome) -> u32 {
    match outcome {
        Ok(value) => ev_flate::crc32(ev_json::to_string(value).as_bytes()),
        Err(code) => ev_flate::crc32(format!("err:{code}").as_bytes()),
    }
}

/// A response: the result payload or the JSON-RPC error code
/// (`PROTOCOL_FAILURE` when the transport itself failed).
type Outcome = Result<Value, i64>;

const PROTOCOL_FAILURE: i64 = i64::MIN;

fn stage<R>(
    rec: &mut Option<&mut Recorder>,
    name: &'static str,
    class: &'static str,
    request: u64,
    f: impl FnOnce() -> R,
) -> R {
    match rec {
        Some(rec) => rec.time(name, class, request, f),
        None => f(),
    }
}

/// What one open produced, compared against the warm-up open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Opened {
    nodes: usize,
    rects: usize,
    svg_crc: u32,
}

struct OpenRun {
    opened: Opened,
    out_bytes: usize,
    wall_ns: u64,
    drop_ns: u64,
}

/// Opens `bytes` the way the editor does: inflate, decode into the
/// CCT, compute the metric view, lay out the top-down flame graph and
/// render it. With a recorder, each stage gets a span, and the
/// sequential-policy metric view and layout are timed after it.
fn open_once(
    bytes: &[u8],
    mut rec: Option<&mut Recorder>,
    request: u64,
) -> Result<OpenRun, String> {
    let policy = ExecPolicy::auto();
    let metric = MetricId::from_index(0);
    let start = ev_trace::now_ns();
    let outer = rec.as_mut().map(|r| r.begin("open", "open", request));
    let body = stage(&mut rec, "flate.inflate", "open", request, || {
        ev_flate::gzip_decompress_with(bytes, policy)
    })
    .map_err(|e| format!("inflate: {e}"))?;
    let out_bytes = body.len();
    let profile = stage(&mut rec, "wire.decode", "open", request, move || {
        ev_formats::pprof::parse_with(&body, policy)
    })
    .map_err(|e| format!("decode: {e}"))?;
    let view = stage(&mut rec, "analysis.metric_view", "open", request, || {
        MetricView::compute_with(&profile, metric, policy)
    });
    let graph = stage(&mut rec, "flame.layout", "open", request, || {
        FlameGraph::top_down_with(&profile, metric, policy)
    });
    let svg = stage(&mut rec, "flame.render", "open", request, || {
        render::svg(&graph, &SvgOptions::default())
    });
    if let (Some(rec), Some(outer)) = (rec.as_mut(), outer) {
        rec.end(outer);
    }
    let wall_ns = ev_trace::now_ns() - start;
    let opened = Opened {
        nodes: profile.node_count(),
        rects: graph.rects().len(),
        svg_crc: ev_flate::crc32(svg.as_bytes()),
    };
    if view.total() <= 0.0 {
        return Err("metric view total is not positive".to_owned());
    }
    if rec.is_some() {
        let seq = ExecPolicy::SEQUENTIAL;
        let seq_view = stage(&mut rec, "par.metric_view_seq", "open", request, || {
            MetricView::compute_with(&profile, metric, seq)
        });
        let seq_graph = stage(&mut rec, "par.layout_seq", "open", request, || {
            FlameGraph::top_down_with(&profile, metric, seq)
        });
        if seq_view.total() != view.total() || seq_graph.rects().len() != opened.rects {
            return Err("sequential policy disagrees with auto".to_owned());
        }
    }
    let drop_start = ev_trace::now_ns();
    stage(&mut rec, "core.drop", "open", request, move || {
        drop((svg, graph, view, profile));
    });
    Ok(OpenRun {
        opened,
        out_bytes,
        wall_ns,
        drop_ns: ev_trace::now_ns() - drop_start,
    })
}

/// An editor connected to an in-process shared server with two copies
/// of the editor profile: one browsed, one edited (edits change the
/// edited copy's fingerprint, so they never disturb the browsed
/// copy's cached views).
struct Editor {
    server: SharedEvpServer,
    client: EditorClient,
    browse_id: i64,
    edit_id: i64,
    cpu_rects: usize,
    next_id: i64,
}

/// One round-trip: the outcome, its wall time and the reply size
/// (traced round-trips only; 0 otherwise).
struct Call {
    outcome: Outcome,
    wall_ns: u64,
    reply_bytes: usize,
}

impl Editor {
    /// Server start, `profile/open` of both copies, and warm-up
    /// requests: every view of the browsed copy, its summary, and one
    /// edit step on the edited copy.
    fn start(inputs: &Inputs, seed: u64) -> Result<Editor, String> {
        let server = SharedEvpServer::with_options(ServerOptions::default());
        let mut client = EditorClient::connect_shared(server.clone()).map_err(|e| e.to_string())?;
        let browse_id = client
            .open_profile(&inputs.editor)
            .map_err(|e| e.to_string())?;
        let edit_id = client
            .open_profile(&inputs.editor)
            .map_err(|e| e.to_string())?;
        let mut editor = Editor {
            server,
            client,
            browse_id,
            edit_id,
            cpu_rects: 0,
            next_id: 0,
        };
        for view in ["topDown", "bottomUp", "flat"] {
            let op = SessionOp::FlameGraph { view };
            let params = session_params(&op, browse_id, &inputs.tables);
            let result = editor.warm("profile/flameGraph", params)?;
            if view == "topDown" {
                editor.cpu_rects = rect_count(&result);
            }
        }
        let params = session_params(&SessionOp::Summary, browse_id, &inputs.tables);
        editor.warm("profile/summary", params)?;
        let (script, view) = editor.edit_params(seed, 0);
        editor.warm("profile/script", script)?;
        editor.warm("profile/flameGraph", view)?;
        Ok(editor)
    }

    fn warm(&mut self, method: &str, params: Value) -> Result<Value, String> {
        self.client
            .request(method, params)
            .map_err(|e| format!("warm-up {method}: {e}"))
    }

    fn edit_params(&self, seed: u64, step: usize) -> (Value, Value) {
        let pid = ("profileId", Value::Int(self.edit_id));
        let script = Value::object([
            pid.clone(),
            ("source", Value::from(edit_script(seed, step))),
        ]);
        let view = Value::object([
            pid,
            ("metric", Value::from("alloc_space")),
            ("view", Value::from("topDown")),
        ]);
        (script, view)
    }

    /// One EVP round-trip. Untraced, it goes through
    /// [`EditorClient::request`], as an editor would; traced, the same
    /// steps run one by one so each gets a span.
    fn call(
        &mut self,
        method: &str,
        params: Value,
        class: &'static str,
        rec: Option<&mut Recorder>,
        request: u64,
    ) -> Call {
        let Some(rec) = rec else {
            let start = ev_trace::now_ns();
            let outcome = self.client.request(method, params);
            let wall_ns = ev_trace::now_ns() - start;
            let outcome = outcome.map_err(|e| match e {
                IdeError::Rpc { code, .. } => code,
                IdeError::Protocol(msg) => {
                    eprintln!("perfbench: {method}: protocol error: {msg}");
                    PROTOCOL_FAILURE
                }
            });
            return Call {
                outcome,
                wall_ns,
                reply_bytes: 0,
            };
        };
        let mut params = params;
        if let (Value::Object(map), Some(sid)) = (&mut params, self.client.session_id()) {
            map.insert("sessionId".to_owned(), Value::Int(sid));
        }
        self.next_id += 1;
        let id = self.next_id;
        let server = &self.server;
        let start = ev_trace::now_ns();
        let outer = rec.begin("request", class, request);
        let frame = rec.time("rpc.client_encode", class, request, || {
            encode_frame(&Request::new(id, method, params).to_value())
        });
        let decoded = rec.time("rpc.request_decode", class, request, || {
            let (value, _) = decode_frame(&frame)?.ok_or("incomplete request frame")?;
            Request::from_value(&value)
        });
        let result = decoded.and_then(|request_msg| {
            let response = rec
                .time("ide.handle", class, request, || server.handle(&request_msg))
                .ok_or("no response")?;
            let reply = rec.time("rpc.response_encode", class, request, || {
                encode_frame(&response.to_value())
            });
            let outcome = rec.time("rpc.client_decode", class, request, || {
                let (value, _) = decode_frame(&reply)?.ok_or("incomplete response frame")?;
                Response::from_value(&value)
            })?;
            Ok((outcome, reply.len()))
        });
        rec.end(outer);
        let wall_ns = ev_trace::now_ns() - start;
        match result {
            Ok((response, reply_bytes)) => Call {
                outcome: response.outcome.map_err(|(code, _)| code),
                wall_ns,
                reply_bytes,
            },
            Err(msg) => {
                eprintln!("perfbench: {method}: protocol error: {msg}");
                Call {
                    outcome: Err(PROTOCOL_FAILURE),
                    wall_ns,
                    reply_bytes: 0,
                }
            }
        }
    }
}

/// The edit guard: an edited view must lay out at least
/// [`EDIT_RECT_SHARE`] of the `cpu` view's rectangles, or the edit
/// step would time an empty layout.
pub fn edit_keeps_view(rects: usize, cpu_rects: usize) -> bool {
    rects as f64 >= EDIT_RECT_SHARE * cpu_rects as f64
}

fn rect_count(view: &Value) -> usize {
    view.get("rects")
        .and_then(Value::as_array)
        .map_or(0, <[Value]>::len)
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
    /// Samples the value was read from.
    pub samples: usize,
    /// For a percentile, which one.
    pub percentile: Option<f64>,
    /// The end-to-end metric this one should move.
    pub moves: &'static str,
}

/// The result of one run.
#[derive(Debug)]
pub struct Report {
    /// The configuration run.
    pub config: Config,
    /// Operations issued in the timed phase.
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// Chained CRC-32 over every checked output, in issue order.
    pub digest: u32,
    /// Metrics: end-to-end ones untraced, per-layer ones traced.
    pub metrics: Vec<Metric>,
    /// Span records of a traced run.
    pub spans: Option<Recorder>,
    /// How long the pool warm-up took, if the pool got to the state
    /// [`warm_pool`] waits for.
    pub pool_warmup_s: Option<f64>,
}

impl Report {
    /// Looks a metric up by name.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The one-line result: `correct`, `attempted`, `failed` and each
    /// metric's value and unit.
    pub fn result_line(&self) -> String {
        let metrics: Vec<(&str, Value)> = self
            .metrics
            .iter()
            .map(|m| {
                let entry = Value::object([
                    ("value", Value::Float(m.value)),
                    ("unit", Value::from(m.unit)),
                ]);
                (m.name, entry)
            })
            .collect();
        ev_json::to_string(&Value::object([
            ("correct", Value::Bool(self.failed == 0)),
            ("attempted", Value::Int(self.attempted as i64)),
            ("failed", Value::Int(self.failed as i64)),
            ("metrics", Value::object(metrics)),
        ]))
    }

    /// The full report: the result plus sample counts, percentiles,
    /// the digest, and which end-to-end metric each metric moves.
    pub fn detail(&self) -> Value {
        let metrics: Vec<Value> = self
            .metrics
            .iter()
            .map(|m| {
                Value::object([
                    ("name", Value::from(m.name)),
                    ("unit", Value::from(m.unit)),
                    ("value", Value::Float(m.value)),
                    ("samples", Value::Int(m.samples as i64)),
                    ("percentile", m.percentile.map_or(Value::Null, Value::Float)),
                    ("moves", Value::from(m.moves)),
                ])
            })
            .collect();
        Value::object([
            ("workload", Value::from(self.config.workload.name())),
            ("seed", Value::Int(self.config.seed as i64)),
            ("seconds", Value::Int(i64::from(self.config.seconds))),
            ("trace", Value::Bool(self.config.trace)),
            ("correct", Value::Bool(self.failed == 0)),
            ("attempted", Value::Int(self.attempted as i64)),
            ("failed", Value::Int(self.failed as i64)),
            ("digest", Value::from(format!("{:08x}", self.digest))),
            (
                "pool_warmup_s",
                self.pool_warmup_s.map_or(Value::Null, Value::Float),
            ),
            ("metrics", Value::Array(metrics)),
        ])
    }
}

/// Latency samples of one operation class, split by whether the
/// operation was traced.
#[derive(Default)]
struct Samples {
    untraced: Vec<u64>,
    traced: Vec<u64>,
}

impl Samples {
    fn push(&mut self, traced: bool, ns: u64) {
        if traced {
            self.traced.push(ns);
        } else {
            self.untraced.push(ns);
        }
    }
}

/// Running totals of the timed phase.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    digest: u32,
    /// Closed-loop busy time per class (open, session, edit): every
    /// operation plus its teardown.
    busy_ns: [u64; 3],
    /// Operations issued per class (open, session, edit).
    issued: [u64; 3],
    open: Samples,
    nav: Samples,
    view: Samples,
    edit: Samples,
    view_reply_bytes: Vec<u64>,
    open_out_bytes: usize,
    edit_misses: u64,
}

impl Tally {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }
}

/// One operation of the timed sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Open,
    /// Index into the session ops.
    Session(usize),
    /// Edit step number (1-based; step 0 is the warm-up).
    Edit(usize),
}

/// Interleaves the three classes evenly over the whole run (see
/// [`interleave`]), so host slowdowns fall on every class alike. The
/// order is the same for every seed: an op that runs right after an
/// open meets caches the open has just evicted, and which ops do so is
/// then the same in every run.
fn schedule(opens: usize, session: usize, edits: usize) -> Vec<Op> {
    let mut next = [0usize; 3];
    interleave(&[opens, session, edits])
        .into_iter()
        .map(|class| {
            let k = next[class];
            next[class] += 1;
            match class {
                0 => Op::Open,
                1 => Op::Session(k),
                _ => Op::Edit(k + 1),
            }
        })
        .collect()
}

/// CPU time the whole process has used, in clock ticks (Linux only).
fn process_cpu_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the line.
    let fields: Vec<&str> = stat.rsplit_once(')')?.1.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// Brings the `ev-par` pool into the state a long-lived server ends up
/// in, before anything is timed. Returns the warm-up time in seconds if
/// the pool got there, `None` if it did not within the cap.
///
/// The pool's count of pending tasks can lose a decrement: `publish`
/// enqueues tasks before it counts them, so a worker that is still
/// scanning can claim one first, and its decrement saturates at zero.
/// The count then never returns to zero, and idle workers scan for
/// work instead of sleeping, for the rest of the process. Every
/// process that runs enough parallel jobs gets there, but when it
/// happens varies, which split runs into a fast and a slow group. Many
/// small parallel jobs in a row get there within about a second; the
/// warm-up stops once the process is seen using CPU while this thread
/// sleeps. Once the pool counts before it enqueues, the warm-up never
/// sees that and ends at [`POOL_WARMUP_CAP_NS`].
fn warm_pool() -> Option<f64> {
    let start = ev_trace::now_ns();
    while ev_trace::now_ns() - start < POOL_WARMUP_CAP_NS {
        for _ in 0..50 {
            ev_par::parallel_tasks(256, ExecPolicy::auto(), &|i| {
                std::hint::black_box(i);
            });
        }
        let before = process_cpu_ticks()?;
        std::thread::sleep(std::time::Duration::from_millis(50));
        // Idle workers would use nothing; scanning ones use about a
        // clock tick (10 ms) each per 10 ms.
        if process_cpu_ticks()? - before >= 5 {
            return Some((ev_trace::now_ns() - start) as f64 / 1e9);
        }
    }
    None
}

/// Runs one configuration: builds the inputs, warms the pool (not in
/// quick runs, which check outputs only), sets up [`SETUP_ROUNDS`]
/// times, then issues the timed sequence.
///
/// # Errors
///
/// Fails when set-up fails (the timed phase counts failures instead).
pub fn run(config: &Config) -> Result<Report, String> {
    let inputs = Inputs::build(config)?;
    let seed = config.seed;
    let ops = schedule(inputs.opens, inputs.session.len(), inputs.edits);

    let pool_warmup_s = if config.quick { None } else { warm_pool() };
    match pool_warmup_s {
        Some(secs) => eprintln!("perfbench: pool warm-up: workers stay awake after {secs:.2} s"),
        None if !config.quick => eprintln!("perfbench: pool warm-up: workers not seen awake"),
        None => {}
    }
    let mut setup_ns = Vec::with_capacity(SETUP_ROUNDS);
    let mut state = None;
    for _ in 0..SETUP_ROUNDS {
        drop(state.take());
        let start = ev_trace::now_ns();
        let reference = open_once(&inputs.open_bytes, None, 0)?.opened;
        let editor = Editor::start(&inputs, seed)?;
        setup_ns.push(ev_trace::now_ns() - start);
        state = Some((reference, editor));
    }
    let (reference, mut editor) = state.expect("at least one set-up round");

    let mut recorder = Recorder::default();
    let mut tally = Tally::default();
    let before = editor.server.view_cache_stats();
    alloc::reset_peak();

    let phase_start = ev_trace::now_ns();
    let deadline_ns = (f64::from(config.seconds) * DEADLINE_FACTOR * 1e9) as u64;
    let planned = ops.len();
    for (request, op) in (1u64..).zip(ops) {
        if !config.quick && ev_trace::now_ns() - phase_start > deadline_ns {
            eprintln!(
                "perfbench: deadline reached after {} of {planned} operations",
                request - 1
            );
            break;
        }
        let class = match op {
            Op::Open => 0,
            Op::Session(_) => 1,
            Op::Edit(_) => 2,
        };
        // A traced run traces every other operation of each class.
        let traced = config.trace && tally.issued[class] % 2 == 0;
        tally.issued[class] += 1;
        let rec = traced.then_some(&mut recorder);
        match op {
            Op::Open => match open_once(&inputs.open_bytes, rec, request) {
                Ok(run) => {
                    tally.busy_ns[0] += run.wall_ns + run.drop_ns;
                    tally.open.push(traced, run.wall_ns);
                    tally.open_out_bytes = run.out_bytes;
                    tally.digest = fold(tally.digest, run.opened.svg_crc);
                    tally.check(run.opened == reference, || {
                        format!("open {request}: {:?} != warm-up {reference:?}", run.opened)
                    });
                }
                Err(e) => tally.check(false, || format!("open {request}: {e}")),
            },
            Op::Session(i) => {
                let op = &inputs.session[i];
                let params = session_params(op, editor.browse_id, &inputs.tables);
                let view = is_view(op);
                let class = if view { "view" } else { "nav" };
                let call = editor.call(op.method(), params, class, rec, request);
                tally.busy_ns[1] += call.wall_ns;
                if view {
                    tally.view.push(traced, call.wall_ns);
                    if let (true, SessionOp::FlameGraph { view }) = (traced, op) {
                        tally.view_reply_bytes.push(call.reply_bytes as u64);
                        let tag = ["flame", *view, "limit:100000"];
                        let metric = MetricId::from_index(0);
                        recorder.time("analysis.view_key", class, request, || {
                            view_key(&inputs.editor, metric, &tag)
                        });
                    }
                } else {
                    tally.nav.push(traced, call.wall_ns);
                }
                tally.digest = fold(tally.digest, leaf(&call.outcome));
                let ok = match &call.outcome {
                    Ok(_) => !op.expects_error(),
                    Err(code) => op.expects_error() && *code == codes::UNKNOWN_ENTITY,
                };
                tally.check(ok, || {
                    format!("session op {i} {op:?}: {:?}", call.outcome.as_ref().err())
                });
            }
            Op::Edit(step) => {
                let mut rec = rec;
                let (script, view) = editor.edit_params(seed, step);
                let misses_before = editor.server.view_cache_stats().misses;
                let outer = rec.as_mut().map(|r| r.begin("edit", "edit", request));
                let scripted = editor.call(
                    "profile/script",
                    script,
                    "script",
                    rec.as_deref_mut(),
                    request,
                );
                let refreshed = editor.call(
                    "profile/flameGraph",
                    view,
                    "miss",
                    rec.as_deref_mut(),
                    request,
                );
                if let (Some(rec), Some(outer)) = (rec, outer) {
                    rec.end(outer);
                }
                let misses = editor.server.view_cache_stats().misses - misses_before;
                let wall_ns = scripted.wall_ns + refreshed.wall_ns;
                tally.busy_ns[2] += wall_ns;
                tally.edit_misses += misses;
                tally.edit.push(traced, wall_ns);
                tally.digest = fold(tally.digest, leaf(&scripted.outcome));
                tally.digest = fold(tally.digest, leaf(&refreshed.outcome));
                let rects = refreshed.outcome.as_ref().map_or(0, rect_count);
                let ok = scripted.outcome.is_ok()
                    && refreshed.outcome.is_ok()
                    && misses == 1
                    && edit_keeps_view(rects, editor.cpu_rects);
                tally.check(ok, || {
                    format!(
                        "edit {step}: script {:?}, view {:?}, {misses} miss(es), {rects} of {} rects",
                        scripted.outcome.as_ref().err(),
                        refreshed.outcome.as_ref().err(),
                        editor.cpu_rects
                    )
                });
            }
        }
    }

    let after = editor.server.view_cache_stats();
    let teardown = ev_trace::now_ns();
    drop(editor);
    // The editor's teardown ends the session and edit paths, not opens.
    let own = config.workload.class();
    if own != 0 {
        tally.busy_ns[own] += ev_trace::now_ns() - teardown;
    }
    let peak_bytes = alloc::peak_bytes();

    let metrics = if config.trace {
        let cache = CacheDelta {
            browse_hits: after.hits - before.hits,
            browse_misses: after.misses - before.misses - tally.edit_misses,
            len: after.len,
        };
        per_layer_metrics(&recorder, &mut tally, reference, cache)
    } else {
        end_to_end_metrics(&mut tally, config.workload, &mut setup_ns, peak_bytes)
    };
    Ok(Report {
        config: config.clone(),
        attempted: tally.attempted,
        failed: tally.failed,
        digest: tally.digest,
        metrics,
        spans: config.trace.then_some(recorder),
        pool_warmup_s,
    })
}

/// View-cache activity of the timed phase.
struct CacheDelta {
    browse_hits: u64,
    browse_misses: u64,
    len: usize,
}

fn end_to_end_metrics(
    tally: &mut Tally,
    workload: Workload,
    setup_ns: &mut [u64],
    peak_bytes: usize,
) -> Vec<Metric> {
    let own = workload.class();
    let mut out = vec![
        Metric {
            name: "setup_s",
            unit: "s",
            value: stats::median(setup_ns) / 1e9,
            samples: setup_ns.len(),
            percentile: Some(50.0),
            moves: "setup_s",
        },
        Metric {
            name: "peak_heap_mb",
            unit: "MB",
            value: peak_bytes as f64 / 1e6,
            samples: 1,
            percentile: None,
            moves: "peak_heap_mb",
        },
        Metric {
            name: "requests_per_s",
            unit: "1/s",
            value: tally.issued[own] as f64 / (tally.busy_ns[own] as f64 / 1e9),
            samples: tally.issued[own] as usize,
            percentile: None,
            moves: "requests_per_s",
        },
    ];
    let classes: [(&'static str, &'static str, &mut Samples); 4] = [
        ("open_p50_ms", "open_tail_ms", &mut tally.open),
        ("nav_p50_ms", "nav_tail_ms", &mut tally.nav),
        ("view_p50_ms", "view_tail_ms", &mut tally.view),
        ("edit_p50_ms", "edit_tail_ms", &mut tally.edit),
    ];
    for (p50, tail_name, samples) in classes {
        let values = &mut samples.untraced;
        let n = values.len();
        let (tail, pct) = stats::tail(values);
        out.push(Metric {
            name: p50,
            unit: "ms",
            value: stats::median(values) / 1e6,
            samples: n,
            percentile: Some(50.0),
            moves: p50,
        });
        out.push(Metric {
            name: tail_name,
            unit: "ms",
            value: tail / 1e6,
            samples: n,
            percentile: Some(pct),
            moves: tail_name,
        });
    }
    out
}

fn per_layer_metrics(
    rec: &Recorder,
    tally: &mut Tally,
    reference: Opened,
    cache: CacheDelta,
) -> Vec<Metric> {
    const OPEN: &str = "open_p50_ms";
    const NAV: &str = "nav_p50_ms";
    const VIEW: &str = "view_p50_ms";
    const EDIT: &str = "edit_p50_ms";
    let span = |name: &'static str, stage: &str, classes: &[&str], moves| {
        let (value, samples) = rec.median_self_ms(stage, classes);
        Metric {
            name,
            unit: "ms",
            value,
            samples,
            percentile: Some(50.0),
            moves,
        }
    };
    let count = |name: &'static str, unit, value: f64, moves| Metric {
        name,
        unit,
        value,
        samples: 1,
        percentile: None,
        moves,
    };
    let session = ["nav", "view"];
    let (hits, misses) = (cache.browse_hits, cache.browse_misses);
    let mut reply: Vec<u64> = tally.view_reply_bytes.clone();
    let overhead = |s: &mut Samples| (stats::median(&mut s.traced), stats::median(&mut s.untraced));
    let ratios = [
        overhead(&mut tally.open),
        overhead(&mut tally.nav),
        overhead(&mut tally.view),
        overhead(&mut tally.edit),
    ];
    let traced_sum: f64 = ratios.iter().map(|r| r.0).sum();
    let untraced_sum: f64 = ratios.iter().map(|r| r.1).sum();
    vec![
        span("flate.inflate_ms", "flate.inflate", &["open"], OPEN),
        span("wire.decode_ms", "wire.decode", &["open"], OPEN),
        span(
            "analysis.metric_view_ms",
            "analysis.metric_view",
            &["open"],
            OPEN,
        ),
        span("flame.layout_ms", "flame.layout", &["open"], OPEN),
        span("flame.render_ms", "flame.render", &["open"], OPEN),
        span("core.drop_ms", "core.drop", &["open"], "requests_per_s"),
        span(
            "par.metric_view_seq_ms",
            "par.metric_view_seq",
            &["open"],
            OPEN,
        ),
        span("par.layout_seq_ms", "par.layout_seq", &["open"], OPEN),
        count("core.nodes", "count", reference.nodes as f64, OPEN),
        count("flame.rects", "count", reference.rects as f64, OPEN),
        count(
            "flate.out_mib",
            "MiB",
            tally.open_out_bytes as f64 / f64::from(1 << 20),
            OPEN,
        ),
        span("open.unattributed_ms", "open", &["open"], OPEN),
        span(
            "rpc.client_encode_ms",
            "rpc.client_encode",
            &session,
            "requests_per_s",
        ),
        span(
            "rpc.request_decode_ms",
            "rpc.request_decode",
            &session,
            "requests_per_s",
        ),
        span("ide.handle_nav_ms", "ide.handle", &["nav"], NAV),
        span("ide.handle_view_ms", "ide.handle", &["view"], VIEW),
        span(
            "rpc.response_encode_view_ms",
            "rpc.response_encode",
            &["view"],
            VIEW,
        ),
        span(
            "rpc.client_decode_view_ms",
            "rpc.client_decode",
            &["view"],
            VIEW,
        ),
        Metric {
            name: "rpc.response_kib_view",
            unit: "KiB",
            value: stats::median(&mut reply) / 1024.0,
            samples: reply.len(),
            percentile: Some(50.0),
            moves: VIEW,
        },
        count(
            "cache.hit_ratio",
            "ratio",
            hits as f64 / (hits + misses).max(1) as f64,
            VIEW,
        ),
        span("analysis.view_key_ms", "analysis.view_key", &["view"], VIEW),
        span(
            "browse.unattributed_ms",
            "request",
            &session,
            "requests_per_s",
        ),
        span("ide.handle_script_ms", "ide.handle", &["script"], EDIT),
        span("ide.handle_miss_ms", "ide.handle", &["miss"], EDIT),
        count(
            "cache.misses_per_edit",
            "count",
            tally.edit_misses as f64 / tally.issued[2].max(1) as f64,
            EDIT,
        ),
        count("cache.len", "count", cache.len as f64, "peak_heap_mb"),
        count(
            "trace.overhead_ratio",
            "ratio",
            traced_sum / untraced_sum.max(1.0),
            "none",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_spreads_every_class_over_the_run() {
        let ops = schedule(10, 100, 20);
        assert_eq!(ops.len(), 130);
        let (first, second) = ops.split_at(65);
        for half in [first, second] {
            let count = |f: fn(&Op) -> bool| half.iter().filter(|op| f(op)).count();
            assert_eq!(count(|op| *op == Op::Open), 5);
            assert!(count(|op| matches!(op, Op::Session(_))).abs_diff(50) <= 1);
            assert!(count(|op| matches!(op, Op::Edit(_))).abs_diff(10) <= 1);
        }
        let edits: Vec<usize> = ops
            .iter()
            .filter_map(|op| match op {
                Op::Edit(step) => Some(*step),
                _ => None,
            })
            .collect();
        assert_eq!(
            edits,
            (1..=20).collect::<Vec<_>>(),
            "edit steps stay in order"
        );
    }

    #[test]
    fn session_mix_and_order_are_the_same_for_every_seed() {
        let kinds = |seed| -> Vec<usize> { session_ops(seed, 225).iter().map(op_kind).collect() };
        assert_eq!(kinds(1), kinds(2));
        let mut counts = [0usize; SESSION_MIX.len()];
        for kind in kinds(1) {
            counts[kind] += 1;
        }
        assert_eq!(counts, [5, 56, 56, 34, 15, 15, 15, 18, 11]);
        assert_ne!(
            session_ops(1, 225),
            session_ops(2, 225),
            "the seed picks the targets"
        );
    }
}
