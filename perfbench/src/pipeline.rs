//! The operator path, stage by stage, in one process and on one thread of
//! work at a time: generate → build and persist → load → serve → forward →
//! check.
//!
//! Every stage runs single-threaded (engine threads 1, one serving worker),
//! and times are on-CPU seconds of the process's threads (see [`crate::sys`]).
//! Stages that a run repeats stop at their share of `--seconds` of wall
//! time, after a minimum number of passes, and report the median pass.

use std::collections::HashMap;
use std::hint::black_box;
use std::io::{Read, Write};
use std::process::{Command, Stdio};

use congest::Network;
use graphs::{Graph, VertexId};
use obs::metrics::{quantile_ns, MetricSet};
use obs::Recorder;
use routing::oracle::DistanceOracle;
use routing::packet::{self, LoadReport};
use routing::persist::{decode_container, encode_container};
use routing::scheme::{build, build_observed, BuildParams, Built};
use serve::scenario::{generate_stream, ServeConfig};
use serve::{Answer, BatchResult, Query, QueryKind, ServePool, SharedSnapshot, Snapshot};
use traffic::scenario::{FlowOutcome, ScenarioConfig, TrafficRun, TrafficScenario};
use traffic::workload::WorkloadKind;

use crate::check::{self, Checks, Reference, RoundCount};
use crate::sys::{self, Meter, Span};
use crate::workloads::{Workload, QUEUE_CAP, SERVE_BATCH, STREAM_SALT, TRAFFIC_SALT};

/// Fewest repetitions of a repeated stage, whatever the time budget.
const MIN_LOADS: usize = 5;
const MIN_PASSES: usize = 3;
/// Most loads per run: set-up is cheap on small schemes.
const MAX_LOADS: usize = 200;
/// Queries per kind in the traced run's single-kind timing.
const KIND_QUERIES: usize = 16_384;

/// One stage of a run: its times and the operations it attempted.
#[derive(Clone, Debug)]
pub struct Stage {
    /// Stage name.
    pub name: &'static str,
    /// Wall and CPU seconds of the whole stage.
    pub time: Span,
    /// Operations attempted (builds, loads, queries, packets or checks).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

/// A named measurement with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What one run measured and checked.
pub struct Outcome {
    /// Stages in execution order.
    pub stages: Vec<Stage>,
    /// Output checks.
    pub checks: Checks,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Where the traced run wrote its span report.
    pub report: Option<String>,
}

fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

fn answered(a: &Answer) -> bool {
    !matches!(a, Answer::Unreachable | Answer::Error)
}

/// Collects stages, metrics and spans as a run goes.
struct Run<'a> {
    w: &'a Workload,
    seed: u64,
    seconds: f64,
    rec: Recorder,
    stages: Vec<Stage>,
    metrics: Vec<Metric>,
}

impl Run<'_> {
    fn traced(&self) -> bool {
        self.rec.is_enabled()
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    fn stage(&mut self, name: &'static str, meter: &Meter, attempted: u64, failed: u64) {
        self.stages.push(Stage {
            name,
            time: meter.stop(),
            attempted,
            failed,
        });
    }

    /// `f` inside a span named `name` (a no-op when untraced).
    fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.rec.begin(name);
        let out = f(self);
        self.rec.end(id);
        out
    }
}

/// The built scheme as the later stages need it.
struct Artefact {
    bytes: Vec<u8>,
    rounds: u64,
    max_table_words: usize,
    max_label_words: usize,
}

/// Run every stage of workload `w` from `seed`. The untraced run reports the
/// end-to-end metrics; the traced run (`trace`) reports the per-layer ones
/// and writes its spans as a JSONL report.
///
/// # Errors
///
/// Returns a message when an operation the benchmark cannot go on without
/// fails (an encode, a decode, the child serving process).
pub fn run(w: &Workload, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let mut run = Run {
        w,
        seed,
        seconds,
        rec: Recorder::when(trace),
        stages: Vec::new(),
        metrics: Vec::new(),
    };
    let mut checks = Checks::default();

    let meter = Meter::start();
    let (graph, pairs) = run.span("bench/generate", |r| (r.w.graph(), r.w.send_pairs(r.seed)));
    run.stage("generate", &meter, 1, 0);

    let art = run.span("bench/build", |r| build_stage(r, &graph, &mut checks))?;
    let pool = run.span("bench/load", |r| load_stage(r, &graph, &art.bytes))?;
    let snap = pool.snapshot().clone();
    let config = ServeConfig {
        workload: w.stream,
        queries: w.pass_queries,
        batch: SERVE_BATCH,
        threads: 1,
        seed: seed ^ STREAM_SALT,
        check_rate: 0.0,
    };
    let stream = generate_stream(&snap, &config);
    let mut pool = run.span("bench/serve", |r| serve_stage(r, pool, &stream));
    let network = Network::new(graph.clone());
    let (traffic, many) = run.span("bench/forward", |r| {
        forward_stage(r, &network, &snap, &pairs)
    });

    let meter = Meter::start();
    let stretch = run.span("bench/check", |_| {
        let reference = Reference::new(
            graph.num_vertices(),
            graph.edges().map(|(u, v, wt)| (u.0, v.0, wt)),
            w.k,
        );
        check_outputs(
            &reference,
            &mut pool,
            &stream[..w.check_queries.min(stream.len())],
            &art.bytes,
            &traffic,
            &pairs,
            &many,
            &mut checks,
        )
    })?;
    let (attempted, failed) = (checks.attempted, checks.failed);
    run.stage("check", &meter, attempted, failed);
    drop(pool);

    if trace {
        let report = write_report(&mut run, &traffic, &mut checks)?;
        return Ok(Outcome {
            stages: run.stages,
            checks,
            metrics: run.metrics,
            report: Some(report),
        });
    }

    let meter = Meter::start();
    let serve_rss = serve_rss_mib(w, seed, &art.bytes)?;
    run.stage("serve-rss", &meter, 1, 0);

    // The end-to-end metrics in BENCHMARK.json order; the stages pushed
    // build_s, setup_s, serve_qps, the latency pair and fwd_pps already.
    run.metric("peak_rss_mb", sys::peak_rss_mib(), "MiB");
    run.metric("serve_rss_mb", serve_rss, "MiB");
    run.metric("scheme_kib", art.bytes.len() as f64 / 1024.0, "KiB");
    run.metric("build_rounds", art.rounds as f64, "rounds");
    run.metric("max_table_words", art.max_table_words as f64, "words");
    run.metric("max_label_words", art.max_label_words as f64, "words");
    run.metric("stretch_mean", stretch, "ratio");
    Ok(Outcome {
        stages: run.stages,
        checks,
        metrics: run.metrics,
        report: None,
    })
}

/// Build and persist untraced, repeated within the stage's time share (the
/// median is `build_s`), then once more under the recorder when tracing.
fn build_stage(r: &mut Run, graph: &Graph, checks: &mut Checks) -> Result<Artefact, String> {
    let meter = Meter::start();
    let params = BuildParams::new(r.w.k);
    let build_rng = Workload::build_rng;
    let mut cpu = Vec::new();
    let mut last: Option<(Built, Vec<u8>)> = None;
    while cpu.is_empty() || meter.wall_s() < r.w.shares.build * r.seconds {
        drop(last.take()); // free the previous build before measuring the next
        let m = Meter::start();
        let built = build(graph, &params, &mut build_rng());
        let bytes = encode_container(&built.scheme).map_err(|e| format!("encode: {e}"))?;
        cpu.push(m.stop().cpu_s);
        last = Some((built, bytes));
    }
    let build_s = median(&mut cpu);
    let (mut built, mut bytes) = last.expect("at least one build");

    if r.traced() {
        drop(built);
        let untraced = std::mem::take(&mut bytes);
        let m = Meter::start();
        built = r.span("routing::scheme::build_observed", |r| {
            build_observed(graph, &params, &mut build_rng(), &mut r.rec)
        });
        let enc = Meter::start();
        bytes = r
            .span("routing::persist::encode_container", |_| {
                encode_container(&built.scheme)
            })
            .map_err(|e| format!("encode: {e}"))?;
        let encode_s = enc.stop().cpu_s;
        let traced_s = m.stop().cpu_s;
        checks.expect(untraced == bytes, || {
            "tracing changed the persisted scheme".into()
        });
        scheme_layers(r, &built);
        r.metric("persist.encode_s", encode_s, "s");
        r.metric("obs.trace_overhead_ratio", traced_s / build_s, "ratio");
    } else {
        r.metric("build_s", build_s, "s");
    }
    let art = Artefact {
        rounds: built.report.rounds,
        max_table_words: built.report.max_table_words,
        max_label_words: built.report.max_label_words,
        bytes,
    };
    let builds = cpu.len() as u64 + u64::from(r.traced());
    r.stage("build", &meter, builds, 0);
    Ok(art)
}

/// The per-layer construction metrics, from the program's `scheme/*` spans
/// and the built scheme.
fn scheme_layers(r: &mut Run, built: &Built) {
    let span = |name: &str| {
        r.rec
            .spans()
            .iter()
            .find(|s| s.name == name)
            .map(|s| (s.wall_ns, s.delta.rounds, s.delta.messages))
            .unwrap_or_default()
    };
    let (tree_ns, tree_rounds, tree_messages) = span("scheme/tree-routing");
    let (clusters_ns, clusters_rounds, _) = span("scheme/clusters");
    let (assembly_ns, _, _) = span("scheme/assembly");
    let (hopset_ns, hopset_rounds, _) = span("scheme/hopset");
    let other_ns: u64 = ["scheme/backbone", "scheme/hierarchy", "scheme/pivots"]
        .iter()
        .map(|n| span(n).0)
        .sum();
    let tree_vertices: usize = built.trees.iter().map(|t| t.len()).sum();
    r.metric("scheme.tree_routing_s", tree_ns as f64 * 1e-9, "s");
    r.metric("scheme.clusters_s", clusters_ns as f64 * 1e-9, "s");
    r.metric("scheme.assembly_s", assembly_ns as f64 * 1e-9, "s");
    r.metric("scheme.hopset_s", hopset_ns as f64 * 1e-9, "s");
    r.metric("scheme.other_s", other_ns as f64 * 1e-9, "s");
    r.metric("scheme.trees", built.trees.len() as f64, "count");
    r.metric("scheme.tree_vertices", tree_vertices as f64, "count");
    r.metric(
        "scheme.tree_routing.ns_per_tree_vertex",
        tree_ns as f64 / tree_vertices.max(1) as f64,
        "ns",
    );
    r.metric("scheme.tree_routing.rounds", tree_rounds as f64, "rounds");
    r.metric("scheme.clusters.rounds", clusters_rounds as f64, "rounds");
    r.metric("scheme.hopset.rounds", hopset_rounds as f64, "rounds");
    r.metric(
        "scheme.tree_routing.messages",
        tree_messages as f64,
        "messages",
    );
    r.metric(
        "scheme.mean_table_words",
        built.scheme.mean_table_words(),
        "words",
    );
}

/// From container bytes to a pool that has answered its first query:
/// decode, share the snapshot, start one worker, answer one probe.
/// Repeated; `setup_s` is the median load.
fn load_stage(r: &mut Run, graph: &Graph, bytes: &[u8]) -> Result<ServePool, String> {
    let meter = Meter::start();
    let probe = [Query {
        kind: QueryKind::Route,
        src: VertexId(0),
        dst: VertexId(1),
    }];
    let mut out = BatchResult::default();
    let (mut decode_s, mut snapshot_s, mut setup_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut pool: Option<ServePool> = None;
    let mut failed = 0u64;
    while setup_s.len() < MIN_LOADS
        || (setup_s.len() < MAX_LOADS && meter.wall_s() < r.w.shares.load * r.seconds)
    {
        drop(pool.take()); // one worker at a time, as a serving process has
        let m = Meter::start();
        let scheme = r
            .span("routing::persist::decode_container", |_| {
                decode_container(bytes)
            })
            .map_err(|e| format!("decode: {e}"))?;
        let decoded = m.stop();
        let m = Meter::start();
        let started = r.span("serve::Snapshot::share+ServePool::start", |_| {
            let mut p = ServePool::start(Snapshot::share(graph.clone(), scheme), 1);
            p.serve_batch(&probe, 0, 0.0, 0, &mut out);
            p
        });
        let ready = m.stop();
        failed += u64::from(!out.answers.iter().all(answered));
        decode_s.push(decoded.cpu_s);
        snapshot_s.push(ready.cpu_s);
        setup_s.push(decoded.cpu_s + ready.cpu_s);
        pool = Some(started);
    }
    if r.traced() {
        r.metric("persist.decode_s", median(&mut decode_s), "s");
        r.metric("serve.snapshot_s", median(&mut snapshot_s), "s");
    } else {
        r.metric("setup_s", median(&mut setup_s), "s");
    }
    r.stage("load", &meter, setup_s.len() as u64, failed);
    Ok(pool.expect("at least one load"))
}

/// Serve the whole stream once through `pool` at check rate 0, appending
/// the per-query latencies to `latencies`; returns the queries that failed.
fn serve_pass(
    pool: &mut ServePool,
    stream: &[Query],
    out: &mut BatchResult,
    latencies: &mut Vec<u64>,
) -> u64 {
    let mut failed = 0;
    for (i, chunk) in stream.chunks(SERVE_BATCH).enumerate() {
        pool.serve_batch(chunk, (i * SERVE_BATCH) as u64, 0.0, 0, out);
        latencies.extend_from_slice(&out.latencies);
        failed += out.answers.iter().filter(|a| !answered(a)).count() as u64;
    }
    failed
}

/// Closed-loop serving: one untimed warm-up pass, then timed passes. Each
/// pass yields queries per CPU second and its latency quantiles; the run
/// reports the median pass.
fn serve_stage(r: &mut Run, mut pool: ServePool, stream: &[Query]) -> ServePool {
    let meter = Meter::start();
    let mut out = BatchResult::default();
    let mut latencies = Vec::with_capacity(stream.len());
    let mut failed = serve_pass(&mut pool, stream, &mut out, &mut latencies);
    let mut attempted = stream.len() as u64;
    let budget = r.w.shares.serve * r.seconds;
    let (mut qps, mut p50, mut p99, mut dispatch) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    while qps.len() < MIN_PASSES || meter.wall_s() < budget {
        latencies.clear();
        let m = Meter::start();
        failed += r.span("serve::ServePool::serve_batch", |_| {
            serve_pass(&mut pool, stream, &mut out, &mut latencies)
        });
        let pass = m.stop();
        attempted += stream.len() as u64;
        qps.push(stream.len() as f64 / pass.cpu_s);
        p50.push(quantile_ns(&latencies, 0.50) as f64 / 1e3);
        p99.push(quantile_ns(&latencies, 0.99) as f64 / 1e3);
        let in_worker: u64 = latencies.iter().sum();
        dispatch.push(1.0 - in_worker as f64 * 1e-9 / pass.cpu_s);
    }
    if r.traced() {
        r.metric("serve.dispatch_cpu_share", median(&mut dispatch), "ratio");
        let snap = pool.snapshot().clone();
        query_layers(r, &snap, &stream[..stream.len().min(KIND_QUERIES)]);
    } else {
        r.metric("serve_qps", median(&mut qps), "queries/s");
        r.metric("query_p50_us", median(&mut p50), "us");
        r.metric("query_p99_us", median(&mut p99), "us");
    }
    r.stage("serve", &meter, attempted, failed);
    pool
}

/// `answer_query` timed per kind on single-kind copies of the stream, plus
/// the hop and table-lookup counts of the route and trace answers.
fn query_layers(r: &mut Run, snap: &SharedSnapshot, sample: &[Query]) {
    let oracle = DistanceOracle::new(&snap.scheme);
    let mut paths = Vec::new();
    let (mut hops, mut lookups, mut walks) = (0u64, 0u64, 0u64);
    let mut route_lookups = 0.0;
    for (kind, name) in [
        (QueryKind::Route, "serve.route_ns"),
        (QueryKind::Distance, "serve.distance_ns"),
        (QueryKind::Trace, "serve.trace_ns"),
    ] {
        let queries: Vec<Query> = sample.iter().map(|q| Query { kind, ..*q }).collect();
        let (mut kind_hops, mut kind_lookups) = (0u64, 0u64);
        for q in &queries {
            paths.clear();
            match serve::query::answer_query(snap, &oracle, *q, &mut paths) {
                Answer::Route { hops: h, .. } | Answer::Trace { hops: h, .. } => {
                    let label = snap.scheme.labels[q.dst.index()].entries.len() as u64;
                    kind_hops += u64::from(h);
                    kind_lookups += label + u64::from(h) + 1;
                }
                _ => {}
            }
        }
        if kind == QueryKind::Route {
            route_lookups = kind_lookups as f64 / queries.len().max(1) as f64;
        }
        if kind != QueryKind::Distance {
            hops += kind_hops;
            lookups += kind_lookups;
            walks += queries.len() as u64;
        }
        let m = Meter::start();
        let mut reps = 0u64;
        r.span(&format!("serve::answer_query/{name}"), |_| {
            while reps == 0 || m.wall_s() < 0.1 {
                for q in &queries {
                    paths.clear();
                    black_box(serve::query::answer_query(
                        snap,
                        &oracle,
                        black_box(*q),
                        &mut paths,
                    ));
                }
                reps += 1;
            }
        });
        let ns = m.stop().cpu_s * 1e9 / (reps * queries.len().max(1) as u64) as f64;
        r.metric(name, ns, "ns");
        if kind == QueryKind::Route {
            r.metric(
                "serve.ns_per_table_lookup",
                ns / route_lookups.max(1.0),
                "ns",
            );
        }
    }
    r.metric(
        "serve.hops_per_query",
        hops as f64 / walks.max(1) as f64,
        "count",
    );
    r.metric(
        "serve.table_lookups_per_query",
        lookups as f64 / walks.max(1) as f64,
        "count",
    );
}

/// The forwarding plane on the CONGEST engine: a uniform traffic-matrix run
/// below the knee plus a `send_many` batch, per pass. `fwd_pps` is packets
/// delivered per CPU second of the median pass.
fn forward_stage(
    r: &mut Run,
    network: &Network,
    snap: &SharedSnapshot,
    pairs: &[(VertexId, VertexId)],
) -> (TrafficRun, LoadReport) {
    let meter = Meter::start();
    let scenario = TrafficScenario {
        network,
        scheme: &snap.scheme,
        workload: WorkloadKind::Uniform,
        config: ScenarioConfig {
            inject_rounds: r.w.inject_rounds,
            queue_cap: QUEUE_CAP,
            threads: 1,
            seed: r.seed ^ TRAFFIC_SALT,
            ..ScenarioConfig::default()
        },
    };
    let budget = r.w.shares.forward * r.seconds;
    let (mut pps, mut traffic_pps, mut send_pps, mut us_per_round) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let rate = r.w.traffic_rate;
    let mut last = None;
    while pps.len() < MIN_PASSES || meter.wall_s() < budget {
        let m = Meter::start();
        let run = r.span("traffic::TrafficScenario::run", |_| scenario.run(rate));
        let t = m.stop();
        let m = Meter::start();
        let many = r.span("routing::packet::send_many", |_| {
            packet::send_many(network, &snap.scheme, pairs)
        });
        let s = m.stop();
        let s_delivered = many.delivered_count() as u64;
        let delivered = run.summary.delivered + s_delivered;
        attempted += run.summary.offered + pairs.len() as u64;
        failed += run.summary.offered - run.summary.delivered + pairs.len() as u64 - s_delivered;
        pps.push(delivered as f64 / (t.cpu_s + s.cpu_s));
        traffic_pps.push(run.summary.delivered as f64 / t.cpu_s);
        send_pps.push(s_delivered as f64 / s.cpu_s);
        let rounds = run.stats.rounds + many.stats.rounds;
        us_per_round.push((t.cpu_s + s.cpu_s) * 1e6 / rounds.max(1) as f64);
        last = Some((run, many));
    }
    let (run, many) = last.expect("at least one forward pass");
    if r.traced() {
        let n = network.len() as f64;
        let busy: u64 = run.series.iter().map(|t| t.queued_packets + t.sent).sum();
        let (mut hops, mut delivered) = (0u64, 0u64);
        for f in &run.flows {
            if let FlowOutcome::Delivered { hops: h, .. } = f.outcome {
                hops += u64::from(h);
                delivered += 1;
            }
        }
        r.metric(
            "engine.rounds",
            (run.stats.rounds + many.stats.rounds) as f64,
            "rounds",
        );
        r.metric(
            "engine.messages",
            (run.stats.messages + many.stats.messages) as f64,
            "messages",
        );
        r.metric("engine.us_per_round", median(&mut us_per_round), "us");
        r.metric(
            "engine.busy_vertex_share",
            busy as f64 / (run.stats.rounds.max(1) as f64 * n),
            "ratio",
        );
        r.metric("traffic.pps", median(&mut traffic_pps), "packets/s");
        r.metric(
            "traffic.hops_per_packet",
            hops as f64 / delivered.max(1) as f64,
            "hops",
        );
        let m = Meter::start();
        let mut reps = 0u64;
        r.span("routing::packet::plan", |_| {
            while reps == 0 || m.wall_s() < 0.05 {
                for &(src, dst) in pairs {
                    black_box(packet::plan(&snap.scheme, black_box(src), black_box(dst)));
                }
                reps += 1;
            }
        });
        let plan_ns = m.stop().cpu_s * 1e9 / (reps * pairs.len().max(1) as u64) as f64;
        r.metric("packet.plan_ns", plan_ns, "ns");
        r.metric("packet.send_many_pps", median(&mut send_pps), "packets/s");
    } else {
        r.metric("fwd_pps", median(&mut pps), "packets/s");
    }
    r.stage("forward", &meter, attempted, failed);
    (run, many)
}

/// The untimed check pass. Returns the mean stretch of the checked route
/// and trace answers.
#[allow(clippy::too_many_arguments)]
fn check_outputs(
    reference: &Reference,
    pool: &mut ServePool,
    sample: &[Query],
    bytes: &[u8],
    traffic: &TrafficRun,
    pairs: &[(VertexId, VertexId)],
    many: &LoadReport,
    checks: &mut Checks,
) -> Result<f64, String> {
    // The persisted scheme survives a round trip byte for byte.
    let decoded = decode_container(bytes).map_err(|e| format!("decode: {e}"))?;
    let again = encode_container(&decoded).map_err(|e| format!("encode: {e}"))?;
    checks.expect(again == bytes, || {
        "decoded scheme re-encodes differently".into()
    });
    drop(decoded);

    // Exact distances to each checked destination (the graph is undirected).
    let mut to: HashMap<u32, Vec<u64>> = HashMap::new();
    let mut dist = |src: VertexId, dst: VertexId| {
        to.entry(dst.0)
            .or_insert_with(|| reference.distances_from(dst.0))[src.index()]
    };

    // Every sampled query, cross-checked by the program against its central
    // router at rate 1.0 and by this checker against exact distances.
    let mut out = BatchResult::default();
    pool.serve_batch(sample, 0, 1.0, 0, &mut out);
    for i in 0..out.checks {
        checks.expect(i >= out.mismatches, || {
            format!(
                "{} served answers differ from the central router",
                out.mismatches
            )
        });
    }
    let (mut stretch, mut stretched) = (0.0, 0u64);
    for (q, a) in sample.iter().zip(&out.answers) {
        let d = dist(q.src, q.dst);
        let weight = match *a {
            Answer::Route { weight, .. } => {
                reference.route(checks, d, weight);
                weight
            }
            Answer::Trace {
                weight,
                path_start,
                path_len,
                ..
            } => {
                let start = path_start as usize;
                let path: Vec<u32> = out.paths[start..start + path_len as usize]
                    .iter()
                    .map(|v| v.0)
                    .collect();
                reference.trace(checks, q.src.0, q.dst.0, d, weight, &path);
                weight
            }
            Answer::Distance { estimate } => {
                reference.estimate(checks, d, estimate);
                continue;
            }
            other => {
                checks.expect(false, || format!("{q:?} answered {other:?}"));
                continue;
            }
        };
        if d > 0 {
            stretch += weight as f64 / d as f64;
            stretched += 1;
        }
    }

    // The forward stage drains, drops nothing, conserves packets every
    // round, and routes every send_many packet within the stretch bound.
    let s = &traffic.summary;
    checks.expect(s.drained, || {
        format!("traffic run left {} packets in flight", s.in_flight)
    });
    checks.expect(s.dropped() == 0 && s.undeliverable == 0, || {
        format!(
            "traffic run dropped {} and could not route {} packets",
            s.dropped(),
            s.undeliverable
        )
    });
    check::conservation(
        checks,
        traffic.series.iter().map(|t| RoundCount {
            injected: t.injected,
            delivered: t.delivered,
            dropped: t.dropped_capacity + t.dropped_stuck,
            queued: t.queued_packets,
            on_wire: t.sent,
        }),
    );
    for (&(src, dst), outcome) in pairs.iter().zip(&many.outcomes) {
        match outcome.delivery() {
            Some((_, weight)) => reference.route(checks, dist(src, dst), weight),
            None => checks.expect(false, || format!("send_many {src:?}->{dst:?}: {outcome:?}")),
        }
    }
    Ok(stretch / stretched.max(1) as f64)
}

/// Write the traced run's spans, its per-layer metrics and the traffic
/// summary as a JSONL report, then read it back and validate every record
/// as `drt report` does. Returns the report's path.
fn write_report(r: &mut Run, traffic: &TrafficRun, checks: &mut Checks) -> Result<String, String> {
    let mut set = MetricSet::new(&format!("perfbench/{}", r.w.name));
    for m in &r.metrics {
        set.set_gauge(m.name, m.value);
    }
    r.rec.add_record(set.to_value(&[]));
    r.rec.add_record(traffic.summary.to_value(&[]));
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir}: {e}"))?;
    let path = format!("{dir}/trace-{}-{}.jsonl", r.w.name, r.seed);
    r.rec
        .write_report(
            &path,
            &format!("perfbench/{}", r.w.name),
            &[("seed", obs::json::Value::from(r.seed))],
        )
        .map_err(|e| format!("writing {path}: {e}"))?;

    let records = obs::read_report(&path).map_err(|e| format!("reading {path}: {e}"))?;
    let ty = |v: &obs::json::Value| v.get("type").and_then(|t| t.as_str()).map(str::to_string);
    let mut build_seq = None;
    let mut phases = 0;
    for (i, v) in records.iter().enumerate() {
        match ty(v).as_deref() {
            Some("metrics") => checks.expect(MetricSet::from_value(v).is_ok(), || {
                format!("report record {i}: bad metrics record")
            }),
            Some("traffic_summary") => checks
                .expect(obs::traffic::TrafficSummary::from_value(v).is_ok(), || {
                    format!("report record {i}: bad traffic_summary record")
                }),
            Some("span") => {
                let name = v.get("name").and_then(|n| n.as_str()).unwrap_or("");
                if name == "routing::scheme::build_observed" {
                    build_seq = v.get("seq").and_then(|s| s.as_u64());
                } else if name.starts_with("scheme/")
                    && v.get("depth").and_then(|d| d.as_u64()) == Some(2)
                {
                    // Program phases nest directly under the build call.
                    let parent = v.get("parent").and_then(|p| p.as_u64());
                    phases += 1;
                    checks.expect(parent.is_some() && parent == build_seq, || {
                        format!("report span {name} is not nested under the build")
                    });
                }
            }
            Some(_) => {}
            None => checks.expect(false, || format!("report record {i} has no type")),
        }
    }
    // backbone, hierarchy, hopset, pivots, clusters, tree-routing, assembly
    checks.expect(phases == 7, || {
        format!("report holds {phases} of 7 scheme phases")
    });
    checks.expect(
        ty(records.last().unwrap_or(&obs::json::Value::Null)).as_deref() == Some("run_summary"),
        || "report does not end with a run_summary".into(),
    );
    Ok(path)
}

/// Peak resident memory of a fresh process that reads the persisted scheme
/// from its standard input, loads it and serves one pass of the stream
/// without building anything.
fn serve_rss_mib(w: &Workload, seed: u64, bytes: &[u8]) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let mut child = Command::new(exe)
        .args([
            "--serve-child",
            "--workload",
            w.name,
            "--seed",
            &seed.to_string(),
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("starting the serving process: {e}"))?;
    let written = child.stdin.take().expect("stdin is piped").write_all(bytes);
    let out = child
        .wait_with_output()
        .map_err(|e| format!("waiting for the serving process: {e}"))?;
    written.map_err(|e| format!("sending the scheme: {e}"))?;
    if !out.status.success() {
        return Err(format!("the serving process exited with {}", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .map_err(|e| format!("the serving process printed no peak RSS: {e}"))
}

/// The child side of [`serve_rss_mib`]: prints its own peak RSS in MiB.
///
/// # Errors
///
/// Returns a message when the scheme cannot be read or decoded, or a query
/// fails.
pub fn serve_child(w: &Workload, seed: u64) -> Result<f64, String> {
    let mut bytes = Vec::new();
    std::io::stdin()
        .read_to_end(&mut bytes)
        .map_err(|e| format!("reading the scheme: {e}"))?;
    let scheme = decode_container(&bytes).map_err(|e| format!("decode: {e}"))?;
    drop(bytes);
    let snap = Snapshot::share(w.graph(), scheme);
    let config = ServeConfig {
        workload: w.stream,
        queries: w.pass_queries,
        batch: SERVE_BATCH,
        threads: 1,
        seed: seed ^ STREAM_SALT,
        check_rate: 0.0,
    };
    let stream = generate_stream(&snap, &config);
    let mut pool = ServePool::start(snap, 1);
    let mut latencies = Vec::with_capacity(stream.len());
    let failed = serve_pass(
        &mut pool,
        &stream,
        &mut BatchResult::default(),
        &mut latencies,
    );
    drop(pool);
    if failed > 0 {
        return Err(format!("{failed} queries failed"));
    }
    Ok(sys::peak_rss_mib())
}
