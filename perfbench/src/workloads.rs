//! The three workloads and the seeded inputs each one generates.
//!
//! Every run executes every stage, so every end-to-end metric is reported
//! on every workload; sizes differ so that the stage a workload is named
//! after does most of the work.
//!
//! The graph and the construction's coin flips are fixed per workload
//! ([`SCHEME_SEED`]); `--seed` draws the serve stream, the traffic schedule
//! and the `send_many` pairs. Scheme size swings far more between seeds
//! than any bound on a regression could allow (five seeds of
//! `serve-sf1024` spread `scheme_kib` by 55% and `max_table_words` by 55%
//! of their medians), so seeding the graph would measure the sampled
//! hierarchy instead of the code.

use graphs::{generators, Graph, VertexId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serve::scenario::ServeWorkload;

/// Seed of every workload's graph and of its construction.
pub const SCHEME_SEED: u64 = 1;

/// Salts separating the seeded streams a run draws from one seed.
pub const BUILD_SALT: u64 = 0xB11D_0000;
pub const STREAM_SALT: u64 = 0x5E12_0000;
pub const TRAFFIC_SALT: u64 = 0x7EAF_0000;
pub const PAIRS_SALT: u64 = 0x9A12_0000;

/// Graph family of a workload.
#[derive(Clone, Copy, Debug)]
pub enum Family {
    /// Connected Erdős–Rényi with the given mean degree (as `drt generate er`).
    ErdosRenyi { mean_degree: f64 },
    /// Barabási–Albert preferential attachment (as `drt generate scale-free`).
    ScaleFree { attach: usize },
}

/// One workload: its graph, scheme parameter and stage sizes.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Graph family.
    pub family: Family,
    /// Vertices.
    pub n: usize,
    /// The scheme's stretch/size parameter.
    pub k: usize,
    /// Pair distribution of the serve stream.
    pub stream: ServeWorkload,
    /// Queries in one serve pass.
    pub pass_queries: usize,
    /// Queries of the untimed check pass (a prefix of the stream).
    pub check_queries: usize,
    /// Offered traffic-plane rate, packets per round network-wide.
    pub traffic_rate: f64,
    /// Rounds during which the traffic plane injects.
    pub inject_rounds: u64,
    /// Pairs in the `send_many` batch.
    pub send_pairs: usize,
    /// Shares of `--seconds` for the repeated build, load, serve and
    /// forward stages; the stage a workload is named after gets the most.
    pub shares: Shares,
}

/// Wall-time shares of `--seconds` for the stages a run repeats.
#[derive(Clone, Copy, Debug)]
pub struct Shares {
    /// Builds (at least one runs).
    pub build: f64,
    /// Scheme loads.
    pub load: f64,
    /// Serve passes.
    pub serve: f64,
    /// Forward passes.
    pub forward: f64,
}

/// Per-port queue capacity of the forward stage: large enough that nothing
/// drops below the knee, so packets delivered per CPU second measure the
/// forwarding plane, not its drop policy.
pub const QUEUE_CAP: usize = 4096;

/// Queries per `serve_batch` call (the `drt serve` default).
pub const SERVE_BATCH: usize = 64;

pub const ALL: [Workload; 3] = [
    Workload {
        name: "build-er4096",
        family: Family::ErdosRenyi { mean_degree: 4.0 },
        n: 4096,
        k: 2,
        stream: ServeWorkload::Uniform,
        pass_queries: 32_768,
        check_queries: 512,
        traffic_rate: 4.0,
        inject_rounds: 16,
        send_pairs: 256,
        shares: Shares {
            build: 0.25,
            load: 0.1,
            serve: 0.2,
            forward: 0.15,
        },
    },
    Workload {
        name: "serve-sf1024",
        family: Family::ScaleFree { attach: 3 },
        n: 1024,
        k: 3,
        stream: ServeWorkload::Hotspot,
        pass_queries: 262_144,
        check_queries: 2048,
        traffic_rate: 2.0,
        inject_rounds: 32,
        send_pairs: 256,
        shares: Shares {
            build: 0.1,
            load: 0.1,
            serve: 0.55,
            forward: 0.15,
        },
    },
    Workload {
        name: "forward-er1024",
        family: Family::ErdosRenyi { mean_degree: 4.0 },
        n: 1024,
        k: 2,
        stream: ServeWorkload::Uniform,
        pass_queries: 32_768,
        check_queries: 512,
        traffic_rate: 4.0,
        inject_rounds: 128,
        send_pairs: 2048,
        shares: Shares {
            build: 0.1,
            load: 0.1,
            serve: 0.15,
            forward: 0.55,
        },
    },
];

/// The workload called `name`.
pub fn find(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

impl Workload {
    /// The workload's graph, with weights in `1..=100` as `drt generate`
    /// draws them.
    pub fn graph(&self) -> Graph {
        let mut rng = ChaCha8Rng::seed_from_u64(SCHEME_SEED);
        match self.family {
            Family::ErdosRenyi { mean_degree } => generators::erdos_renyi_connected(
                self.n,
                mean_degree / self.n as f64,
                1..=100,
                &mut rng,
            ),
            Family::ScaleFree { attach } => {
                generators::preferential_attachment(self.n, attach, 1..=100, &mut rng)
            }
        }
    }

    /// The random source of the construction: the same in every build.
    pub fn build_rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(SCHEME_SEED ^ BUILD_SALT)
    }

    /// The seeded `send_many` batch: uniform distinct pairs.
    pub fn send_pairs(&self, seed: u64) -> Vec<(VertexId, VertexId)> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ PAIRS_SALT);
        let n = self.n as u32;
        (0..self.send_pairs)
            .map(|_| {
                let src = rng.gen_range(0..n);
                let dst = (src + rng.gen_range(1..n)) % n;
                (VertexId(src), VertexId(dst))
            })
            .collect()
    }
}
