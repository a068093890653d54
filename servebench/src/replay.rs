//! The traced half of the benchmark: the live run's request stream
//! replayed in-process, once through the production entry point
//! (`Engine::estimate_batch`, one span per request) and once decomposed
//! into the public calls of each layer, with a span around every call.
//! The second pass yields the per-layer self-times and counts; its wall
//! time against the first is the tracing overhead.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use cegraph::core::vfs::{OsStorage, Storage, StorageFile};
use cegraph::core::{Aggr, CegO, Heuristic, PathLen};
use cegraph::service::{
    DatasetEntry, DatasetRegistry, Engine, EstimateCache, EstimateOutcome, ProbeOutcome, Request,
    Response,
};
use cegraph::workload::UpdateOp;

use crate::stats::median;

const DS: &str = "default";

/// One step of a replayed stream.
#[derive(Debug, Clone, Copy)]
pub enum Step {
    /// `ESTIMATE` of pool query `i`.
    Est(usize),
    /// Write batch `i` (its updates, then `COMMIT`).
    Write(usize),
}

/// What the replay needs to rebuild the server's state.
pub struct Setup<'a> {
    pub graph: &'a Path,
    pub markov: Option<&'a Path>,
    /// Pre-rendered `ESTIMATE` lines of the pool.
    pub lines: &'a [String],
    pub batches: &'a [Vec<UpdateOp>],
    /// Durable commits into this directory (update_mix only).
    pub data_dir: Option<PathBuf>,
    pub cache_capacity: usize,
}

#[derive(Default)]
struct IoCounters {
    bytes: AtomicU64,
    syncs: AtomicU64,
    nanos: AtomicU64,
}

/// `vfs::Storage` that counts and times what the WAL writes and syncs.
struct CountingStorage {
    inner: OsStorage,
    c: Arc<IoCounters>,
}

struct CountingFile {
    inner: Box<dyn StorageFile>,
    c: Arc<IoCounters>,
}

impl StorageFile for CountingFile {
    fn write_all(&mut self, buf: &[u8]) -> std::io::Result<()> {
        let t = Instant::now();
        let r = self.inner.write_all(buf);
        self.c.bytes.fetch_add(buf.len() as u64, Ordering::Relaxed);
        self.c
            .nanos
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        r
    }

    fn sync(&mut self) -> std::io::Result<()> {
        let t = Instant::now();
        let r = self.inner.sync();
        self.c.syncs.fetch_add(1, Ordering::Relaxed);
        self.c
            .nanos
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        r
    }
}

impl Storage for CountingStorage {
    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        self.inner.read(path)
    }
    fn create(&self, path: &Path) -> std::io::Result<Box<dyn StorageFile>> {
        Ok(Box::new(CountingFile {
            inner: self.inner.create(path)?,
            c: self.c.clone(),
        }))
    }
    fn append(&self, path: &Path) -> std::io::Result<Box<dyn StorageFile>> {
        Ok(Box::new(CountingFile {
            inner: self.inner.append(path)?,
            c: self.c.clone(),
        }))
    }
    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        self.inner.rename(from, to)
    }
    fn remove(&self, path: &Path) -> std::io::Result<()> {
        self.inner.remove(path)
    }
    fn truncate(&self, path: &Path, len: u64) -> std::io::Result<()> {
        self.inner.truncate(path, len)
    }
    fn len(&self, path: &Path) -> std::io::Result<u64> {
        self.inner.len(path)
    }
    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
    fn list(&self, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
        self.inner.list(dir)
    }
    fn sync_dir(&self, dir: &Path) -> std::io::Result<()> {
        self.inner.sync_dir(dir)
    }
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64 / 1e3
}

fn load(
    setup: &Setup,
    registry: &DatasetRegistry,
    storage: Arc<dyn Storage>,
) -> Result<Arc<DatasetEntry>, String> {
    let markov = setup.markov.map(|p| p.to_str().expect("UTF-8 work path"));
    let entry = registry
        .load_files(DS, setup.graph, markov, crate::inputs::H)
        .map_err(|e| format!("load: {e}"))?;
    if let Some(dir) = &setup.data_dir {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        entry
            .attach_durability(
                storage,
                dir.join("default.cegsnap"),
                dir.join("default.cegwal"),
            )
            .map_err(|e| format!("attach durability: {e}"))?;
    }
    Ok(entry)
}

/// `DatasetRegistry::load_files` of the workload's boot files, in seconds.
pub fn load_seconds(setup: &Setup) -> Result<f64, String> {
    let t = Instant::now();
    let registry = DatasetRegistry::new();
    let markov = setup.markov.map(|p| p.to_str().expect("UTF-8 work path"));
    registry
        .load_files(DS, setup.graph, markov, crate::inputs::H)
        .map_err(|e| format!("load: {e}"))?;
    Ok(t.elapsed().as_secs_f64())
}

fn estimate_query(line: &str) -> Result<cegraph::query::QueryGraph, String> {
    match Request::parse(line)? {
        Request::Estimate { query, .. } => Ok(query),
        other => Err(format!("not an estimate: {other:?}")),
    }
}

/// What the untraced engine pass measured.
pub struct EnginePass {
    /// Per-request `Engine::estimate_batch` time.
    pub batch_us: Vec<f64>,
    /// The estimate of every `Est` step, in order.
    pub values: Vec<Option<f64>>,
    /// Wall time of the timed steps.
    pub wall_s: f64,
}

/// The production path: `Engine::estimate_batch` per request (timed),
/// `Engine::commit` per write batch.
pub fn engine_pass(setup: &Setup, warm: &[Step], steps: &[Step]) -> Result<EnginePass, String> {
    let registry = Arc::new(DatasetRegistry::new());
    load(setup, &registry, Arc::new(OsStorage))?;
    let engine = Engine::new(registry, setup.cache_capacity);
    let mut batch_us = Vec::new();
    let mut values = Vec::new();
    let run = |steps: &[Step],
               record: bool,
               batch_us: &mut Vec<f64>,
               values: &mut Vec<Option<f64>>|
     -> Result<(), String> {
        for &step in steps {
            match step {
                Step::Est(i) => {
                    let q = estimate_query(&setup.lines[i])?;
                    let t = Instant::now();
                    let outcome = engine.estimate_batch(DS, std::slice::from_ref(&q))?[0];
                    let dt = us(t);
                    let s = engine.stats();
                    let line = Response::Estimate {
                        outcome,
                        hits: s.cache_hits,
                        misses: s.cache_misses,
                    }
                    .format();
                    std::hint::black_box(line);
                    if record {
                        batch_us.push(dt);
                        values.push(outcome.value);
                    }
                }
                Step::Write(b) => {
                    for op in &setup.batches[b] {
                        match *op {
                            UpdateOp::Add { src, dst, label } => {
                                engine.add_edge(DS, src, dst, label)?;
                            }
                            UpdateOp::Del { src, dst, label } => {
                                engine.del_edge(DS, src, dst, label)?;
                            }
                            UpdateOp::Commit => {
                                engine.commit(DS)?;
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    };
    run(warm, false, &mut batch_us, &mut values)?;
    let t = Instant::now();
    run(steps, true, &mut batch_us, &mut values)?;
    Ok(EnginePass {
        batch_us,
        values,
        wall_s: t.elapsed().as_secs_f64(),
    })
}

/// Per-call samples of the decomposed, traced pass.
#[derive(Default)]
pub struct Layers {
    pub parse: Vec<f64>,
    pub canon: Vec<f64>,
    pub probe: Vec<f64>,
    pub encode: Vec<f64>,
    /// Per `Est` request, 0 where the layer did not run (hits).
    pub fill: Vec<f64>,
    pub ceg_o: Vec<f64>,
    pub dp: Vec<f64>,
    /// Per call (misses only).
    pub fill_calls: Vec<f64>,
    pub ceg_o_calls: Vec<f64>,
    pub dp_calls: Vec<f64>,
    pub nodes: Vec<f64>,
    pub edges: Vec<f64>,
    pub hits: u64,
    pub stale: u64,
    pub cold: u64,
    pub fill_stats: cegraph::catalog::FillStats,
    pub commit_us: Vec<f64>,
    pub recounted: Vec<f64>,
    pub wal_bytes: u64,
    pub wal_syncs: u64,
    pub wal_io_us: f64,
    pub values: Vec<Option<f64>>,
    pub wall_s: f64,
}

/// The decomposed pass: every layer's public entry point called in the
/// order the engine calls it, each inside its own span.
pub fn layer_pass(setup: &Setup, warm: &[Step], steps: &[Step]) -> Result<Layers, String> {
    let io = Arc::new(IoCounters::default());
    let storage: Arc<dyn Storage> = Arc::new(CountingStorage {
        inner: OsStorage,
        c: io.clone(),
    });
    let entry = load(setup, &DatasetRegistry::new(), storage)?;
    let mut cache = EstimateCache::new(setup.cache_capacity);
    let heuristic = Heuristic::new(PathLen::MaxHop, Aggr::Max);
    let mut l = Layers::default();
    let mut run = |steps: &[Step], record: bool, l: &mut Layers| -> Result<(), String> {
        for &step in steps {
            match step {
                Step::Est(i) => {
                    let t = Instant::now();
                    let q = estimate_query(&setup.lines[i])?;
                    let parse = us(t);
                    let t = Instant::now();
                    let hash = q.canonical_hash();
                    let canon = us(t);
                    let epoch = entry.epoch();
                    let t = Instant::now();
                    let probe = cache.probe_hashed(DS, &q, hash, epoch);
                    let probe_us = us(t);
                    let (mut fill, mut build, mut dp) = (0.0, 0.0, 0.0);
                    let outcome = match probe {
                        ProbeOutcome::Hit(value) => {
                            l.hits += record as u64;
                            EstimateOutcome {
                                value,
                                cached: true,
                            }
                        }
                        miss => {
                            if record {
                                match miss {
                                    ProbeOutcome::StaleMiss => l.stale += 1,
                                    _ => l.cold += 1,
                                }
                            }
                            let t = Instant::now();
                            let ensured = entry.try_ensure_patterns_deadline_stats(
                                std::slice::from_ref(&q),
                                None,
                            )?;
                            fill = us(t);
                            let (value, b, d, nodes, edges) = entry.try_with_markov(|table| {
                                let t = Instant::now();
                                let ceg = CegO::build(&q, table);
                                let b = us(t);
                                let t = Instant::now();
                                let v = ceg.ceg().estimate(heuristic);
                                (
                                    v.filter(|v| v.is_finite()),
                                    b,
                                    us(t),
                                    ceg.ceg().num_nodes(),
                                    ceg.ceg().num_edges(),
                                )
                            })?;
                            (build, dp) = (b, d);
                            cache.store_hashed(DS, &q, hash, epoch, value);
                            if record {
                                l.fill_stats.absorb(&ensured.fill);
                                l.fill_calls.push(fill);
                                l.ceg_o_calls.push(build);
                                l.dp_calls.push(dp);
                                l.nodes.push(nodes as f64);
                                l.edges.push(edges as f64);
                            }
                            EstimateOutcome {
                                value,
                                cached: false,
                            }
                        }
                    };
                    let t = Instant::now();
                    let line = Response::Estimate {
                        outcome,
                        hits: cache.hits(),
                        misses: cache.misses(),
                    }
                    .format();
                    let encode = us(t);
                    std::hint::black_box(line);
                    if record {
                        l.parse.push(parse);
                        l.canon.push(canon);
                        l.probe.push(probe_us);
                        l.encode.push(encode);
                        l.fill.push(fill);
                        l.ceg_o.push(build);
                        l.dp.push(dp);
                        l.values.push(outcome.value);
                    }
                }
                Step::Write(b) => {
                    for op in &setup.batches[b] {
                        match *op {
                            UpdateOp::Add { src, dst, label } => {
                                entry.add_edge(src, dst, label)?;
                            }
                            UpdateOp::Del { src, dst, label } => {
                                entry.del_edge(src, dst, label)?;
                            }
                            UpdateOp::Commit => {
                                let (b0, s0, n0) = (
                                    io.bytes.load(Ordering::Relaxed),
                                    io.syncs.load(Ordering::Relaxed),
                                    io.nanos.load(Ordering::Relaxed),
                                );
                                let t = Instant::now();
                                let outcome =
                                    entry.try_commit().map_err(|e| format!("commit: {e}"))?;
                                let dt = us(t);
                                if record {
                                    l.commit_us.push(dt);
                                    l.recounted.push(outcome.recounted as f64);
                                    l.wal_bytes += io.bytes.load(Ordering::Relaxed) - b0;
                                    l.wal_syncs += io.syncs.load(Ordering::Relaxed) - s0;
                                    l.wal_io_us +=
                                        (io.nanos.load(Ordering::Relaxed) - n0) as f64 / 1e3;
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    };
    run(warm, false, &mut l)?;
    let t = Instant::now();
    run(steps, true, &mut l)?;
    l.wall_s = t.elapsed().as_secs_f64();
    Ok(l)
}

fn med0(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        median(v)
    }
}

fn sum(v: &[f64]) -> f64 {
    v.iter().fold(0.0, |a, b| a + b)
}

impl Layers {
    /// The per-layer metrics (name, value, unit). Timings are medians of
    /// per-call self-times; counts are totals over the timed steps.
    pub fn metrics(&self) -> Vec<(String, f64, &'static str)> {
        let probes = (self.hits + self.stale + self.cold).max(1) as f64;
        let commits = self.commit_us.len().max(1) as f64;
        let k = &self.fill_stats.kernel;
        let mut m: Vec<(&str, f64, &'static str)> = vec![
            ("protocol.parse_us", med0(&self.parse), "us"),
            ("protocol.encode_us", med0(&self.encode), "us"),
            ("query.canon_hash_us", med0(&self.canon), "us"),
            ("cache.probe_us", med0(&self.probe), "us"),
            ("cache.hit_ratio", self.hits as f64 / probes, "ratio"),
            (
                "cache.stale_miss_ratio",
                self.stale as f64 / probes,
                "ratio",
            ),
            ("catalog.fill_us", med0(&self.fill_calls), "us"),
            (
                "catalog.patterns_counted",
                self.fill_stats.patterns_counted as f64,
                "count",
            ),
            (
                "catalog.fill_max_pattern_us",
                self.fill_stats.max_pattern_micros as f64,
                "us",
            ),
            ("exec.candidates", k.candidates as f64, "count"),
            (
                "exec.intersect_merge",
                k.merge_intersections as f64,
                "count",
            ),
            (
                "exec.intersect_gallop",
                k.gallop_intersections as f64,
                "count",
            ),
            (
                "exec.intersect_bitset",
                k.bitset_intersections as f64,
                "count",
            ),
            ("exec.memo_hits", k.memo_hits as f64, "count"),
            ("exec.budget_consumed", k.budget_consumed as f64, "count"),
            ("core.ceg_o_build_us", med0(&self.ceg_o_calls), "us"),
            ("core.path_dp_us", med0(&self.dp_calls), "us"),
            ("core.ceg_nodes", med0(&self.nodes), "count"),
            ("core.ceg_edges", med0(&self.edges), "count"),
            ("registry.commit_us", med0(&self.commit_us), "us"),
            (
                "registry.recounted",
                sum(&self.recounted) / commits,
                "count",
            ),
            (
                "wal.bytes_per_commit",
                self.wal_bytes as f64 / commits,
                "bytes",
            ),
            (
                "wal.syncs_per_commit",
                self.wal_syncs as f64 / commits,
                "count",
            ),
        ];
        // Baseline shares of the traced self-time.
        let est_total = sum(&self.parse)
            + sum(&self.canon)
            + sum(&self.probe)
            + sum(&self.encode)
            + sum(&self.fill)
            + sum(&self.ceg_o)
            + sum(&self.dp);
        let share = |x: f64, of: f64| if of > 0.0 { x / of } else { 0.0 };
        let front = sum(&self.parse) + sum(&self.canon) + sum(&self.probe) + sum(&self.encode);
        m.push(("share.front_of_estimate", share(front, est_total), "ratio"));
        m.push((
            "share.fill_of_estimate",
            share(sum(&self.fill), est_total),
            "ratio",
        ));
        m.push((
            "share.ceg_o_of_estimate",
            share(sum(&self.ceg_o), est_total),
            "ratio",
        ));
        m.push((
            "share.path_dp_of_estimate",
            share(sum(&self.dp), est_total),
            "ratio",
        ));
        let commit_total = sum(&self.commit_us);
        m.push((
            "share.recount_of_commit",
            share(commit_total - self.wal_io_us, commit_total),
            "ratio",
        ));
        m.into_iter()
            .map(|(n, v, u)| (n.to_string(), v, u))
            .collect()
    }

    /// Sum over layers of the median per-request self-time (a layer that
    /// did not run for a request contributes 0 to it).
    pub fn p50_sum_us(&self) -> f64 {
        [
            &self.parse,
            &self.canon,
            &self.probe,
            &self.fill,
            &self.ceg_o,
            &self.dp,
            &self.encode,
        ]
        .iter()
        .map(|v| med0(v))
        .sum()
    }
}
