//! The benchmark's inputs: generated once per data seed with the real
//! `cegcli`, hash-checked against the pinned values on every run, and
//! paired with in-process cold reference estimates for the correctness
//! gate.

use std::collections::HashSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;

use cegraph::catalog::MarkovTable;
use cegraph::estimators::{CardinalityEstimator, OptimisticEstimator};
use cegraph::graph::io::load_graph;
use cegraph::graph::{LabelId, LabeledGraph, VertexId};
use cegraph::workload::io::{load_workload, save_workload};
use cegraph::workload::updates::{load_updates, save_updates};
use cegraph::workload::{UpdateOp, WorkloadQuery};

use crate::pinned;
use crate::stats::{fnv1a64, Rng};

/// Hop depth of every catalog and server in the benchmark.
pub const H: usize = 3;
/// Edges per write batch in the update stream.
const BATCH_EDGES: usize = 4;
/// Add/delete block pairs in the update stream.
const BLOCKS: usize = 96;

/// `(workload, per-template, seed offset)` for the hot pool (JOB +
/// Acyclic, about 2.5k distinct queries: fits the 4096-bucket LRU).
const HOT_SOURCES: &[(&str, usize, u64)] = &[("job", 100, 0), ("acyclic", 100, 1)];
/// Sources of the cold pool: every cyclic and acyclic template family.
const COLD_SOURCES: &[(&str, usize, u64)] = &[
    ("cyclic", 60, 2),
    ("gcare-cyclic", 45, 3),
    ("acyclic", 14, 4),
    ("gcare-acyclic", 14, 5),
];
/// Templates whose cold cost dwarfs the rest (`star-12` spends seconds
/// in CEG_O build at h = 3) keep only a few instances in the cold pool.
const COLD_CAPS: &[(&str, usize)] = &[("star-12", 3), ("star-9", 10)];

pub struct Inputs {
    pub graph_path: PathBuf,
    pub markov_path: PathBuf,
    pub graph: LabeledGraph,
    pub hot: Vec<WorkloadQuery>,
    pub cold: Vec<WorkloadQuery>,
    /// Write batches, alternating adds and the deletes that undo them:
    /// batch `2j` adds block `j`'s edges, batch `2j + 1` deletes them.
    pub batches: Vec<Vec<UpdateOp>>,
    pub hot_ref: Vec<Option<f64>>,
    pub cold_ref: Vec<Option<f64>>,
    pub hashes: Vec<(&'static str, u64)>,
}

/// Build the server binary from the checkout's sources (a no-op when it
/// is up to date) and return its path under the build directory Cargo
/// uses.
pub fn build_cegcli() -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "cegraph",
            "--bin",
            "cegcli",
        ])
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building cegcli failed: {status}"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    Ok(target.join("release").join("cegcli"))
}

fn run_cli(cli: &Path, args: &[&str]) -> Result<(), String> {
    let out = Command::new(cli)
        .args(args)
        .output()
        .map_err(|e| format!("cannot run {}: {e}", cli.display()))?;
    if !out.status.success() {
        return Err(format!(
            "cegcli {} failed: {}",
            args.join(" "),
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(())
}

fn io_err(what: &str, e: io::Error) -> String {
    format!("{what}: {e}")
}

/// Concatenate workload files, dropping queries isomorphic to an earlier
/// one (equal canonical hash) and capping the listed templates.
fn merge_distinct(files: &[PathBuf], caps: &[(&str, usize)]) -> Result<Vec<WorkloadQuery>, String> {
    let mut seen = HashSet::new();
    let mut kept: Vec<WorkloadQuery> = Vec::new();
    for f in files {
        for wq in load_workload(f).map_err(|e| io_err("read workload", e))? {
            let cap = caps.iter().find(|(t, _)| *t == wq.template).map(|c| c.1);
            if cap.is_some_and(|c| kept.iter().filter(|k| k.template == wq.template).count() >= c) {
                continue;
            }
            if seen.insert(wq.query.canonical_hash()) {
                kept.push(wq);
            }
        }
    }
    Ok(kept)
}

/// Seeded add/delete blocks of label-consistent edges the graph lacks:
/// each new edge joins the source of one existing `l`-edge to the target
/// of another, so it takes part in the same joins real `l`-edges do.
fn update_stream(graph: &LabeledGraph, seed: u64) -> Vec<UpdateOp> {
    let mut rng = Rng::new(seed);
    let by_label: Vec<Vec<(VertexId, VertexId)>> = (0..graph.num_labels() as LabelId)
        .map(|l| graph.edges(l).collect())
        .collect();
    let labels: Vec<LabelId> = (0..by_label.len() as LabelId)
        .filter(|&l| !by_label[l as usize].is_empty())
        .collect();
    let mut used = HashSet::new();
    let mut ops = Vec::new();
    for _ in 0..BLOCKS {
        let mut block = Vec::new();
        while block.len() < BATCH_EDGES {
            let l = labels[rng.below(labels.len())];
            let edges = &by_label[l as usize];
            let (s, _) = edges[rng.below(edges.len())];
            let (_, d) = edges[rng.below(edges.len())];
            if !graph.has_edge(s, d, l) && used.insert((s, d, l)) {
                block.push((s, d, l));
            }
        }
        for &(src, dst, label) in &block {
            ops.push(UpdateOp::Add { src, dst, label });
        }
        ops.push(UpdateOp::Commit);
        for &(src, dst, label) in &block {
            ops.push(UpdateOp::Del { src, dst, label });
        }
        ops.push(UpdateOp::Commit);
    }
    ops
}

/// Split a stream at its commit barriers (each batch ends in `Commit`).
fn split_batches(ops: Vec<UpdateOp>) -> Vec<Vec<UpdateOp>> {
    let mut batches = vec![Vec::new()];
    for op in ops {
        let end = matches!(op, UpdateOp::Commit);
        batches.last_mut().expect("never empty").push(op);
        if end {
            batches.push(Vec::new());
        }
    }
    batches.pop();
    batches
}

fn generate(cli: &Path, dir: &Path, seed: u64) -> Result<(), String> {
    let raw = dir.join("raw");
    fs::create_dir_all(&raw).map_err(|e| io_err("create work dir", e))?;
    let g = dir.join("g.edges");
    let gs = g.to_str().ok_or("non-UTF-8 work path")?;
    run_cli(cli, &["generate", "imdb", &seed.to_string(), gs])?;
    let build_pool = |sources: &[(&str, usize, u64)], caps, out: &str| -> Result<(), String> {
        let mut files = Vec::new();
        for &(wl, per, off) in sources {
            let f = raw.join(format!("{wl}-{per}-{off}.wl"));
            let fs_ = f.to_str().ok_or("non-UTF-8 work path")?;
            run_cli(
                cli,
                &[
                    "workload",
                    gs,
                    wl,
                    &per.to_string(),
                    &(seed + off).to_string(),
                    fs_,
                ],
            )?;
            files.push(f);
        }
        let pool = merge_distinct(&files, caps)?;
        save_workload(&pool, dir.join(out)).map_err(|e| io_err("write pool", e))
    };
    build_pool(HOT_SOURCES, &[], "hot.wl")?;
    build_pool(COLD_SOURCES, COLD_CAPS, "cold.wl")?;
    let hot = dir.join("hot.wl");
    let markov = dir.join("hot.markov");
    run_cli(
        cli,
        &[
            "stats",
            gs,
            hot.to_str().ok_or("bad path")?,
            &H.to_string(),
            markov.to_str().ok_or("bad path")?,
        ],
    )?;
    let graph = load_graph(&g).map_err(|e| io_err("read graph", e))?;
    save_updates(&update_stream(&graph, seed), dir.join("updates.upd"))
        .map_err(|e| io_err("write updates", e))
}

/// The in-process cold reference: a Markov table counted from scratch on
/// `graph` for exactly these queries, read by the recommended optimistic
/// estimator (non-finite estimates are unanswerable, as on the wire).
pub fn reference(graph: &LabeledGraph, queries: &[WorkloadQuery]) -> Vec<Option<f64>> {
    let qs: Vec<_> = queries.iter().map(|w| w.query.clone()).collect();
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let table = MarkovTable::build_parallel(graph, &qs, H, jobs);
    let mut est = OptimisticEstimator::recommended(&table);
    qs.iter()
        .map(|q| est.estimate(q).filter(|v| v.is_finite()))
        .collect()
}

/// The cold reference of `qs`, kept in `path` once computed. Its bytes
/// must hash to the pinned `want`, whichever checkout wrote the file: a
/// stale file is recomputed, and a reference that still differs (the
/// library's estimates changed) is refused, so every checkout is held to
/// the same estimates.
fn pinned_reference(
    path: &Path,
    graph: &LabeledGraph,
    qs: &[WorkloadQuery],
    want: u64,
) -> Result<Vec<Option<f64>>, String> {
    let text = match fs::read_to_string(path) {
        Ok(text) if fnv1a64(text.as_bytes()) == want => text,
        _ => {
            let text: String = reference(graph, qs)
                .iter()
                .map(|r| match r {
                    Some(v) => format!("{:016x}\n", v.to_bits()),
                    None => "none\n".into(),
                })
                .collect();
            let got = fnv1a64(text.as_bytes());
            if got != want {
                return Err(format!(
                    "cold reference {} hashes to {got:016x}, pinned {want:016x}: the estimates differ from the pinned ones",
                    path.display()
                ));
            }
            let tmp = path.with_extension("tmp");
            fs::write(&tmp, &text).map_err(|e| io_err("write reference", e))?;
            fs::rename(&tmp, path).map_err(|e| io_err("write reference", e))?;
            text
        }
    };
    text.lines()
        .map(|l| match l {
            "none" => Ok(None),
            hex => u64::from_str_radix(hex, 16)
                .map(|b| Some(f64::from_bits(b)))
                .map_err(|_| format!("bad line `{l}` in {}", path.display())),
        })
        .collect()
}

/// Generate (first run only), hash-check and load the inputs of one
/// pinned data seed. Inputs whose bytes differ from the pinned hashes
/// are refused: parent and change must serve identical bytes.
pub fn prepare(cli: &Path, work: &Path, data_seed: u64) -> Result<Inputs, String> {
    let pins = pinned::hashes(data_seed).ok_or_else(|| {
        format!(
            "data seed {data_seed} is not pinned (pinned: {:?})",
            pinned::DATA_SEEDS
        )
    })?;
    let dir = work.join(format!("data-{data_seed}"));
    let done = dir.join("generated");
    if !done.exists() {
        let _ = fs::remove_dir_all(&dir);
        generate(cli, &dir, data_seed)?;
        fs::write(&done, "").map_err(|e| io_err("mark inputs", e))?;
    }
    let pin = |name: &str| pins.iter().find(|p| p.0 == name).map_or(0, |p| p.1);
    let mut hashes = Vec::new();
    for &(name, want) in pins.iter().filter(|p| !p.0.ends_with(".ref")) {
        let bytes = fs::read(dir.join(name)).map_err(|e| io_err(name, e))?;
        let got = fnv1a64(&bytes);
        if got != want {
            return Err(format!(
                "input {name} of data seed {data_seed} hashes to {got:016x}, pinned {want:016x}: refusing to run on different inputs"
            ));
        }
        hashes.push((name, got));
    }
    let graph_path = dir.join("g.edges");
    let graph = load_graph(&graph_path).map_err(|e| io_err("read graph", e))?;
    let hot = load_workload(dir.join("hot.wl")).map_err(|e| io_err("read hot pool", e))?;
    let cold = load_workload(dir.join("cold.wl")).map_err(|e| io_err("read cold pool", e))?;
    let ops = load_updates(dir.join("updates.upd")).map_err(|e| io_err("read updates", e))?;
    let hot_ref = pinned_reference(&dir.join("hot.ref"), &graph, &hot, pin("hot.ref"))?;
    let cold_ref = pinned_reference(&dir.join("cold.ref"), &graph, &cold, pin("cold.ref"))?;
    hashes.extend([("hot.ref", pin("hot.ref")), ("cold.ref", pin("cold.ref"))]);
    Ok(Inputs {
        graph_path,
        markov_path: dir.join("hot.markov"),
        graph,
        hot,
        cold,
        batches: split_batches(ops),
        hot_ref,
        cold_ref,
        hashes,
    })
}
