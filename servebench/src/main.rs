//! servebench: the end-to-end serving benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path servebench/Cargo.toml -- \
//!     --workload <hot_zipf|cold_catalog|update_mix> --seed <n> --seconds <s> --trace <0|1> [--data-seed <n>]
//! ```
//!
//! Run from the repository root. It builds the release `cegcli`, makes
//! (once) and hash-checks its inputs under `.servebench-work/`, boots
//! `cegcli serve` as a child process and drives it over the wire.
//! `--seed` picks the traffic (Zipf draws, the cold list and its order);
//! `--data-seed` picks one of the pinned input sets. Every estimate is
//! checked against an in-process cold reference; a mismatch exits 1
//! without a result. The last stdout line is the JSON result: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics of an
//! in-process replay of the same stream with `--trace 1`.

mod inputs;
mod live;
mod pinned;
mod replay;
mod stats;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use cegraph::service::protocol::format_query;
use cegraph::workload::updates::final_graph;
use cegraph::workload::UpdateOp;

use inputs::Inputs;
use live::{drive, Mode, Op, Reply, Req, ServerProc};
use replay::{Setup, Step};
use stats::{median, quantile, Recorder, Rng, Zipf};

const WORK: &str = ".servebench-work";
/// Boots per run whose median is `setup_s`: warm boots on hot_zipf and
/// update_mix; on cold_catalog, extra boots besides one per round.
const SETUPS: usize = 3;
const COLD_SETUPS: usize = 32;
/// Server cache size: the `ServerConfig` default the server runs with.
const CACHE_BUCKETS: usize = 4096;
/// The latency limit a ladder rung must meet at p99.
const LIMIT_US: f64 = 1000.0;
/// Generator lateness (p99) a fixed-rate measurement may always show;
/// see [`lag`].
const LAG_LIMIT_US: f64 = 1000.0;
/// hot_zipf: fixed-rate segments, each followed by one ladder probe, and
/// the share of `--seconds` the segments take.
const PROBES: usize = 10;
const FIXED_SHARE: f64 = 0.6;
/// Fewest estimate samples a run may rest on.
const MIN_SAMPLES: usize = 1000;
/// The hot_zipf window (62.5 ms at the fixed rate) over which a quantile
/// is taken before the median across windows. A window's p99 is its
/// sixth-slowest request, so the median window's p99 stays clear of
/// pauses that recur less than about eight times a second; the pooled
/// p99 is printed beside it. Over six runs on a 2-vCPU host the p99's
/// spread (quartile distance over median) was 0.068, 0.067, 0.072,
/// 0.119, 0.614 and 0.465 with windows of 100, 200, 500, 1000, 2000 and
/// 5000 requests, and 2.79 pooled: such pauses come from the host (they
/// follow its CPU steal) about once every 125-250 ms.
const HOT_WINDOW: usize = 500;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    data_seed: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        data_seed: pinned::DATA_SEEDS[0],
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let v = it
            .next()
            .ok_or_else(|| format!("missing value after {flag}"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("bad {flag} value `{v}`"))
        };
        match flag.as_str() {
            "--workload" => a.workload = v.clone(),
            "--seed" => a.seed = num(v)?,
            "--seconds" => a.seconds = num(v)? as f64,
            "--trace" => a.trace = num(v)? == 1,
            "--data-seed" => a.data_seed = num(v)?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !["hot_zipf", "cold_catalog", "update_mix"].contains(&a.workload.as_str()) {
        return Err(format!(
            "unknown workload `{}` (hot_zipf|cold_catalog|update_mix)",
            a.workload
        ));
    }
    Ok(a)
}

/// Metrics of one run, printed as `metric <name> <value> <unit> [samples=<n>]`
/// lines; the JSON result carries the ones the mode reports.
#[derive(Default)]
struct Out {
    metrics: Vec<(String, f64, String, Option<usize>)>,
    attempted: usize,
    failed: usize,
}

impl Out {
    fn put(&mut self, name: &str, value: f64, unit: &str, samples: Option<usize>) {
        self.metrics
            .push((name.into(), value, unit.into(), samples));
    }
}

fn est_line(q: &cegraph::query::QueryGraph) -> String {
    format!("ESTIMATE default {}", format_query(q))
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Check every EST reply against `reference`; a failed reply is counted,
/// a wrong value is fatal.
fn check(log: &[Reply], reference: &[Option<f64>]) -> Result<usize, String> {
    let mut failed = 0;
    for r in log {
        if !r.ok {
            failed += 1;
            continue;
        }
        if let (Op::Est(i), Some(v)) = (r.op, r.value) {
            let want = reference[i as usize];
            if v.map(f64::to_bits) != want.map(f64::to_bits) {
                return Err(format!("query {i}: served {v:?}, cold reference {want:?}"));
            }
        }
    }
    Ok(failed)
}

fn record(log: &[Reply], only: impl Fn(Op) -> bool) -> Recorder {
    let mut rec = Recorder::default();
    for r in log.iter().filter(|r| only(r.op)) {
        rec.record(r.timing, r.ok);
    }
    rec
}

/// Latency p50 and p99 (each the median over `window`-request windows
/// of that window's quantile, so a host stall that spoils a minority of
/// windows does not move them), sample count and generator lateness of
/// the estimates in `rec`; returns the p50. Fails when the run has too
/// few samples to rest on.
fn put_latency(out: &mut Out, rec: &Recorder, window: usize) -> Result<f64, String> {
    if rec.len() < MIN_SAMPLES {
        return Err(format!(
            "only {} estimate samples, need {MIN_SAMPLES}",
            rec.len()
        ));
    }
    let p50 = rec.windowed_latency_us(0.5, window);
    out.put("est_p50_us", p50, "us", Some(rec.len()));
    let p99 = rec.windowed_latency_us(0.99, window);
    out.put("est_p99_us", p99, "us", Some(rec.len()));
    // The plain quantiles over the whole run, to compare against.
    for (name, p) in [("est_p50_pooled_us", 0.5), ("est_p99_pooled_us", 0.99)] {
        out.put(name, rec.latency_us(p), "us", Some(rec.len()));
    }
    out.put(
        "gen_late_p99_us",
        rec.windowed_late_us(0.99, window),
        "us",
        Some(rec.len()),
    );
    Ok(p50)
}

/// `Some(reason)` when the generator ran behind its schedule: later than
/// [`LAG_LIMIT_US`] at p99 and later than a quarter of the p99 latency
/// it measured. Lateness is inside every latency (requests are timed
/// from their due time), so below that it cannot be what the tail
/// measures; above it the measurement did not offer the load it claims.
fn lag(rec: &Recorder, window: usize) -> Option<String> {
    let late = rec.windowed_late_us(0.99, window);
    let limit = LAG_LIMIT_US.max(0.25 * rec.windowed_latency_us(0.99, window));
    (late > limit).then(|| {
        format!("generator lagged: p99 {late:.0} us behind schedule (limit {limit:.0} us)")
    })
}

/// Seconds from the first due time to the last reply of a phase.
fn wall_s(log: &[Reply]) -> f64 {
    log.iter().filter_map(|r| r.timing.done).max().unwrap_or(0) as f64 / 1e9
}

/// |log10 q-error| of served estimates against the pool's truth column.
fn put_qerror(out: &mut Out, log: &[Reply], pool: &[cegraph::workload::WorkloadQuery]) {
    let mut q: Vec<f64> = log
        .iter()
        .filter_map(|r| match (r.op, r.value) {
            (Op::Est(i), Some(v)) => {
                let truth = pool[i as usize].truth.max(1.0);
                Some(v.map_or(f64::INFINITY, |v| (v.max(1.0) / truth).log10().abs()))
            }
            _ => None,
        })
        .collect();
    q.sort_by(f64::total_cmp);
    out.put(
        "qerror_log10_p50",
        quantile(&q, 0.5),
        "log10",
        Some(q.len()),
    );
    out.put(
        "qerror_log10_p95",
        quantile(&q, 0.95),
        "log10",
        Some(q.len()),
    );
}

/// The hot pool in popularity order (Zipf rank 0 first). The order is
/// part of the pinned inputs, fixed by the data seed: `--seed` varies
/// the draws, not which queries are hot.
fn hot_ranks(inp: &Inputs, data_seed: u64) -> Vec<usize> {
    let mut ranks: Vec<usize> = (0..inp.hot.len()).collect();
    Rng::new(data_seed).shuffle(&mut ranks);
    ranks
}

/// Open-loop Zipf(1) estimate schedule at `rate` for `secs`, round-robin
/// over connections `conns`.
fn zipf_schedule(
    rng: &mut Rng,
    ranks: &[usize],
    lines: &[String],
    rate: f64,
    secs: f64,
    conns: &[usize],
) -> Vec<Req> {
    let z = Zipf::new(ranks.len(), 1.0);
    let n = (rate * secs) as usize;
    (0..n)
        .map(|k| {
            let i = ranks[z.draw(rng)];
            Req {
                conn: conns[k % conns.len()],
                due_ns: (k as f64 * 1e9 / rate) as u64,
                line: lines[i].clone(),
                op: Op::Est(i as u32),
            }
        })
        .collect()
}

/// Pool lines, the order to send them in, and their cold reference.
type Warm<'a> = (&'a [String], &'a [usize], &'a [Option<f64>]);

/// Boot a server and (with `warm`) send every pool query once through
/// it, returning it with the seconds that took.
fn boot(
    cli: &Path,
    args: &[String],
    warm: Option<Warm>,
    conns: usize,
) -> Result<(ServerProc, f64), String> {
    let t = Instant::now();
    let srv = ServerProc::spawn(cli, args)?;
    if let Some((lines, order, reference)) = warm {
        let queue = order
            .iter()
            .map(|&i| (lines[i].clone(), Op::Est(i as u32)))
            .collect();
        let log = drive(
            &srv.addr,
            conns,
            Mode::Closed { window: 16, queue },
            Duration::from_secs(60),
        )?;
        if check(&log, reference)? > 0 {
            return Err("warm pass had failed replies".into());
        }
    }
    Ok((srv, t.elapsed().as_secs_f64()))
}

/// Server-side figures over a run from its `before`/`after` scrapes:
/// queue-wait p99 (the server's own histogram), BUSY and TIMEOUT counts.
fn scrape_delta(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>) -> [f64; 3] {
    let get = |m: &BTreeMap<String, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
    [
        get(after, "queue_wait_p99_us"),
        get(after, "busy_total") - get(before, "busy_total"),
        get(after, "timeout_total") - get(before, "timeout_total"),
    ]
}

fn put_scrape(out: &mut Out, [queue_wait, busy, timeouts]: [f64; 3]) {
    out.put("server.queue_wait_p99_us", queue_wait, "us", None);
    out.put("server.busy_total", busy, "count", None);
    out.put("server.timeout_total", timeouts, "count", None);
}

struct Live {
    out: Out,
    client_p50_us: f64,
    warm: Vec<Step>,
    steps: Vec<Step>,
}

fn hot_zipf(cli: &Path, inp: &Inputs, lines: &[String], a: &Args) -> Result<Live, String> {
    let mut out = Out::default();
    let mut rng = Rng::new(a.seed);
    let c = nproc();
    let ranks = hot_ranks(inp, a.data_seed);
    let args: Vec<String> = vec![
        path_arg(&inp.graph_path),
        path_arg(&inp.markov_path),
        inputs::H.to_string(),
    ];
    let warm = Some((lines, &ranks[..], &inp.hot_ref[..]));
    let (srv, setups) = boot_warm(cli, &args, warm, c, None)?;
    out.put("setup_s", median(&setups), "s", Some(setups.len()));
    let before = srv.scrape()?;

    // The fixed-rate phase (latency well below saturation) runs in
    // segments interleaved with the ladder probes, so a burst of host
    // noise spoils part of each rather than all of one. The ladder is a
    // binary search for the highest rung whose p99 meets the limit with
    // no failures, no generator lag and no growing backlog; a failing
    // rung gets one more try before it counts. Probes overload the
    // server on purpose, so their failures count in the ladder verdict,
    // not in the run's `failed`.
    let conns: Vec<usize> = (0..c).collect();
    let seg_secs = a.seconds * FIXED_SHARE / PROBES as f64;
    let rung_secs = a.seconds * (1.0 - FIXED_SHARE) / PROBES as f64;
    let (mut lo, mut hi) = (None::<usize>, pinned::LADDER_RUNGS);
    let (mut log, mut reqs, mut fixed_wall) = (Vec::new(), Vec::new(), 0.0);
    let (mut failed, mut retry, mut failed_once) = (0, None, std::collections::BTreeSet::new());
    for _ in 0..PROBES {
        let seg = zipf_schedule(&mut rng, &ranks, lines, pinned::HOT_RATE, seg_secs, &conns);
        let seg_log = drive(
            &srv.addr,
            c,
            Mode::Open(seg.clone()),
            Duration::from_secs_f64(seg_secs + 10.0),
        )?;
        failed += check(&seg_log, &inp.hot_ref)?;
        fixed_wall += wall_s(&seg_log);
        log.extend(seg_log);
        reqs.extend(seg);
        let from = lo.map_or(0, |l| l + 1);
        if from >= hi {
            continue;
        }
        let k = retry.take().unwrap_or((from + hi) / 2);
        let rate = pinned::LADDER_BASE * pinned::LADDER_STEP.powi(k as i32);
        let rung = zipf_schedule(&mut rng, &ranks, lines, rate, rung_secs, &conns);
        let rung_log = drive(
            &srv.addr,
            c,
            Mode::Open(rung),
            Duration::from_secs_f64(rung_secs + 10.0),
        )?;
        let rung_failed = check(&rung_log, &inp.hot_ref)?;
        let verdict = if rung_passes(&rung_log, rung_failed) {
            lo = Some(k);
            "pass"
        } else if failed_once.insert(k) {
            retry = Some(k);
            "fail"
        } else {
            hi = k;
            "fail"
        };
        println!("ladder rung {k} ({rate:.0}/s): {verdict}, {rung_failed} failed");
    }
    let rec = record(&log, |_| true);
    if let Some(why) = lag(&rec, HOT_WINDOW) {
        return Err(why);
    }
    let client_p50_us = put_latency(&mut out, &rec, HOT_WINDOW)?;
    put_qerror(&mut out, &log, &inp.hot);
    match lo {
        Some(best) => {
            let sustained = pinned::LADDER_BASE * pinned::LADDER_STEP.powi(best as i32);
            out.put("sustained_qps", sustained, "1/s", None);
        }
        None => println!("sustained_qps unresolved: no ladder rung passed"),
    }
    let answered = log.len() - failed;
    out.put(
        "throughput_qps",
        answered as f64 / fixed_wall,
        "1/s",
        Some(answered),
    );
    put_failed(&mut out, failed, log.len());
    let after = srv.scrape()?;
    out.put("server_rss_mb", srv.peak_rss_mb()?, "MiB", None);
    srv.shutdown()?;
    put_scrape(&mut out, scrape_delta(&before, &after));
    Ok(Live {
        client_p50_us,
        warm: ranks.iter().map(|&i| Step::Est(i)).collect(),
        steps: reqs.iter().map(|r| est_step(r.op)).collect(),
        out,
    })
}

fn est_step(op: Op) -> Step {
    match op {
        Op::Est(i) => Step::Est(i as usize),
        _ => unreachable!("estimate phases send only estimates"),
    }
}

/// `failed_frac` and the JSON `attempted`/`failed` of the measured
/// requests.
fn put_failed(out: &mut Out, failed: usize, attempted: usize) {
    out.put(
        "failed_frac",
        failed as f64 / attempted as f64,
        "ratio",
        Some(attempted),
    );
    out.attempted = attempted;
    out.failed = failed;
}

/// Boot [`SETUPS`] servers one after another (each replacing the last,
/// with `data_dir` emptied first), returning the last with every boot's
/// set-up seconds.
fn boot_warm(
    cli: &Path,
    args: &[String],
    warm: Option<Warm>,
    conns: usize,
    data_dir: Option<&Path>,
) -> Result<(ServerProc, Vec<f64>), String> {
    let mut setups = Vec::new();
    let mut srv = None;
    for _ in 0..SETUPS {
        if let Some(s) = srv.take() {
            ServerProc::shutdown(s)?;
        }
        if let Some(dir) = data_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        let (s, t) = boot(cli, args, warm, conns)?;
        setups.push(t);
        srv = Some(s);
    }
    Ok((srv.expect("SETUPS > 0"), setups))
}

fn rung_passes(log: &[Reply], failed: usize) -> bool {
    let rec = record(log, |_| true);
    let n = log.len();
    let (p99, late) = (
        rec.windowed_latency_us(0.99, MIN_SAMPLES),
        rec.windowed_late_us(0.99, MIN_SAMPLES),
    );
    if failed > 0 || p99 > LIMIT_US || late > LIMIT_US || n < 4 {
        return false;
    }
    // A growing backlog shows as the last quarter waiting much longer
    // than the first.
    let quarter = |part: &[Reply]| record(part, |_| true).latency_us(0.5);
    quarter(&log[3 * n / 4..]) <= 2.0 * quarter(&log[..n / 4]) + 200.0
}

fn path_arg(p: &Path) -> String {
    p.to_str().expect("UTF-8 work path").to_string()
}

/// The cold list: every query of the cold pool but two of its three
/// `star-12`, in a seeded order, so every seed sends the same work. A
/// single cold `star-12` spends over a second in CEG_O build; with one
/// per list the peak memory of a round does not hinge on whether two of
/// them landed on different server workers. The heavy stars (the
/// `star-12` first, then the ten `star-9`) are spread evenly through the
/// list, so the p99 of a round (its eleventh-slowest request) falls
/// among them and the requests they hold up.
fn cold_list(inp: &Inputs, seed: u64) -> Vec<usize> {
    let mut rng = Rng::new(seed);
    let mut by_template: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, wq) in inp.cold.iter().enumerate() {
        by_template.entry(wq.template.as_str()).or_default().push(i);
    }
    let (mut list, mut heavy, mut star12) = (Vec::new(), Vec::new(), Vec::new());
    for (t, ids) in by_template {
        match t {
            "star-12" => star12.extend(ids.into_iter().take(1)),
            "star-9" => heavy.extend(ids),
            _ => list.extend(ids),
        }
    }
    rng.shuffle(&mut list);
    heavy.splice(0..0, star12);
    let gap = list.len() / heavy.len() + 1;
    for (k, h) in heavy.into_iter().enumerate() {
        list.insert(k * gap + gap / 2, h);
    }
    list
}

fn cold_catalog(cli: &Path, inp: &Inputs, lines: &[String], a: &Args) -> Result<Live, String> {
    let mut out = Out::default();
    let list = cold_list(inp, a.seed);
    let c = nproc();
    let args: Vec<String> = vec![path_arg(&inp.graph_path), "-".into(), inputs::H.to_string()];
    let (mut setups, mut rss, mut rates, mut timed) = (Vec::new(), Vec::new(), Vec::new(), 0.0);
    // A cold boot takes milliseconds, so extra boots steady its median at
    // little cost.
    for _ in 0..COLD_SETUPS {
        let (srv, setup) = boot(cli, &args, None, c)?;
        srv.shutdown()?;
        setups.push(setup);
    }
    let mut all: Vec<Reply> = Vec::new();
    let mut server = [0.0f64; 3];
    // Every round boots a fresh server with an empty catalog and sends
    // each listed query once; rounds repeat until the time is used and
    // the samples are enough.
    while timed < a.seconds || all.len() < MIN_SAMPLES {
        let (srv, setup) = boot(cli, &args, None, c)?;
        let before = srv.scrape()?;
        let queue = list
            .iter()
            .map(|&i| (lines[i].clone(), Op::Est(i as u32)))
            .collect();
        let log = drive(
            &srv.addr,
            c,
            Mode::Closed { window: 1, queue },
            Duration::from_secs(120),
        )?;
        let after = srv.scrape()?;
        rss.push(srv.peak_rss_mb()?);
        srv.shutdown()?;
        check(&log, &inp.cold_ref)?;
        setups.push(setup);
        let wall = wall_s(&log);
        rates.push(log.iter().filter(|r| r.ok).count() as f64 / wall);
        timed += wall;
        let [queue_wait, busy, timeouts] = scrape_delta(&before, &after);
        server = [
            server[0].max(queue_wait),
            server[1] + busy,
            server[2] + timeouts,
        ];
        all.extend(log);
    }
    out.put("setup_s", median(&setups), "s", Some(setups.len()));
    let rec = record(&all, |_| true);
    // Each round is one p99 window: every round holds the same heavy
    // queries, so each window's tail is drawn from the same mix.
    let client_p50_us = put_latency(&mut out, &rec, list.len())?;
    // Like the tail, the rate is taken per round, then the median.
    let answered = all.iter().filter(|r| r.ok).count();
    out.put("throughput_qps", median(&rates), "1/s", Some(answered));
    put_failed(&mut out, all.len() - answered, all.len());
    put_qerror(&mut out, &all, &inp.cold);
    out.put("server_rss_mb", median(&rss), "MiB", Some(rss.len()));
    put_scrape(&mut out, server);
    Ok(Live {
        client_p50_us,
        warm: Vec::new(),
        steps: list.iter().map(|&i| Step::Est(i)).collect(),
        out,
    })
}

fn update_lines(batch: &[UpdateOp]) -> Vec<(String, Op)> {
    batch
        .iter()
        .map(|op| match *op {
            UpdateOp::Add { src, dst, label } => {
                (format!("ADD_EDGE default {src} {dst} {label}"), Op::Update)
            }
            UpdateOp::Del { src, dst, label } => {
                (format!("DEL_EDGE default {src} {dst} {label}"), Op::Update)
            }
            UpdateOp::Commit => ("COMMIT default".to_string(), Op::Commit),
        })
        .collect()
}

/// Send write batch `b` (its updates, then `COMMIT`) on one connection,
/// each request waiting for the last; returns the `COMMIT` reply.
fn write_batch(srv: &ServerProc, inp: &Inputs, b: usize) -> Result<Reply, String> {
    let queue = update_lines(&inp.batches[b]);
    let log = drive(
        &srv.addr,
        1,
        Mode::Closed { window: 1, queue },
        Duration::from_secs(60),
    )?;
    match log.last() {
        Some(r) if log.iter().all(|r| r.ok) => Ok(r.clone()),
        _ => Err(format!(
            "write batch {b} failed; the server's state is unknown"
        )),
    }
}

/// The graph after write batch `b` of a stream applied in order from the
/// boot graph (`None`: the boot graph itself, since every delete batch
/// undoes the add batch before it).
fn graph_after(inp: &Inputs, b: usize) -> Option<cegraph::graph::LabeledGraph> {
    b.is_multiple_of(2)
        .then(|| final_graph(&inp.graph, &inp.batches[b]))
}

fn update_mix(
    cli: &Path,
    inp: &Inputs,
    lines: &[String],
    a: &Args,
    data_dir: &Path,
) -> Result<Live, String> {
    let mut out = Out::default();
    let mut rng = Rng::new(a.seed);
    let c = nproc();
    let ranks = hot_ranks(inp, a.data_seed);
    let args: Vec<String> = vec![
        path_arg(&inp.graph_path),
        path_arg(&inp.markov_path),
        inputs::H.to_string(),
        "--data-dir".into(),
        path_arg(data_dir),
    ];
    let warm = Some((lines, &ranks[..], &inp.hot_ref[..]));
    let (srv, setups) = boot_warm(cli, &args, warm, c, Some(data_dir))?;
    out.put("setup_s", median(&setups), "s", Some(setups.len()));
    let before = srv.scrape()?;

    // Cycles, each waiting for the last: one write batch of the pinned
    // stream (adds and deletes alternate, so the graph stays level), then
    // every query of the working set (the hottest of the hot pool) once,
    // in a seeded order, closed loop on every connection. The commit
    // recounts the catalog and stales every cached estimate, so each
    // read rebuilds its estimate from the recounted catalog.
    let working = &ranks[..pinned::UPDATE_POOL];
    let (mut commits, mut cycles, mut steps, mut wall) = (Vec::new(), Vec::new(), Vec::new(), 0.0);
    while wall < a.seconds || cycles.len() * working.len() < MIN_SAMPLES {
        let b = cycles.len() % inp.batches.len();
        let t = Instant::now();
        commits.push(write_batch(&srv, inp, b)?);
        let mut order = working.to_vec();
        rng.shuffle(&mut order);
        let queue = order
            .iter()
            .map(|&i| (lines[i].clone(), Op::Est(i as u32)))
            .collect();
        let log = drive(
            &srv.addr,
            c,
            Mode::Closed { window: 1, queue },
            Duration::from_secs(60),
        )?;
        wall += t.elapsed().as_secs_f64();
        steps.push(Step::Write(b));
        steps.extend(order.iter().map(|&i| Step::Est(i)));
        cycles.push(log);
    }
    let after = srv.scrape()?;

    // Every read must equal a cold rebuild on the graph its cycle's
    // commit left: the boot graph after a delete batch, the boot graph
    // plus one block after an add batch.
    let queries: Vec<_> = working.iter().map(|&i| inp.hot[i].clone()).collect();
    let mut reference = inp.hot_ref.clone();
    for (b, log) in cycles.iter().enumerate() {
        match graph_after(inp, b % inp.batches.len()) {
            Some(g) => {
                for (&i, v) in working.iter().zip(inputs::reference(&g, &queries)) {
                    reference[i] = v;
                }
            }
            None => reference.clone_from(&inp.hot_ref),
        }
        check(log, &reference)?;
    }
    // After the last cycle, end on an add batch and serve the whole pool:
    // the entries cached by the warm pass and never read since must
    // follow the commits too.
    let mut last = cycles.len() - 1;
    if graph_after(inp, last % inp.batches.len()).is_none() {
        last += 1;
        write_batch(&srv, inp, last % inp.batches.len())?;
    }
    let final_g = graph_after(inp, last % inp.batches.len()).expect("an add batch");
    let final_ref = inputs::reference(&final_g, &inp.hot);
    let queue = ranks
        .iter()
        .map(|&i| (lines[i].clone(), Op::Est(i as u32)))
        .collect();
    let verify = drive(
        &srv.addr,
        c,
        Mode::Closed { window: 16, queue },
        Duration::from_secs(60),
    )?;
    if check(&verify, &final_ref)? > 0 {
        return Err("verification pass had failed replies".into());
    }
    out.put("server_rss_mb", srv.peak_rss_mb()?, "MiB", None);
    srv.shutdown()?;

    let reads: Vec<Reply> = cycles.into_iter().flatten().collect();
    // One window per cycle: the p99 is the median over cycles of each
    // cycle's tail, so one slow cycle does not set it.
    let client_p50_us = put_latency(&mut out, &record(&reads, |_| true), working.len())?;
    let commits = record(&commits, |_| true);
    for (name, p) in [("commit_p50_us", 0.5), ("commit_p99_us", 0.99)] {
        out.put(name, commits.latency_us(p), "us", Some(commits.len()));
    }
    let answered = reads.iter().filter(|r| r.ok).count();
    out.put(
        "throughput_qps",
        answered as f64 / wall,
        "1/s",
        Some(answered),
    );
    put_failed(&mut out, reads.len() - answered, reads.len());
    put_scrape(&mut out, scrape_delta(&before, &after));
    Ok(Live {
        client_p50_us,
        warm: ranks.iter().map(|&i| Step::Est(i)).collect(),
        steps,
        out,
    })
}

/// The `--trace 1` half: replay the live run's stream in-process.
fn traced(
    inp: &Inputs,
    lines: &[String],
    a: &Args,
    live: &Live,
    work: &Path,
) -> Result<Vec<(String, f64, &'static str)>, String> {
    let setup = Setup {
        graph: &inp.graph_path,
        markov: (a.workload != "cold_catalog").then_some(inp.markov_path.as_path()),
        lines,
        batches: &inp.batches,
        data_dir: (a.workload == "update_mix").then(|| work.join("replay-data")),
        cache_capacity: CACHE_BUCKETS,
    };
    let loads: Vec<f64> = (0..3)
        .map(|_| replay::load_seconds(&setup))
        .collect::<Result<_, _>>()?;
    let engine = replay::engine_pass(&setup, &live.warm, &live.steps)?;
    let layers = replay::layer_pass(&setup, &live.warm, &live.steps)?;
    // The two passes must agree with each other, and with the cold
    // reference wherever the graph is still the boot graph.
    if engine
        .values
        .iter()
        .map(|v| v.map(f64::to_bits))
        .ne(layers.values.iter().map(|v| v.map(f64::to_bits)))
    {
        return Err("engine and layer replays disagree".into());
    }
    if a.workload != "update_mix" {
        let reference = if a.workload == "hot_zipf" {
            &inp.hot_ref
        } else {
            &inp.cold_ref
        };
        let est = live.steps.iter().filter_map(|s| match s {
            Step::Est(i) => Some(reference[*i]),
            Step::Write(_) => None,
        });
        if est
            .map(|v| v.map(f64::to_bits))
            .ne(layers.values.iter().map(|v| v.map(f64::to_bits)))
        {
            return Err("replayed estimates differ from the cold reference".into());
        }
    }
    let mut m = layers.metrics();
    let sum = layers.p50_sum_us();
    let residual = live.client_p50_us - sum;
    m.push(("registry.load_s".into(), median(&loads), "s"));
    m.push(("engine.batch_us".into(), median(&engine.batch_us), "us"));
    m.push(("recon.client_est_p50_us".into(), live.client_p50_us, "us"));
    m.push(("recon.layers_p50_sum_us".into(), sum, "us"));
    m.push(("wire.residual_us".into(), residual, "us"));
    m.push((
        "share.wire_of_client_p50".into(),
        residual / live.client_p50_us,
        "ratio",
    ));
    m.push((
        "trace.overhead_ratio".into(),
        layers.wall_s / engine.wall_s,
        "ratio",
    ));
    Ok(m)
}

fn run() -> Result<(), String> {
    let a = parse_args()?;
    let cli = inputs::build_cegcli()?;
    let work = PathBuf::from(WORK);
    let inp = inputs::prepare(&cli, &work, a.data_seed)?;
    for (name, h) in &inp.hashes {
        println!("input {name} fnv1a64={h:016x}");
    }
    println!(
        "host nproc={} workload={} seed={} data_seed={} seconds={} trace={}",
        nproc(),
        a.workload,
        a.seed,
        a.data_seed,
        a.seconds,
        a.trace as u8
    );
    let data_dir = work.join("serve-data");
    let ticks = live::cpu_ticks()?;
    let (pool, mut live) = match a.workload.as_str() {
        "hot_zipf" => {
            let lines: Vec<String> = inp.hot.iter().map(|w| est_line(&w.query)).collect();
            let live = hot_zipf(&cli, &inp, &lines, &a)?;
            (lines, live)
        }
        "cold_catalog" => {
            let lines: Vec<String> = inp.cold.iter().map(|w| est_line(&w.query)).collect();
            let live = cold_catalog(&cli, &inp, &lines, &a)?;
            (lines, live)
        }
        _ => {
            let lines: Vec<String> = inp.hot.iter().map(|w| est_line(&w.query)).collect();
            println!(
                "flush policy: WAL fsync before every COMMIT ack, data dir {}",
                data_dir.display()
            );
            let live = update_mix(&cli, &inp, &lines, &a, &data_dir)?;
            (lines, live)
        }
    };
    let _ = std::fs::remove_dir_all(&data_dir);
    // Not a filter: how noisy the host was, to read the figures by.
    let stolen = live::steal_since(ticks)?;
    live.out.put("host_steal_frac", stolen, "ratio", None);
    for (name, value, unit, samples) in &live.out.metrics {
        let n = samples.map(|n| format!(" samples={n}")).unwrap_or_default();
        println!("metric {name} {value} {unit}{n}");
    }
    let reported: Vec<(String, f64, String)> = if a.trace {
        let m = traced(&inp, &pool, &a, &live, &work)?;
        let _ = std::fs::remove_dir_all(work.join("replay-data"));
        let mut all: Vec<(String, f64, String)> = live
            .out
            .metrics
            .iter()
            .filter(|(n, ..)| n.starts_with("server.") || n == "gen_late_p99_us")
            .map(|(n, v, u, _)| (n.replace("gen_late", "gen.late"), *v, u.clone()))
            .collect();
        all.extend(m.into_iter().map(|(n, v, u)| (n, v, u.to_string())));
        for (n, v, u) in &all {
            println!("layer {n} {v} {u}");
        }
        all
    } else {
        const E2E: [&str; 5] = [
            "setup_s",
            "est_p50_us",
            "est_p99_us",
            "throughput_qps",
            "server_rss_mb",
        ];
        E2E.iter()
            .map(|&n| {
                let (_, v, u, _) = live
                    .out
                    .metrics
                    .iter()
                    .find(|m| m.0 == n)
                    .expect("every workload reports it");
                (n.to_string(), *v, u.clone())
            })
            .collect()
    };
    if let Some((n, v, _)) = reported.iter().find(|m| !m.1.is_finite()) {
        return Err(format!("{n} is {v}: failed requests reach that quantile"));
    }
    let body: Vec<String> = reported
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        live.out.attempted,
        live.out.failed,
        body.join(", ")
    );
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("servebench: {e}");
        std::process::exit(1);
    }
}
