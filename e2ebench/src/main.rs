//! `e2ebench` — the release-and-serving benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload us_interactive|brazil_bulk --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. It builds the shipped `dpcopula-cli`
//! and `dpcopula-serve` binaries, generates every input from `--seed`
//! with `dpcopula-cli gen`, and measures:
//!
//! 1. set-up: inputs, served-model fits, daemon spawn, one warm request
//!    per served model (repeated three times; the median is reported);
//! 2. at least 15 rounds, each running once, in order:
//!    - `release`: CLI `fit`, `fit-shard`×4 + `merge`, the fast export
//!      and the reference export;
//!    - a `read_light` slice: open-loop `/v1/sample` at a fixed rate;
//!    - a `read_closed` slice: closed-loop `/v1/sample` on two
//!      connections;
//!    - a `mixed` slice: the light read stream beside back-to-back
//!      `/v1/fit`s.
//!
//! Every output is checked against the library in process. With
//! `--trace 0` the last stdout line is the JSON result with the
//! end-to-end metrics; with `--trace 1` the run has 5 rounds with spans
//! on, then the run's own inputs are replayed through each layer's
//! public functions and the per-layer metrics are printed.
//! `CONTRACT.md` says what each metric predicts and what is not gated.

mod client;
mod layers;
mod procs;
mod stats;
mod trace;
mod workload;

use client::{request, run_lane, Conn, Lane, Pace, Prepared, Shot};
use procs::{args, run_ok, run_step, Daemon, StepRun};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::{Window, Workload, FIT_EPSILON, TENANT_EPSILON};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Minimum rounds of an untraced run: each round times every release
/// step once and at least one fit.
const MIN_OPS: usize = 15;
/// Rounds of the traced run.
const TRACED_ROUNDS: usize = 5;
/// Length of each serve slice, as a share of `--seconds`.
const SLICE_SHARE: f64 = 1.0 / 90.0;
/// Worker threads of every CLI step.
const CLI_WORKERS: &str = "2";
/// Shards of the distributed fit.
const SHARDS: usize = 4;
/// Alternating traced and untraced bursts of the overhead probe.
const OVERHEAD_BURSTS: usize = 6;
/// Closed-loop reads per overhead burst.
const OVERHEAD_PER_BURST: usize = 40;
/// Socket timeout of the load generator; a slower answer fails.
const TIMEOUT: Duration = Duration::from_secs(10);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| -> Result<&str, String> {
        raw.iter()
            .position(|a| a == name)
            .and_then(|i| raw.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {name}"))
    };
    let name = get("--workload")?;
    let workload = Workload::named(name)
        .ok_or_else(|| format!("unknown workload `{name}` (us_interactive, brazil_bulk)"))?;
    let seed = get("--seed")?
        .parse()
        .map_err(|_| "--seed must be an unsigned integer".to_string())?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number".to_string())?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let root = match std::env::current_dir() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: no working directory: {e}");
            return ExitCode::from(2);
        }
    };
    let work =
        root.join(".bench_work")
            .join(format!("{}-{}", args.workload.name, std::process::id()));
    let outcome = run(&args, &root, &work);
    let _ = std::fs::remove_dir_all(&work);
    match outcome {
        Ok(report) => {
            print!("{}", report.render());
            if report.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One printed metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// Timed operations behind the value.
    n: usize,
    /// In-run quartile spread over the median, when there is a sample.
    spread: Option<f64>,
}

/// Everything a run prints.
#[derive(Default)]
struct Report {
    provenance: Vec<String>,
    gates: Vec<(String, bool, String)>,
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
}

impl Report {
    fn gate(&mut self, name: &str, pass: bool, detail: String) {
        if !pass {
            self.failed += 1;
        }
        self.gates.push((name.to_string(), pass, detail));
    }

    /// A metric made from per-operation values: their median.
    fn median_of(&mut self, name: &str, unit: &'static str, values: &[f64]) {
        self.metrics.push(Metric {
            name: name.into(),
            value: stats::median(values),
            unit,
            n: values.len(),
            spread: Some(stats::spread(values)),
        });
    }

    fn value(&mut self, name: &str, unit: &'static str, value: f64, n: usize) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            n,
            spread: None,
        });
    }

    fn render(&self) -> String {
        let mut out = String::new();
        for p in &self.provenance {
            let _ = writeln!(out, "# {p}");
        }
        for (name, pass, detail) in &self.gates {
            let verdict = if *pass { "pass" } else { "FAIL" };
            let _ = writeln!(out, "# gate {name}: {verdict} ({detail})");
        }
        let _ = writeln!(
            out,
            "{:<44} {:>16} {:<8} {:>7} {:>8}",
            "metric", "value", "unit", "n", "spread"
        );
        for m in &self.metrics {
            let spread = m
                .spread
                .map_or("-".into(), |s| format!("{:.2}%", s * 100.0));
            let _ = writeln!(
                out,
                "{:<44} {:>16.6} {:<8} {:>7} {:>8}",
                m.name, m.value, m.unit, m.n, spread
            );
        }
        let mut json = String::new();
        let _ = write!(
            json,
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                json,
                "{sep}\"{}\":{{\"value\":{value:?},\"unit\":\"{}\"}}",
                m.name, m.unit
            );
        }
        json.push_str("}}");
        let _ = writeln!(out, "{json}");
        out
    }
}

/// Paths and binaries of one run.
struct Ctx<'a> {
    args: &'a Args,
    w: &'a Workload,
    cli: PathBuf,
    serve: PathBuf,
    tracer: Option<Tracer>,
}

impl Ctx<'_> {
    fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// Runs a CLI step, inside a span when tracing.
    fn step(
        &self,
        name: &'static str,
        parent: u64,
        request: u64,
        args: &[String],
    ) -> Result<StepRun, String> {
        let start = Instant::now();
        let run = run_step(&self.cli, args).map_err(|e| format!("spawning the CLI: {e}"))?;
        if let Some(t) = self.tracer() {
            t.record(name, parent, request, start, start + run.wall);
        }
        Ok(run)
    }
}

/// One set-up's products.
struct Setup {
    dir: PathBuf,
    daemon: Daemon,
    elapsed: f64,
}

impl Setup {
    fn path(&self, rel: &str) -> String {
        self.dir.join(rel).display().to_string()
    }
}

fn run(args: &Args, root: &Path, work: &Path) -> Result<Report, String> {
    if !root.join("crates/cli/Cargo.toml").is_file() {
        return Err(format!(
            "{} is not the repository root (no crates/cli/Cargo.toml)",
            root.display()
        ));
    }
    let bins = procs::build_binaries(root)?;
    let _ = std::fs::remove_dir_all(work);
    std::fs::create_dir_all(work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    let w = &args.workload;
    let ctx = Ctx {
        args,
        w,
        cli: bins.join("dpcopula-cli"),
        serve: bins.join("dpcopula-serve"),
        tracer: args.trace.then(Tracer::new),
    };
    let jiffies_before = procs::cpu_jiffies();
    let mut report = Report::default();

    // Set-up, repeated; the last one's daemon and files serve the run.
    let reps = if args.trace { 1 } else { SETUPS };
    let mut setup_times = Vec::new();
    let mut setup = None;
    for k in 0..reps {
        drop(setup.take());
        let s = set_up(&ctx, &work.join(format!("setup{k}")))?;
        setup_times.push(s.elapsed);
        setup = Some(s);
    }
    let setup = setup.expect("at least one set-up ran");
    if !args.trace {
        report.median_of("setup_s", "s", &setup_times);
    }

    let windows = w.windows(args.seed);
    let reads = w.read_requests(&windows, args.seed);
    let fits = w.fit_requests(&w.fit_tables(args.seed), args.seed);
    let (rounds, serve) = measure(&ctx, &setup, &reads, &fits, &mut report)?;
    let overhead = args
        .trace
        .then(|| trace_overhead(&ctx, &setup, &reads))
        .transpose()?;
    let daemon_rss_mb = setup
        .daemon
        .peak_rss_kib()
        .ok_or("reading the daemon's VmHWM")? as f64
        / 1024.0;
    if !args.trace {
        let reads = serve.light.len() + serve.closed.len() + serve.mixed_reads.len();
        report.value(
            "serve.peak_rss_mb",
            "MB",
            daemon_rss_mb,
            reads + serve.fits.len(),
        );
    }
    let daemon_flags = setup.daemon.flags.join(" ");

    gates(&ctx, &setup, &windows, &serve, &mut report)?;
    let steal = steal_share(jiffies_before, procs::cpu_jiffies());

    if let Some(tracer) = ctx.tracer() {
        let Setup { dir, daemon, .. } = setup;
        // The replay runs alone: the daemon would compete for the cores.
        drop(daemon);
        let inputs = layers::Inputs {
            w,
            seed: args.seed,
            dir: &dir,
            windows: &windows,
            sample_request: &reads
                .iter()
                .zip(&windows)
                .find(|(_, win)| win.csv)
                .expect("every stream has a CSV read")
                .0
                .bytes,
            fit_request: &fits[0].bytes,
        };
        let replay = layers::replay(&inputs, tracer)?;
        per_layer(
            &mut report,
            &replay,
            &rounds,
            &serve,
            overhead.unwrap_or(0.0),
        );
        report.value("host.cpu_steal_pct", "%", steal * 100.0, 1);
        report.value("trace.spans", "count", tracer.spans().len() as f64, 1);
        report.value("trace.record_ns", "ns", layers::span_record_ns(), 1);
        let file = root
            .join(".bench_work")
            .join(format!("trace-{}.jsonl", w.name));
        tracer
            .write_jsonl(&file)
            .map_err(|e| format!("writing {}: {e}", file.display()))?;
        report
            .provenance
            .push(format!("spans written to {}", file.display()));
    }
    report
        .provenance
        .insert(0, provenance(&ctx, root, steal, &daemon_flags));
    Ok(report)
}

fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}

fn provenance(ctx: &Ctx, root: &Path, steal: f64, daemon_flags: &str) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "e2ebench workload {} seed {} seconds {} trace {} | nproc {nproc} | cpu {} | \
         cpu steal {:.2}% over the run | commit {} | build profile release | \
         cli --workers {CLI_WORKERS} | daemon {}",
        ctx.w.name,
        ctx.args.seed,
        ctx.args.seconds,
        u8::from(ctx.args.trace),
        procs::cpu_model(),
        steal * 100.0,
        procs::git_commit(root),
        daemon_flags,
    )
}

/// Generates the inputs, fits the served models, splits the training
/// CSV into the shard parts, starts the daemon and warms every model.
fn set_up(ctx: &Ctx, dir: &Path) -> Result<Setup, String> {
    let w = ctx.w;
    let seed = ctx.args.seed;
    let start = Instant::now();
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir.join("models")).map_err(|e| e.to_string())?;
    std::fs::create_dir_all(dir.join("release")).map_err(|e| e.to_string())?;
    let p = |rel: &str| dir.join(rel).display().to_string();
    let gen = |out: &str, rows: usize, s: u64| {
        run_ok(
            &ctx.cli,
            &args(&[
                "gen",
                "--out",
                &p(out),
                "--dataset",
                w.dataset,
                "--records",
                &rows.to_string(),
                "--seed",
                &s.to_string(),
            ]),
        )
    };
    gen("train.csv", w.train_rows, seed)?;
    gen("served.csv", w.served_rows, seed.wrapping_add(1))?;
    for (k, id) in w.model_ids().iter().enumerate() {
        run_ok(
            &ctx.cli,
            &args(&[
                "fit",
                "--input",
                &p("served.csv"),
                "--out",
                &p(&format!("models/{id}.dpcm")),
                "--seed",
                &seed.wrapping_add(100 + k as u64).to_string(),
                "--workers",
                CLI_WORKERS,
            ]),
        )?;
    }
    split_parts(&dir.join("train.csv"), dir, w.train_rows)?;
    let flags = args(&[
        "--model-dir",
        &p("models"),
        "--addr",
        "127.0.0.1:0",
        "--pool",
        "2",
        "--cache-cap",
        &w.cache_cap.to_string(),
        "--default-epsilon",
        &TENANT_EPSILON.to_string(),
    ]);
    let daemon = Daemon::spawn(&ctx.serve, flags)?;
    let mut conn = Conn::open(daemon.addr, TIMEOUT).map_err(|e| format!("warm-up: {e}"))?;
    for id in w.model_ids() {
        let win = Window {
            model: id,
            offset: 1,
            rows: w.read_rows,
            profile: w.read_profile,
            csv: true,
        };
        let body = workload::sample_body(&win);
        let reply = conn
            .exchange(&request(
                "POST",
                "/v1/sample",
                "application/json",
                body.as_bytes(),
            ))
            .map_err(|e| format!("warm-up: {e}"))?;
        if reply.status != 200 {
            return Err(format!("warm-up answered {}", reply.status));
        }
    }
    Ok(Setup {
        dir: dir.to_path_buf(),
        daemon,
        elapsed: start.elapsed().as_secs_f64(),
    })
}

/// Splits `train.csv` into `part{i}.csv` at the balanced contiguous
/// shard boundaries (the first `rows % SHARDS` parts take one extra
/// row), each part with the header line.
fn split_parts(train: &Path, dir: &Path, rows: usize) -> Result<(), String> {
    let bytes = std::fs::read(train).map_err(|e| format!("reading {}: {e}", train.display()))?;
    let header_end = bytes.iter().position(|&b| b == b'\n').ok_or("empty CSV")? + 1;
    let mut cursor = header_end;
    let mut lines = bytes[header_end..]
        .iter()
        .enumerate()
        .filter(|(_, &b)| b == b'\n')
        .map(|(i, _)| header_end + i + 1);
    for i in 0..SHARDS {
        let take = rows / SHARDS + usize::from(i < rows % SHARDS);
        let end = lines.nth(take - 1).ok_or("training CSV has too few rows")?;
        let mut part = bytes[..header_end].to_vec();
        part.extend_from_slice(&bytes[cursor..end]);
        let path = dir.join(format!("part{i}.csv"));
        std::fs::write(&path, part).map_err(|e| format!("writing {}: {e}", path.display()))?;
        cursor = end;
    }
    Ok(())
}

/// CLI walls of the release steps, one entry per round.
#[derive(Default)]
struct Rounds {
    fit: Vec<f64>,
    distfit: Vec<f64>,
    /// CPU time of the `fit-shard` children plus `merge`.
    distfit_cpu: Vec<f64>,
    export_fast: Vec<f64>,
    export_reference: Vec<f64>,
    /// Largest per-child peak resident set, KiB.
    peak_kib: u64,
    /// CLI children run.
    steps: usize,
}

/// The argument lists of one release round.
struct ReleaseCmds {
    fit: Vec<String>,
    shards: Vec<Vec<String>>,
    merge: Vec<String>,
    fast: Vec<String>,
    reference: Vec<String>,
}

impl ReleaseCmds {
    fn new(ctx: &Ctx, s: &Setup) -> Self {
        let w = ctx.w;
        let seed = ctx.args.seed.to_string();
        let total = w.train_rows.to_string();
        let shards = (0..SHARDS)
            .map(|i| {
                args(&[
                    "fit-shard",
                    "--input",
                    &s.path(&format!("part{i}.csv")),
                    "--out",
                    &s.path(&format!("release/part{i}.dpcs")),
                    "--shard-index",
                    &i.to_string(),
                    "--shards",
                    &SHARDS.to_string(),
                    "--total-rows",
                    &total,
                    "--seed",
                    &seed,
                    "--workers",
                    CLI_WORKERS,
                ])
            })
            .collect();
        let mut merge = vec!["merge".to_string()];
        merge.extend((0..SHARDS).map(|i| s.path(&format!("release/part{i}.dpcs"))));
        merge.extend(args(&[
            "--out",
            &s.path("release/merged.dpcm"),
            "--workers",
            CLI_WORKERS,
        ]));
        let export = |profile: &str, rows: usize| {
            args(&[
                "sample",
                "--model",
                &s.path("release/fit.dpcm"),
                "--out",
                &s.path(&format!("release/{profile}.csv")),
                "--rows",
                &rows.to_string(),
                "--profile",
                profile,
                "--workers",
                CLI_WORKERS,
            ])
        };
        Self {
            fit: args(&[
                "fit",
                "--input",
                &s.path("train.csv"),
                "--out",
                &s.path("release/fit.dpcm"),
                "--seed",
                &seed,
                "--workers",
                CLI_WORKERS,
            ]),
            shards,
            merge,
            fast: export("fast", w.fast_rows),
            reference: export("reference", w.reference_rows),
        }
    }
}

/// One release round: `fit`, `fit-shard`×4 + `merge`, the fast export
/// and the reference export, each once. The exports sample the model
/// this round's `fit` wrote.
fn release_round(
    ctx: &Ctx,
    cmds: &ReleaseCmds,
    round: u64,
    rounds: &mut Rounds,
    report: &mut Report,
) -> Result<(), String> {
    let start = Instant::now();
    let parent = ctx.tracer().map_or(0, Tracer::next_id);
    let fit = ctx.step("cli.fit", parent, round, &cmds.fit)?;
    let mut runs = vec![fit];
    let (mut distfit, mut distfit_cpu) = (0.0, 0.0);
    for shard in &cmds.shards {
        let r = ctx.step("cli.fit_shard", parent, round, shard)?;
        distfit += r.wall.as_secs_f64();
        distfit_cpu += r.cpu.as_secs_f64();
        runs.push(r);
    }
    let merge = ctx.step("cli.merge", parent, round, &cmds.merge)?;
    distfit += merge.wall.as_secs_f64();
    distfit_cpu += merge.cpu.as_secs_f64();
    let fast = ctx.step("cli.export_fast", parent, round, &cmds.fast)?;
    let reference = ctx.step("cli.export_reference", parent, round, &cmds.reference)?;
    runs.extend([merge, fast, reference]);
    rounds.fit.push(fit.wall.as_secs_f64());
    rounds.distfit.push(distfit);
    rounds.distfit_cpu.push(distfit_cpu);
    rounds.export_fast.push(fast.wall.as_secs_f64());
    rounds.export_reference.push(reference.wall.as_secs_f64());
    for r in &runs {
        rounds.steps += 1;
        rounds.peak_kib = rounds.peak_kib.max(r.max_rss_kib);
        report.attempted += 1;
        report.failed += u64::from(!r.ok);
    }
    if let Some(t) = ctx.tracer() {
        t.record_as(parent, "release.round", 0, round, start, Instant::now());
    }
    Ok(())
}

/// Summed Prometheus series of one `/metrics` scrape.
struct Scrape(Vec<(String, f64)>);

impl Scrape {
    fn take(addr: std::net::SocketAddr) -> Result<Self, String> {
        let reply = Conn::open(addr, TIMEOUT)
            .and_then(|mut c| c.exchange(&request("GET", "/metrics", "text/plain", b"")))
            .map_err(|e| format!("scraping /metrics: {e}"))?;
        if reply.status != 200 {
            return Err(format!("/metrics answered {}", reply.status));
        }
        let text = String::from_utf8_lossy(&reply.body);
        Ok(Self(
            text.lines()
                .filter(|l| !l.starts_with('#'))
                .filter_map(|l| {
                    let (series, value) = l.rsplit_once(' ')?;
                    Some((series.to_string(), value.parse().ok()?))
                })
                .collect(),
        ))
    }

    /// Sum of every series of `name` whose labels contain `label`.
    fn sum(&self, name: &str, label: &str) -> f64 {
        self.0
            .iter()
            .filter(|(series, _)| {
                let base = series.split('{').next().unwrap_or("");
                base == name && series.contains(label)
            })
            .map(|(_, v)| v)
            .sum()
    }

    fn requests(&self) -> f64 {
        self.sum("serve_requests_total", "endpoint=\"sample\"")
            + self.sum("serve_requests_total", "endpoint=\"fit\"")
    }
}

/// Daemon counters whose per-phase difference is reported.
const COUNTERS: [(&str, &str); 6] = [
    ("model_loads", "modelstore_loads_total"),
    ("evictions", "registry_cache_evictions_total"),
    ("shed", "server_shed_total"),
    ("timeouts", "serve_timeouts_total"),
    // Sample and fit requests only; the phase's own scrapes are not load.
    ("requests", "serve_requests_total"),
    ("eps_spent_neps", "budget_eps_spent_neps"),
];

/// What the serve slices measured, summed per phase.
#[derive(Default)]
struct ServeStats {
    light: Vec<Shot>,
    closed: Vec<Shot>,
    /// Completed reads per second of each `read_closed` slice.
    closed_rates: Vec<f64>,
    /// Total `read_closed` time, s.
    closed_secs: f64,
    mixed_reads: Vec<Shot>,
    fits: Vec<Shot>,
    /// `(phase, requests sent, requests the daemon counted)`.
    tally: Vec<(&'static str, usize, f64)>,
    /// `(phase, counter, difference)`.
    counters: Vec<(&'static str, &'static str, f64)>,
    /// Daemon CPU seconds and requests sent of each `read_light` slice.
    light_cpu: Vec<(f64, usize)>,
}

impl ServeStats {
    fn counter(&self, phase: &str, label: &str) -> f64 {
        self.counters
            .iter()
            .find(|(p, l, _)| *p == phase && *l == label)
            .map_or(0.0, |c| c.2)
    }

    /// Sample requests whose registry lookup decoded a model, over
    /// `read_closed`.
    fn miss_ratio(&self) -> f64 {
        self.counter("read_closed", "model_loads") / self.closed.len().max(1) as f64
    }

    fn add_counter(&mut self, phase: &'static str, label: &'static str, delta: f64) {
        match self
            .counters
            .iter_mut()
            .find(|(p, l, _)| *p == phase && *l == label)
        {
            Some(c) => c.2 += delta,
            None => self.counters.push((phase, label, delta)),
        }
    }
}

/// Runs one slice of a phase, each lane on its own thread and
/// connection, then waits until the daemon has counted every request
/// sent and adds the slice's counter differences. A `read_light` slice
/// also records the daemon's CPU time over its lanes.
fn slice(
    ctx: &Ctx,
    daemon: &Daemon,
    phase: &'static str,
    lanes: &[Lane],
    serve: &mut ServeStats,
    report: &mut Report,
) -> Result<Vec<Vec<Shot>>, String> {
    let addr = daemon.addr;
    let before = Scrape::take(addr)?;
    let cpu_before = daemon.cpu_time();
    let start = Instant::now();
    let tracer = ctx.tracer();
    let parent = tracer.map_or(0, Tracer::next_id);
    let results: Vec<Vec<Shot>> = std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .iter()
            .map(|lane| scope.spawn(move || run_lane(lane, tracer, parent)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a load lane panicked"))
            .collect()
    });
    if let Some(t) = tracer {
        t.record_as(parent, phase, 0, 0, start, Instant::now());
    }
    let sent: usize = results.iter().map(Vec::len).sum();
    if phase == "read_light" {
        let cpu = match (cpu_before, daemon.cpu_time()) {
            (Some(a), Some(b)) => b.saturating_sub(a),
            _ => return Err("reading the daemon's CPU time".into()),
        };
        serve.light_cpu.push((cpu.as_secs_f64(), sent));
    }
    report.attempted += sent as u64;
    report.failed += results.iter().flatten().filter(|s| !s.ok()).count() as u64;
    // A handler counts its request just after writing the answer, so the
    // last ones may land a moment after the client has them.
    let deadline = Instant::now() + Duration::from_secs(2);
    let after = loop {
        let after = Scrape::take(addr)?;
        if after.requests() - before.requests() >= sent as f64 || Instant::now() > deadline {
            break after;
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    let counted = after.requests() - before.requests();
    match serve.tally.iter_mut().find(|t| t.0 == phase) {
        Some(t) => {
            t.1 += sent;
            t.2 += counted;
        }
        None => serve.tally.push((phase, sent, counted)),
    }
    for (label, metric) in COUNTERS {
        let delta = if label == "requests" {
            counted
        } else {
            after.sum(metric, "") - before.sum(metric, "")
        };
        serve.add_counter(phase, label, delta);
    }
    Ok(results)
}

/// The measured phases, interleaved. Each round runs the release steps,
/// then one slice each of `read_light`, `read_closed` and `mixed`, so a
/// slow patch of host time hits every metric alike. Rounds repeat until
/// there are at least `MIN_OPS` of them and `--seconds` has passed.
fn measure(
    ctx: &Ctx,
    s: &Setup,
    reads: &[Prepared],
    fits: &[Prepared],
    report: &mut Report,
) -> Result<(Rounds, ServeStats), String> {
    let cmds = ReleaseCmds::new(ctx, s);
    let slice_len = Duration::from_secs_f64(ctx.args.seconds * SLICE_SHARE);
    let (min_rounds, min_secs) = if ctx.args.trace {
        (TRACED_ROUNDS, 0.0)
    } else {
        (MIN_OPS, ctx.args.seconds)
    };
    let addr = s.daemon.addr;
    let daemon = &s.daemon;
    let rate = ctx.w.light_rps;
    let mut rounds = Rounds::default();
    let mut serve = ServeStats::default();
    // Where each stream continues, so slices send fresh requests.
    let (mut light_at, mut closed_at, mut mixed_at, mut fit_at) = (0, 1024, 2048, 0);
    let start = Instant::now();
    let mut round = 0;
    while round < min_rounds || start.elapsed().as_secs_f64() < min_secs {
        round += 1;
        release_round(ctx, &cmds, round as u64, &mut rounds, report)?;

        // read_light: open loop over two connections at the fixed rate.
        let t0 = Instant::now() + Duration::from_millis(2);
        let end = t0 + slice_len;
        let stop = move |due: Instant, _: usize| due >= end;
        let base = Lane {
            addr,
            requests: reads,
            first: 0,
            stride: 2,
            offset: light_at,
            pace: Pace::Open { rate },
            start: t0,
            stop: &stop,
            timeout: TIMEOUT,
        };
        let lanes = [Lane { first: 1, ..base }, base];
        let shots: Vec<Shot> = slice(ctx, daemon, "read_light", &lanes, &mut serve, report)?
            .into_iter()
            .flatten()
            .collect();
        light_at += shots.len();
        serve.light.extend(shots);

        // read_closed: back to back on two connections.
        let t0 = Instant::now();
        let end = t0 + slice_len;
        let stop = move |_: Instant, _: usize| Instant::now() >= end;
        let base = Lane {
            offset: closed_at,
            pace: Pace::Closed,
            start: t0,
            stop: &stop,
            ..base
        };
        let lanes = [Lane { first: 1, ..base }, base];
        let shots: Vec<Shot> = slice(ctx, daemon, "read_closed", &lanes, &mut serve, report)?
            .into_iter()
            .flatten()
            .collect();
        let ok = shots.iter().filter(|s| s.ok()).count();
        let secs = shots
            .iter()
            .map(|s| s.done)
            .max()
            .map_or(slice_len, |done| done - t0)
            .as_secs_f64();
        serve.closed_rates.push(ok as f64 / secs);
        serve.closed_secs += secs;
        closed_at += shots.len();
        serve.closed.extend(shots);

        // mixed: connection A repeats the light stream alone; connection
        // B fits back to back, at least once. A runs until B is done.
        let t0 = Instant::now() + Duration::from_millis(2);
        let end = t0 + slice_len;
        let fits_done = AtomicBool::new(false);
        let stop_reads = |due: Instant, _: usize| due >= end && fits_done.load(Ordering::SeqCst);
        let stop_fits = |_: Instant, n: usize| {
            let stop = n >= 1 && Instant::now() >= end;
            if stop {
                fits_done.store(true, Ordering::SeqCst);
            }
            stop
        };
        let reader = Lane {
            stride: 1,
            offset: mixed_at,
            pace: Pace::Open { rate },
            start: t0,
            stop: &stop_reads,
            ..base
        };
        let fitter = Lane {
            requests: fits,
            offset: fit_at,
            pace: Pace::Closed,
            stop: &stop_fits,
            ..reader
        };
        let lanes = [reader, fitter];
        let mut shots = slice(ctx, daemon, "mixed", &lanes, &mut serve, report)?;
        let fit_shots = shots.pop().expect("two lanes");
        let read_shots = shots.pop().expect("two lanes");
        mixed_at += read_shots.len();
        fit_at += fit_shots.len();
        serve.mixed_reads.extend(read_shots);
        serve.fits.extend(fit_shots);
    }

    for &(phase, sent, counted) in &serve.tally {
        report.gate(
            &format!("{phase}.requests_counted"),
            counted == sent as f64,
            format!("serve_requests_total +{counted} for {sent} sent"),
        );
    }
    if !ctx.args.trace {
        let w = ctx.w;
        let rate = |rows: usize, walls: &[f64]| -> Vec<f64> {
            walls.iter().map(|&s| rows as f64 / s).collect()
        };
        report.median_of(
            "release.fit_rows_per_s",
            "rows/s",
            &rate(w.train_rows, &rounds.fit),
        );
        report.median_of(
            "release.distfit_rows_per_cpu_s",
            "rows/cpu_s",
            &rate(w.train_rows, &rounds.distfit_cpu),
        );
        report.median_of(
            "release.export_fast_rows_per_s",
            "rows/s",
            &rate(w.fast_rows, &rounds.export_fast),
        );
        report.median_of(
            "release.export_reference_rows_per_s",
            "rows/s",
            &rate(w.reference_rows, &rounds.export_reference),
        );
        report.value(
            "release.peak_rss_mb",
            "MB",
            rounds.peak_kib as f64 / 1024.0,
            rounds.steps,
        );
        let ok_ms = |shots: &[Shot]| -> Vec<f64> {
            shots
                .iter()
                .filter(|s| s.ok())
                .map(Shot::latency_ms)
                .collect()
        };
        // Daemon CPU per read at the light rate: the serving cost of a
        // request, without the wake-up and scheduling delays that make
        // open-loop latency on a shared host swing from run to run.
        let cpu_s: f64 = serve.light_cpu.iter().map(|c| c.0).sum();
        let sent: usize = serve.light_cpu.iter().map(|c| c.1).sum();
        let per_slice: Vec<f64> = serve
            .light_cpu
            .iter()
            .map(|&(cpu, n)| cpu * 1e3 / n.max(1) as f64)
            .collect();
        report.metrics.push(Metric {
            name: "serve.sample_cpu_ms".into(),
            value: cpu_s * 1e3 / sent.max(1) as f64,
            unit: "ms",
            n: sent,
            spread: Some(stats::spread(&per_slice)),
        });
        let done = serve.closed.iter().filter(|s| s.ok()).count();
        report.metrics.push(Metric {
            name: "serve.capacity_rps".into(),
            value: done as f64 / serve.closed_secs,
            unit: "req/s",
            n: serve.closed.len(),
            spread: Some(stats::spread(&serve.closed_rates)),
        });
        report.median_of("serve.fit_p50_ms", "ms", &ok_ms(&serve.fits));
    }
    Ok((rounds, serve))
}

/// Per-request latency added by recording spans: alternating bursts
/// of closed-loop reads with and without the tracer.
fn trace_overhead(ctx: &Ctx, s: &Setup, reads: &[Prepared]) -> Result<f64, String> {
    let (mut traced, mut plain) = (Vec::new(), Vec::new());
    let stop = |_: Instant, n: usize| n >= OVERHEAD_PER_BURST;
    for b in 0..OVERHEAD_BURSTS {
        let lane = Lane {
            addr: s.daemon.addr,
            requests: reads,
            first: 0,
            stride: 1,
            offset: 3072 + b * OVERHEAD_PER_BURST,
            pace: Pace::Closed,
            start: Instant::now(),
            stop: &stop,
            timeout: TIMEOUT,
        };
        let on = b % 2 == 0;
        let shots = run_lane(&lane, if on { ctx.tracer() } else { None }, 0);
        if shots.iter().any(|s| !s.ok()) {
            return Err("a trace-overhead request failed".into());
        }
        let into = if on { &mut traced } else { &mut plain };
        into.extend(shots.iter().map(Shot::latency_ms));
    }
    Ok(stats::median(&traced) - stats::median(&plain))
}

/// Every correctness gate that compares bytes or ledgers.
fn gates(
    ctx: &Ctx,
    s: &Setup,
    windows: &[Window],
    serve: &ServeStats,
    report: &mut Report,
) -> Result<(), String> {
    let w = ctx.w;
    let seed = ctx.args.seed;

    // CLI exports equal the in-process load -> sample -> write_csv bytes.
    let model = dpcopula::FittedModel::load(s.dir.join("release/fit.dpcm"))
        .map_err(|e| format!("loading the released model: {e}"))?;
    for (profile, rows) in [
        (workload::Profile::Fast, w.fast_rows),
        (workload::Profile::Reference, w.reference_rows),
    ] {
        let name = workload::profile_name(profile);
        let file = s.dir.join(format!("release/{name}.csv"));
        let cli = std::fs::read(&file).map_err(|e| format!("reading {}: {e}", file.display()))?;
        let mine = layers::window_csv(&model, profile, 0, rows, 2)?;
        report.gate(
            &format!("export_{name}.bytes"),
            cli == mine,
            format!("{} CLI bytes vs {} in-process", cli.len(), mine.len()),
        );
    }

    // fit-shard x4 + merge is byte-identical to fit --shards 4.
    run_ok(
        &ctx.cli,
        &args(&[
            "fit",
            "--input",
            &s.path("train.csv"),
            "--out",
            &s.path("release/sharded.dpcm"),
            "--seed",
            &seed.to_string(),
            "--workers",
            CLI_WORKERS,
            "--shards",
            &SHARDS.to_string(),
        ]),
    )?;
    let merged = std::fs::read(s.dir.join("release/merged.dpcm")).map_err(|e| e.to_string())?;
    let sharded = std::fs::read(s.dir.join("release/sharded.dpcm")).map_err(|e| e.to_string())?;
    report.gate(
        "distfit.cmp",
        merged == sharded,
        format!(
            "merged {} bytes vs fit --shards 4 {} bytes",
            merged.len(),
            sharded.len()
        ),
    );

    // A seeded subset of served windows equals the in-process windows.
    let mut models = std::collections::BTreeMap::new();
    let (mut checked, mut equal) = (0, 0);
    for shot in serve
        .light
        .iter()
        .chain(&serve.closed)
        .chain(&serve.mixed_reads)
    {
        let Some(body) = &shot.body else { continue };
        let win = &windows[shot.index];
        if !models.contains_key(&win.model) {
            let path = s.dir.join(format!("models/{}.dpcm", win.model));
            let m = dpcopula::FittedModel::load(&path).map_err(|e| e.to_string())?;
            models.insert(win.model.clone(), m);
        }
        let mine = layers::window_csv(&models[&win.model], win.profile, win.offset, win.rows, 1)?;
        checked += 1;
        equal += usize::from(&mine == body);
    }
    report.gate(
        "http_windows.bytes",
        checked > 0 && equal == checked,
        format!("{equal} of {checked} kept windows byte-identical"),
    );

    // The tenant's remaining budget reconciles with the admitted fits.
    let admitted = serve.fits.iter().filter(|f| f.ok()).count() as u64;
    let neps = |eps: f64| (eps * 1e9).round() as u64;
    let expected = (neps(TENANT_EPSILON) - admitted * neps(FIT_EPSILON)) as f64 / 1e9;
    let last = serve.fits.iter().rev().find_map(|f| {
        f.body
            .as_deref()
            .and_then(|b| json_number(b, "remaining_eps"))
    });
    report.gate(
        "budget.remaining_eps",
        last == Some(expected),
        format!("last fit reports {last:?}, {admitted} admitted fits leave {expected}"),
    );
    Ok(())
}

/// The number after `"key":` in a flat JSON object.
fn json_number(body: &[u8], key: &str) -> Option<f64> {
    let text = std::str::from_utf8(body).ok()?;
    let at = text.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &text[at..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Adds the traced run's per-layer metrics.
fn per_layer(
    report: &mut Report,
    replay: &layers::Replay,
    rounds: &Rounds,
    serve: &ServeStats,
    overhead_ms: f64,
) {
    for (name, value, unit) in &replay.metrics {
        report.value(name, unit, *value, replay.reps);
    }
    report.value(
        "serve.registry.miss_ratio",
        "ratio",
        serve.miss_ratio(),
        serve.closed.len(),
    );

    // Client side.
    let sorted = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v
    };
    let ok = |shots: &[Shot], f: fn(&Shot) -> f64| -> Vec<f64> {
        sorted(shots.iter().filter(|s| s.ok()).map(f).collect())
    };
    let lateness = ok(&serve.light, Shot::lateness_ms);
    report.value(
        "serve.client.lateness_p99_ms",
        "ms",
        stats::percentile(&lateness, 99.0),
        lateness.len(),
    );
    for (label, shots) in [
        ("sample", &serve.light),
        ("mixed_sample", &serve.mixed_reads),
    ] {
        let lat = ok(shots, Shot::latency_ms);
        let t = stats::tail(&lat).unwrap_or(stats::Tail {
            pct: 50.0,
            value: stats::percentile(&lat, 50.0),
            beyond: lat.len() / 2,
        });
        report.value(
            &format!("serve.client.{label}_tail_ms"),
            "ms",
            t.value,
            lat.len(),
        );
        report.value(
            &format!("serve.client.{label}_tail_pct"),
            "pct",
            t.pct,
            lat.len(),
        );
        report.value(
            &format!("serve.client.{label}_tail_beyond"),
            "count",
            t.beyond as f64,
            lat.len(),
        );
    }
    let ttfb = ok(&serve.light, |s| {
        (s.first_byte - s.sent).as_secs_f64() * 1e3
    });
    let body = ok(&serve.light, |s| {
        (s.done - s.first_byte).as_secs_f64() * 1e3
    });
    report.value(
        "serve.client.ttfb_p50_ms",
        "ms",
        stats::median(&ttfb),
        ttfb.len(),
    );
    report.value(
        "serve.client.body_p50_ms",
        "ms",
        stats::median(&body),
        body.len(),
    );

    // Daemon counters per phase.
    for (phase, label, delta) in &serve.counters {
        report.value(&format!("serve.daemon.{phase}.{label}"), "count", *delta, 1);
    }
    let admitted = serve.fits.iter().filter(|f| f.ok()).count() as f64;
    report.value(
        "serve.budget.eps_spent_residual_neps",
        "count",
        serve.counter("mixed", "eps_spent_neps") - admitted * FIT_EPSILON * 1e9,
        serve.fits.len(),
    );

    // Wall time no in-process layer accounts for.
    let get = |name: &str| replay.get(name);
    let median = stats::median;
    report.value(
        "release.unattributed.fit_s",
        "s",
        median(&rounds.fit)
            - get("datagen.read_csv_s")
            - get("core.fit_s")
            - get("modelstore.dpcm_encode_s"),
        rounds.fit.len(),
    );
    report.value(
        "release.unattributed.distfit_s",
        "s",
        median(&rounds.distfit)
            - get("core.fit_shard_s")
            - get("modelstore.dpcs_encode_s")
            - get("modelstore.dpcs_decode_s")
            - get("core.merge_s")
            - get("modelstore.dpcm_encode_s"),
        rounds.distfit.len(),
    );
    for (label, walls, sample, write) in [
        (
            "export_fast",
            &rounds.export_fast,
            "core.sample_fast_s",
            "datagen.write_csv_s",
        ),
        (
            "export_reference",
            &rounds.export_reference,
            "core.sample_reference_s",
            "datagen.write_csv_reference_s",
        ),
    ] {
        report.value(
            &format!("release.unattributed.{label}_s"),
            "s",
            median(walls) - get("modelstore.dpcm_decode_s") - get(sample) - get(write),
            walls.len(),
        );
    }
    let light_ms = ok(&serve.light, Shot::latency_ms);
    let registry_s = serve.miss_ratio() * get("serve.registry.get_miss_s")
        + (1.0 - serve.miss_ratio()) * get("serve.registry.get_hit_s");
    let server_s = get("serve.http.read_request_s")
        + get("serve.json.parse_sample_s")
        + registry_s
        + get("core.window_s")
        + get("datagen.write_csv_window_s")
        + get("serve.http.write_response_s");
    report.value(
        "serve.unattributed_ms",
        "ms",
        stats::median(&light_ms) - server_s * 1e3,
        light_ms.len(),
    );
    report.value(
        "serve.client.sample_p50_ms",
        "ms",
        stats::median(&light_ms),
        light_ms.len(),
    );
    let mixed_ms = ok(&serve.mixed_reads, Shot::latency_ms);
    report.value(
        "serve.client.mixed_sample_p50_ms",
        "ms",
        stats::median(&mixed_ms),
        mixed_ms.len(),
    );
    report.value(
        "trace.overhead_sample_ms",
        "ms",
        overhead_ms,
        OVERHEAD_BURSTS * OVERHEAD_PER_BURST,
    );
}
