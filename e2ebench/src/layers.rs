//! The traced run's in-process replay: the run's own inputs go through
//! each module's public functions, each call repeated and its median
//! kept. Every timed call is a span named after the metric it feeds.

use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::{Profile, Window, Workload, FIT_EPSILON, TENANT_EPSILON};
use datagen::RowSource;
use dpcopula::{DpCopulaConfig, EngineOptions, FittedModel, MarginMethod, SynthesisRequest};
use dpcopula_serve::http::{read_request, ReadLimits, Response};
use dpcopula_serve::json::Json;
use dpmech::Epsilon;
use obskit::MetricsSink;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// What the replay reads.
pub struct Inputs<'a> {
    /// The workload.
    pub w: &'a Workload,
    /// The run's seed (the release fits' seed).
    pub seed: u64,
    /// The set-up directory: `train.csv`, `part*.csv`, `models/`.
    pub dir: &'a Path,
    /// The read stream.
    pub windows: &'a [Window],
    /// A recorded `/v1/sample` request, head and body.
    pub sample_request: &'a [u8],
    /// A recorded `/v1/fit` request, head and body.
    pub fit_request: &'a [u8],
}

/// Per-layer results: `(metric, value, unit)`.
pub struct Replay {
    /// Every metric the replay made.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Repetitions behind each median.
    pub reps: usize,
}

impl Replay {
    /// A metric's value; 0 when the replay did not make it.
    pub fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map_or(0.0, |m| m.1)
    }
}

/// Repetitions of each timed call.
const REPS: usize = 5;
/// Workers of every in-process call that mirrors a CLI step.
const WORKERS: usize = 2;

/// Times `f` REPS times, each a span named `name`, and returns the
/// median seconds per call; `batch` calls run inside each span.
fn timed<T>(tracer: &Tracer, name: &'static str, batch: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut secs = Vec::with_capacity(REPS);
    for rep in 0..REPS {
        let start = Instant::now();
        for _ in 0..batch {
            black_box(f());
        }
        let end = Instant::now();
        tracer.record(name, 0, rep as u64, start, end);
        secs.push((end - start).as_secs_f64() / batch as f64);
    }
    median(&secs)
}

/// CSV bytes of a model window, as the CLI and the daemon encode it.
pub fn window_csv(
    model: &FittedModel,
    profile: Profile,
    offset: usize,
    rows: usize,
    workers: usize,
) -> Result<Vec<u8>, String> {
    let columns = model
        .try_sample_range_profiled(profile, offset, rows, workers)
        .map_err(|e| e.to_string())?;
    let mut out = Vec::new();
    datagen::io::write_csv(&dataset_of(model, columns), &mut out).map_err(|e| e.to_string())?;
    Ok(out)
}

fn dataset_of(model: &FittedModel, columns: Vec<Vec<u32>>) -> datagen::Dataset {
    let attributes = model
        .artifact()
        .schema
        .iter()
        .map(|a| datagen::Attribute::new(a.name.clone(), a.domain))
        .collect();
    datagen::Dataset::new(attributes, columns)
}

fn body_of(framed: &[u8]) -> &[u8] {
    framed
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map_or(&framed[framed.len()..], |i| &framed[i + 4..])
}

/// Replays the run's inputs through every layer.
pub fn replay(inp: &Inputs, tracer: &Tracer) -> Result<Replay, String> {
    let w = inp.w;
    let mut out: Vec<(String, f64, &'static str)> = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        out.push((name.to_string(), value, unit));
    };
    let err = |e: &dyn std::fmt::Display| e.to_string();

    // datagen
    let train = std::fs::read(inp.dir.join("train.csv")).map_err(|e| err(&e))?;
    put(
        "datagen.read_csv_s",
        timed(tracer, "datagen.read_csv", 1, || {
            datagen::io::read_csv(&train[..]).expect("the generated CSV parses")
        }),
        "s",
    );
    let data = datagen::io::read_csv(&train[..]).map_err(|e| err(&e))?;
    drop(train);
    let parts: Vec<_> = (0..4)
        .map(|i| inp.dir.join(format!("part{i}.csv")))
        .collect();
    put(
        "datagen.csv_source_s",
        timed(tracer, "datagen.csv_source", 1, || {
            let mut rows = 0;
            for p in &parts {
                let mut src = datagen::CsvFileSource::open(p).expect("part opens");
                while let Some(b) = src.next_block().expect("part parses") {
                    rows += b.rows();
                }
            }
            rows
        }),
        "s",
    );

    // core: fit and its stages
    let eps = Epsilon::new(FIT_EPSILON).map_err(|e| err(&e))?;
    let config = DpCopulaConfig::kendall(eps).with_margin(MarginMethod::Efpa);
    let domains = data.domains();
    let fit_with = |shards: usize| {
        let mut opts = EngineOptions::with_workers(WORKERS);
        opts.shards = shards;
        SynthesisRequest::from_config(data.columns(), &domains, config)
            .engine(opts)
            .seed(inp.seed)
            .fit()
            .expect("the release fit succeeds")
    };
    let mut stages: Vec<[f64; 4]> = Vec::new();
    let fit_s = timed(tracer, "core.fit", 1, || {
        let (model, report) = fit_with(1);
        let t = report.timings;
        stages.push([
            t.budget_plan.as_secs_f64(),
            t.margins.as_secs_f64(),
            t.correlation.as_secs_f64(),
            t.pd_repair.as_secs_f64(),
        ]);
        model
    });
    put("core.fit_s", fit_s, "s");
    for (k, stage) in ["budget_plan", "margins", "correlation", "pd_repair"]
        .iter()
        .enumerate()
    {
        let v: Vec<f64> = stages.iter().map(|s| s[k]).collect();
        put(&format!("core.fit.{stage}_s"), median(&v), "s");
    }
    let shards4 = timed(tracer, "core.fit_shards4", 1, || fit_with(4));
    put("core.fit_shards1_s", fit_s, "s");
    put("core.fit_shards4_s", shards4, "s");
    put("core.shard_tax", shards4 / fit_s, "ratio");

    let (mut model, _) = fit_with(1);
    let names: Vec<&str> = data.attributes().iter().map(|a| a.name.as_str()).collect();
    model.set_attribute_names(&names);
    drop(data);
    let sample = |profile: Profile, rows: usize| {
        model
            .try_sample_range_profiled(profile, 0, rows, WORKERS)
            .expect("export window fits the row space")
    };
    put(
        "core.sample_fast_s",
        timed(tracer, "core.sample_fast", 1, || {
            sample(Profile::Fast, w.fast_rows)
        }),
        "s",
    );
    put(
        "core.sample_reference_s",
        timed(tracer, "core.sample_reference", 1, || {
            sample(Profile::Reference, w.reference_rows)
        }),
        "s",
    );
    for (name, span, profile, rows) in [
        (
            "datagen.write_csv_s",
            "datagen.write_csv",
            Profile::Fast,
            w.fast_rows,
        ),
        (
            "datagen.write_csv_reference_s",
            "datagen.write_csv_reference",
            Profile::Reference,
            w.reference_rows,
        ),
    ] {
        let ds = dataset_of(&model, sample(profile, rows));
        let mut buf = Vec::new();
        let s = timed(tracer, span, 1, || {
            buf.clear();
            datagen::io::write_csv(&ds, &mut buf).expect("writing to memory cannot fail");
            buf.len()
        });
        put(name, s, "s");
        if profile == Profile::Fast {
            put(
                "datagen.write_csv_mb_per_s",
                buf.len() as f64 / s / 1e6,
                "MB/s",
            );
        }
    }

    // core: one serve-shaped window, and the rows drawn per row served
    let first = &inp.windows[0];
    let served = FittedModel::load(inp.dir.join(format!("models/{}.dpcm", first.model)))
        .map_err(|e| err(&e))?;
    put(
        "core.window_s",
        timed(tracer, "core.window", 10, || {
            served
                .try_sample_range_profiled(first.profile, first.offset, first.rows, 1)
                .expect("window fits the row space")
        }),
        "s",
    );
    let window_ds = dataset_of(
        &served,
        served
            .try_sample_range_profiled(first.profile, first.offset, first.rows, 1)
            .map_err(|e| err(&e))?,
    );
    let mut window_bytes = Vec::new();
    put(
        "datagen.write_csv_window_s",
        timed(tracer, "datagen.write_csv_window", 10, || {
            window_bytes.clear();
            datagen::io::write_csv(&window_ds, &mut window_bytes).expect("in memory");
        }),
        "s",
    );
    let chunk = served.artifact().provenance.sample_chunk as usize;
    let (drawn, asked) = inp.windows.iter().fold((0usize, 0usize), |(d, a), win| {
        let tasks = parkit::chunk_windows(win.offset, win.rows, chunk);
        (
            d + tasks.iter().map(|t| t.skip + t.take).sum::<usize>(),
            a + win.rows,
        )
    });
    put(
        "core.window_draw_ratio",
        drawn as f64 / asked as f64,
        "ratio",
    );

    // core + modelstore: the distributed fit
    let sink = MetricsSink::off();
    let opts = EngineOptions::with_workers(WORKERS);
    let mut artifacts = Vec::new();
    put(
        "core.fit_shard_s",
        timed(tracer, "core.fit_shard", 1, || {
            artifacts = parts
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    let mut src = datagen::CsvFileSource::open(p).expect("part opens");
                    let a = dpcopula::fit_shard(
                        &mut src,
                        &config,
                        i,
                        parts.len(),
                        w.train_rows,
                        inp.seed,
                        &opts,
                        &sink,
                    )
                    .expect("shard fit succeeds");
                    (format!("part{i}.dpcs"), a)
                })
                .collect();
        }),
        "s",
    );
    put(
        "core.merge_s",
        timed(tracer, "core.merge", 1, || {
            dpcopula::merge_shards(&artifacts, WORKERS, &sink).expect("merge succeeds")
        }),
        "s",
    );
    let encoded: Vec<Vec<u8>> = artifacts.iter().map(|(_, a)| a.encode()).collect();
    put(
        "modelstore.dpcs_encode_s",
        timed(tracer, "modelstore.dpcs_encode", 5, || {
            artifacts
                .iter()
                .map(|(_, a)| a.encode().len())
                .sum::<usize>()
        }),
        "s",
    );
    put(
        "modelstore.dpcs_decode_s",
        timed(tracer, "modelstore.dpcs_decode", 5, || {
            encoded
                .iter()
                .map(|b| {
                    modelstore::ShardArtifact::decode(b)
                        .expect("decodes")
                        .rows()
                })
                .sum::<u64>()
        }),
        "s",
    );
    put(
        "modelstore.dpcs_bytes",
        encoded.iter().map(Vec::len).sum::<usize>() as f64,
        "bytes",
    );

    // modelstore: the model artifact
    let dpcm = modelstore::encode(model.artifact());
    put(
        "modelstore.dpcm_encode_s",
        timed(tracer, "modelstore.dpcm_encode", 20, || {
            modelstore::encode(model.artifact())
        }),
        "s",
    );
    put(
        "modelstore.dpcm_decode_s",
        timed(tracer, "modelstore.dpcm_decode", 20, || {
            modelstore::decode(&dpcm).expect("decodes")
        }),
        "s",
    );
    put("modelstore.dpcm_bytes", dpcm.len() as f64, "bytes");

    // serve: the recorded request bytes through each server layer
    let limits = ReadLimits::size_only(8 << 20);
    put(
        "serve.http.read_request_s",
        timed(tracer, "serve.http.read_request", 200, || {
            read_request(
                &mut std::io::Cursor::new(inp.sample_request),
                &mut std::io::sink(),
                limits,
            )
            .expect("recorded request parses")
        }),
        "s",
    );
    let response = Response::csv(window_bytes);
    let mut wire = Vec::new();
    put(
        "serve.http.write_response_s",
        timed(tracer, "serve.http.write_response", 200, || {
            wire.clear();
            response.write_to(&mut wire, true).expect("in memory");
        }),
        "s",
    );
    let sample_text = std::str::from_utf8(body_of(inp.sample_request)).map_err(|e| err(&e))?;
    put(
        "serve.json.parse_sample_s",
        timed(tracer, "serve.json.parse_sample", 200, || {
            Json::parse(sample_text).expect("recorded body parses")
        }),
        "s",
    );
    // Raw `text/csv` fits never reach the JSON parser: 0 on that path.
    let parse_fit = if w.fit_json {
        let fit_text = std::str::from_utf8(body_of(inp.fit_request)).map_err(|e| err(&e))?;
        timed(tracer, "serve.json.parse_fit", 1, || {
            Json::parse(fit_text).expect("recorded body parses")
        })
    } else {
        0.0
    };
    put("serve.json.parse_fit_s", parse_fit, "s");

    let models = inp.dir.join("models");
    let hit = dpcopula_serve::ModelRegistry::new(&models, 8, MetricsSink::off());
    hit.get(&first.model).map_err(|e| err(&e))?;
    put(
        "serve.registry.get_hit_s",
        timed(tracer, "serve.registry.get_hit", 50, || {
            hit.get(&first.model).expect("cached model")
        }),
        "s",
    );
    // Capacity 1 and two ids taken in turn: every lookup decodes.
    let miss = dpcopula_serve::ModelRegistry::new(&models, 1, MetricsSink::off());
    let ids = ["m0", if w.served_models > 1 { "m1" } else { "w0" }];
    let mut turn = 0;
    put(
        "serve.registry.get_miss_s",
        timed(tracer, "serve.registry.get_miss", 20, || {
            turn += 1;
            miss.get(ids[turn % 2]).expect("model on disk")
        }),
        "s",
    );
    let gate = dpcopula_serve::BudgetGate::single_tenant(
        Epsilon::new(TENANT_EPSILON).map_err(|e| err(&e))?,
    );
    put(
        "serve.budget.admit_s",
        timed(tracer, "serve.budget.admit", 1000, || {
            gate.admit(dpcopula_serve::DEFAULT_TENANT, eps)
                .expect("budget far from exhausted")
        }),
        "s",
    );
    Ok(Replay {
        metrics: out,
        reps: REPS,
    })
}

/// Cost of recording one span, in nanoseconds (mean over 10k).
pub fn span_record_ns() -> f64 {
    let t = Tracer::new();
    let n = 10_000;
    let start = Instant::now();
    for i in 0..n {
        let now = Instant::now();
        t.record("probe", 0, i, now, now);
    }
    start.elapsed().as_nanos() as f64 / n as f64
}
