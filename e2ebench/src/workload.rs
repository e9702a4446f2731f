//! The two workloads and the inputs each one derives from its seed.
//!
//! Both run the same phases and report the same metrics; they differ in
//! traffic shape, so that each layer is exercised by one and bypassed
//! by the other (see `CONTRACT.md`).

use crate::client::{request, Prepared};

pub use dpcopula::SamplingProfile as Profile;

/// A profile's wire and CLI name.
pub fn profile_name(profile: Profile) -> &'static str {
    match profile {
        Profile::Reference => "reference",
        Profile::Fast => "fast",
    }
}

/// Frozen sizes and rates of one workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// `dpcopula-cli gen --dataset` value.
    pub dataset: &'static str,
    /// Rows of the release training CSV.
    pub train_rows: usize,
    /// Rows of the fast-profile export.
    pub fast_rows: usize,
    /// Rows of the reference-profile export.
    pub reference_rows: usize,
    /// Models fitted at set-up and served to the read stream.
    pub served_models: usize,
    /// Rows of the CSV the served models are fitted from.
    pub served_rows: usize,
    /// Daemon `--cache-cap`.
    pub cache_cap: usize,
    /// Rows per read window.
    pub read_rows: usize,
    /// Profile of every read window.
    pub read_profile: Profile,
    /// Read windows start on a chunk boundary.
    pub read_aligned: bool,
    /// Every n-th read asks for `format: json` (0: never).
    pub json_every: usize,
    /// Fixed open-loop rate of `read_light` and of `mixed` connection A.
    pub light_rps: f64,
    /// Rows per `/v1/fit` table.
    pub fit_rows: usize,
    /// Fits go as a JSON envelope (else as raw `text/csv`).
    pub fit_json: bool,
}

/// Rows per sampling chunk of every model the CLI fits (the engine
/// default, recorded in each artifact's provenance).
pub const CHUNK: usize = 8192;
/// ε each `/v1/fit` asks for.
pub const FIT_EPSILON: f64 = 1.0;
/// The daemon's default-tenant budget: far above what a run spends, so
/// no fit is refused and the ledger reconciles to the last nano-ε.
pub const TENANT_EPSILON: f64 = 100_000.0;
/// Model ids the fit stream rotates through; disjoint from the `m*`
/// read ids.
pub const WRITE_IDS: [&str; 2] = ["w0", "w1"];

/// Every workload, by name.
pub fn all() -> [Workload; 2] {
    [
        Workload {
            name: "us_interactive",
            dataset: "us-census",
            train_rows: 1_000_000,
            fast_rows: 1_000_000,
            reference_rows: 500_000,
            served_models: 8,
            served_rows: 20_000,
            cache_cap: 4,
            read_rows: 1000,
            read_profile: Profile::Reference,
            read_aligned: false,
            json_every: 10,
            light_rps: 100.0,
            fit_rows: 5000,
            fit_json: true,
        },
        Workload {
            name: "brazil_bulk",
            dataset: "brazil-census",
            train_rows: 500_000,
            fast_rows: 500_000,
            reference_rows: 250_000,
            served_models: 1,
            served_rows: 20_000,
            cache_cap: 4,
            read_rows: 4 * CHUNK,
            read_profile: Profile::Fast,
            read_aligned: true,
            json_every: 0,
            light_rps: 20.0,
            fit_rows: 100_000,
            fit_json: false,
        },
    ]
}

/// SplitMix64: the benchmark's own seeded generator for request shapes.
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One read window of the stream.
#[derive(Debug, Clone)]
pub struct Window {
    /// Served model id.
    pub model: String,
    /// First row.
    pub offset: usize,
    /// Row count.
    pub rows: usize,
    /// Sampling profile.
    pub profile: Profile,
    /// CSV (true) or JSON (false) answer.
    pub csv: bool,
}

/// Reads in a stream before it cycles.
const READS: usize = 4096;
/// One read in this many keeps its body for the byte-identity gate.
pub const KEEP_EVERY: usize = 97;

impl Workload {
    /// Looks a workload up by name.
    pub fn named(name: &str) -> Option<Workload> {
        all().into_iter().find(|w| w.name == name)
    }

    /// Served model ids.
    pub fn model_ids(&self) -> Vec<String> {
        (0..self.served_models).map(|k| format!("m{k}")).collect()
    }

    /// The seeded read stream.
    pub fn windows(&self, seed: u64) -> Vec<Window> {
        let mut rng = SplitMix::new(seed ^ 0x005E_ED0F_2EAD);
        (0..READS)
            .map(|i| {
                let model = format!("m{}", rng.below(self.served_models));
                let offset = if self.read_aligned {
                    CHUNK * rng.below(256)
                } else {
                    // Never on a chunk boundary, so every window burns
                    // part of a chunk before its first row.
                    let o = rng.below(self.train_rows);
                    if o.is_multiple_of(CHUNK) {
                        o + 1
                    } else {
                        o
                    }
                };
                Window {
                    model,
                    offset,
                    rows: self.read_rows,
                    profile: self.read_profile,
                    csv: self.json_every == 0 || i % self.json_every != self.json_every - 1,
                }
            })
            .collect()
    }

    /// Frames the read stream; a seeded subset of CSV reads keeps bodies.
    pub fn read_requests(&self, windows: &[Window], seed: u64) -> Vec<Prepared> {
        let phase = (seed % KEEP_EVERY as u64) as usize;
        windows
            .iter()
            .enumerate()
            .map(|(i, w)| Prepared {
                bytes: request(
                    "POST",
                    "/v1/sample",
                    "application/json",
                    sample_body(w).as_bytes(),
                ),
                keep: w.csv && i % KEEP_EVERY == phase,
            })
            .collect()
    }

    /// The fit tables, one per write id, generated from `seed`.
    pub fn fit_tables(&self, seed: u64) -> Vec<Vec<u8>> {
        (0..WRITE_IDS.len() as u64)
            .map(|k| {
                let s = seed.wrapping_mul(31).wrapping_add(k + 1);
                let data = match self.dataset {
                    "us-census" => datagen::census::us_census(self.fit_rows, s),
                    _ => datagen::census::brazil_census(self.fit_rows, s),
                };
                let mut csv = Vec::new();
                datagen::io::write_csv(&data, &mut csv).expect("writing to memory cannot fail");
                csv
            })
            .collect()
    }

    /// Frames the fit stream: fit `j` writes `WRITE_IDS[j % 2]`.
    pub fn fit_requests(&self, tables: &[Vec<u8>], seed: u64) -> Vec<Prepared> {
        tables
            .iter()
            .zip(WRITE_IDS)
            .map(|(csv, id)| {
                let bytes = if self.fit_json {
                    let text = std::str::from_utf8(csv).expect("census CSV is ASCII");
                    let body = format!(
                        "{{\"id\":\"{id}\",\"epsilon\":{FIT_EPSILON},\"seed\":{seed},\"csv\":{}}}",
                        dpcopula_serve::json::quote(text)
                    );
                    request("POST", "/v1/fit", "application/json", body.as_bytes())
                } else {
                    let target = format!("/v1/fit?id={id}&epsilon={FIT_EPSILON}&seed={seed}");
                    request("POST", &target, "text/csv", csv)
                };
                Prepared { bytes, keep: true }
            })
            .collect()
    }
}

/// The JSON body of one `/v1/sample` request.
pub fn sample_body(w: &Window) -> String {
    format!(
        "{{\"model\":\"{}\",\"offset\":{},\"rows\":{},\"profile\":\"{}\",\"format\":\"{}\"}}",
        w.model,
        w.offset,
        w.rows,
        profile_name(w.profile),
        if w.csv { "csv" } else { "json" }
    )
}
