//! Property tests for the CSV codec: the byte-level encoder must spell
//! exactly what a per-cell `to_string`/`join` encoder spells, decoding
//! must invert encoding, and the streamed reader must agree with the
//! eager one at every block size.

use datagen::io::{read_csv, write_csv};
use datagen::{Attribute, CsvFileSource, Dataset, RowSource};
use rngkit::rngs::StdRng;
use rngkit::{Rng, SeedableRng};
use testkit::{prop_assert, prop_assert_eq, property_tests};

/// The reference encoder: one `String` per cell, joined with commas.
fn oracle_csv(d: &Dataset) -> Vec<u8> {
    let header: Vec<String> = d
        .attributes()
        .iter()
        .map(|a| format!("{}:{}", a.name, a.domain))
        .collect();
    let mut out = header.join(",") + "\n";
    for row in 0..d.len() {
        let cells: Vec<String> = d.columns().iter().map(|c| c[row].to_string()).collect();
        out.push_str(&cells.join(","));
        out.push('\n');
    }
    out.into_bytes()
}

/// A dataset of `cols` attributes and `rows` records whose domains mix
/// single-value, small, census-sized and near-`u32::MAX` sizes. Each
/// column's first two records are its extreme values `0` and
/// `domain - 1`.
fn dataset(cols: usize, rows: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let top = u64::from(u32::MAX) + 1;
    let mut attributes = Vec::with_capacity(cols);
    let mut columns = Vec::with_capacity(cols);
    for j in 0..cols {
        let domain = match rng.gen_range(0u32..4) {
            0 => 1,
            1 => rng.gen_range(2u64..=100),
            2 => rng.gen_range(101u64..=100_000),
            _ => rng.gen_range(top - 1000..=top),
        };
        let column = (0..rows)
            .map(|i| match i {
                0 => 0,
                1 => (domain - 1) as u32,
                _ => rng.gen_range(0..domain) as u32,
            })
            .collect();
        attributes.push(Attribute::new(format!("c{j}"), domain as usize));
        columns.push(column);
    }
    Dataset::new(attributes, columns)
}

fn drain(source: &mut CsvFileSource) -> Vec<Vec<u32>> {
    let mut columns = vec![Vec::new(); source.attributes().len()];
    while let Some(block) = source.next_block().expect("valid csv streams") {
        for (acc, col) in columns.iter_mut().zip(block.columns()) {
            acc.extend_from_slice(col);
        }
    }
    columns
}

property_tests! {
    /// The encoder's bytes are the reference encoder's bytes. Up to
    /// 3000 wide records crosses the encoder's 64 KiB output slabs.
    fn write_csv_matches_the_per_cell_encoder(
        cols in 1usize..13,
        rows in 0usize..3000,
        seed in 0u64..u64::MAX,
    ) {
        let d = dataset(cols, rows, seed);
        let mut bytes = Vec::new();
        write_csv(&d, &mut bytes).unwrap();
        prop_assert!(bytes == oracle_csv(&d), "encoder bytes differ from the oracle");
    }

    /// Decoding inverts encoding, eagerly and streamed at every block
    /// size.
    fn csv_round_trips_eagerly_and_streamed(
        cols in 1usize..13,
        rows in 0usize..3000,
        seed in 0u64..u64::MAX,
    ) {
        let d = dataset(cols, rows, seed);
        let mut bytes = Vec::new();
        write_csv(&d, &mut bytes).unwrap();
        let eager = read_csv(&bytes[..]).unwrap();
        prop_assert_eq!(&eager, &d);

        let dir = std::env::temp_dir().join(format!("datagen-codec-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("round_trip.csv");
        std::fs::write(&path, &bytes).unwrap();
        for block_rows in [1, 7, 8192] {
            let mut source = CsvFileSource::open_with_block_rows(&path, block_rows).unwrap();
            prop_assert_eq!(source.attributes(), eager.attributes());
            let streamed = drain(&mut source);
            prop_assert!(streamed == eager.columns(), "block_rows={block_rows}");
        }
        std::fs::remove_file(&path).unwrap();
    }
}
