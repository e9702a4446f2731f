//! CSV import/export for [`Dataset`]: a header row `name:domain,...`
//! followed by one comma-separated row of `u32` values per record. One
//! byte-level codec, with no CSV dependency, backs [`write_csv`],
//! [`read_csv`] and [`crate::CsvFileSource`] (DESIGN.md §14.1).

use crate::dataset::{Attribute, Dataset};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::path::Path;

/// Errors arising while reading a dataset.
#[derive(Debug)]
pub enum CsvError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structural problem with the file contents.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        reason: String,
    },
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "io error: {e}"),
            CsvError::Malformed { line, reason } => {
                write!(f, "malformed csv at line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for CsvError {}

impl From<io::Error> for CsvError {
    fn from(e: io::Error) -> Self {
        CsvError::Io(e)
    }
}

/// Output bytes gathered before one `write_all` to the writer.
const SLAB_BYTES: usize = 64 * 1024;

/// `"00".."99"`: two ASCII digits per table entry, so the encoder emits
/// a pair of digits per division (the `itoa` crate's layout).
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Writes the decimal digits of `n` (exactly as `n.to_string()` spells
/// them) into `out` at `at`, returning the index just past them.
fn put_u32(out: &mut [u8], at: usize, mut n: u32) -> usize {
    let end = at + n.checked_ilog10().map_or(1, |l| l as usize + 1);
    let mut i = end;
    while i - at >= 2 {
        let pair = (n % 100) as usize * 2;
        n /= 100;
        i -= 2;
        out[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if i > at {
        out[at] = b'0' + n as u8;
    }
    end
}

/// Writes the dataset to a writer: the header, then one line per record,
/// encoded into one reused buffer that goes out in ~64 KiB slabs.
pub fn write_csv<W: Write>(dataset: &Dataset, mut w: W) -> io::Result<()> {
    let header: Vec<String> = dataset
        .attributes()
        .iter()
        .map(|a| format!("{}:{}", a.name, a.domain))
        .collect();
    let mut buf = (header.join(",") + "\n").into_bytes();
    let cols = dataset.columns();
    // A record takes at most 10 digits plus one separator per field.
    let mut at = buf.len();
    buf.resize(at + SLAB_BYTES + cols.len() * 11, 0);
    for row in 0..dataset.len() {
        for col in cols {
            at = put_u32(&mut buf, at, col[row]);
            buf[at] = b',';
            at += 1;
        }
        // The last field's separator becomes the line end.
        buf[at - 1] = b'\n';
        if at >= SLAB_BYTES {
            w.write_all(&buf[..at])?;
            at = 0;
        }
    }
    w.write_all(&buf[..at])?;
    w.flush()
}

/// Writes the dataset to a file path.
pub fn save_csv(dataset: &Dataset, path: impl AsRef<Path>) -> io::Result<()> {
    write_csv(dataset, std::fs::File::create(path)?)
}

/// Reads a dataset from a reader.
pub fn read_csv<R: Read>(r: R) -> Result<Dataset, CsvError> {
    let mut decoder = CsvDecoder::new(BufReader::new(r))?;
    let columns = decoder.read_block(usize::MAX)?;
    Ok(Dataset::new(decoder.attributes, columns))
}

/// The one CSV decoder behind [`read_csv`] and [`crate::CsvFileSource`].
/// Lines are read as bytes into a reused buffer; only the header is
/// decoded as UTF-8, and fields are parsed straight from their digits.
#[derive(Debug)]
pub(crate) struct CsvDecoder<R> {
    pub(crate) reader: R,
    pub(crate) attributes: Vec<Attribute>,
    line: Vec<u8>,
    /// 1-based number of the line in `line`; the header is line 1.
    pub(crate) line_no: usize,
}

impl<R: BufRead> CsvDecoder<R> {
    /// Reads and parses the header line `name:domain,...`.
    pub(crate) fn new(reader: R) -> Result<Self, CsvError> {
        let mut d = Self {
            reader,
            attributes: Vec::new(),
            line: Vec::new(),
            line_no: 0,
        };
        if !d.next_line()? {
            return Err(malformed(1, "empty file".into()));
        }
        let header = std::str::from_utf8(&d.line)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        for field in header.split(',') {
            let (name, domain) = field
                .rsplit_once(':')
                .ok_or_else(|| malformed(1, format!("header field `{field}` missing `:domain`")))?;
            let domain = domain
                .parse()
                .map_err(|_| malformed(1, format!("bad domain in `{field}`")))?;
            d.attributes.push(Attribute::new(name, domain));
        }
        Ok(d)
    }

    /// Reads the next line into `line` without its `\n` or `\r\n` (the
    /// normalization `BufRead::lines` applies); false at end of input.
    fn next_line(&mut self) -> io::Result<bool> {
        self.line.clear();
        if self.reader.read_until(b'\n', &mut self.line)? == 0 {
            return Ok(false);
        }
        self.line_no += 1;
        if self.line.ends_with(b"\n") {
            let cr = self.line.ends_with(b"\r\n");
            self.line.truncate(self.line.len() - 1 - usize::from(cr));
        }
        Ok(true)
    }

    /// Reads up to `max_rows` validated records, column-major, skipping
    /// blank lines; the columns are empty only at end of input.
    pub(crate) fn read_block(&mut self, max_rows: usize) -> Result<Vec<Vec<u32>>, CsvError> {
        let m = self.attributes.len();
        let mut columns = vec![Vec::new(); m];
        let mut rows = 0;
        while rows < max_rows && self.next_line()? {
            if self.line.is_empty() {
                continue;
            }
            let line = self.line_no;
            let mut fields = self.line.split(|&b| b == b',');
            for (j, (attr, column)) in self.attributes.iter().zip(&mut columns).enumerate() {
                let field = fields
                    .next()
                    .ok_or_else(|| malformed(line, format!("expected {m} fields, got {j}")))?;
                let v = parse_u32(field).ok_or_else(|| {
                    let field = String::from_utf8_lossy(field);
                    malformed(line, format!("bad value `{field}`"))
                })?;
                if v as usize >= attr.domain {
                    let reason =
                        format!("value {v} outside domain {} of {}", attr.domain, attr.name);
                    return Err(malformed(line, reason));
                }
                column.push(v);
            }
            if fields.next().is_some() {
                return Err(malformed(line, "too many fields".into()));
            }
            rows += 1;
        }
        Ok(columns)
    }
}

fn malformed(line: usize, reason: String) -> CsvError {
    CsvError::Malformed { line, reason }
}

/// Parses a field with exactly the accept set of `str::parse::<u32>`:
/// an optional `+`, then one or more ASCII digits, at most `u32::MAX`.
fn parse_u32(field: &[u8]) -> Option<u32> {
    let digits = field.strip_prefix(b"+").unwrap_or(field);
    if digits.is_empty() {
        return None;
    }
    digits.iter().try_fold(0u32, |v, &b| match b {
        b'0'..=b'9' => v.checked_mul(10)?.checked_add(u32::from(b - b'0')),
        _ => None,
    })
}

/// Reads a dataset from a file path.
pub fn load_csv(path: impl AsRef<Path>) -> Result<Dataset, CsvError> {
    read_csv(std::fs::File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        Dataset::new(
            vec![Attribute::new("a", 4), Attribute::new("b", 100)],
            vec![vec![0, 1, 3], vec![42, 0, 99]],
        )
    }

    #[test]
    fn round_trip() {
        let d = toy();
        let mut buf = Vec::new();
        write_csv(&d, &mut buf).unwrap();
        let back = read_csv(&buf[..]).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn header_carries_domains() {
        let mut buf = Vec::new();
        write_csv(&toy(), &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.starts_with("a:4,b:100\n"));
    }

    #[test]
    fn rejects_out_of_domain_values() {
        let csv = "a:4\n7\n";
        let err = read_csv(csv.as_bytes()).unwrap_err();
        assert!(matches!(err, CsvError::Malformed { line: 2, .. }));
    }

    #[test]
    fn rejects_ragged_rows() {
        let csv = "a:4,b:4\n1,2\n3\n";
        let err = read_csv(csv.as_bytes()).unwrap_err();
        assert!(matches!(err, CsvError::Malformed { line: 3, .. }));
    }

    #[test]
    fn rejects_bad_header() {
        let err = read_csv("justaname\n".as_bytes()).unwrap_err();
        assert!(matches!(err, CsvError::Malformed { line: 1, .. }));
    }

    #[test]
    fn skips_blank_lines() {
        let csv = "a:4\n1\n\n2\n";
        let d = read_csv(csv.as_bytes()).unwrap();
        assert_eq!(d.len(), 2);
    }
}
