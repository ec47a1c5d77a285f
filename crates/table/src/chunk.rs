//! Out-of-core chunked columnar table backend.
//!
//! A [`ChunkStore`] holds an encoded table as fixed-size row blocks whose
//! `u32` code columns are spilled to per-chunk files on disk; only one
//! chunk's columns are resident at a time, so a single node can run the
//! paper's multi-pass scans over tables far beyond RAM. Counting an
//! itemset over the whole table is counting it over every chunk and
//! adding the per-chunk `u64` counts — exact integer arithmetic, so the
//! result is bit-identical to an in-memory scan.
//!
//! Building the encoders without holding the table needs one streaming
//! *stats* pass first: [`TableSummary`] merges each chunk's per-column
//! value histograms ([`crate::histogram`]). A merged histogram equals the
//! whole table's, and every encoder is cut from histograms alone, so the
//! encoders built from a summary are identical to the ones built from the
//! in-memory table.

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::PathBuf;

use crate::encode::{AttributeEncoder, EncodedTable};
use crate::error::TableError;
use crate::histogram::Histogram;
use crate::schema::{AttributeId, AttributeKind, Schema};
use crate::table::Table;

/// Magic prefix of a spilled chunk file.
const CHUNK_MAGIC: [u8; 4] = *b"QCK1";

/// The per-column value histograms of a table read in chunks — enough to
/// build every encoder the in-memory pipeline would build, without ever
/// holding the table.
#[derive(Debug, Clone)]
pub struct TableSummary {
    schema: Schema,
    /// Merged histograms of runs of consecutive chunks, with each run's
    /// row count. A run is merged into the one before it as soon as that
    /// one holds no more rows, so a value is merged O(log chunks) times
    /// rather than once per later chunk.
    runs: Vec<(usize, Vec<Histogram>)>,
    num_rows: usize,
}

impl TableSummary {
    /// An empty summary for `schema`.
    pub fn new(schema: Schema) -> Self {
        TableSummary {
            schema,
            runs: Vec::new(),
            num_rows: 0,
        }
    }

    /// Fold one chunk into the summary. The chunk must share the schema.
    pub fn add_chunk(&mut self, chunk: &Table) {
        assert_eq!(chunk.schema().len(), self.schema.len(), "schema mismatch");
        self.num_rows += chunk.num_rows();
        self.runs.push((chunk.num_rows(), chunk.histograms()));
        while let [.., (below, _), (top, _)] = self.runs[..] {
            if below > top {
                break;
            }
            let (rows, top) = self.runs.pop().expect("two runs");
            let below = self.runs.last_mut().expect("two runs");
            below.0 += rows;
            for (merged, part) in below.1.iter_mut().zip(top) {
                merged.merge(part);
            }
        }
    }

    /// The schema this summary was built for.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Total rows folded in so far.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// The merged histogram of every column, schema order.
    pub fn histograms(&self) -> Vec<Histogram> {
        let mut merged: Vec<Histogram> = self
            .schema
            .attributes()
            .iter()
            .map(|def| match def.kind() {
                AttributeKind::Quantitative => Histogram::Quantitative(Default::default()),
                AttributeKind::Categorical => Histogram::Categorical(Default::default()),
            })
            .collect();
        for (_, run) in &self.runs {
            for (merged, part) in merged.iter_mut().zip(run) {
                merged.merge(part.clone());
            }
        }
        merged
    }
}

/// An encoded table spilled to disk as per-chunk code-column files.
///
/// Create with [`ChunkStore::create`], append row blocks with
/// [`ChunkStore::append_chunk`] (raw rows, encoded here) or
/// [`ChunkStore::append_encoded`], then scan chunk by chunk via
/// [`ChunkStore::chunk`] — each load returns a normal [`EncodedTable`]
/// the existing scan kernels consume unchanged. Chunk files are removed
/// on drop.
#[derive(Debug)]
pub struct ChunkStore {
    dir: PathBuf,
    schema: Schema,
    encoders: Vec<AttributeEncoder>,
    /// Rows per chunk, append order.
    chunk_rows: Vec<usize>,
    num_rows: usize,
}

impl ChunkStore {
    /// Create a store spilling into `dir` (created if missing). The
    /// encoders fix the code space for every chunk appended later.
    pub fn create(
        dir: impl Into<PathBuf>,
        schema: Schema,
        encoders: Vec<AttributeEncoder>,
    ) -> Result<Self, TableError> {
        assert_eq!(encoders.len(), schema.len(), "one encoder per attribute");
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(ChunkStore {
            dir,
            schema,
            encoders,
            chunk_rows: Vec::new(),
            num_rows: 0,
        })
    }

    fn chunk_path(&self, index: usize) -> PathBuf {
        self.dir.join(format!("chunk_{index:06}.qcol"))
    }

    /// Encode a raw row block with the store's encoders and spill it.
    pub fn append_chunk(&mut self, chunk: &Table) -> Result<(), TableError> {
        let encoded = EncodedTable::encode(chunk, self.encoders.clone())?;
        self.append_encoded(&encoded)
    }

    /// Spill an already-encoded row block. Its schema/encoder shapes must
    /// match the store's.
    pub fn append_encoded(&mut self, chunk: &EncodedTable) -> Result<(), TableError> {
        assert_eq!(chunk.schema().len(), self.schema.len(), "schema mismatch");
        let index = self.chunk_rows.len();
        let path = self.chunk_path(index);
        let mut w = BufWriter::new(File::create(&path)?);
        let mut checksum: u64 = 0;
        w.write_all(&CHUNK_MAGIC)?;
        w.write_all(&(self.schema.len() as u32).to_le_bytes())?;
        w.write_all(&(chunk.num_rows() as u64).to_le_bytes())?;
        for idx in 0..self.schema.len() {
            for &code in chunk.codes(AttributeId(idx)) {
                w.write_all(&code.to_le_bytes())?;
                checksum = checksum
                    .wrapping_mul(0x100000001B3)
                    .wrapping_add(code as u64);
            }
        }
        w.write_all(&checksum.to_le_bytes())?;
        w.flush()?;
        self.chunk_rows.push(chunk.num_rows());
        self.num_rows += chunk.num_rows();
        Ok(())
    }

    /// Number of spilled chunks.
    pub fn num_chunks(&self) -> usize {
        self.chunk_rows.len()
    }

    /// Total rows across all chunks.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// The shared schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The shared encoders (one per attribute, schema order).
    pub fn encoders(&self) -> &[AttributeEncoder] {
        &self.encoders
    }

    /// A decode-only header table (schema + encoders, true row count, no
    /// columns) for rule rendering and candidate generation.
    pub fn header(&self) -> EncodedTable {
        EncodedTable::header_only(self.schema.clone(), self.encoders.clone(), self.num_rows)
    }

    /// Load chunk `index` back into memory as a normal [`EncodedTable`].
    pub fn chunk(&self, index: usize) -> Result<EncodedTable, TableError> {
        let path = self.chunk_path(index);
        let expected_rows = self.chunk_rows[index];
        let mut r = BufReader::new(File::open(&path)?);
        let corrupt = |detail: &str| TableError::Io(format!("{}: {detail}", path.display()));

        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if magic != CHUNK_MAGIC {
            return Err(corrupt("bad chunk magic"));
        }
        let mut b4 = [0u8; 4];
        r.read_exact(&mut b4)?;
        let ncols = u32::from_le_bytes(b4) as usize;
        if ncols != self.schema.len() {
            return Err(corrupt("column count mismatch"));
        }
        let mut b8 = [0u8; 8];
        r.read_exact(&mut b8)?;
        let nrows = u64::from_le_bytes(b8) as usize;
        if nrows != expected_rows {
            return Err(corrupt("row count mismatch"));
        }

        let mut checksum: u64 = 0;
        let mut columns = Vec::with_capacity(ncols);
        let mut raw = vec![0u8; nrows * 4];
        for _ in 0..ncols {
            r.read_exact(&mut raw)?;
            let codes: Vec<u32> = raw
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect();
            for &code in &codes {
                checksum = checksum
                    .wrapping_mul(0x100000001B3)
                    .wrapping_add(code as u64);
            }
            columns.push(codes);
        }
        r.read_exact(&mut b8)?;
        if u64::from_le_bytes(b8) != checksum {
            return Err(corrupt("chunk checksum mismatch"));
        }
        Ok(EncodedTable::from_parts(
            self.schema.clone(),
            self.encoders.clone(),
            columns,
            nrows,
        ))
    }
}

impl Drop for ChunkStore {
    fn drop(&mut self) {
        for index in 0..self.chunk_rows.len() {
            let _ = std::fs::remove_file(self.chunk_path(index));
        }
        // Only removes the directory when nothing else lives in it.
        let _ = std::fs::remove_dir(&self.dir);
    }
}

/// A fresh spill directory under the system temp dir, unique per process
/// and call.
pub fn default_spill_dir(label: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("qar_chunks_{label}_{}_{seq}", std::process::id()))
}

/// Stream a CSV input into a [`ChunkStore`] in `chunk_rows`-row blocks:
/// one stats pass to build the summary, then (driven by the caller, who
/// decides the encoders from the summary) one spill pass. This helper
/// runs the *spill* pass given encoders already chosen.
pub fn spill_csv<R: std::io::BufRead>(
    reader: R,
    schema: &Schema,
    encoders: Vec<AttributeEncoder>,
    chunk_rows: usize,
    dir: impl Into<PathBuf>,
) -> Result<ChunkStore, TableError> {
    let mut chunks = crate::csv::CsvChunks::new(reader, schema.clone(), chunk_rows)?;
    let mut store = ChunkStore::create(dir, schema.clone(), encoders)?;
    while let Some(chunk) = chunks.next_chunk()? {
        store.append_chunk(&chunk)?;
    }
    Ok(store)
}

/// Run the stats pass over a CSV input: stream it in `chunk_rows`-row
/// blocks and fold every block into a [`TableSummary`].
pub fn summarize_csv<R: std::io::BufRead>(
    reader: R,
    schema: &Schema,
    chunk_rows: usize,
) -> Result<TableSummary, TableError> {
    let mut chunks = crate::csv::CsvChunks::new(reader, schema.clone(), chunk_rows)?;
    let mut summary = TableSummary::new(schema.clone());
    while let Some(chunk) = chunks.next_chunk()? {
        summary.add_chunk(&chunk);
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn schema() -> Schema {
        Schema::builder()
            .quantitative("age")
            .categorical("married")
            .quantitative("num_cars")
            .build()
            .unwrap()
    }

    fn people() -> Table {
        let mut t = Table::new(schema());
        for (age, married, cars) in [
            (23, "No", 1),
            (25, "Yes", 1),
            (29, "No", 0),
            (34, "Yes", 2),
            (38, "Yes", 2),
        ] {
            t.push_row(&[Value::Int(age), Value::from(married), Value::Int(cars)])
                .unwrap();
        }
        t
    }

    fn spill_dir(label: &str) -> PathBuf {
        default_spill_dir(label)
    }

    #[test]
    fn summary_holds_the_tables_histograms() {
        let t = people();
        let mut summary = TableSummary::new(schema());
        summary.add_chunk(&t);
        assert_eq!(summary.num_rows(), 5);
        let histograms = summary.histograms();
        assert_eq!(histograms, t.histograms());
        let cars = histograms[2].as_quantitative().unwrap();
        assert_eq!(cars.values(), &[0.0, 1.0, 2.0]);
        assert_eq!(cars.counts(), &[1, 2, 2]);
        assert!(cars.integral());
        let married = histograms[1].as_categorical().unwrap();
        assert_eq!(married.labels(), &["No", "Yes"]);
    }

    #[test]
    fn summary_is_chunking_invariant() {
        let t = people();
        let mut whole = TableSummary::new(schema());
        whole.add_chunk(&t);

        // Same rows in two chunks of 2 and 3.
        let mut parts = TableSummary::new(schema());
        for range in [0..2usize, 2..5] {
            let mut chunk = Table::new(schema());
            for r in range {
                chunk.push_row(&t.row(r).to_values()).unwrap();
            }
            parts.add_chunk(&chunk);
        }
        assert_eq!(whole.histograms(), parts.histograms());
        assert_eq!(whole.num_rows(), parts.num_rows());
    }

    #[test]
    fn chunk_store_round_trips_codes() {
        let t = people();
        let whole = EncodedTable::encode_full_resolution(&t).unwrap();
        let mut store = ChunkStore::create(
            spill_dir("roundtrip"),
            t.schema().clone(),
            whole.encoders().to_vec(),
        )
        .unwrap();
        // Spill in blocks of 2.
        for range in [0..2usize, 2..4, 4..5] {
            let mut chunk = Table::new(t.schema().clone());
            for r in range {
                chunk.push_row(&t.row(r).to_values()).unwrap();
            }
            store.append_chunk(&chunk).unwrap();
        }
        assert_eq!(store.num_chunks(), 3);
        assert_eq!(store.num_rows(), 5);
        // Concatenated chunk codes equal the in-memory encoding.
        for a in 0..3 {
            let id = AttributeId(a);
            let mut got: Vec<u32> = Vec::new();
            for i in 0..store.num_chunks() {
                got.extend_from_slice(store.chunk(i).unwrap().codes(id));
            }
            assert_eq!(got, whole.codes(id), "attribute {a}");
        }
    }

    #[test]
    fn chunk_files_removed_on_drop() {
        let dir = spill_dir("drop");
        {
            let t = people();
            let whole = EncodedTable::encode_full_resolution(&t).unwrap();
            let mut store =
                ChunkStore::create(&dir, t.schema().clone(), whole.encoders().to_vec()).unwrap();
            store.append_chunk(&t).unwrap();
            assert!(dir.join("chunk_000000.qcol").exists());
        }
        assert!(!dir.join("chunk_000000.qcol").exists());
    }

    #[test]
    fn corrupt_chunk_detected() {
        let dir = spill_dir("corrupt");
        let t = people();
        let whole = EncodedTable::encode_full_resolution(&t).unwrap();
        let mut store =
            ChunkStore::create(&dir, t.schema().clone(), whole.encoders().to_vec()).unwrap();
        store.append_chunk(&t).unwrap();
        let path = dir.join("chunk_000000.qcol");
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, bytes).unwrap();
        let err = store.chunk(0).unwrap_err();
        assert!(matches!(err, TableError::Io(_)), "{err}");
    }

    #[test]
    fn spill_and_summarize_csv_helpers() {
        let s = Schema::builder()
            .quantitative("x")
            .categorical("c")
            .build()
            .unwrap();
        let input = "x,c\n1,a\n2,b\n3,a\n4,b\n5,a\n";
        let summary = summarize_csv(input.as_bytes(), &s, 2).unwrap();
        assert_eq!(summary.num_rows(), 5);
        let histograms = summary.histograms();
        let [Histogram::Quantitative(x), Histogram::Categorical(c)] = histograms.as_slice() else {
            panic!("one quantitative and one categorical histogram");
        };
        assert_eq!(c.labels(), &["a", "b"]);
        let encoders = vec![
            AttributeEncoder::quant_values_from(x),
            AttributeEncoder::categorical_from(c),
        ];
        let store = spill_csv(input.as_bytes(), &s, encoders, 2, spill_dir("helper")).unwrap();
        assert_eq!(store.num_chunks(), 3);
        assert_eq!(store.num_rows(), 5);
        assert_eq!(store.chunk(2).unwrap().codes(AttributeId(0)), &[4]);
    }
}
