//! Seeded workload inputs. The program under test only ever sees the
//! files written here; the same seed writes the same bytes.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

use qar_datagen::{CreditConfig, CreditDataset};
use qar_prng::Prng;
use qar_table::{csv, AttributeKind, Schema};

/// Write the paper's synthetic credit table (Section 6: five quantitative
/// and two categorical attributes) with `rows` records.
pub fn write_credit_csv(path: &Path, rows: usize, seed: u64) -> io::Result<()> {
    let table = CreditDataset::generate(CreditConfig {
        num_records: rows,
        seed,
        ..CreditConfig::default()
    })
    .table;
    let mut out = BufWriter::new(File::create(path)?);
    csv::write_table(&mut out, &table).map_err(io::Error::other)?;
    out.flush()
}

/// A schema as `qar mine --schema` spells it.
pub fn schema_decls(schema: &Schema) -> String {
    schema
        .attributes()
        .iter()
        .map(|a| match a.kind() {
            AttributeKind::Quantitative => format!("{}:quant", a.name()),
            AttributeKind::Categorical => format!("{}:cat", a.name()),
        })
        .collect::<Vec<_>>()
        .join(",")
}

/// The update stream's minimum support; the planted pair's counts are
/// computed against it exactly as the miner computes `min_count`.
pub const UPDATE_MIN_SUPPORT: f64 = 0.1;

/// The update stream's six categorical attributes and their domains.
/// `region = r0` with `channel = c0` is the planted pair; background rows
/// never contain that combination, so its support count is exactly the
/// number of planted rows.
const UPDATE_ATTRIBUTES: [(&str, &[&str]); 6] = [
    ("region", &["r0", "r1", "r2", "r3"]),
    ("channel", &["c0", "c1", "c2", "c3"]),
    ("member", &["yes", "no"]),
    ("returning", &["yes", "no"]),
    ("payment", &["card", "cash", "transfer", "voucher"]),
    ("basket", &["small", "medium", "large", "bulk"]),
];

/// Schema of the update stream.
pub fn update_schema() -> Schema {
    UPDATE_ATTRIBUTES
        .iter()
        .fold(Schema::builder(), |schema, &(name, _)| {
            schema.categorical(name)
        })
        .build()
        .expect("static schema is valid")
}

/// Deltas after which the planted pair sits at or above minimum support.
/// It rises across the threshold on deltas 3, 7, 11, 15 and 19 and falls
/// back below it on 5, 9, 13 and 17, then stays above through delta 20,
/// so the last refresh is an incremental one.
pub const PAIR_ABOVE_AFTER: [usize; 10] = [3, 4, 7, 8, 11, 12, 15, 16, 19, 20];

/// The files of one update stream.
#[derive(Debug, Clone)]
pub struct UpdateStream {
    /// The base table.
    pub base: PathBuf,
    /// The appended deltas, in order.
    pub deltas: Vec<PathBuf>,
    /// 1-based deltas whose refresh must fall back to a full re-mine: the
    /// ones where the planted pair rises above minimum support, which adds
    /// pass-3 candidates the persisted counts never saw. Falling below
    /// only removes candidates, which the incremental path absorbs.
    pub fallbacks: Vec<usize>,
}

/// Write a base of `base_rows` rows and `deltas` deltas of `delta_rows`
/// rows into `dir`.
///
/// Every itemset except the planted pair and its supersets has an
/// expected support at least 0.016 from minimum support (the nearest is
/// `region = r0 ∧ member = no` at about 0.084), which on the 300,000-row
/// base is some thirty standard deviations of sampling noise. The planted
/// pair's count is set per block so that its support after delta `k` is
/// a fixed margin above or below minimum support, as
/// [`PAIR_ABOVE_AFTER`] says — by row counts, not by sampling noise.
pub fn write_update_stream(
    dir: &Path,
    base_rows: usize,
    delta_rows: usize,
    deltas: usize,
    seed: u64,
) -> io::Result<UpdateStream> {
    let planted = planted_counts(base_rows, delta_rows, deltas);
    let mut rng = Prng::seed_from_u64(seed);
    let base = dir.join("base.csv");
    write_update_block(&base, base_rows, planted[0], &mut rng)?;
    let mut paths = Vec::with_capacity(deltas);
    for (k, &count) in planted.iter().enumerate().skip(1) {
        let path = dir.join(format!("delta_{k:02}.csv"));
        write_update_block(&path, delta_rows, count, &mut rng)?;
        paths.push(path);
    }
    let fallbacks = (1..=deltas)
        .filter(|k| above_after(*k) && !above_after(k - 1))
        .collect();
    Ok(UpdateStream {
        base,
        deltas: paths,
        fallbacks,
    })
}

fn above_after(k: usize) -> bool {
    PAIR_ABOVE_AFTER.contains(&k)
}

/// Planted rows in the base (index 0) and in each delta.
fn planted_counts(base_rows: usize, delta_rows: usize, deltas: usize) -> Vec<u64> {
    let margin = (delta_rows / 25) as u64;
    let target = |k: usize| {
        let rows = (base_rows + k * delta_rows) as f64;
        let min_count = (UPDATE_MIN_SUPPORT * rows).ceil() as u64;
        if above_after(k) {
            min_count + margin
        } else {
            min_count - 1 - margin
        }
    };
    let mut counts = vec![target(0)];
    for k in 1..=deltas {
        let added = target(k)
            .checked_sub(target(k - 1))
            .filter(|&n| n <= delta_rows as u64)
            .expect("delta too small for the planted schedule");
        counts.push(added);
    }
    counts
}

/// One CSV block with exactly `planted` rows holding the planted pair,
/// at positions chosen by selection sampling.
fn write_update_block(path: &Path, rows: usize, planted: u64, rng: &mut Prng) -> io::Result<()> {
    let mut out = BufWriter::new(File::create(path)?);
    let names: Vec<&str> = UPDATE_ATTRIBUTES.iter().map(|(n, _)| *n).collect();
    writeln!(out, "{}", names.join(","))?;
    let values = |attr: usize| UPDATE_ATTRIBUTES[attr].1;
    let mut to_plant = planted;
    for left in (1..=rows as u64).rev() {
        let (region, channel) = if rng.gen_range(0..left) < to_plant {
            to_plant -= 1;
            (0, 0)
        } else {
            let combo = rng.gen_range(1..16usize);
            (combo / 4, combo % 4)
        };
        let member = usize::from(rng.gen_f64() >= 0.7);
        let returning = usize::from(rng.gen_f64() >= 0.8);
        writeln!(
            out,
            "{},{},{},{},{},{}",
            values(0)[region],
            values(1)[channel],
            values(2)[member],
            values(3)[returning],
            values(4)[rng.gen_range(0..4usize)],
            values(5)[rng.gen_range(0..4usize)],
        )?;
    }
    out.flush()
}

/// Append `delta`'s records (everything after its header line) to `full`.
pub fn append_records(full: &Path, delta: &Path) -> io::Result<()> {
    let bytes = std::fs::read(delta)?;
    let body = bytes
        .iter()
        .position(|&b| b == b'\n')
        .map_or(&bytes[..0], |i| &bytes[i + 1..]);
    let mut out = std::fs::OpenOptions::new().append(true).open(full)?;
    out.write_all(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qar_table::{Table, Value};

    fn pair_count(table: &Table) -> u64 {
        table
            .rows()
            .filter(|r| r.value(0) == Value::from("r0") && r.value(1) == Value::from("c0"))
            .count() as u64
    }

    #[test]
    fn planted_pair_crosses_minsup_on_schedule() {
        let dir = std::env::temp_dir().join(format!("perfbench-gen-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let stream = write_update_stream(&dir, 20_000, 500, 20, 7).unwrap();
        assert_eq!(stream.fallbacks, vec![3, 7, 11, 15, 19]);

        let schema = update_schema();
        let read = |p: &Path| {
            csv::read_table(std::io::BufReader::new(File::open(p).unwrap()), &schema).unwrap()
        };
        let mut count = pair_count(&read(&stream.base));
        let mut rows = 20_000u64;
        let mut above = Vec::new();
        for (k, delta) in stream.deltas.iter().enumerate() {
            let t = read(delta);
            assert_eq!(t.num_rows(), 500);
            count += pair_count(&t);
            rows += 500;
            let min_count = (UPDATE_MIN_SUPPORT * rows as f64).ceil() as u64;
            if count >= min_count {
                above.push(k + 1);
            }
        }
        assert_eq!(above, PAIR_ABOVE_AFTER.to_vec());

        // The same seed writes the same bytes.
        let again = dir.join("again");
        std::fs::create_dir_all(&again).unwrap();
        let second = write_update_stream(&again, 20_000, 500, 20, 7).unwrap();
        assert_eq!(
            std::fs::read(&stream.deltas[4]).unwrap(),
            std::fs::read(&second.deltas[4]).unwrap()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_skips_the_header() {
        let dir = std::env::temp_dir().join(format!("perfbench-append-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (full, delta) = (dir.join("full.csv"), dir.join("delta.csv"));
        std::fs::write(&full, "a,b\n1,2\n").unwrap();
        std::fs::write(&delta, "a,b\n3,4\n").unwrap();
        append_records(&full, &delta).unwrap();
        assert_eq!(std::fs::read_to_string(&full).unwrap(), "a,b\n1,2\n3,4\n");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
