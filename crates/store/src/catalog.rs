//! The persistent rule catalog: everything a mine produced, decodable
//! without the original table.
//!
//! A [`Catalog`] bundles the schema, the per-attribute encoders (so item
//! codes decode back to labels and value bounds), the mined rules with
//! their interest verdicts, and the run's [`MiningStats`] provenance. It
//! serializes to the `.qarcat` format described in [`crate::format`] and
//! round-trips bit-exactly: `encode(decode(bytes)) == bytes`.
//!
//! Decoding validates every structural invariant the in-memory types
//! assume (sorted labels, increasing cuts, in-range item codes, ...) and
//! returns [`StoreError`] — never panics — on any violation, so a catalog
//! from an untrusted source is safe to open.

use std::time::Instant;

use crate::error::StoreError;
use crate::format::{self, Reader, Writer};
use qar_analytics::{AnalyticsSet, RuleAnalytics};
use qar_core::pipeline::{MiningOutput, MiningStats};
use qar_core::supercand::PassStats;
use qar_core::{
    encoding_fingerprint, mine::MineStats, CapturedCounts, CountsConfig, InterestConfig,
    InterestMode, PartitionSpec, PartitionStrategy, QuantRule, RuleDecoder, RuleInterest,
    SupportCounts,
};
use qar_itemset::{Item, Itemset};
use qar_table::encode::IntervalSpec;
use qar_table::{AttributeDef, AttributeEncoder, AttributeId, AttributeKind, Schema};
use qar_trace::{event::micros, ProgressSink, TraceEvent};

/// A mined ruleset with everything needed to query and render it.
#[derive(Debug, Clone)]
pub struct Catalog {
    schema: Schema,
    encoders: Vec<AttributeEncoder>,
    num_rows: u64,
    rules: Vec<QuantRule>,
    interest: Option<Vec<RuleInterest>>,
    stats: MiningStats,
    analytics: Option<AnalyticsSet>,
    counts: Option<SupportCounts>,
}

impl Catalog {
    /// Build a catalog from parts, validating the same invariants
    /// [`Catalog::decode`] enforces.
    pub fn new(
        schema: Schema,
        encoders: Vec<AttributeEncoder>,
        num_rows: u64,
        rules: Vec<QuantRule>,
        interest: Option<Vec<RuleInterest>>,
        stats: MiningStats,
    ) -> Result<Self, StoreError> {
        let catalog = Catalog {
            schema,
            encoders,
            num_rows,
            rules,
            interest,
            stats,
            analytics: None,
            counts: None,
        };
        catalog.validate()?;
        Ok(catalog)
    }

    /// Attach rule-quality analytics, validating that they line up with
    /// the catalog's rules (one entry per rule, Shapley attributions over
    /// exactly the antecedent's attributes).
    pub fn with_analytics(mut self, analytics: AnalyticsSet) -> Result<Self, StoreError> {
        self.analytics = Some(analytics);
        self.validate()?;
        Ok(self)
    }

    /// Attach persisted support counts, validating that they line up with
    /// the catalog (row total, encoding fingerprint, histogram shapes,
    /// in-range candidate codes).
    pub fn with_counts(mut self, counts: SupportCounts) -> Result<Self, StoreError> {
        self.counts = Some(counts);
        self.validate()?;
        Ok(self)
    }

    /// Drop persisted support counts (e.g. when re-saving a catalog whose
    /// counts no longer describe its rules).
    pub fn without_counts(mut self) -> Self {
        self.counts = None;
        self
    }

    /// Capture a finished mine as a catalog.
    ///
    /// # Panics
    /// If the miner produced structurally invalid output — which would be
    /// a bug in the miner, not in the caller.
    pub fn from_mining(output: &MiningOutput) -> Self {
        Catalog::new(
            output.encoded.schema().clone(),
            output.encoded.encoders().to_vec(),
            output.frequent.num_rows,
            output.rules.clone(),
            output.interest.clone(),
            output.stats.clone(),
        )
        .expect("miner output is always a valid catalog")
    }

    /// The schema the rules' attribute ids refer to.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// All per-attribute encoders, in schema order.
    pub fn encoders(&self) -> &[AttributeEncoder] {
        &self.encoders
    }

    /// Rows of the table the rules were mined from.
    pub fn num_rows(&self) -> u64 {
        self.num_rows
    }

    /// The mined rules, in the miner's output order.
    pub fn rules(&self) -> &[QuantRule] {
        &self.rules
    }

    /// Interest verdicts aligned with [`Catalog::rules`], if the mine
    /// computed them.
    pub fn interest(&self) -> Option<&[RuleInterest]> {
        self.interest.as_deref()
    }

    /// The run's statistics.
    pub fn stats(&self) -> &MiningStats {
        &self.stats
    }

    /// Rule-quality analytics aligned with [`Catalog::rules`], if this
    /// catalog carries them (mined with `--analytics` or backfilled with
    /// `qar analyze`).
    pub fn analytics(&self) -> Option<&AnalyticsSet> {
        self.analytics.as_ref()
    }

    /// Persisted support counts, if this catalog carries them (mined with
    /// a counts-capturing run) — the raw tallies `qar mine --update`
    /// merges with a delta-only scan instead of re-scanning the base.
    pub fn counts(&self) -> Option<&SupportCounts> {
        self.counts.as_ref()
    }

    /// True when two catalogs carry the same mining *content*: schema,
    /// encoders, row count, rules (bit-for-bit supports and confidences),
    /// interest verdicts, analytics (bit-for-bit, NaN-tolerant), and
    /// persisted support counts. Run statistics are excluded — they
    /// describe how a mine ran, not what it found. This is the equality a
    /// save→load round trip must preserve.
    pub fn content_eq(&self, other: &Catalog) -> bool {
        let analytics_eq = match (&self.analytics, &other.analytics) {
            (None, None) => true,
            (Some(a), Some(b)) => a.bits_eq(b),
            _ => false,
        };
        self.schema == other.schema
            && self.encoders == other.encoders
            && self.num_rows == other.num_rows
            && self.rules == other.rules
            && self.interest == other.interest
            && analytics_eq
            && self.counts == other.counts
    }

    /// Serialize to `.qarcat` bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        for &b in &format::MAGIC {
            w.put_u8(b);
        }
        w.put_u32(format::VERSION);
        w.put_section(format::tag::SCHEMA, &self.encode_schema());
        w.put_section(format::tag::RULES, &self.encode_rules());
        w.put_section(format::tag::STATS, &self.encode_stats());
        if let Some(analytics) = &self.analytics {
            w.put_section(format::tag::ANALYTICS, &encode_analytics(analytics));
        }
        if let Some(counts) = &self.counts {
            w.put_section(format::tag::COUNTS, &encode_counts(counts));
        }
        w.into_bytes()
    }

    /// Decode a catalog from `.qarcat` bytes, verifying magic, version,
    /// per-section CRCs, and every structural invariant.
    pub fn decode(bytes: &[u8]) -> Result<Self, StoreError> {
        if bytes.len() < format::MAGIC.len() || bytes[..format::MAGIC.len()] != format::MAGIC {
            return Err(StoreError::BadMagic);
        }
        let mut r = Reader::new(&bytes[format::MAGIC.len()..]);
        let version = r.get_u32()?;
        if version != format::VERSION {
            return Err(StoreError::UnsupportedVersion(version));
        }
        let mut sections = Vec::with_capacity(3);
        for expected in [format::tag::SCHEMA, format::tag::RULES, format::tag::STATS] {
            let (tag, payload) = r.get_section()?;
            if tag != expected {
                return Err(StoreError::Corrupt {
                    section: "header",
                    detail: format!(
                        "expected {} section (tag {expected}), found tag {tag}",
                        format::section_name(expected)
                    ),
                });
            }
            sections.push(payload);
        }
        // Optional trailing sections: analytics and counts are decoded
        // (in that canonical order, so re-encoding reproduces the bytes);
        // v1 counts and unknown tags are CRC-verified (a flipped byte is
        // still detected) but their contents skipped, so readers of this
        // version open catalogs written by older and future ones.
        let mut analytics_payload = None;
        let mut counts_payload = None;
        while r.remaining() > 0 {
            let (tag, payload) = r.get_section()?;
            match tag {
                format::tag::ANALYTICS => {
                    if analytics_payload.is_some() {
                        return Err(StoreError::Corrupt {
                            section: "analytics",
                            detail: "duplicate analytics section".into(),
                        });
                    }
                    if counts_payload.is_some() {
                        return Err(StoreError::Corrupt {
                            section: "analytics",
                            detail: "analytics section after counts section".into(),
                        });
                    }
                    analytics_payload = Some(payload);
                }
                format::tag::COUNTS => {
                    if counts_payload.is_some() {
                        return Err(StoreError::Corrupt {
                            section: "counts",
                            detail: "duplicate counts section".into(),
                        });
                    }
                    counts_payload = Some(payload);
                }
                format::tag::SCHEMA | format::tag::RULES | format::tag::STATS => {
                    return Err(StoreError::Corrupt {
                        section: "header",
                        detail: format!(
                            "duplicate {} section after the mandatory three",
                            format::section_name(tag)
                        ),
                    });
                }
                // v1 counts (per-candidate pass 2) or an unknown
                // trailing section: verified, skipped.
                _ => {}
            }
        }
        let (schema, encoders) = decode_schema(sections[0])?;
        let (num_rows, rules, interest) = decode_rules(sections[1])?;
        let stats = decode_stats(sections[2])?;
        let mut catalog = Catalog::new(schema, encoders, num_rows, rules, interest, stats)?;
        if let Some(payload) = analytics_payload {
            catalog = catalog.with_analytics(decode_analytics(payload)?)?;
        }
        if let Some(payload) = counts_payload {
            catalog = catalog.with_counts(decode_counts(payload)?)?;
        }
        Ok(catalog)
    }

    /// Decode from bytes already in memory (e.g. piped via stdin),
    /// reporting a [`TraceEvent::CatalogLoaded`] to `sink`.
    pub fn load_bytes(bytes: &[u8], sink: Option<&dyn ProgressSink>) -> Result<Self, StoreError> {
        let start = Instant::now();
        let catalog = Catalog::decode(bytes)?;
        if let Some(sink) = sink {
            sink.on_event(&TraceEvent::CatalogLoaded {
                rules: catalog.rules.len(),
                bytes: bytes.len() as u64,
                elapsed_us: micros(start.elapsed()),
            });
            if let Some(counts) = &catalog.counts {
                sink.on_event(&TraceEvent::CountsLoaded {
                    passes: counts.captured.counting_passes(),
                    itemsets: counts.total_candidates(),
                    rows: counts.num_rows,
                });
            }
        }
        Ok(catalog)
    }

    /// Read and decode a catalog file.
    pub fn load(
        path: impl AsRef<std::path::Path>,
        sink: Option<&dyn ProgressSink>,
    ) -> Result<Self, StoreError> {
        let bytes = std::fs::read(path)?;
        Catalog::load_bytes(&bytes, sink)
    }

    /// Encode and write a catalog file, reporting a
    /// [`TraceEvent::CatalogSaved`] to `sink`.
    pub fn save(
        &self,
        path: impl AsRef<std::path::Path>,
        sink: Option<&dyn ProgressSink>,
    ) -> Result<(), StoreError> {
        let start = Instant::now();
        let bytes = self.encode();
        std::fs::write(path, &bytes)?;
        if let Some(sink) = sink {
            sink.on_event(&TraceEvent::CatalogSaved {
                rules: self.rules.len(),
                bytes: bytes.len() as u64,
                elapsed_us: micros(start.elapsed()),
            });
            if let Some(counts) = &self.counts {
                sink.on_event(&TraceEvent::CountsSaved {
                    passes: counts.captured.counting_passes(),
                    itemsets: counts.total_candidates(),
                    bytes: encode_counts(counts).len() as u64,
                });
            }
        }
        Ok(())
    }

    fn encode_schema(&self) -> Vec<u8> {
        encode_schema_with(&self.schema, &self.encoders)
    }

    fn encode_rules(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u64(self.num_rows);
        w.put_u64(self.rules.len() as u64);
        for rule in &self.rules {
            encode_itemset(&mut w, &rule.antecedent);
            encode_itemset(&mut w, &rule.consequent);
            w.put_u64(rule.support);
            w.put_f64(rule.confidence);
        }
        w.put_bool(self.interest.is_some());
        if let Some(verdicts) = &self.interest {
            for v in verdicts {
                w.put_u8(v.interesting as u8 | (v.has_ancestors as u8) << 1);
            }
        }
        w.into_bytes()
    }

    fn encode_stats(&self) -> Vec<u8> {
        let s = &self.stats;
        let mut w = Writer::new();
        w.put_u64(s.intervals_per_attribute.len() as u64);
        for iv in &s.intervals_per_attribute {
            w.put_bool(iv.is_some());
            if let Some(n) = iv {
                w.put_u64(*n as u64);
            }
        }
        w.put_u64(s.rules_total as u64);
        w.put_u64(s.rules_interesting as u64);
        w.put_duration(s.elapsed);
        w.put_duration(s.elapsed_mining);
        w.put_bool(s.encoding_reused);
        w.put_u64(s.mine.candidates_per_pass.len() as u64);
        for &c in &s.mine.candidates_per_pass {
            w.put_u64(c as u64);
        }
        w.put_u64(s.mine.interest_pruned_items as u64);
        w.put_duration(s.mine.pass1_scan_time);
        w.put_u64(s.mine.parallelism as u64);
        w.put_u64(s.mine.pass_stats.len() as u64);
        for p in &s.mine.pass_stats {
            w.put_u64(p.super_candidates as u64);
            w.put_u64(p.array_backed as u64);
            w.put_u64(p.rtree_backed as u64);
            w.put_u64(p.hash_tree_nodes as u64);
            w.put_u64(p.counter_bytes as u64);
            w.put_duration(p.scan_time);
            w.put_duration(p.merge_time);
            w.put_u64(p.shard_scan_times.len() as u64);
            for &d in &p.shard_scan_times {
                w.put_duration(d);
            }
        }
        w.into_bytes()
    }

    /// Check every invariant decode relies on. `Err` carries the section
    /// the violation would live in on disk.
    fn validate(&self) -> Result<(), StoreError> {
        let corrupt = |section, detail: String| StoreError::Corrupt { section, detail };
        if self.encoders.len() != self.schema.len() {
            return Err(corrupt(
                "schema",
                format!(
                    "{} encoder(s) for {} attribute(s)",
                    self.encoders.len(),
                    self.schema.len()
                ),
            ));
        }
        for (id, def) in self.schema.iter() {
            let enc = &self.encoders[id.index()];
            validate_encoder(def.name(), def.kind(), enc)?;
        }
        if let Some(verdicts) = &self.interest {
            if verdicts.len() != self.rules.len() {
                return Err(corrupt(
                    "rules",
                    format!(
                        "{} interest verdict(s) for {} rule(s)",
                        verdicts.len(),
                        self.rules.len()
                    ),
                ));
            }
        }
        for (i, rule) in self.rules.iter().enumerate() {
            validate_itemset(i, "antecedent", &rule.antecedent, &self.encoders)?;
            validate_itemset(i, "consequent", &rule.consequent, &self.encoders)?;
            let overlap = rule
                .antecedent
                .items()
                .iter()
                .any(|a| rule.consequent.items().iter().any(|c| c.attr == a.attr));
            if overlap {
                return Err(corrupt(
                    "rules",
                    format!("rule {i}: antecedent and consequent share an attribute"),
                ));
            }
        }
        if self.stats.intervals_per_attribute.len() != self.schema.len() {
            return Err(corrupt(
                "stats",
                format!(
                    "{} interval count(s) for {} attribute(s)",
                    self.stats.intervals_per_attribute.len(),
                    self.schema.len()
                ),
            ));
        }
        if let Some(analytics) = &self.analytics {
            if analytics.rules.len() != self.rules.len() {
                return Err(corrupt(
                    "analytics",
                    format!(
                        "{} analytics entr(ies) for {} rule(s)",
                        analytics.rules.len(),
                        self.rules.len()
                    ),
                ));
            }
            for (i, (entry, rule)) in analytics.rules.iter().zip(&self.rules).enumerate() {
                let ant_attrs: Vec<u32> =
                    rule.antecedent.items().iter().map(|it| it.attr).collect();
                let shap_attrs: Vec<u32> = entry.shapley.iter().map(|(a, _)| *a).collect();
                if ant_attrs != shap_attrs {
                    return Err(corrupt(
                        "analytics",
                        format!(
                            "rule {i}: Shapley attributes {shap_attrs:?} do not match \
                             antecedent attributes {ant_attrs:?}"
                        ),
                    ));
                }
            }
        }
        if let Some(counts) = &self.counts {
            self.validate_counts(counts)?;
        }
        Ok(())
    }

    /// Check persisted counts against the catalog they ride in: row total
    /// and encoding fingerprint agree, the config is a valid miner
    /// configuration, histograms span exactly the encoders' code spaces,
    /// pass-2 pairs are strictly increasing `a < b` attribute pairs whose
    /// cells fill `card(a) × card(b)` and sum to the pass-1 histograms
    /// along both axes, and every tallied candidate's codes are in range.
    fn validate_counts(&self, counts: &SupportCounts) -> Result<(), StoreError> {
        let corrupt = |detail: String| StoreError::Corrupt {
            section: "counts",
            detail,
        };
        if counts.num_rows != self.num_rows {
            return Err(corrupt(format!(
                "counts cover {} row(s) but the catalog has {}",
                counts.num_rows, self.num_rows
            )));
        }
        let expected = encoding_fingerprint(&self.schema, &self.encoders);
        if counts.fingerprint != expected {
            return Err(corrupt(
                "encoding fingerprint does not match the catalog's schema and encoders".into(),
            ));
        }
        if let Err(e) = counts.config.miner_config().validate() {
            return Err(corrupt(format!("invalid mining configuration: {e}")));
        }
        if counts.intervals_per_attribute.len() != self.schema.len() {
            return Err(corrupt(format!(
                "{} interval count(s) for {} attribute(s)",
                counts.intervals_per_attribute.len(),
                self.schema.len()
            )));
        }
        if counts.captured.value_counts.len() != self.schema.len() {
            return Err(corrupt(format!(
                "{} histogram(s) for {} attribute(s)",
                counts.captured.value_counts.len(),
                self.schema.len()
            )));
        }
        for (id, _) in self.schema.iter() {
            let have = counts.captured.value_counts[id.index()].len();
            let want = self.encoders[id.index()].cardinality() as usize;
            if have != want {
                return Err(corrupt(format!(
                    "attribute {}: histogram has {have} bucket(s) for cardinality {want}",
                    id.index()
                )));
            }
        }
        let mut prev_pair = None;
        for ((a, b), cells) in &counts.captured.pair_cells {
            let (a, b) = (*a as usize, *b as usize);
            if a >= b || b >= self.schema.len() {
                return Err(corrupt(format!(
                    "pair ({a}, {b}) is not two distinct attributes in order"
                )));
            }
            if prev_pair.is_some_and(|p| p >= (a, b)) {
                return Err(corrupt("pairs are not strictly increasing".into()));
            }
            prev_pair = Some((a, b));
            let hist = &counts.captured.value_counts;
            let (rows, cols) = (&hist[a], &hist[b]);
            if cells.len() as u64 != rows.len() as u64 * cols.len() as u64 {
                return Err(corrupt(format!(
                    "pair ({a}, {b}) holds {} cell(s) for {} × {} codes",
                    cells.len(),
                    rows.len(),
                    cols.len()
                )));
            }
            // u128 sums: corrupt cells must not overflow into a pass.
            let mut col_sums = vec![0u128; cols.len()];
            for (x, row) in cells.chunks(cols.len().max(1)).enumerate() {
                let mut row_sum = 0u128;
                for (y, &cell) in row.iter().enumerate() {
                    row_sum += u128::from(cell);
                    col_sums[y] += u128::from(cell);
                }
                if row_sum != u128::from(rows[x]) {
                    return Err(corrupt(format!(
                        "pair ({a}, {b}): cells of code {x} sum to {row_sum}, \
                         not its pass-1 count {}",
                        rows[x]
                    )));
                }
            }
            if let Some(y) = (0..cols.len()).find(|&y| col_sums[y] != u128::from(cols[y])) {
                return Err(corrupt(format!(
                    "pair ({a}, {b}): cells of code {y} of attribute {b} sum to {}, \
                     not its pass-1 count {}",
                    col_sums[y], cols[y]
                )));
            }
        }
        for (pass, entries) in &counts.captured.passes {
            for (itemset, _) in entries {
                itemset
                    .check_codes(cardinalities(&self.encoders))
                    .map_err(|e| corrupt(format!("pass {pass}: candidate {e}")))?;
            }
        }
        Ok(())
    }
}

/// One section of a `.qarcat` file, as reported by
/// [`section_inventory`]: its framing plus whether the checksum held and
/// whether this reader version understands the tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionInfo {
    /// The section's tag value.
    pub tag: u32,
    /// Human name of the tag ("unknown" for tags this version skips).
    pub name: &'static str,
    /// Payload length in bytes.
    pub len: u64,
    /// Whether the stored CRC matches the payload.
    pub crc_ok: bool,
}

impl SectionInfo {
    /// True when this reader version decodes the section (rather than
    /// skipping it as an unknown trailing section).
    pub fn known(&self) -> bool {
        self.name != "unknown"
    }
}

/// Walk a `.qarcat` file's section framing without decoding payloads,
/// reporting each section's tag, length, and CRC verdict — the engine of
/// `qar store-check`. Unlike [`Catalog::decode`] a checksum mismatch is
/// reported per-section, not fatal; only structurally unwalkable files
/// (bad magic, wrong version, truncated framing) error.
pub fn section_inventory(bytes: &[u8]) -> Result<Vec<SectionInfo>, StoreError> {
    if bytes.len() < format::MAGIC.len() || bytes[..format::MAGIC.len()] != format::MAGIC {
        return Err(StoreError::BadMagic);
    }
    let mut r = Reader::new(&bytes[format::MAGIC.len()..]);
    let version = r.get_u32()?;
    if version != format::VERSION {
        return Err(StoreError::UnsupportedVersion(version));
    }
    let mut out = Vec::new();
    while r.remaining() > 0 {
        let (tag, len, crc_ok) = r.get_section_frame()?;
        out.push(SectionInfo {
            tag,
            name: format::section_name(tag),
            len,
            crc_ok,
        });
    }
    Ok(out)
}

impl RuleDecoder for Catalog {
    fn schema(&self) -> &Schema {
        &self.schema
    }
    fn encoder(&self, id: AttributeId) -> &AttributeEncoder {
        &self.encoders[id.index()]
    }
}

/// Serialize an [`AnalyticsSet`] into the `ANALYTICS` section payload:
/// sampling provenance, then per rule the two marginal counts, the seven
/// measures as raw f64 bits, and the Shapley `(attr, value)` pairs.
fn encode_analytics(set: &AnalyticsSet) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u32(set.shapley_samples);
    w.put_u64(set.seed);
    w.put_u64(set.rules.len() as u64);
    for r in &set.rules {
        w.put_u64(r.count_antecedent);
        w.put_u64(r.count_consequent);
        w.put_f64(r.lift);
        w.put_f64(r.conviction);
        w.put_f64(r.leverage);
        w.put_f64(r.chi2);
        w.put_f64(r.p_value);
        w.put_f64(r.p_adjusted);
        w.put_f64(r.jmeasure);
        w.put_u64(r.shapley.len() as u64);
        for (attr, value) in &r.shapley {
            w.put_u32(*attr);
            w.put_f64(*value);
        }
    }
    w.into_bytes()
}

fn decode_analytics(payload: &[u8]) -> Result<AnalyticsSet, StoreError> {
    let mut r = Reader::new(payload);
    r.set_section("analytics");
    let shapley_samples = r.get_u32()?;
    let seed = r.get_u64()?;
    // Two counts + seven measures + shapley count per rule at minimum.
    let count = r.get_count(2 * 8 + 7 * 8 + 8)?;
    let mut rules = Vec::with_capacity(count);
    for _ in 0..count {
        let count_antecedent = r.get_u64()?;
        let count_consequent = r.get_u64()?;
        let lift = r.get_f64()?;
        let conviction = r.get_f64()?;
        let leverage = r.get_f64()?;
        let chi2 = r.get_f64()?;
        let p_value = r.get_f64()?;
        let p_adjusted = r.get_f64()?;
        let jmeasure = r.get_f64()?;
        let n = r.get_count(12)?;
        let mut shapley = Vec::with_capacity(n);
        let mut prev_attr = None;
        for _ in 0..n {
            let attr = r.get_u32()?;
            if prev_attr.is_some_and(|p| p >= attr) {
                return Err(r.corrupt("Shapley attributes are not strictly increasing"));
            }
            prev_attr = Some(attr);
            shapley.push((attr, r.get_f64()?));
        }
        rules.push(RuleAnalytics {
            count_antecedent,
            count_consequent,
            lift,
            conviction,
            leverage,
            chi2,
            p_value,
            p_adjusted,
            jmeasure,
            shapley,
        });
    }
    if r.remaining() > 0 {
        return Err(r.corrupt(format!("{} unread byte(s) in section", r.remaining())));
    }
    Ok(AnalyticsSet {
        shapley_samples,
        seed,
        rules,
    })
}

/// Serialize [`SupportCounts`] into the `COUNTS` section payload: row
/// total, the two encoding-fingerprint lanes, the semantic mining
/// configuration, the achieved interval counts, the pass-1 histograms,
/// pass 2's pair-histogram cells (per pair its two attributes, cell
/// count and raw cells), and per explicitly counted pass every candidate
/// with its raw tally.
fn encode_counts(counts: &SupportCounts) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u64(counts.num_rows);
    w.put_u64(counts.fingerprint.0);
    w.put_u64(counts.fingerprint.1);
    let c = &counts.config;
    w.put_f64(c.min_support);
    w.put_f64(c.min_confidence);
    w.put_f64(c.max_support);
    w.put_u64(c.max_itemset_size as u64);
    w.put_bool(c.interest.is_some());
    if let Some(interest) = &c.interest {
        w.put_f64(interest.level);
        w.put_u8(match interest.mode {
            InterestMode::SupportAndConfidence => 0,
            InterestMode::SupportOrConfidence => 1,
        });
        w.put_bool(interest.prune_candidates);
    }
    match &c.partitioning {
        PartitionSpec::None => w.put_u8(0),
        PartitionSpec::CompletenessLevel(k) => {
            w.put_u8(1);
            w.put_f64(*k);
        }
        PartitionSpec::FixedIntervals(n) => {
            w.put_u8(2);
            w.put_u64(*n as u64);
        }
        PartitionSpec::PerAttribute(map) => {
            w.put_u8(3);
            w.put_u64(map.len() as u64);
            for (name, n) in map {
                w.put_str(name);
                w.put_u64(*n as u64);
            }
        }
    }
    w.put_u8(match c.partition_strategy {
        PartitionStrategy::EquiDepth => 0,
        PartitionStrategy::EquiWidth => 1,
        PartitionStrategy::KMeans => 2,
    });
    w.put_u64(counts.intervals_per_attribute.len() as u64);
    for iv in &counts.intervals_per_attribute {
        w.put_bool(iv.is_some());
        if let Some(n) = iv {
            w.put_u64(*n as u64);
        }
    }
    w.put_u64(counts.captured.value_counts.len() as u64);
    for hist in &counts.captured.value_counts {
        w.put_u64(hist.len() as u64);
        for &n in hist {
            w.put_u64(n);
        }
    }
    w.put_u64(counts.captured.pair_cells.len() as u64);
    for ((a, b), cells) in &counts.captured.pair_cells {
        w.put_u32(*a);
        w.put_u32(*b);
        w.put_u64(cells.len() as u64);
        for &n in cells {
            w.put_u64(n);
        }
    }
    w.put_u64(counts.captured.passes.len() as u64);
    for (pass, entries) in &counts.captured.passes {
        w.put_u32(*pass);
        w.put_u64(entries.len() as u64);
        for (itemset, count) in entries {
            encode_itemset(&mut w, itemset);
            w.put_u64(*count);
        }
    }
    w.into_bytes()
}

fn decode_counts(payload: &[u8]) -> Result<SupportCounts, StoreError> {
    let mut r = Reader::new(payload);
    r.set_section("counts");
    let num_rows = r.get_u64()?;
    let fingerprint = (r.get_u64()?, r.get_u64()?);
    let min_support = r.get_f64()?;
    let min_confidence = r.get_f64()?;
    let max_support = r.get_f64()?;
    let max_itemset_size = r.get_u64()? as usize;
    let interest = if r.get_bool()? {
        let level = r.get_f64()?;
        let mode = match r.get_u8()? {
            0 => InterestMode::SupportAndConfidence,
            1 => InterestMode::SupportOrConfidence,
            b => return Err(r.corrupt(format!("interest mode byte is {b}"))),
        };
        let prune_candidates = r.get_bool()?;
        Some(InterestConfig {
            level,
            mode,
            prune_candidates,
        })
    } else {
        None
    };
    let partitioning = match r.get_u8()? {
        0 => PartitionSpec::None,
        1 => PartitionSpec::CompletenessLevel(r.get_f64()?),
        2 => PartitionSpec::FixedIntervals(r.get_u64()? as usize),
        3 => {
            let n = r.get_count(9)?; // str len prefix + interval count
            let mut map = std::collections::BTreeMap::new();
            let mut prev: Option<String> = None;
            for _ in 0..n {
                let name = r.get_str()?;
                if prev.as_ref().is_some_and(|p| *p >= name) {
                    return Err(r.corrupt("per-attribute names are not strictly increasing"));
                }
                let intervals = r.get_u64()? as usize;
                prev = Some(name.clone());
                map.insert(name, intervals);
            }
            PartitionSpec::PerAttribute(map)
        }
        b => return Err(r.corrupt(format!("partitioning tag byte is {b}"))),
    };
    let partition_strategy = match r.get_u8()? {
        0 => PartitionStrategy::EquiDepth,
        1 => PartitionStrategy::EquiWidth,
        2 => PartitionStrategy::KMeans,
        b => return Err(r.corrupt(format!("partition strategy byte is {b}"))),
    };
    let config = CountsConfig {
        min_support,
        min_confidence,
        max_support,
        max_itemset_size,
        interest,
        partitioning,
        partition_strategy,
    };
    let count = r.get_count(1)?;
    let mut intervals_per_attribute = Vec::with_capacity(count);
    for _ in 0..count {
        intervals_per_attribute.push(if r.get_bool()? {
            Some(r.get_u64()? as usize)
        } else {
            None
        });
    }
    let attrs = r.get_count(8)?;
    let mut value_counts = Vec::with_capacity(attrs);
    for _ in 0..attrs {
        let n = r.get_count(8)?;
        let mut hist = Vec::with_capacity(n);
        for _ in 0..n {
            hist.push(r.get_u64()?);
        }
        value_counts.push(hist);
    }
    let npairs = r.get_count(16)?; // two attributes + cell count at minimum
    let mut pair_cells = Vec::with_capacity(npairs);
    for _ in 0..npairs {
        let pair = (r.get_u32()?, r.get_u32()?);
        let n = r.get_count(8)?;
        let mut cells = Vec::with_capacity(n);
        for _ in 0..n {
            cells.push(r.get_u64()?);
        }
        pair_cells.push((pair, cells));
    }
    let npasses = r.get_count(12)?; // pass number + entry count at minimum
    let mut passes = Vec::with_capacity(npasses);
    let mut prev_pass = None;
    for _ in 0..npasses {
        let pass = r.get_u32()?;
        if pass < 2 {
            return Err(r.corrupt(format!("counting pass number is {pass}")));
        }
        if prev_pass.is_some_and(|p| p >= pass) {
            return Err(r.corrupt("pass numbers are not strictly increasing"));
        }
        prev_pass = Some(pass);
        // Each entry is at least a 1-item itemset plus its tally.
        let n = r.get_count(8 + 12 + 8)?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let itemset = decode_itemset(&mut r)?;
            let count = r.get_u64()?;
            entries.push((itemset, count));
        }
        passes.push((pass, entries));
    }
    if r.remaining() > 0 {
        return Err(r.corrupt(format!("{} unread byte(s) in section", r.remaining())));
    }
    Ok(SupportCounts {
        num_rows,
        fingerprint,
        config,
        intervals_per_attribute,
        captured: CapturedCounts {
            value_counts,
            pair_cells,
            passes,
        },
    })
}

pub(crate) fn encode_itemset(w: &mut Writer, itemset: &Itemset) {
    w.put_u64(itemset.items().len() as u64);
    for item in itemset.items() {
        w.put_u32(item.attr);
        w.put_u32(item.lo);
        w.put_u32(item.hi);
    }
}

/// Encode a schema + its encoders in the catalog's schema-section layout
/// (shared with the distributed-mining wire protocol, so a worker's view
/// of the table is bit-identical to what a catalog would persist).
pub(crate) fn encode_schema_with(schema: &Schema, encoders: &[AttributeEncoder]) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u64(schema.len() as u64);
    for (id, def) in schema.iter() {
        w.put_str(def.name());
        w.put_u8(match def.kind() {
            AttributeKind::Quantitative => 0,
            AttributeKind::Categorical => 1,
        });
        encode_encoder(&mut w, &encoders[id.index()]);
    }
    w.into_bytes()
}

pub(crate) fn encode_encoder(w: &mut Writer, enc: &AttributeEncoder) {
    match enc {
        AttributeEncoder::Categorical { labels } => {
            w.put_u8(0);
            w.put_u64(labels.len() as u64);
            for l in labels {
                w.put_str(l);
            }
        }
        AttributeEncoder::QuantValues { values, integral } => {
            w.put_u8(1);
            w.put_u64(values.len() as u64);
            for &v in values {
                w.put_f64(v);
            }
            w.put_bool(*integral);
        }
        AttributeEncoder::QuantIntervals {
            cuts,
            display,
            integral,
        } => {
            w.put_u8(2);
            w.put_u64(cuts.len() as u64);
            for &c in cuts {
                w.put_f64(c);
            }
            w.put_u64(display.len() as u64);
            for spec in display {
                w.put_f64(spec.lo);
                w.put_f64(spec.hi);
            }
            w.put_bool(*integral);
        }
        AttributeEncoder::CategoricalTaxonomy {
            labels,
            sorted_index,
            groups,
        } => {
            w.put_u8(3);
            w.put_u64(labels.len() as u64);
            for l in labels {
                w.put_str(l);
            }
            w.put_u64(sorted_index.len() as u64);
            for &i in sorted_index {
                w.put_u32(i);
            }
            w.put_u64(groups.len() as u64);
            for (name, lo, hi) in groups {
                w.put_str(name);
                w.put_u32(*lo);
                w.put_u32(*hi);
            }
        }
    }
}

pub(crate) fn decode_schema(payload: &[u8]) -> Result<(Schema, Vec<AttributeEncoder>), StoreError> {
    let mut r = Reader::new(payload);
    r.set_section("schema");
    let count = r.get_count(2)?; // name len prefix + kind byte at minimum
    let mut defs = Vec::with_capacity(count);
    let mut encoders = Vec::with_capacity(count);
    for _ in 0..count {
        let name = r.get_str()?;
        let kind = match r.get_u8()? {
            0 => AttributeKind::Quantitative,
            1 => AttributeKind::Categorical,
            b => return Err(r.corrupt(format!("attribute kind byte is {b}"))),
        };
        let def = match kind {
            AttributeKind::Quantitative => AttributeDef::quantitative(name),
            AttributeKind::Categorical => AttributeDef::categorical(name),
        };
        encoders.push(decode_encoder(&mut r)?);
        defs.push(def);
    }
    if r.remaining() > 0 {
        return Err(r.corrupt(format!("{} unread byte(s) in section", r.remaining())));
    }
    let schema = Schema::new(defs).map_err(|e| StoreError::Corrupt {
        section: "schema",
        detail: e.to_string(),
    })?;
    Ok((schema, encoders))
}

pub(crate) fn decode_encoder(r: &mut Reader<'_>) -> Result<AttributeEncoder, StoreError> {
    match r.get_u8()? {
        0 => {
            let n = r.get_count(8)?;
            let mut labels = Vec::with_capacity(n);
            for _ in 0..n {
                labels.push(r.get_str()?);
            }
            Ok(AttributeEncoder::Categorical { labels })
        }
        1 => {
            let n = r.get_count(8)?;
            let mut values = Vec::with_capacity(n);
            for _ in 0..n {
                values.push(r.get_f64()?);
            }
            let integral = r.get_bool()?;
            Ok(AttributeEncoder::QuantValues { values, integral })
        }
        2 => {
            let n = r.get_count(8)?;
            let mut cuts = Vec::with_capacity(n);
            for _ in 0..n {
                cuts.push(r.get_f64()?);
            }
            let n = r.get_count(16)?;
            let mut display = Vec::with_capacity(n);
            for _ in 0..n {
                let lo = r.get_f64()?;
                let hi = r.get_f64()?;
                display.push(IntervalSpec { lo, hi });
            }
            let integral = r.get_bool()?;
            Ok(AttributeEncoder::QuantIntervals {
                cuts,
                display,
                integral,
            })
        }
        3 => {
            let n = r.get_count(8)?;
            let mut labels = Vec::with_capacity(n);
            for _ in 0..n {
                labels.push(r.get_str()?);
            }
            let n = r.get_count(4)?;
            let mut sorted_index = Vec::with_capacity(n);
            for _ in 0..n {
                sorted_index.push(r.get_u32()?);
            }
            let n = r.get_count(16)?;
            let mut groups = Vec::with_capacity(n);
            for _ in 0..n {
                let name = r.get_str()?;
                let lo = r.get_u32()?;
                let hi = r.get_u32()?;
                groups.push((name, lo, hi));
            }
            Ok(AttributeEncoder::CategoricalTaxonomy {
                labels,
                sorted_index,
                groups,
            })
        }
        b => Err(r.corrupt(format!("unknown encoder tag {b}"))),
    }
}

/// Check a full schema/encoder pairing: one encoder per attribute, each
/// satisfying its kind's invariants (shared with the distributed-mining
/// wire protocol's `Setup` decode).
pub(crate) fn validate_catalog_encoders(
    schema: &Schema,
    encoders: &[AttributeEncoder],
) -> Result<(), StoreError> {
    if encoders.len() != schema.len() {
        return Err(StoreError::Corrupt {
            section: "schema",
            detail: format!(
                "{} encoder(s) for {} attribute(s)",
                encoders.len(),
                schema.len()
            ),
        });
    }
    for (id, def) in schema.iter() {
        validate_encoder(def.name(), def.kind(), &encoders[id.index()])?;
    }
    Ok(())
}

/// Check one encoder's internal invariants (the ones `encode`,
/// `describe_range`, and `numeric_bounds` assume).
fn validate_encoder(
    name: &str,
    kind: AttributeKind,
    enc: &AttributeEncoder,
) -> Result<(), StoreError> {
    let corrupt = |detail: String| StoreError::Corrupt {
        section: "schema",
        detail: format!("attribute {name}: {detail}"),
    };
    if enc.is_quantitative() != matches!(kind, AttributeKind::Quantitative) {
        return Err(corrupt(format!(
            "{} encoder on a {} attribute",
            if enc.is_quantitative() {
                "quantitative"
            } else {
                "categorical"
            },
            kind.name()
        )));
    }
    match enc {
        AttributeEncoder::Categorical { labels } => {
            if !labels.windows(2).all(|w| w[0] < w[1]) {
                return Err(corrupt("labels are not sorted and distinct".into()));
            }
        }
        AttributeEncoder::QuantValues { values, .. } => {
            if values.iter().any(|v| !v.is_finite()) {
                return Err(corrupt("non-finite value".into()));
            }
            if !values.windows(2).all(|w| w[0] < w[1]) {
                return Err(corrupt("values are not sorted and distinct".into()));
            }
        }
        AttributeEncoder::QuantIntervals { cuts, display, .. } => {
            if cuts.iter().any(|c| !c.is_finite())
                || display
                    .iter()
                    .any(|s| !s.lo.is_finite() || !s.hi.is_finite())
            {
                return Err(corrupt("non-finite cut or display bound".into()));
            }
            if !cuts.windows(2).all(|w| w[0] < w[1]) {
                return Err(corrupt("cut points are not strictly increasing".into()));
            }
            if display.len() != cuts.len() + 1 {
                return Err(corrupt(format!(
                    "{} display interval(s) for {} cut(s)",
                    display.len(),
                    cuts.len()
                )));
            }
            if display.iter().any(|s| s.lo > s.hi) || display.windows(2).any(|w| w[0].hi > w[1].lo)
            {
                return Err(corrupt("display intervals are not ordered".into()));
            }
        }
        AttributeEncoder::CategoricalTaxonomy {
            labels,
            sorted_index,
            groups,
        } => {
            if sorted_index.len() != labels.len() {
                return Err(corrupt(format!(
                    "sorted index has {} entries for {} label(s)",
                    sorted_index.len(),
                    labels.len()
                )));
            }
            let mut seen = vec![false; labels.len()];
            for &i in sorted_index {
                match seen.get_mut(i as usize) {
                    Some(s) if !*s => *s = true,
                    _ => return Err(corrupt("sorted index is not a permutation".into())),
                }
            }
            let in_order = sorted_index
                .windows(2)
                .all(|w| labels[w[0] as usize] < labels[w[1] as usize]);
            if !in_order {
                return Err(corrupt("sorted index is not in label order".into()));
            }
            for (gname, lo, hi) in groups {
                if lo > hi || *hi as usize >= labels.len() {
                    return Err(corrupt(format!("group {gname} spans {lo}..{hi}")));
                }
            }
        }
    }
    Ok(())
}

pub(crate) fn decode_itemset(r: &mut Reader<'_>) -> Result<Itemset, StoreError> {
    let n = r.get_count(12)?;
    let mut items = Vec::with_capacity(n);
    let mut prev_attr = None;
    for _ in 0..n {
        let attr = r.get_u32()?;
        let lo = r.get_u32()?;
        let hi = r.get_u32()?;
        if lo > hi {
            return Err(r.corrupt(format!("item on attribute {attr} has lo {lo} > hi {hi}")));
        }
        if prev_attr.is_some_and(|p| p >= attr) {
            return Err(r.corrupt("itemset attributes are not strictly increasing"));
        }
        prev_attr = Some(attr);
        items.push(Item::range(attr, lo, hi));
    }
    if items.is_empty() {
        return Err(r.corrupt("empty itemset"));
    }
    Ok(Itemset::new(items))
}

/// Decoded rules-section payload: row count, rules, optional interest
/// verdicts (one per rule when present).
type RulesSection = (u64, Vec<QuantRule>, Option<Vec<RuleInterest>>);

fn decode_rules(payload: &[u8]) -> Result<RulesSection, StoreError> {
    let mut r = Reader::new(payload);
    r.set_section("rules");
    let num_rows = r.get_u64()?;
    let count = r.get_count(12 * 2 + 16)?; // two 1-item itemsets + support + confidence
    let mut rules = Vec::with_capacity(count);
    for _ in 0..count {
        let antecedent = decode_itemset(&mut r)?;
        let consequent = decode_itemset(&mut r)?;
        let support = r.get_u64()?;
        let confidence = r.get_f64()?;
        rules.push(QuantRule {
            antecedent,
            consequent,
            support,
            confidence,
        });
    }
    let interest = if r.get_bool()? {
        let mut verdicts = Vec::with_capacity(rules.len());
        for _ in 0..rules.len() {
            let bits = r.get_u8()?;
            if bits > 0b11 {
                return Err(r.corrupt(format!("interest bits are {bits:#04b}")));
            }
            verdicts.push(RuleInterest {
                interesting: bits & 1 != 0,
                has_ancestors: bits & 2 != 0,
            });
        }
        Some(verdicts)
    } else {
        None
    };
    if r.remaining() > 0 {
        return Err(r.corrupt(format!("{} unread byte(s) in section", r.remaining())));
    }
    Ok((num_rows, rules, interest))
}

fn decode_stats(payload: &[u8]) -> Result<MiningStats, StoreError> {
    let mut r = Reader::new(payload);
    r.set_section("stats");
    let count = r.get_count(1)?;
    let mut intervals_per_attribute = Vec::with_capacity(count);
    for _ in 0..count {
        intervals_per_attribute.push(if r.get_bool()? {
            Some(r.get_u64()? as usize)
        } else {
            None
        });
    }
    let rules_total = r.get_u64()? as usize;
    let rules_interesting = r.get_u64()? as usize;
    let elapsed = r.get_duration()?;
    let elapsed_mining = r.get_duration()?;
    let encoding_reused = r.get_bool()?;
    let count = r.get_count(8)?;
    let mut candidates_per_pass = Vec::with_capacity(count);
    for _ in 0..count {
        candidates_per_pass.push(r.get_u64()? as usize);
    }
    let interest_pruned_items = r.get_u64()? as usize;
    let pass1_scan_time = r.get_duration()?;
    let parallelism = r.get_u64()? as usize;
    let count = r.get_count(5 * 8 + 2 * 12 + 8)?;
    let mut pass_stats = Vec::with_capacity(count);
    for _ in 0..count {
        let super_candidates = r.get_u64()? as usize;
        let array_backed = r.get_u64()? as usize;
        let rtree_backed = r.get_u64()? as usize;
        let hash_tree_nodes = r.get_u64()? as usize;
        let counter_bytes = r.get_u64()? as usize;
        let scan_time = r.get_duration()?;
        let merge_time = r.get_duration()?;
        let shards = r.get_count(12)?;
        let mut shard_scan_times = Vec::with_capacity(shards);
        for _ in 0..shards {
            shard_scan_times.push(r.get_duration()?);
        }
        // The `pooled` flag and kernel name are run-shape details the
        // catalog does not persist; they default on load.
        pass_stats.push(PassStats {
            super_candidates,
            array_backed,
            rtree_backed,
            hash_tree_nodes,
            counter_bytes,
            scan_time,
            merge_time,
            shard_scan_times,
            ..PassStats::default()
        });
    }
    if r.remaining() > 0 {
        return Err(r.corrupt(format!("{} unread byte(s) in section", r.remaining())));
    }
    Ok(MiningStats {
        intervals_per_attribute,
        mine: MineStats {
            candidates_per_pass,
            pass_stats,
            interest_pruned_items,
            pass1_scan_time,
            parallelism,
        },
        rules_total,
        rules_interesting,
        elapsed,
        elapsed_mining,
        encoding_reused,
    })
}

/// Check an in-memory itemset against the catalog's encoders: non-empty,
/// and every code within its attribute ([`Itemset::check_codes`]).
fn validate_itemset(
    rule: usize,
    side: &str,
    itemset: &Itemset,
    encoders: &[AttributeEncoder],
) -> Result<(), StoreError> {
    let corrupt = |detail: String| StoreError::Corrupt {
        section: "rules",
        detail,
    };
    if itemset.items().is_empty() {
        return Err(corrupt(format!("rule {rule}: empty {side}")));
    }
    itemset
        .check_codes(cardinalities(encoders))
        .map_err(|e| corrupt(format!("rule {rule}: {side} {e}")))
}

/// The code count of each attribute `encoders` encode, as
/// [`Itemset::check_codes`] takes it.
fn cardinalities(encoders: &[AttributeEncoder]) -> impl Fn(u32) -> Option<u32> + '_ {
    |attr| {
        encoders
            .get(attr as usize)
            .map(AttributeEncoder::cardinality)
    }
}
