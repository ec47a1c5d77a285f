//! A seeded stand-in for the paper's proprietary evaluation dataset
//! (Section 6): 500,000 records, five quantitative and two categorical
//! attributes, with enough planted correlation structure that the miner
//! finds real rules at the paper's support levels.
//!
//! The causal chain: employee category drives monthly income; income
//! drives the credit limit (banks multiply income) and nudges marital
//! status; the current balance is a skewed fraction of the limit; the
//! year-to-date balance integrates the current balance over a year; the
//! year-to-date interest is a rate applied to the ytd balance. Every
//! quantitative value is snapped to a coarse grid so distinct-value counts
//! stay in the hundreds (full-resolution encoding must stay cheap).

use crate::dist::{categorical, normal, rng, snap};
use qar_table::{Schema, Table, Value};

/// Employee categories, weights roughly pyramid-shaped.
pub const EMPLOYEE_CATEGORIES: [&str; 5] =
    ["hourly", "salaried", "manager", "executive", "retired"];

/// Marital statuses.
pub const MARITAL_STATUSES: [&str; 4] = ["single", "married", "divorced", "widowed"];

/// Generation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CreditConfig {
    /// Number of records (the paper used 500,000).
    pub num_records: usize,
    /// RNG seed; identical seeds give identical tables.
    pub seed: u64,
    /// Extra multiplicative noise on the correlated attributes in
    /// `[0, 1]`: 0 = hard-wired correlations (many strong rules), 1 =
    /// mostly noise (few rules).
    pub noise: f64,
}

impl Default for CreditConfig {
    fn default() -> Self {
        CreditConfig {
            num_records: 500_000,
            seed: 0x51_6D_AD_96, // "SIGMOD 96"
            noise: 0.3,
        }
    }
}

/// The generated dataset.
pub struct CreditDataset {
    /// Generation parameters used.
    pub config: CreditConfig,
    /// The relational table.
    pub table: Table,
}

/// The dataset's schema: two categorical then five quantitative
/// attributes, mirroring the paper's description.
pub fn credit_schema() -> Schema {
    Schema::builder()
        .categorical("employee_category")
        .categorical("marital_status")
        .quantitative("monthly_income")
        .quantitative("credit_limit")
        .quantitative("current_balance")
        .quantitative("ytd_balance")
        .quantitative("ytd_interest")
        .build()
        .expect("static schema is valid")
}

impl CreditDataset {
    /// Generate a dataset.
    ///
    /// A one-factor Gaussian copula drives the quantitative attributes: a
    /// latent "financial standing" factor `f` plus per-attribute noise,
    /// with loadings around 0.5–0.8, gives *moderate* pairwise rank
    /// correlations (the paper's real data plainly had moderate structure
    /// — its total rule counts sit in the low thousands, which rules out
    /// near-deterministic attribute chains). The employee category shifts
    /// income strongly and the latent factor mildly, so categorical ⇒
    /// range rules and mixed multi-attribute rules both exist.
    pub fn generate(config: CreditConfig) -> Self {
        let mut r = rng(config.seed);
        let noise = config.noise.clamp(0.0, 1.0);
        let mut table = Table::with_capacity(credit_schema(), config.num_records);

        // Per-category lognormal income parameters (mu of monthly income).
        let income_mu = [7.2_f64, 7.8, 8.4, 9.1, 7.5]; // e^7.2 ≈ 1340 ... e^9.1 ≈ 8955
        let cat_factor_shift = [-0.3_f64, 0.0, 0.2, 0.5, -0.1];
        let income_sigma = 0.30 + 0.25 * noise;
        // Copula loadings per quantitative attribute; `noise` fades them.
        let fade = 1.0 - 0.5 * noise;
        let load = [
            0.85 * fade,
            0.80 * fade,
            0.65 * fade,
            0.70 * fade,
            0.60 * fade,
        ];

        for _ in 0..config.num_records {
            let cat = categorical(&mut r, &[0.35, 0.30, 0.20, 0.10, 0.05]);
            let f = normal(&mut r, 0.0, 1.0) + cat_factor_shift[cat];
            // Latent score per attribute: loading × factor + own noise.
            let mut z = [0.0f64; 5];
            for (i, slot) in z.iter_mut().enumerate() {
                *slot = load[i] * f + (1.0 - load[i] * load[i]).sqrt() * normal(&mut r, 0.0, 1.0);
            }

            let income = (income_mu[cat] + income_sigma * z[0])
                .exp()
                .clamp(600.0, 25_000.0);

            // Marital status skews with income: richer records marry more.
            let married_w = 0.25 + 0.5 * (income / 10_000.0).min(1.0);
            let marital = categorical(&mut r, &[0.9 - married_w.min(0.65), married_w, 0.12, 0.05]);

            // Remaining marginals are lognormal in their own units.
            let credit_limit = (8.9 + 0.55 * z[1]).exp().clamp(500.0, 120_000.0);
            let current_balance = (6.8 + 0.9 * z[2]).exp().clamp(0.0, 90_000.0);
            let ytd_balance = (9.2 + 0.8 * z[3]).exp().clamp(0.0, 500_000.0);
            let ytd_interest = (4.6 + 0.85 * z[4]).exp().clamp(0.0, 20_000.0);

            table
                .push_row(&[
                    Value::from(EMPLOYEE_CATEGORIES[cat]),
                    Value::from(MARITAL_STATUSES[marital]),
                    Value::Float(snap(income, 25.0)),
                    Value::Float(snap(credit_limit, 100.0)),
                    Value::Float(snap(current_balance, 25.0)),
                    Value::Float(snap(ytd_balance, 250.0)),
                    Value::Float(snap(ytd_interest, 10.0)),
                ])
                .expect("generated rows match the schema");
        }
        CreditDataset { config, table }
    }

    /// Shorthand for a small dataset in tests/benches.
    pub fn small(num_records: usize, seed: u64) -> Self {
        Self::generate(CreditConfig {
            num_records,
            seed,
            ..CreditConfig::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qar_table::AttributeId;

    fn sample() -> CreditDataset {
        CreditDataset::small(5_000, 7)
    }

    #[test]
    fn deterministic_given_seed() {
        let a = CreditDataset::small(500, 11);
        let b = CreditDataset::small(500, 11);
        for row in 0..500 {
            assert_eq!(a.table.row(row).to_values(), b.table.row(row).to_values());
        }
        let c = CreditDataset::small(500, 12);
        let differs =
            (0..500).any(|row| a.table.row(row).to_values() != c.table.row(row).to_values());
        assert!(differs, "different seeds must differ");
    }

    #[test]
    fn schema_matches_the_paper() {
        let d = sample();
        let s = d.table.schema();
        assert_eq!(s.quantitative_ids().len(), 5);
        assert_eq!(s.categorical_ids().len(), 2);
        assert_eq!(d.table.num_rows(), 5_000);
    }

    #[test]
    fn income_correlates_with_category() {
        let d = sample();
        let cat = d.table.column(AttributeId(0)).as_categorical().unwrap();
        let income = d.table.column(AttributeId(2)).as_quantitative().unwrap();
        let mean_of = |name: &str| {
            let (sum, n) = cat
                .iter()
                .zip(income)
                .filter(|(c, _)| *c == name)
                .fold((0.0, 0usize), |(s, n), (_, &v)| (s + v, n + 1));
            sum / n as f64
        };
        assert!(mean_of("executive") > 2.0 * mean_of("hourly"));
        assert!(mean_of("manager") > mean_of("salaried"));
    }

    #[test]
    fn credit_limit_tracks_income() {
        let d = sample();
        let income = d.table.column(AttributeId(2)).as_quantitative().unwrap();
        let limit = d.table.column(AttributeId(3)).as_quantitative().unwrap();
        // Pearson correlation must be strongly positive.
        let n = income.len() as f64;
        let mi = income.iter().sum::<f64>() / n;
        let ml = limit.iter().sum::<f64>() / n;
        let cov: f64 = income
            .iter()
            .zip(limit)
            .map(|(&x, &y)| (x - mi) * (y - ml))
            .sum::<f64>()
            / n;
        let sx = (income.iter().map(|&x| (x - mi).powi(2)).sum::<f64>() / n).sqrt();
        let sy = (limit.iter().map(|&y| (y - ml).powi(2)).sum::<f64>() / n).sqrt();
        let r = cov / (sx * sy);
        assert!(r > 0.2, "correlation {r} not moderately positive");
        assert!(r < 0.95, "correlation {r} suspiciously deterministic");
    }

    #[test]
    fn distinct_counts_stay_bounded() {
        let d = sample();
        for id in d.table.schema().quantitative_ids() {
            let distinct = d.table.histogram(id).as_quantitative().unwrap().len();
            assert!(
                distinct <= 2_000,
                "{}: {distinct} distinct values",
                d.table.schema().attribute(id).name(),
            );
        }
    }

    #[test]
    fn noise_weakens_correlations() {
        let pearson = |d: &CreditDataset, a: usize, b: usize| {
            let x = d.table.column(AttributeId(a)).as_quantitative().unwrap();
            let y = d.table.column(AttributeId(b)).as_quantitative().unwrap();
            let n = x.len() as f64;
            let mx = x.iter().sum::<f64>() / n;
            let my = y.iter().sum::<f64>() / n;
            let cov: f64 = x
                .iter()
                .zip(y)
                .map(|(&u, &v)| (u - mx) * (v - my))
                .sum::<f64>()
                / n;
            let sx = (x.iter().map(|&u| (u - mx).powi(2)).sum::<f64>() / n).sqrt();
            let sy = (y.iter().map(|&v| (v - my).powi(2)).sum::<f64>() / n).sqrt();
            cov / (sx * sy)
        };
        let tight = CreditDataset::generate(CreditConfig {
            num_records: 4_000,
            seed: 5,
            noise: 0.0,
        });
        let loose = CreditDataset::generate(CreditConfig {
            num_records: 4_000,
            seed: 5,
            noise: 1.0,
        });
        assert!(pearson(&tight, 2, 3) > pearson(&loose, 2, 3) + 0.1);
    }
}
