//! Rendering mined rules in terms of the original attribute values.

use crate::rules::QuantRule;
use qar_itemset::{Item, Itemset};
use qar_table::{AttributeEncoder, AttributeId, EncodedTable, Schema};

/// Anything that can decode item codes back to attribute names and value
/// bounds. [`EncodedTable`] is the in-process implementation; `qar-store`'s
/// `Catalog` implements it too, so a reloaded catalog renders and exports
/// rules byte-identically to the mine that produced it.
pub trait RuleDecoder {
    /// The schema the rules' attribute ids refer to.
    fn schema(&self) -> &Schema;
    /// The encoder that maps an attribute's codes back to values.
    fn encoder(&self, id: AttributeId) -> &AttributeEncoder;
}

impl RuleDecoder for EncodedTable {
    fn schema(&self) -> &Schema {
        EncodedTable::schema(self)
    }
    fn encoder(&self, id: AttributeId) -> &AttributeEncoder {
        EncodedTable::encoder(self, id)
    }
}

/// Render one item, e.g. `⟨Age: 30..39⟩` or `⟨Married: Yes⟩`.
pub fn format_item(item: Item, table: &impl RuleDecoder) -> String {
    let id = AttributeId(item.attr as usize);
    let name = table.schema().attribute(id).name();
    let range = table.encoder(id).describe_range(item.lo, item.hi);
    format!("⟨{name}: {range}⟩")
}

/// Render an itemset, items joined by `and`.
pub fn format_itemset(itemset: &Itemset, table: &impl RuleDecoder) -> String {
    itemset
        .items()
        .iter()
        .map(|&i| format_item(i, table))
        .collect::<Vec<_>>()
        .join(" and ")
}

/// Render a rule in the paper's style:
/// `⟨Age: 30..39⟩ and ⟨Married: Yes⟩ ⇒ ⟨NumCars: 2⟩  (40.0% sup, 100.0% conf)`.
pub fn format_rule(rule: &QuantRule, num_rows: u64, table: &impl RuleDecoder) -> String {
    format!(
        "{} ⇒ {}  ({:.1}% sup, {:.1}% conf)",
        format_itemset(&rule.antecedent, table),
        format_itemset(&rule.consequent, table),
        100.0 * rule.support as f64 / num_rows as f64,
        100.0 * rule.confidence,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use qar_table::{AttributeEncoder, Schema, Table, Value};

    fn people() -> EncodedTable {
        let schema = Schema::builder()
            .quantitative("Age")
            .categorical("Married")
            .quantitative("NumCars")
            .build()
            .unwrap();
        let mut t = Table::new(schema);
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
        let h = t.histograms();
        EncodedTable::encode(
            &t,
            vec![
                AttributeEncoder::quant_intervals_from(
                    h[0].as_quantitative().unwrap(),
                    vec![25.0, 30.0, 35.0],
                ),
                AttributeEncoder::categorical_from(h[1].as_categorical().unwrap()),
                AttributeEncoder::quant_values_from(h[2].as_quantitative().unwrap()),
            ],
        )
        .unwrap()
    }

    #[test]
    fn paper_headline_rule_renders() {
        let enc = people();
        let rule = QuantRule {
            antecedent: Itemset::new(vec![Item::range(0, 2, 3), Item::value(1, 1)]),
            consequent: Itemset::singleton(Item::value(2, 2)),
            support: 2,
            confidence: 1.0,
        };
        let s = format_rule(&rule, 5, &enc);
        assert_eq!(
            s,
            "⟨Age: 34..38⟩ and ⟨Married: Yes⟩ ⇒ ⟨NumCars: 2⟩  (40.0% sup, 100.0% conf)"
        );
    }

    #[test]
    fn item_rendering_uses_observed_bounds() {
        let enc = people();
        assert_eq!(format_item(Item::range(0, 0, 1), &enc), "⟨Age: 23..29⟩");
        assert_eq!(format_item(Item::value(1, 0), &enc), "⟨Married: No⟩");
        assert_eq!(format_item(Item::range(2, 0, 1), &enc), "⟨NumCars: 0..1⟩");
    }
}
