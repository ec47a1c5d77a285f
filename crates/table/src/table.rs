//! Column-oriented record storage.

use crate::dictionary::CatColumn;
use crate::error::TableError;
use crate::histogram::Histogram;
use crate::schema::{AttributeId, AttributeKind, Schema};
use crate::value::{canonical, Value};
use std::sync::atomic::{AtomicU64, Ordering};

/// One column of a [`Table`], stored densely by kind.
///
/// Quantitative columns store `f64` (integers are widened on insert and
/// remembered via the `integral` flag so they render without decimals;
/// `-0.0` is stored as `0.0`). Categorical columns store one `u32` code
/// per row into a dictionary of labels in first-seen order.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// A quantitative column.
    Quantitative {
        /// Cell values, row-aligned with the table.
        data: Vec<f64>,
        /// True while every inserted value was an integer.
        integral: bool,
    },
    /// A categorical column: row-aligned codes and their dictionary.
    Categorical(CatColumn),
}

impl Column {
    fn with_capacity(kind: AttributeKind, capacity: usize) -> Self {
        match kind {
            AttributeKind::Quantitative => Column::Quantitative {
                data: Vec::with_capacity(capacity),
                integral: true,
            },
            AttributeKind::Categorical => Column::Categorical(CatColumn::with_capacity(capacity)),
        }
    }

    /// Number of cells (row count of the owning table).
    pub fn len(&self) -> usize {
        match self {
            Column::Quantitative { data, .. } => data.len(),
            Column::Categorical(cells) => cells.len(),
        }
    }

    /// True when the column holds no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The numeric cells of a quantitative column, or `None` for a
    /// categorical column.
    pub fn as_quantitative(&self) -> Option<&[f64]> {
        match self {
            Column::Quantitative { data, .. } => Some(data),
            Column::Categorical { .. } => None,
        }
    }

    /// The cells of a categorical column, or `None` for a quantitative
    /// column.
    pub fn as_categorical(&self) -> Option<&CatColumn> {
        match self {
            Column::Categorical(cells) => Some(cells),
            Column::Quantitative { .. } => None,
        }
    }

    /// True if every value pushed into a quantitative column was integral.
    /// Categorical columns report `false`.
    pub fn is_integral(&self) -> bool {
        matches!(self, Column::Quantitative { integral: true, .. })
    }

    /// The cell at `row` as a [`Value`].
    pub fn value(&self, row: usize) -> Value {
        match self {
            Column::Quantitative { data, integral } => {
                let v = data[row];
                if *integral {
                    Value::Int(v as i64)
                } else {
                    Value::Float(v)
                }
            }
            Column::Categorical(cells) => Value::Cat(cells.get(row).to_owned()),
        }
    }

    /// Append a number to a quantitative column, storing `-0.0` as `0.0`
    /// and clearing the integral flag on a fractional value.
    pub(crate) fn push_number(&mut self, x: f64) {
        let Column::Quantitative { data, integral } = self else {
            panic!("push_number on a categorical column");
        };
        if x.fract() != 0.0 {
            *integral = false;
        }
        data.push(canonical(x));
    }

    /// Append a label to a categorical column.
    pub(crate) fn push_label(&mut self, label: &str) {
        let Column::Categorical(cells) = self else {
            panic!("push_label on a quantitative column");
        };
        cells.push(label);
    }
}

/// A [`Table::identity`] slot, 0 until minted. Forgetting it is a plain
/// store through `&mut`, so appending a row costs no atomic operation.
/// `Relaxed` suffices: an identity publishes no other data.
#[derive(Debug, Default)]
struct Identity(AtomicU64);

impl Identity {
    fn get(&self) -> u64 {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        match self.0.load(Ordering::Relaxed) {
            0 => {
                let minted = NEXT.fetch_add(1, Ordering::Relaxed);
                match self
                    .0
                    .compare_exchange(0, minted, Ordering::Relaxed, Ordering::Relaxed)
                {
                    Ok(_) => minted,
                    Err(first) => first,
                }
            }
            id => id,
        }
    }

    fn forget(&mut self) {
        *self.0.get_mut() = 0;
    }
}

impl Clone for Identity {
    fn clone(&self) -> Self {
        Identity(AtomicU64::new(self.0.load(Ordering::Relaxed)))
    }
}

/// A relational table: a [`Schema`] plus row-aligned columns.
///
/// Rows are pushed as slices of [`Value`] and type-checked against the
/// schema. Storage is columnar because the miner's support-counting pass
/// touches a handful of attributes across every record.
///
/// ```
/// use qar_table::{Schema, Table, Value};
///
/// let schema = Schema::builder()
///     .quantitative("age")
///     .categorical("married")
///     .build().unwrap();
/// let mut table = Table::new(schema);
/// table.push_row(&[Value::Int(23), Value::from("No")]).unwrap();
/// table.push_row(&[Value::Int(38), Value::from("Yes")]).unwrap();
/// assert_eq!(table.num_rows(), 2);
/// assert_eq!(table.row(1).value(0), Value::Int(38));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    schema: Schema,
    columns: Vec<Column>,
    num_rows: usize,
    /// [`Table::identity`], minted on first request and forgotten by
    /// every change, so a clone shares it and a grown table does not.
    identity: Identity,
}

impl Table {
    /// Create an empty table for `schema`.
    pub fn new(schema: Schema) -> Self {
        Self::with_capacity(schema, 0)
    }

    /// Create an empty table with per-column capacity reserved for
    /// `capacity` rows.
    pub fn with_capacity(schema: Schema, capacity: usize) -> Self {
        let columns = schema
            .attributes()
            .iter()
            .map(|a| Column::with_capacity(a.kind(), capacity))
            .collect();
        Table {
            schema,
            columns,
            num_rows: 0,
            identity: Identity::default(),
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of records.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of attributes.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// True if the table holds no records.
    pub fn is_empty(&self) -> bool {
        self.num_rows == 0
    }

    /// A process-unique number for this table's current contents: equal
    /// identities mean equal contents. A clone keeps its table's
    /// identity; any change to a table gives it a new one. Tables built
    /// apart from one another never share an identity, even when their
    /// contents are equal.
    pub fn identity(&self) -> u64 {
        self.identity.get()
    }

    /// The column for `id`.
    pub fn column(&self, id: AttributeId) -> &Column {
        &self.columns[id.index()]
    }

    /// The column for the attribute called `name`.
    pub fn column_by_name(&self, name: &str) -> Result<&Column, TableError> {
        Ok(self.column(self.schema.id_of(name)?))
    }

    /// Append one record. Cells must match the schema's arity and kinds.
    pub fn push_row(&mut self, cells: &[Value]) -> Result<(), TableError> {
        if cells.len() != self.columns.len() {
            return Err(TableError::ArityMismatch {
                expected: self.columns.len(),
                got: cells.len(),
            });
        }
        // Validate before mutating so a failed push leaves the table intact.
        for (def, cell) in self.schema.attributes().iter().zip(cells) {
            let ok = match def.kind() {
                AttributeKind::Quantitative => cell.is_quantitative(),
                AttributeKind::Categorical => !cell.is_quantitative(),
            };
            if !ok {
                return Err(TableError::TypeMismatch {
                    attribute: def.name().to_owned(),
                    expected: def.kind().name(),
                    got: cell.kind_name().to_owned(),
                });
            }
            if let Some(x) = cell.as_f64() {
                if !x.is_finite() {
                    return Err(TableError::NonFiniteValue {
                        attribute: def.name().to_owned(),
                    });
                }
            }
        }
        self.identity.forget();
        for (column, cell) in self.columns.iter_mut().zip(cells) {
            match cell {
                Value::Cat(s) => column.push_label(s),
                number => column.push_number(number.as_f64().expect("validated quantitative")),
            }
        }
        self.num_rows += 1;
        Ok(())
    }

    /// Column `index` for an appender that fills one row across every
    /// column before calling [`Table::finish_row`] (which forgets the
    /// identity, once per row rather than per cell).
    pub(crate) fn column_mut(&mut self, index: usize) -> &mut Column {
        &mut self.columns[index]
    }

    /// Count the row every column has just received a cell for.
    pub(crate) fn finish_row(&mut self) {
        self.identity.forget();
        self.num_rows += 1;
    }

    /// The value histogram of column `id`.
    pub fn histogram(&self, id: AttributeId) -> Histogram {
        Histogram::of(self.column(id))
    }

    /// The value histogram of every column, schema order.
    pub fn histograms(&self) -> Vec<Histogram> {
        self.columns.iter().map(Histogram::of).collect()
    }

    /// A lightweight view of one record.
    pub fn row(&self, index: usize) -> RowView<'_> {
        assert!(index < self.num_rows, "row {index} out of range");
        RowView { table: self, index }
    }

    /// Iterate over all records.
    pub fn rows(&self) -> impl Iterator<Item = RowView<'_>> {
        (0..self.num_rows).map(move |i| RowView {
            table: self,
            index: i,
        })
    }
}

/// A borrowed view of one record of a [`Table`].
#[derive(Debug, Clone, Copy)]
pub struct RowView<'a> {
    table: &'a Table,
    index: usize,
}

impl<'a> RowView<'a> {
    /// The record's position in the table.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The cell in column `col` (by positional index).
    pub fn value(&self, col: usize) -> Value {
        self.table.columns[col].value(self.index)
    }

    /// The cell for attribute `id`.
    pub fn value_of(&self, id: AttributeId) -> Value {
        self.table.columns[id.index()].value(self.index)
    }

    /// All cells, materialized.
    pub fn to_values(&self) -> Vec<Value> {
        (0..self.table.num_columns())
            .map(|c| self.value(c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn people_table() -> Table {
        let schema = Schema::builder()
            .quantitative("age")
            .categorical("married")
            .quantitative("num_cars")
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
        t
    }

    #[test]
    fn push_and_read_back() {
        let t = people_table();
        assert_eq!(t.num_rows(), 5);
        assert_eq!(t.num_columns(), 3);
        assert_eq!(t.row(0).value(0), Value::Int(23));
        assert_eq!(t.row(3).value(1), Value::Cat("Yes".into()));
        assert_eq!(t.row(4).to_values().len(), 3);
    }

    #[test]
    fn columnar_access() {
        let t = people_table();
        let ages = t.column_by_name("age").unwrap().as_quantitative().unwrap();
        assert_eq!(ages, &[23.0, 25.0, 29.0, 34.0, 38.0]);
        let married = t
            .column_by_name("married")
            .unwrap()
            .as_categorical()
            .unwrap();
        assert_eq!(married.get(1), "Yes");
        assert_eq!(married.codes(), &[0, 1, 0, 1, 1]);
        assert!(t.column_by_name("age").unwrap().is_integral());
    }

    #[test]
    fn arity_mismatch_rejected_atomically() {
        let mut t = people_table();
        let err = t.push_row(&[Value::Int(1)]).unwrap_err();
        assert!(matches!(
            err,
            TableError::ArityMismatch {
                expected: 3,
                got: 1
            }
        ));
        assert_eq!(t.num_rows(), 5);
    }

    #[test]
    fn type_mismatch_rejected_atomically() {
        let mut t = people_table();
        let err = t
            .push_row(&[Value::from("old"), Value::from("No"), Value::Int(0)])
            .unwrap_err();
        assert!(matches!(err, TableError::TypeMismatch { .. }));
        // No column may have grown.
        assert_eq!(t.column(AttributeId(0)).as_quantitative().unwrap().len(), 5);
        assert_eq!(t.column(AttributeId(1)).as_categorical().unwrap().len(), 5);
    }

    #[test]
    fn float_values_clear_integral_flag() {
        let schema = Schema::builder().quantitative("income").build().unwrap();
        let mut t = Table::new(schema);
        t.push_row(&[Value::Float(1000.5)]).unwrap();
        assert!(!t.column(AttributeId(0)).is_integral());
        assert_eq!(t.row(0).value(0), Value::Float(1000.5));
    }

    #[test]
    fn whole_float_keeps_integral_flag() {
        let schema = Schema::builder().quantitative("income").build().unwrap();
        let mut t = Table::new(schema);
        t.push_row(&[Value::Float(1000.0)]).unwrap();
        assert!(t.column(AttributeId(0)).is_integral());
    }

    #[test]
    fn rows_iterator_covers_all() {
        let t = people_table();
        assert_eq!(t.rows().count(), 5);
        let indices: Vec<_> = t.rows().map(|r| r.index()).collect();
        assert_eq!(indices, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn row_out_of_range_panics() {
        let t = people_table();
        let _ = t.row(5);
    }

    #[test]
    fn non_finite_values_rejected_atomically() {
        let schema = Schema::builder()
            .quantitative("x")
            .quantitative("y")
            .build()
            .unwrap();
        let mut t = Table::new(schema);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = t
                .push_row(&[Value::Float(1.0), Value::Float(bad)])
                .unwrap_err();
            assert!(matches!(err, TableError::NonFiniteValue { .. }), "{bad}");
        }
        assert!(t.is_empty(), "no partial rows");
    }

    #[test]
    fn negative_zero_is_stored_as_zero() {
        let schema = Schema::builder().quantitative("x").build().unwrap();
        let mut t = Table::new(schema);
        t.push_row(&[Value::Float(-0.0)]).unwrap();
        let stored = t.column(AttributeId(0)).as_quantitative().unwrap()[0];
        assert!(stored == 0.0 && stored.is_sign_positive());
        assert_eq!(t.row(0).value(0), Value::Int(0));
    }

    #[test]
    fn with_capacity_starts_empty() {
        let schema = Schema::builder().categorical("c").build().unwrap();
        let t = Table::with_capacity(schema, 100);
        assert!(t.is_empty());
    }

    #[test]
    fn identity_follows_contents() {
        let mut t = people_table();
        let id = t.identity();
        assert_eq!(id, t.identity());
        assert_eq!(id, t.clone().identity());
        assert_ne!(id, people_table().identity(), "built apart");
        let failed = t.push_row(&[Value::Int(1)]);
        assert!(failed.is_err());
        assert_eq!(id, t.identity(), "a failed push changes nothing");
        t.push_row(&[Value::Int(40), Value::from("No"), Value::Int(0)])
            .unwrap();
        assert_ne!(id, t.identity());
    }
}
