//! Zero-copy typed columnar frames.
//!
//! CART (and the analysis framework generally) consumes datasets whose
//! columns are **continuous**, **nominal** (categorical without order, e.g.
//! SKU or DC), or **ordinal** (categorical with order, e.g. day-of-week) —
//! exactly the three feature types of the paper's Table III. [`Frame`] is
//! the workspace's one table type: each column is one contiguous typed
//! buffer (`Vec<f64>` / `Vec<i64>` / `Vec<u32>` codes), nominal columns
//! share their category labels through a reference-counted [`Dictionary`],
//! and row subsets are materialized by [`Frame::subset`] — values
//! gathered, dictionaries and schema shared, never cloned.
//!
//! Hot paths (the rack-day emission, CART fitting) fill plain typed
//! buffers (`Vec<f64>`, `Vec<i64>`, and a [`NominalColumn`] that interns
//! each label once) and hand them to [`Frame::new`], the one validating
//! constructor; they read frames back through the typed accessors, so no
//! per-row `Vec<Value>` or label `String` is ever allocated there.
//! [`FrameBuilder::push_row`] is the row-oriented reference path that
//! tests compare the columnar path against.
//!
//! # Ownership and borrowing rules
//!
//! * `Frame` is immutable once built; each column sits behind an `Arc`,
//!   so cloning a frame shares every buffer, the schema and the
//!   dictionaries.
//! * [`Frame::with_continuous`] replaces one continuous column and shares
//!   the rest, and [`Frame::select`] projects a frame onto some of its
//!   columns without copying any: two tables that differ in one column
//!   hold the other columns once.
//! * `Frame::subset` gathers values into fresh buffers but shares the
//!   schema and every nominal dictionary, so codes remain comparable
//!   across a frame and all its subsets.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::{Result, TelemetryError};

/// The type of a feature column (Table III's C / N / O).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FeatureKind {
    /// Real-valued (temperature, age, rated power).
    Continuous,
    /// Categorical without implicit order (SKU, workload, DC, rack).
    Nominal,
    /// Categorical with order (day, week, month, year).
    Ordinal,
}

impl FeatureKind {
    fn name(&self) -> &'static str {
        match self {
            FeatureKind::Continuous => "continuous",
            FeatureKind::Nominal => "nominal",
            FeatureKind::Ordinal => "ordinal",
        }
    }
}

impl fmt::Display for FeatureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A named, typed column declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Column name, unique within a schema.
    pub name: String,
    /// Column type.
    pub kind: FeatureKind,
}

impl Field {
    /// Creates a field.
    pub fn new(name: impl Into<String>, kind: FeatureKind) -> Self {
        Field { name: name.into(), kind }
    }
}

/// An ordered set of fields.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    /// Creates a schema from fields.
    ///
    /// # Panics
    ///
    /// Panics if two fields share a name.
    pub fn new(fields: Vec<Field>) -> Self {
        for (i, f) in fields.iter().enumerate() {
            assert!(
                !fields[..i].iter().any(|g| g.name == f.name),
                "duplicate field name `{}`",
                f.name
            );
        }
        Schema { fields }
    }

    /// The fields in declaration order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Whether the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Index of the column named `name`.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }
}

/// A single cell value, used when assembling rows.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A continuous observation.
    Continuous(f64),
    /// A nominal category label (interned on insert).
    Nominal(String),
    /// An ordinal level.
    Ordinal(i64),
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Continuous(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Nominal(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Nominal(v)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Ordinal(v)
    }
}

/// An immutable, shareable set of interned category labels.
///
/// Codes are indices into the label list, assigned in first-seen order by
/// the builder that interned them. Cloning a dictionary is an `Arc` bump;
/// a frame and every subset derived from it share one allocation.
#[derive(Debug, Clone)]
pub struct Dictionary {
    labels: Arc<Vec<String>>,
}

impl Dictionary {
    /// Wraps a label list. Codes are the indices into `labels`.
    pub fn new(labels: Vec<String>) -> Self {
        Dictionary { labels: Arc::new(labels) }
    }

    /// The labels, indexed by code.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// Number of distinct labels.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dictionary has no labels.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The label of `code`, if in range.
    pub fn label(&self, code: u32) -> Option<&str> {
        self.labels.get(code as usize).map(String::as_str)
    }

    /// The code of `label`, if interned.
    pub fn code_of(&self, label: &str) -> Option<u32> {
        self.labels.iter().position(|l| l == label).map(|i| i as u32)
    }

    /// Whether two dictionaries share the same allocation (O(1)).
    pub fn same_allocation(&self, other: &Dictionary) -> bool {
        Arc::ptr_eq(&self.labels, &other.labels)
    }
}

impl PartialEq for Dictionary {
    fn eq(&self, other: &Self) -> bool {
        self.same_allocation(other) || self.labels == other.labels
    }
}

/// One contiguous typed column.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Real-valued observations.
    Continuous(Vec<f64>),
    /// Interned category codes plus their shared label dictionary.
    Nominal {
        /// Per-row codes, indices into `dict`.
        codes: Vec<u32>,
        /// Shared label dictionary.
        dict: Dictionary,
    },
    /// Ordered categorical levels.
    Ordinal(Vec<i64>),
}

impl Column {
    /// The column's feature kind.
    pub fn kind(&self) -> FeatureKind {
        match self {
            Column::Continuous(_) => FeatureKind::Continuous,
            Column::Nominal { .. } => FeatureKind::Nominal,
            Column::Ordinal(_) => FeatureKind::Ordinal,
        }
    }

    /// Number of values in the column.
    pub fn len(&self) -> usize {
        match self {
            Column::Continuous(data) => data.len(),
            Column::Nominal { codes, .. } => codes.len(),
            Column::Ordinal(data) => data.len(),
        }
    }

    /// Whether the column has no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Gathers `rows` into a fresh column; nominal dictionaries are shared.
    fn gather(&self, rows: &[usize]) -> Column {
        match self {
            Column::Continuous(data) => Column::Continuous(rows.iter().map(|&r| data[r]).collect()),
            Column::Ordinal(data) => Column::Ordinal(rows.iter().map(|&r| data[r]).collect()),
            Column::Nominal { codes, dict } => Column::Nominal {
                codes: rows.iter().map(|&r| codes[r]).collect(),
                dict: dict.clone(),
            },
        }
    }
}

/// An immutable typed columnar frame.
///
/// Construct one with [`Frame::new`] from typed column buffers (zero
/// per-row overhead), or row by row through [`FrameBuilder::push_row`].
///
/// # Example
///
/// ```
/// use rainshine_telemetry::frame::{FeatureKind, Field, FrameBuilder, Schema, Value};
///
/// let schema = Schema::new(vec![
///     Field::new("temp", FeatureKind::Continuous),
///     Field::new("sku", FeatureKind::Nominal),
/// ]);
/// let mut b = FrameBuilder::new(schema);
/// b.push_row(vec![Value::Continuous(72.0), Value::Nominal("S1".into())])?;
/// b.push_row(vec![Value::Continuous(80.5), Value::Nominal("S2".into())])?;
/// let frame = b.build()?;
/// assert_eq!(frame.rows(), 2);
/// assert_eq!(frame.continuous("temp")?[1], 80.5);
/// assert_eq!(frame.nominal_label("sku", 1)?, "S2");
/// # Ok::<(), rainshine_telemetry::TelemetryError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    schema: Arc<Schema>,
    columns: Vec<Arc<Column>>,
    rows: usize,
}

impl Frame {
    /// Assembles a frame from typed columns, one per schema field: the
    /// one validating constructor every frame goes through.
    ///
    /// # Errors
    ///
    /// Returns [`TelemetryError::ValueKind`] if a column's kind does not
    /// match its field, [`TelemetryError::RowArity`] if the column count or
    /// any column length disagrees with the rest, and
    /// [`TelemetryError::UnlabelledCode`] if a nominal code has no label in
    /// its column's dictionary.
    pub fn new(schema: Arc<Schema>, columns: Vec<Column>) -> Result<Frame> {
        if columns.len() != schema.len() {
            return Err(TelemetryError::RowArity { expected: schema.len(), got: columns.len() });
        }
        let rows = columns.first().map_or(0, Column::len);
        for (i, (field, col)) in schema.fields().iter().zip(&columns).enumerate() {
            if field.kind != col.kind() {
                return Err(TelemetryError::ValueKind { column: i });
            }
            if col.len() != rows {
                return Err(TelemetryError::RowArity { expected: rows, got: col.len() });
            }
            if let Column::Nominal { codes, dict } = col {
                if let Some(&code) = codes.iter().find(|&&code| code as usize >= dict.len()) {
                    return Err(TelemetryError::UnlabelledCode { column: i, code });
                }
            }
        }
        Ok(Frame { schema, columns: columns.into_iter().map(Arc::new).collect(), rows })
    }

    /// The frame's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Whether the frame has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The column at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// Looks up a column by name.
    ///
    /// # Errors
    ///
    /// Returns [`TelemetryError::UnknownColumn`] if `name` is not in the
    /// schema.
    fn column_by_name(&self, name: &str) -> Result<(usize, &Column)> {
        let idx = self
            .schema
            .index_of(name)
            .ok_or_else(|| TelemetryError::UnknownColumn { name: name.to_owned() })?;
        Ok((idx, self.columns[idx].as_ref()))
    }

    /// The values of a continuous column.
    ///
    /// # Errors
    ///
    /// Returns an error if the column is missing or not continuous.
    pub fn continuous(&self, name: &str) -> Result<&[f64]> {
        match self.column_by_name(name)? {
            (_, Column::Continuous(data)) => Ok(data),
            (_, other) => Err(kind_mismatch(name, "continuous", other)),
        }
    }

    /// The codes of a nominal column (indices into its dictionary).
    ///
    /// # Errors
    ///
    /// Returns an error if the column is missing or not nominal.
    pub fn nominal_codes(&self, name: &str) -> Result<&[u32]> {
        match self.column_by_name(name)? {
            (_, Column::Nominal { codes, .. }) => Ok(codes),
            (_, other) => Err(kind_mismatch(name, "nominal", other)),
        }
    }

    /// The shared label dictionary of a nominal column.
    ///
    /// # Errors
    ///
    /// Returns an error if the column is missing or not nominal.
    pub fn dictionary(&self, name: &str) -> Result<&Dictionary> {
        match self.column_by_name(name)? {
            (_, Column::Nominal { dict, .. }) => Ok(dict),
            (_, other) => Err(kind_mismatch(name, "nominal", other)),
        }
    }

    /// The values of an ordinal column.
    ///
    /// # Errors
    ///
    /// Returns an error if the column is missing or not ordinal.
    pub fn ordinal(&self, name: &str) -> Result<&[i64]> {
        match self.column_by_name(name)? {
            (_, Column::Ordinal(data)) => Ok(data),
            (_, other) => Err(kind_mismatch(name, "ordinal", other)),
        }
    }

    /// The nominal label of `row` in column `name`.
    ///
    /// # Errors
    ///
    /// Returns an error if the column is missing or not nominal.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    pub fn nominal_label(&self, name: &str, row: usize) -> Result<&str> {
        let code = self.nominal_codes(name)?[row];
        Ok(&self.dictionary(name)?.labels()[code as usize])
    }

    /// Row indices whose nominal column equals `label`; empty if the label
    /// never occurs.
    ///
    /// # Errors
    ///
    /// Returns an error if the column is missing or not nominal.
    pub fn filter_nominal(&self, name: &str, label: &str) -> Result<Vec<usize>> {
        let Some(code) = self.dictionary(name)?.code_of(label) else {
            return Ok(Vec::new());
        };
        Ok(self
            .nominal_codes(name)?
            .iter()
            .enumerate()
            .filter_map(|(i, &c)| (c == code).then_some(i))
            .collect())
    }

    /// Materializes a new frame containing only `rows` (in the given
    /// order). Schema and dictionaries are shared, not cloned.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn subset(&self, rows: &[usize]) -> Frame {
        Frame {
            schema: Arc::clone(&self.schema),
            columns: self.columns.iter().map(|c| Arc::new(c.gather(rows))).collect(),
            rows: rows.len(),
        }
    }

    /// A frame equal to this one except that continuous column `name`
    /// holds `values`. Every other column, the schema and the dictionaries
    /// are shared, not copied.
    ///
    /// # Errors
    ///
    /// Returns [`TelemetryError::UnknownColumn`] if `name` is not in the
    /// schema, [`TelemetryError::KindMismatch`] if it is not continuous, and
    /// [`TelemetryError::RowArity`] if `values` does not hold one value per
    /// row.
    pub fn with_continuous(&self, name: &str, values: Vec<f64>) -> Result<Frame> {
        let (idx, column) = self.column_by_name(name)?;
        if column.kind() != FeatureKind::Continuous {
            return Err(kind_mismatch(name, "continuous", column));
        }
        if values.len() != self.rows {
            return Err(TelemetryError::RowArity { expected: self.rows, got: values.len() });
        }
        let mut columns = self.columns.clone();
        columns[idx] = Arc::new(Column::Continuous(values));
        Ok(Frame { schema: Arc::clone(&self.schema), columns, rows: self.rows })
    }

    /// Projects the frame onto `names`, in that order. The columns are
    /// shared, not copied; the projection gets its own schema.
    ///
    /// # Errors
    ///
    /// Returns [`TelemetryError::UnknownColumn`] for a name not in the
    /// schema and [`TelemetryError::DuplicateColumn`] for a name given
    /// twice.
    pub fn select(&self, names: &[&str]) -> Result<Frame> {
        let mut fields = Vec::with_capacity(names.len());
        let mut columns = Vec::with_capacity(names.len());
        for (i, &name) in names.iter().enumerate() {
            if names[..i].contains(&name) {
                return Err(TelemetryError::DuplicateColumn { name: name.to_owned() });
            }
            let (idx, _) = self.column_by_name(name)?;
            fields.push(self.schema.fields[idx].clone());
            columns.push(Arc::clone(&self.columns[idx]));
        }
        Ok(Frame { schema: Arc::new(Schema { fields }), columns, rows: self.rows })
    }
}

fn kind_mismatch(name: &str, requested: &'static str, actual: &Column) -> TelemetryError {
    TelemetryError::KindMismatch { name: name.to_owned(), requested, actual: actual.kind().name() }
}

/// A nominal column being filled: per-row codes plus the interner that
/// grows its label list in first-seen order.
///
/// Emission loops intern each distinct label once and then push the
/// returned code per row, so a repeated label costs one `Vec<u32>` push
/// instead of a `String` allocation plus a hash. [`Frame::new`] rejects a
/// code that was never interned.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
///
/// use rainshine_telemetry::frame::{Column, FeatureKind, Field, Frame, NominalColumn, Schema};
///
/// let schema = Schema::new(vec![
///     Field::new("temp", FeatureKind::Continuous),
///     Field::new("sku", FeatureKind::Nominal),
/// ]);
/// let (mut temp, mut sku) = (Vec::new(), NominalColumn::default());
/// let s1 = sku.intern("S1");
/// for day in 0..3 {
///     temp.push(65.0 + day as f64);
///     sku.push_code(s1);
/// }
/// let frame = Frame::new(Arc::new(schema), vec![Column::Continuous(temp), sku.finish()])?;
/// assert_eq!(frame.rows(), 3);
/// assert_eq!(frame.nominal_codes("sku")?, &[0, 0, 0]);
/// # Ok::<(), rainshine_telemetry::TelemetryError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct NominalColumn {
    codes: Vec<u32>,
    labels: Vec<String>,
    interner: HashMap<String, u32>,
}

impl NominalColumn {
    /// Interns `label` (first-seen order) and returns its code without
    /// pushing a row.
    pub fn intern(&mut self, label: &str) -> u32 {
        if let Some(&code) = self.interner.get(label) {
            return code;
        }
        let code = self.labels.len() as u32;
        self.labels.push(label.to_owned());
        self.interner.insert(label.to_owned(), code);
        code
    }

    /// Reserves room for at least `additional` more codes.
    pub fn reserve(&mut self, additional: usize) {
        self.codes.reserve_exact(additional);
    }

    /// Appends a code returned by [`NominalColumn::intern`].
    pub fn push_code(&mut self, code: u32) {
        self.codes.push(code);
    }

    /// The finished column, its labels in code order.
    pub fn finish(self) -> Column {
        Column::Nominal { codes: self.codes, dict: Dictionary::new(self.labels) }
    }
}

/// One column of a [`FrameBuilder`], filled a row at a time.
#[derive(Debug, Clone)]
enum ColumnBuilder {
    Continuous(Vec<f64>),
    Nominal(NominalColumn),
    Ordinal(Vec<i64>),
}

impl ColumnBuilder {
    fn accepts(&self, value: &Value) -> bool {
        matches!(
            (self, value),
            (ColumnBuilder::Continuous(_), Value::Continuous(_))
                | (ColumnBuilder::Nominal(_), Value::Nominal(_))
                | (ColumnBuilder::Ordinal(_), Value::Ordinal(_))
        )
    }

    fn finish(self) -> Column {
        match self {
            ColumnBuilder::Continuous(data) => Column::Continuous(data),
            ColumnBuilder::Nominal(column) => column.finish(),
            ColumnBuilder::Ordinal(data) => Column::Ordinal(data),
        }
    }
}

/// Builds a [`Frame`] row by row from cell values: the row-oriented
/// reference path that frames assembled from typed buffers through
/// [`Frame::new`] are checked against.
#[derive(Debug, Clone)]
pub struct FrameBuilder {
    schema: Arc<Schema>,
    columns: Vec<ColumnBuilder>,
}

impl FrameBuilder {
    /// Creates a builder with one empty column per schema field.
    pub fn new(schema: Schema) -> Self {
        let columns = schema
            .fields()
            .iter()
            .map(|f| match f.kind {
                FeatureKind::Continuous => ColumnBuilder::Continuous(Vec::new()),
                FeatureKind::Nominal => ColumnBuilder::Nominal(NominalColumn::default()),
                FeatureKind::Ordinal => ColumnBuilder::Ordinal(Vec::new()),
            })
            .collect();
        FrameBuilder { schema: Arc::new(schema), columns }
    }

    /// Appends one row from cell values.
    ///
    /// # Errors
    ///
    /// Returns [`TelemetryError::RowArity`] for a wrong-length row and
    /// [`TelemetryError::ValueKind`] if a value does not match its
    /// column's kind. A failed push leaves the builder intact.
    pub fn push_row(&mut self, row: Vec<Value>) -> Result<&mut Self> {
        if row.len() != self.schema.len() {
            return Err(TelemetryError::RowArity { expected: self.schema.len(), got: row.len() });
        }
        // Validate before mutating so a failed push leaves the builder intact.
        if let Some(column) = self.columns.iter().zip(&row).position(|(col, v)| !col.accepts(v)) {
            return Err(TelemetryError::ValueKind { column });
        }
        for (col, v) in self.columns.iter_mut().zip(row) {
            match (col, v) {
                (ColumnBuilder::Continuous(data), Value::Continuous(x)) => data.push(x),
                (ColumnBuilder::Ordinal(data), Value::Ordinal(x)) => data.push(x),
                (ColumnBuilder::Nominal(column), Value::Nominal(label)) => {
                    let code = column.intern(&label);
                    column.push_code(code);
                }
                _ => unreachable!("row kinds were validated above"),
            }
        }
        Ok(self)
    }

    /// Finalizes the frame through [`Frame::new`].
    ///
    /// # Errors
    ///
    /// As [`Frame::new`]; rows pushed through [`FrameBuilder::push_row`]
    /// always pass its checks.
    pub fn build(self) -> Result<Frame> {
        Frame::new(self.schema, self.columns.into_iter().map(ColumnBuilder::finish).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_schema() -> Schema {
        Schema::new(vec![
            Field::new("x", FeatureKind::Continuous),
            Field::new("k", FeatureKind::Nominal),
            Field::new("o", FeatureKind::Ordinal),
        ])
    }

    fn sample_frame() -> Frame {
        let (mut x, mut k, mut o) = (Vec::new(), NominalColumn::default(), Vec::new());
        for (xv, kv, ov) in [(1.0, "a", 0i64), (2.0, "b", 1), (3.0, "a", 2), (4.0, "c", 0)] {
            x.push(xv);
            let code = k.intern(kv);
            k.push_code(code);
            o.push(ov);
        }
        let columns = vec![Column::Continuous(x), k.finish(), Column::Ordinal(o)];
        Frame::new(Arc::new(sample_schema()), columns).unwrap()
    }

    #[test]
    fn columnar_assembly_matches_row_assembly() {
        let f = sample_frame();
        assert_eq!(f.rows(), 4);
        assert_eq!(f.continuous("x").unwrap(), &[1.0, 2.0, 3.0, 4.0]);
        // Interning reuses the first-seen code for a repeated label.
        assert_eq!(f.nominal_codes("k").unwrap(), &[0, 1, 0, 2]);
        assert_eq!(f.dictionary("k").unwrap().labels(), &["a", "b", "c"]);
        assert_eq!(f.nominal_label("k", 3).unwrap(), "c");
        assert_eq!(f.ordinal("o").unwrap(), &[0, 1, 2, 0]);

        let mut b = FrameBuilder::new(sample_schema());
        for (x, k, o) in [(1.0, "a", 0i64), (2.0, "b", 1), (3.0, "a", 2), (4.0, "c", 0)] {
            b.push_row(vec![x.into(), k.into(), o.into()]).unwrap();
        }
        assert_eq!(b.build().unwrap(), f);
    }

    #[test]
    fn kind_mismatch_errors() {
        let f = sample_frame();
        assert!(matches!(f.continuous("k"), Err(TelemetryError::KindMismatch { .. })));
        assert!(matches!(f.nominal_codes("x"), Err(TelemetryError::KindMismatch { .. })));
        assert!(matches!(f.nominal_label("o", 0), Err(TelemetryError::KindMismatch { .. })));
        assert!(matches!(f.ordinal("k"), Err(TelemetryError::KindMismatch { .. })));
        assert!(matches!(f.continuous("nope"), Err(TelemetryError::UnknownColumn { .. })));
    }

    #[test]
    fn push_row_validates_arity_and_kind() {
        let mut b = FrameBuilder::new(Schema::new(vec![Field::new("x", FeatureKind::Continuous)]));
        assert!(matches!(
            b.push_row(vec![]),
            Err(TelemetryError::RowArity { expected: 1, got: 0 })
        ));
        assert!(matches!(
            b.push_row(vec![Value::Nominal("a".into())]),
            Err(TelemetryError::ValueKind { column: 0 })
        ));
        // Failed pushes leave the builder usable.
        b.push_row(vec![Value::Continuous(1.0)]).unwrap();
        assert_eq!(b.build().unwrap().rows(), 1);
    }

    #[test]
    #[should_panic(expected = "duplicate field name")]
    fn schema_rejects_duplicates() {
        Schema::new(vec![
            Field::new("x", FeatureKind::Continuous),
            Field::new("x", FeatureKind::Nominal),
        ]);
    }

    #[test]
    fn filter_nominal_selects_matching_rows() {
        let f = sample_frame();
        assert_eq!(f.filter_nominal("k", "a").unwrap(), vec![0, 2]);
        assert_eq!(f.filter_nominal("k", "zzz").unwrap(), Vec::<usize>::new());
        assert!(matches!(f.filter_nominal("x", "a"), Err(TelemetryError::KindMismatch { .. })));
    }

    #[test]
    fn intern_then_push_code_skips_reinterning() {
        let mut k = NominalColumn::default();
        let a = k.intern("a");
        let b = k.intern("b");
        assert_eq!(k.intern("a"), a);
        k.push_code(b);
        k.push_code(a);
        let schema = Schema::new(vec![Field::new("k", FeatureKind::Nominal)]);
        let f = Frame::new(Arc::new(schema), vec![k.finish()]).unwrap();
        assert_eq!(f.nominal_codes("k").unwrap(), &[1, 0]);
        assert_eq!(f.dictionary("k").unwrap().labels(), &["a", "b"]);
    }

    #[test]
    fn subset_shares_schema_and_dictionaries() {
        let f = sample_frame();
        let s = f.subset(&[3, 0]);
        assert_eq!(s.rows(), 2);
        assert_eq!(s.continuous("x").unwrap(), &[4.0, 1.0]);
        assert_eq!(s.nominal_codes("k").unwrap(), &[2, 0]);
        assert_eq!(s.nominal_label("k", 0).unwrap(), "c");
        assert!(s.dictionary("k").unwrap().same_allocation(f.dictionary("k").unwrap()));
        assert!(Arc::ptr_eq(&s.schema, &f.schema));
    }

    #[test]
    fn with_continuous_replaces_one_column_and_shares_the_rest() {
        let f = sample_frame();
        let g = f.with_continuous("x", vec![9.0, 8.0, 7.0, 6.0]).unwrap();
        assert_eq!(g.continuous("x").unwrap(), &[9.0, 8.0, 7.0, 6.0]);
        assert_eq!(f.continuous("x").unwrap(), &[1.0, 2.0, 3.0, 4.0]);
        assert!(Arc::ptr_eq(&g.schema, &f.schema));
        assert!(!Arc::ptr_eq(&g.columns[0], &f.columns[0]));
        assert!(Arc::ptr_eq(&g.columns[1], &f.columns[1]));
        assert!(Arc::ptr_eq(&g.columns[2], &f.columns[2]));
        // A subset of the derived frame equals a subset of the same frame
        // built from scratch.
        let mut b = FrameBuilder::new(sample_schema());
        for (x, k, o) in [(9.0, "a", 0i64), (8.0, "b", 1), (7.0, "a", 2), (6.0, "c", 0)] {
            b.push_row(vec![x.into(), k.into(), o.into()]).unwrap();
        }
        let fresh = b.build().unwrap();
        assert_eq!(g, fresh);
        assert_eq!(g.subset(&[3, 1, 1]), fresh.subset(&[3, 1, 1]));
    }

    #[test]
    fn with_continuous_rejects_bad_input() {
        let f = sample_frame();
        assert_eq!(
            f.with_continuous("nope", vec![0.0; 4]),
            Err(TelemetryError::UnknownColumn { name: "nope".into() })
        );
        assert_eq!(
            f.with_continuous("o", vec![0.0; 4]),
            Err(TelemetryError::KindMismatch {
                name: "o".into(),
                requested: "continuous",
                actual: "ordinal"
            })
        );
        assert!(matches!(
            f.with_continuous("k", vec![0.0; 4]),
            Err(TelemetryError::KindMismatch { .. })
        ));
        assert_eq!(
            f.with_continuous("x", vec![0.0; 3]),
            Err(TelemetryError::RowArity { expected: 4, got: 3 })
        );
    }

    #[test]
    fn select_projects_without_copying() {
        let f = sample_frame();
        let p = f.select(&["o", "x"]).unwrap();
        assert_eq!(p.rows(), 4);
        let names: Vec<_> = p.schema().fields().iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["o", "x"]);
        assert!(Arc::ptr_eq(&p.columns[0], &f.columns[2]));
        assert!(Arc::ptr_eq(&p.columns[1], &f.columns[0]));
        assert!(matches!(p.nominal_codes("k"), Err(TelemetryError::UnknownColumn { .. })));
        assert_eq!(p.subset(&[2, 0]).continuous("x").unwrap(), &[3.0, 1.0]);
        assert_eq!(
            f.select(&["x", "zzz"]),
            Err(TelemetryError::UnknownColumn { name: "zzz".into() })
        );
        assert_eq!(
            f.select(&["x", "k", "x"]),
            Err(TelemetryError::DuplicateColumn { name: "x".into() })
        );
    }

    #[test]
    fn frame_new_validates_shape() {
        let schema = Arc::new(sample_schema());
        // Wrong column count.
        assert!(matches!(
            Frame::new(Arc::clone(&schema), vec![Column::Continuous(vec![1.0])]),
            Err(TelemetryError::RowArity { .. })
        ));
        // Kind mismatch.
        let cols = vec![
            Column::Ordinal(vec![1]),
            Column::Nominal { codes: vec![0], dict: Dictionary::new(vec!["a".into()]) },
            Column::Ordinal(vec![1]),
        ];
        assert!(matches!(
            Frame::new(Arc::clone(&schema), cols),
            Err(TelemetryError::ValueKind { column: 0 })
        ));
        // Ragged lengths.
        let cols = vec![
            Column::Continuous(vec![1.0, 2.0]),
            Column::Nominal { codes: vec![0], dict: Dictionary::new(vec!["a".into()]) },
            Column::Ordinal(vec![1, 2]),
        ];
        assert!(matches!(
            Frame::new(Arc::clone(&schema), cols),
            Err(TelemetryError::RowArity { .. })
        ));
        // A nominal code with no label in its dictionary.
        let cols = vec![
            Column::Continuous(vec![1.0, 2.0]),
            Column::Nominal { codes: vec![0, 1], dict: Dictionary::new(vec!["a".into()]) },
            Column::Ordinal(vec![1, 2]),
        ];
        assert_eq!(
            Frame::new(schema, cols),
            Err(TelemetryError::UnlabelledCode { column: 1, code: 1 })
        );
    }

    #[test]
    fn dictionary_equality_and_sharing() {
        let d1 = Dictionary::new(vec!["a".into(), "b".into()]);
        let d2 = d1.clone();
        let d3 = Dictionary::new(vec!["a".into(), "b".into()]);
        assert!(d1.same_allocation(&d2));
        assert!(!d1.same_allocation(&d3));
        assert_eq!(d1, d3);
        assert_eq!(d1.code_of("b"), Some(1));
        assert_eq!(d1.label(0), Some("a"));
        assert_eq!(d1.label(9), None);
    }
}
