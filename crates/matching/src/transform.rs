//! The data-transformation phase: rename matched attributes to the
//! preferred schema, tag every table with a `sourceID`, and compute the
//! full outer union (paper §2.2-§2.3 and §3).

use crate::correspondence::MatchResult;
use hummer_engine::ops::{outer_union, outer_union_columnar};
use hummer_engine::{
    Column, ColumnData, ColumnType, ColumnarBatch, ExecutionLayout, Result, Schema, Table, Value,
    SOURCE_ID_COLUMN,
};

/// Rename the matched columns of `table` to the preferred names recorded in
/// `result` (which must have been produced with `table` on the right side).
///
/// If a rename target collides with an *unmatched* existing column of the
/// same table, that unmatched column is first moved aside to
/// `<table>_<name>` so the transformation stays total; the collision is
/// rare (it means the table reused a preferred name for something else).
pub fn apply_renames(table: &Table, result: &MatchResult) -> Result<Table> {
    let renames = result.rename_map();
    let mut out = table.clone();
    for (from, to) in &renames {
        if from.eq_ignore_ascii_case(to) {
            continue; // already carries the preferred name
        }
        if out.schema().contains(to) && !renames.contains_key(to) {
            // Unmatched column squats on the preferred name: move it aside.
            let aside = format!("{}_{}", table.name(), to);
            out = hummer_engine::ops::rename_column(&out, to, &aside)?;
        }
        out = hummer_engine::ops::rename_column(&out, from, to)?;
    }
    Ok(out)
}

/// Add the `sourceID` column carrying `alias` to every row.
pub fn add_source_id(table: &Table, alias: &str) -> Result<Table> {
    let mut out = table.clone();
    out.add_column(Column::new(SOURCE_ID_COLUMN, ColumnType::Text), |_, _| {
        Value::text(alias)
    })?;
    Ok(out)
}

/// Run the entire transformation for a set of tables: the first table is
/// the preferred schema; `matches[i]` must be the match result of
/// `tables[0]` vs `tables[i + 1]`. Produces the `sourceID`-tagged full
/// outer union, named `name`.
pub fn integrate(tables: &[&Table], matches: &[MatchResult], name: &str) -> Result<Table> {
    assert_eq!(
        matches.len() + 1,
        tables.len().max(1),
        "need one match result per non-preferred table"
    );
    let mut transformed: Vec<Table> = Vec::with_capacity(tables.len());
    for (i, t) in tables.iter().enumerate() {
        let renamed = if i == 0 {
            (*t).clone()
        } else {
            apply_renames(t, &matches[i - 1])?
        };
        transformed.push(add_source_id(&renamed, t.name())?);
    }
    let refs: Vec<&Table> = transformed.iter().collect();
    outer_union(&refs, name)
}

/// The schema [`apply_renames`] would produce, computed without touching
/// any rows: the renames run on a row-less shell of the table, so every
/// rule (case-insensitive skip, move-aside on collision) is *the* same
/// code path and the result can never drift from the row transform.
fn renamed_schema(table: &Table, result: &MatchResult) -> Result<Schema> {
    let shell = Table::empty(table.name(), table.schema().clone());
    Ok(apply_renames(&shell, result)?.schema().clone())
}

/// [`integrate`] in columnar form: renames are applied to schemas only,
/// each source's cells are read into columns exactly once, the constant
/// `sourceID` column is materialized directly, and the outer union splices
/// whole columns instead of cloning per cell. Output is **bit-identical**
/// to [`integrate`] (same schema, same rows, same order).
pub fn integrate_columnar(tables: &[&Table], matches: &[MatchResult], name: &str) -> Result<Table> {
    assert_eq!(
        matches.len() + 1,
        tables.len().max(1),
        "need one match result per non-preferred table"
    );
    let mut batches: Vec<ColumnarBatch> = Vec::with_capacity(tables.len());
    for (i, t) in tables.iter().enumerate() {
        let schema = if i == 0 {
            t.schema().clone()
        } else {
            renamed_schema(t, &matches[i - 1])?
        };
        let schema = schema.with_column(Column::new(SOURCE_ID_COLUMN, ColumnType::Text))?;
        let len = t.len();
        let mut columns: Vec<ColumnData> = (0..t.schema().len())
            .map(|c| ColumnData::from_values(t.rows().iter().map(|r| r[c].clone()).collect()))
            .collect();
        columns.push(ColumnData::Text {
            values: vec![t.name().to_string(); len],
            validity: vec![true; len],
        });
        batches.push(ColumnarBatch::from_columns(t.name(), schema, columns)?);
    }
    outer_union_columnar(batches, name)?.into_table()
}

/// Dispatch between [`integrate`] and [`integrate_columnar`] — one knob
/// for the pipeline; both layouts produce bit-identical output.
pub fn integrate_with_layout(
    tables: &[&Table],
    matches: &[MatchResult],
    name: &str,
    layout: ExecutionLayout,
) -> Result<Table> {
    match layout {
        ExecutionLayout::Row => integrate(tables, matches, name),
        ExecutionLayout::Columnar => integrate_columnar(tables, matches, name),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dumas::SniffConfig;
    use crate::matcher::{match_tables, MatcherConfig};
    use hummer_engine::table;

    fn cfg() -> MatcherConfig {
        MatcherConfig {
            sniff: SniffConfig {
                min_similarity: 0.2,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    fn ee() -> Table {
        table! {
            "EE" => ["Name", "Age"];
            ["John Smith", 24],
            ["Mary Jones", 22],
        }
    }

    fn cs() -> Table {
        table! {
            "CS" => ["FullName", "Years", "Semester"];
            ["John Smith", 24, 5],
            ["Marie Curie", 31, 9],
        }
    }

    #[test]
    fn renames_to_preferred_schema() {
        let m = match_tables(&ee(), &cs(), &cfg());
        let renamed = apply_renames(&cs(), &m).unwrap();
        assert!(renamed.schema().contains("Name"));
        assert!(renamed.schema().contains("Age"));
        assert!(renamed.schema().contains("Semester")); // unmatched survives
    }

    #[test]
    fn source_id_added_with_alias() {
        let t = add_source_id(&ee(), "EE").unwrap();
        assert!(t.schema().contains(SOURCE_ID_COLUMN));
        assert_eq!(t.cell(0, 2), &Value::text("EE"));
    }

    #[test]
    fn integrate_produces_aligned_outer_union() {
        let e = ee();
        let c = cs();
        let m = match_tables(&e, &c, &cfg());
        let u = integrate(&[&e, &c], &[m], "Students").unwrap();
        // Preferred names + unmatched extras + sourceID.
        assert!(u.schema().contains("Name"));
        assert!(u.schema().contains("Age"));
        assert!(u.schema().contains("Semester"));
        assert!(u.schema().contains(SOURCE_ID_COLUMN));
        assert_eq!(u.len(), 4);
        // EE rows have NULL semester; CS rows have values.
        let name_idx = u.resolve("Name").unwrap();
        let sem_idx = u.resolve("Semester").unwrap();
        let sid_idx = u.resolve(SOURCE_ID_COLUMN).unwrap();
        for row in u.rows() {
            if row[sid_idx] == Value::text("EE") {
                assert!(row[sem_idx].is_null());
            } else {
                assert!(!row[name_idx].is_null());
            }
        }
    }

    #[test]
    fn collision_with_unmatched_column_moves_it_aside() {
        // Right table has "Name" (address label, unmatched) and "Person"
        // (actual name). Person→Name must not clobber the squatter.
        let l = table! { "L" => ["Name"]; ["John Smith"], ["Mary Jones"] };
        let r = table! {
            "R" => ["Person", "Name"];
            ["John Smith", "12 Main St"],
            ["Mary Jones", "34 Side Rd"],
        };
        let mut m = match_tables(&l, &r, &cfg());
        // Force the correspondence we are testing (instance data may or may
        // not find it alone).
        m.correspondences.clear();
        m.add("Name", "Person", 0.9);
        let out = apply_renames(&r, &m).unwrap();
        assert!(out.schema().contains("Name"));
        assert!(out.schema().contains("R_Name"));
        let name_idx = out.resolve("Name").unwrap();
        assert_eq!(out.cell(0, name_idx), &Value::text("John Smith"));
    }

    #[test]
    fn integrate_columnar_matches_row_integrate() {
        let e = ee();
        let c = cs();
        let m = match_tables(&e, &c, &cfg());
        let matches = std::slice::from_ref(&m);
        let row_u = integrate(&[&e, &c], matches, "Students").unwrap();
        let col_u = integrate_columnar(&[&e, &c], matches, "Students").unwrap();
        assert_eq!(row_u.schema(), col_u.schema());
        assert_eq!(row_u.rows(), col_u.rows());
        assert_eq!(row_u.name(), col_u.name());
        for layout in [ExecutionLayout::Row, ExecutionLayout::Columnar] {
            let u = integrate_with_layout(&[&e, &c], matches, "Students", layout).unwrap();
            assert_eq!(u.rows(), row_u.rows());
        }
    }

    #[test]
    fn integrate_single_table_just_tags_source() {
        let e = ee();
        let u = integrate(&[&e], &[], "U").unwrap();
        assert_eq!(u.len(), 2);
        assert!(u.schema().contains(SOURCE_ID_COLUMN));
    }

    #[test]
    #[should_panic(expected = "one match result per")]
    fn integrate_wrong_match_count_panics() {
        let e = ee();
        let c = cs();
        let _ = integrate(&[&e, &c], &[], "U");
    }
}
