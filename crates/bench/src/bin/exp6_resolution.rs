//! E6 — the conflict-resolution function catalog (§2.4): per-function
//! correctness against an oracle on controlled clusters, plus throughput.

use hummer_bench::{f3, render_table};
use hummer_engine::{Row, Schema, Table, Value, SOURCE_ID_COLUMN};
use hummer_fusion::{fuse, FunctionRegistry, FusionSpec, ResolutionSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Build a table of `clusters` clusters, each with 2–6 member tuples whose
/// `v` column carries controlled conflicts; `recency` is a companion date.
fn clustered_table(clusters: usize, seed: u64) -> Table {
    let mut rng = StdRng::seed_from_u64(seed);
    let schema = Schema::of_names(&["key", "v", "recency", SOURCE_ID_COLUMN]).unwrap();
    let mut t = Table::empty("C", schema);
    for k in 0..clusters {
        let size = rng.gen_range(2..=6);
        // The oracle value is k*10; conflicting variants are k*10 + delta.
        for m in 0..size {
            let v = if m == 0 {
                Value::Int((k * 10) as i64) // first value = the oracle
            } else if rng.gen_bool(0.3) {
                Value::Null
            } else {
                Value::Int((k * 10) as i64 + rng.gen_range(0..3))
            };
            let day = 1 + ((m * 7 + k) % 27) as u8;
            t.push(Row::from_values(vec![
                Value::Int(k as i64),
                v,
                Value::Date(hummer_engine::Date::new(2005, 3, day).unwrap()),
                Value::text(format!("s{m}")),
            ]))
            .unwrap();
        }
    }
    t
}

/// What the oracle expects per function, computed directly from the
/// cluster's value list.
fn oracle(func: &str, values: &[&Value], rows: &[(&Value, &Value)]) -> Value {
    let non_null: Vec<&Value> = values.iter().copied().filter(|v| !v.is_null()).collect();
    match func {
        "coalesce" => non_null
            .first()
            .map(|v| (*v).clone())
            .unwrap_or(Value::Null),
        "first" => values.first().map(|v| (*v).clone()).unwrap_or(Value::Null),
        "last" => values.last().map(|v| (*v).clone()).unwrap_or(Value::Null),
        "min" => non_null
            .iter()
            .min_by(|a, b| a.cmp_total(b))
            .map(|v| (*v).clone())
            .unwrap_or(Value::Null),
        "max" => non_null
            .iter()
            .max_by(|a, b| a.cmp_total(b))
            .map(|v| (*v).clone())
            .unwrap_or(Value::Null),
        "count" => Value::Int(non_null.len() as i64),
        "sum" => {
            if non_null.is_empty() {
                Value::Null
            } else {
                Value::Int(non_null.iter().map(|v| v.as_f64().unwrap() as i64).sum())
            }
        }
        "vote" => {
            // Most frequent non-null value, first-seen tie-break (the
            // default Vote behaviour).
            let mut seen: Vec<(&Value, usize)> = Vec::new();
            for v in &non_null {
                match seen.iter_mut().find(|(u, _)| u.group_eq(v)) {
                    Some((_, c)) => *c += 1,
                    None => seen.push((v, 1)),
                }
            }
            let mut best: Option<(&Value, usize)> = None;
            for (v, c) in seen {
                if best.is_none_or(|(_, bc)| c > bc) {
                    best = Some((v, c));
                }
            }
            best.map(|(v, _)| v.clone()).unwrap_or(Value::Null)
        }
        "mostrecent" => {
            // max recency among non-null values
            rows.iter()
                .filter(|(v, _)| !v.is_null())
                .max_by(|a, b| a.1.cmp_total(b.1))
                .map(|(v, _)| (*v).clone())
                .unwrap_or(Value::Null)
        }
        other => panic!("no oracle for {other}"),
    }
}

fn main() {
    let registry = FunctionRegistry::standard();
    let t = clustered_table(500, 99);
    let key_idx = t.resolve("key").unwrap();
    let v_idx = t.resolve("v").unwrap();
    let r_idx = t.resolve("recency").unwrap();

    // Collect clusters for the oracle.
    let mut clusters: std::collections::BTreeMap<i64, Vec<usize>> = Default::default();
    for (i, row) in t.rows().iter().enumerate() {
        if let Value::Int(k) = row[key_idx] {
            clusters.entry(k).or_default().push(i);
        }
    }

    println!("E6 — resolution-function correctness and throughput (500 clusters)\n");
    let mut rows = Vec::new();
    for func in [
        "coalesce",
        "first",
        "last",
        "min",
        "max",
        "sum",
        "count",
        "vote",
        "mostrecent",
    ] {
        let spec = if func == "mostrecent" {
            ResolutionSpec::with_args("mostrecent", vec!["recency".into()])
        } else {
            ResolutionSpec::named(func)
        };
        let fspec = FusionSpec::by_key(vec!["key"]).resolve("v", spec);
        let t0 = Instant::now();
        let fused = fuse(&t, &fspec, &registry).unwrap();
        let elapsed = t0.elapsed();

        // Check against the oracle, cluster by cluster.
        let mut correct = 0usize;
        let fkey = fused.table.resolve("key").unwrap();
        let fv = fused.table.resolve("v").unwrap();
        for out_row in fused.table.rows() {
            let k = match out_row[fkey] {
                Value::Int(k) => k,
                _ => continue,
            };
            let members = &clusters[&k];
            let values: Vec<&Value> = members.iter().map(|&i| &t.rows()[i][v_idx]).collect();
            let pairs: Vec<(&Value, &Value)> = members
                .iter()
                .map(|&i| (&t.rows()[i][v_idx], &t.rows()[i][r_idx]))
                .collect();
            if oracle(func, &values, &pairs).group_eq(&out_row[fv]) {
                correct += 1;
            }
        }
        let total = fused.table.len();
        rows.push(vec![
            func.to_string(),
            format!("{correct}/{total}"),
            f3(correct as f64 / total as f64),
            format!("{:.2}", elapsed.as_secs_f64() * 1e3),
        ]);
    }
    println!(
        "{}",
        render_table(
            &["function", "correct", "accuracy", "ms/500 clusters"],
            &rows
        )
    );

    // Throughput of the full fusion operator.
    println!("\nE6b — fusion operator throughput\n");
    let mut rows = Vec::new();
    for clusters in [1000usize, 5000, 20000] {
        let t = clustered_table(clusters, 7);
        let spec = FusionSpec::by_key(vec!["key"]).resolve("v", ResolutionSpec::named("vote"));
        let t0 = Instant::now();
        let fused = fuse(&t, &spec, &registry).unwrap();
        let elapsed = t0.elapsed();
        rows.push(vec![
            t.len().to_string(),
            fused.table.len().to_string(),
            format!("{:.1}", elapsed.as_secs_f64() * 1e3),
            format!("{:.0}", t.len() as f64 / elapsed.as_secs_f64()),
        ]);
    }
    println!(
        "{}",
        render_table(&["input rows", "objects", "ms", "rows/s"], &rows)
    );
}
